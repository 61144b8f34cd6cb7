"""Homogeneous bivariate polynomials, linear forms, arrangements, derivations.

Coefficient convention: a homogeneous polynomial of degree d is stored as
the tuple (c_0, ..., c_d) meaning sum(c_i * x**i * y**(d - i)).  The zero
polynomial is the empty tuple and carries no degree.

A Derivation is the integer images of its coefficients, through the
field's linalg.Domain (Derivation.cleared), and the verification kernels
run on them: the dependence and proportionality predicates, the product
with linear forms of the basis construction, Saito determinants, defining
polynomials and the valuations along each line behind module membership
(Derivation.valuations).  Field elements are built only where something
reads P or Q: to print a derivation, in verify_saito's scalar, and in the
HomogPoly arithmetic, which the tests keep as their oracle.  Nothing
is evaluated at a point: dependence compares the leading terms of P/Q at
x = 0 and at y = 0 (Derivation.ends) and convolves the full determinant
only where those agree, and dermod's Saito certificate reads one
determinant coefficient.

The field arithmetic of derivations (sum, scalar and polynomial
multiples), the product of two HomogPolys and the linear form as a
HomogPoly are the tests' own, in tests/helpers.py.  apply_derivation, linear_form_multiplicity and the
division it repeats are the tests' membership oracle; they stay here
because the benchmark's tracer (perfbench/tracer.py) binds them.
"""

from __future__ import annotations

import functools as _functools
import json
from typing import List, Optional, Sequence, Tuple

from .errors import (
    ExactDivisionError,
    LengthMismatch,
    ParseError,
    ProportionalForms,
    ZeroPolynomial,
)
from .field import FieldSpec, Scalar
from .linalg import domain_of
from .record import Frozen, set_field


class LinearForm(Frozen):
    """alpha = a*x + b*y, normalized so the first nonzero of (a, b) is 1."""

    _fields = ("a", "b")  # no __slots__: images is a cached_property

    def __init__(self, a: Scalar, b: Scalar):
        set_field(self, "a", a)
        set_field(self, "b", b)

    @classmethod
    def make(cls, fs: FieldSpec, a, b) -> "LinearForm":
        a = fs.coerce(a)
        b = fs.coerce(b)
        if not a and not b:
            raise ValueError("linear form must be nonzero")
        inv = 1 / (a if a else b)
        return cls(a * inv, b * inv)

    def proportional(self, other: "LinearForm") -> bool:
        # both normalized, so proportional means equal
        return self.a == other.a and self.b == other.b

    @_functools.cached_property
    def images(self):
        """([b, a], den): the form's coefficients from the y-power end as
        integer images over den, so den*alpha = a*x + b*y on them.

        Computed once per object.
        """
        return domain_of(self.a).clear((self.b, self.a))


class Arrangement(Frozen):
    """An ordered set of pairwise distinct lines through the origin."""

    _fields = ("field", "forms", "names")  # no __slots__: _canonical_hash is cached

    def __init__(self, field: FieldSpec, forms: Tuple[LinearForm, ...],
                 names: Optional[Tuple[str, ...]] = None):
        if len(forms) < 1:
            raise ValueError("arrangement needs at least one form")
        for i in range(len(forms)):
            for j in range(i + 1, len(forms)):
                if forms[i].proportional(forms[j]):
                    raise ProportionalForms(f"forms {i} and {j} define the same line")
        if names is not None and len(names) != len(forms):
            raise ValueError("names must match forms")
        set_field(self, "field", field)
        set_field(self, "forms", forms)
        set_field(self, "names", names)

    @classmethod
    def make(cls, fs: FieldSpec, coeff_pairs: Sequence[Tuple], names=None) -> "Arrangement":
        forms = tuple(LinearForm.make(fs, a, b) for a, b in coeff_pairs)
        return cls(fs, forms, tuple(names) if names else None)

    def __len__(self) -> int:
        return len(self.forms)

    def name_of(self, i: int) -> str:
        if self.names:
            return self.names[i]
        return f"H{i}"

    def to_json(self) -> dict:
        obj = {
            "field": self.field.to_json(),
            "forms": [
                [self.field.format_scalar(f.a), self.field.format_scalar(f.b)]
                for f in self.forms
            ],
        }
        if self.names:
            obj["names"] = list(self.names)
        return obj

    @classmethod
    def from_json(cls, obj) -> "Arrangement":
        """Inverse of to_json; anything malformed raises ParseError."""
        try:
            fs = FieldSpec.from_json(obj["field"])
            pairs = [(fs.parse_scalar(a), fs.parse_scalar(b)) for a, b in obj["forms"]]
            names = obj.get("names")
            if names is not None and not (isinstance(names, list)
                                          and all(isinstance(n, str) for n in names)):
                raise ParseError(f"names must be a list of strings, got {names!r}")
            return cls.make(fs, pairs, names=names)
        except KeyError as exc:
            raise ParseError(f"arrangement lacks the key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed arrangement: {exc}") from exc

    def canonical_hash(self) -> str:
        return self._canonical_hash

    @_functools.cached_property
    def _canonical_hash(self) -> str:
        """Computed once per object: a scan file carries it, checked on read."""
        import hashlib  # here, so that a command without a scan file never imports it

        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


class HomogPoly(Frozen):
    """Dense homogeneous polynomial; () is the canonical zero."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Tuple[Scalar, ...] = ()):
        set_field(self, "coeffs", coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Optional[int]:
        if self.is_zero:
            return None
        return len(self.coeffs) - 1

    @classmethod
    def make(cls, coeffs: Sequence[Scalar]) -> "HomogPoly":
        if all(not c for c in coeffs):
            return cls(())
        return cls(tuple(coeffs))

    @classmethod
    def zero(cls) -> "HomogPoly":
        return cls(())

    @classmethod
    def one(cls, fs: FieldSpec) -> "HomogPoly":
        return cls((fs.one(),))

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add homogeneous polynomials of different degrees")
        return HomogPoly.make(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, s: Scalar) -> "HomogPoly":
        if not s:
            return HomogPoly.zero()
        return HomogPoly.make(tuple(c * s for c in self.coeffs))

    def format(self, fs: FieldSpec) -> str:
        if self.is_zero:
            return "0"
        d = self.degree
        terms = []
        for i in range(d, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            mono = []
            if i:
                mono.append("x" if i == 1 else f"x^{i}")
            if d - i:
                mono.append("y" if d - i == 1 else f"y^{d - i}")
            cs = fs.display_scalar(c)
            if mono and cs == "1":
                terms.append("*".join(mono))
            elif mono and cs == "-1":
                terms.append("-" + "*".join(mono))
            elif mono:
                terms.append(cs + "*" + "*".join(mono))
            else:
                terms.append(cs)
        return " + ".join(terms).replace("+ -", "- ")


def divide_by_linear_form(f: HomogPoly, lf: LinearForm) -> HomogPoly:
    """Exact quotient f / alpha; raises ExactDivisionError if not divisible."""
    if f.is_zero:
        return HomogPoly.zero()
    d = f.degree
    if d == 0:
        raise ExactDivisionError("degree-0 polynomial has no linear factor")
    c = f.coeffs
    if not lf.a:
        # alpha = y (normalized): divisible iff the x^d coefficient vanishes
        if c[d]:
            raise ExactDivisionError("not divisible")
        return HomogPoly.make(c[:d])
    # alpha = x + b*y: dehomogenize in t = x/y and do synthetic division
    # by (t - r) with r = -b; remainder is p(r).
    r = -lf.b
    q = [None] * d
    acc = c[d]
    for j in range(d - 1, -1, -1):
        q[j] = acc
        acc = c[j] + r * acc
    if acc:
        raise ExactDivisionError("not divisible")
    return HomogPoly.make(tuple(q))


def linear_form_multiplicity(f: HomogPoly, lf: LinearForm) -> int:
    """Largest m with alpha**m dividing f (f nonzero)."""
    if f.is_zero:
        raise ZeroPolynomial("multiplicity of the zero polynomial is infinite")
    m = 0
    while not f.is_zero:
        try:
            f = divide_by_linear_form(f, lf)
        except ExactDivisionError:
            break
        m += 1
    return m


class Derivation(Frozen):
    """theta = P*dx + Q*dy with P, Q homogeneous of a common degree.

    A derivation is its integer images: cleared = (dom, P, Q, den) holds P
    and Q as the images that dom.clear gives for their coefficients, over
    one common denominator, a zero part as [], with their linalg.Domain
    (None for the zero derivation).  Equality, hash and pickling use it,
    every kernel reads it, and the lattice walk hands its generators over
    in it (of_images).  The field coefficients are built from it on each
    read of P or Q, which format and repr do.

    valuations(A) keeps its answer for one arrangement in one slot,
    (A, valuations), which another arrangement overwrites; the slot is no
    part of the value, so ==, hash and pickling leave it out.
    """

    _fields = ("P", "Q")  # what repr prints; no __slots__: cleared and ends live in __dict__
    _valuations = None  # the slot of valuations, set on the instance

    def __init__(self, P: HomogPoly = HomogPoly(), Q: HomogPoly = HomogPoly()):
        if P.coeffs and Q.coeffs and len(P.coeffs) != len(Q.coeffs):
            raise ValueError("P and Q must have the same degree")
        coeffs = P.coeffs + Q.coeffs
        dom = domain_of(coeffs[0] if coeffs else 0)
        images, den = dom.clear(coeffs)
        n = len(P.coeffs)
        set_field(self, "cleared", _cleared(dom, images[:n], images[n:], den))

    @classmethod
    def of_images(cls, dom, P: list, Q: list, den) -> "Derivation":
        """The derivation with the coefficients P[i] / den and Q[i] / den,
        given as the images that dom.clear gives for them (a zero part as []
        or as zeros); it equals Derivation built from those coefficients."""
        theta = cls.__new__(cls)
        set_field(theta, "cleared", _cleared(dom, P, Q, den))
        return theta

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.cleared == other.cleared
        return NotImplemented

    def __hash__(self):
        c = self.cleared
        return hash(c and (tuple(c[1]), tuple(c[2]), c[3]))

    def __reduce__(self):
        # rebuilt as zero, then given its value and its cached ends, not the
        # valuations, which hold an arrangement
        return Derivation, (), {k: v for k, v in self.__dict__.items() if k != "_valuations"}

    P = property(lambda self: self._part(1))
    Q = property(lambda self: self._part(2))

    def _part(self, i: int) -> HomogPoly:
        """P (i = 1) or Q (i = 2) in field coefficients, built from the images."""
        if self.cleared is None:
            return HomogPoly()
        dom, den = self.cleared[0], self.cleared[3]
        return HomogPoly(tuple(dom.back(v, den) for v in self.cleared[i]))

    @property
    def is_zero(self) -> bool:
        return self.cleared is None

    @property
    def degree(self) -> Optional[int]:
        if self.cleared is None:
            return None
        return len(self.cleared[1] or self.cleared[2]) - 1

    @classmethod
    def zero(cls) -> "Derivation":
        return cls()

    @_functools.cached_property
    def ends(self):
        """The leading terms of P/Q at x = 0 and at y = 0, read off cleared,
        which dependent and dependence_classes compare: "dy" when P = 0,
        "dx" when Q = 0, and otherwise
        (v_x(P) - v_x(Q), lc_x(P)/lc_x(Q), v_y(P) - v_y(Q), lc_y(P)/lc_y(Q)),
        where v_x(f) is the power of x dividing f and lc_x(f) the
        coefficient of f there, likewise at y = 0, and each quotient is the
        (image, den) that dom.over gives for it.

        None for the zero derivation.  Computed once per object.
        """
        if self.is_zero:
            return None
        dom, P, Q, _ = self.cleared
        if not P:
            return "dy"
        if not Q:
            return "dx"
        zero = dom.zero
        top = len(P) - 1
        px = next(i for i, c in enumerate(P) if c != zero)
        qx = next(i for i, c in enumerate(Q) if c != zero)
        py = next(i for i in range(top, -1, -1) if P[i] != zero)
        qy = next(i for i in range(top, -1, -1) if Q[i] != zero)
        return px - qx, _quotient(dom, P[px], Q[qx]), qy - py, _quotient(dom, P[py], Q[qy])

    def valuations(self, A: Arrangement) -> Tuple[Optional[int], ...]:
        """For each line H of A, v_H: the largest m with alpha_H**m dividing
        theta(alpha_H), None where theta(alpha_H) = 0 (all None for the zero
        derivation).  So theta is in D(A, mu) iff v_H >= mu_H wherever v_H
        is not None.

        Read off the images: the line y (alpha = y, theta(alpha) = Q) by
        Q's vanishing top coefficients, every other line by the field's
        Domain.valuation of s*P + r*Q, r and s the images of alpha's b and
        a.  Kept for A, checked by identity, until another arrangement asks.
        """
        slot = self._valuations
        if slot is not None and slot[0] is A:
            return slot[1]
        if self.cleared is None:
            vals = (None,) * len(A)
        else:
            dom, P, Q, _ = self.cleared
            zero, combine, valuation = dom.zero, dom.combine, dom.valuation
            if not P or not Q:  # a zero part as zeros, for combine
                P, Q = P or [zero] * len(Q), Q or [zero] * len(P)
            out = []
            for lf in A.forms:
                (r, s), _ = lf.images
                if s == zero:  # alpha = y: y**m divides Q iff its top m coefficients vanish
                    out.append(next((i for i, c in enumerate(reversed(Q)) if c != zero), None))
                    continue
                f = P  # alpha = x (r = 0): theta(alpha) = s*P, as divisible as P
                if r != zero:
                    f = combine(s, P, dom.scale(r, -1), Q)  # s*P + r*Q
                out.append(valuation(f, s, r) if f.count(zero) < len(f) else None)
            vals = tuple(out)
        set_field(self, "_valuations", (A, vals))
        return vals

    def times(self, forms: Sequence[LinearForm]) -> "Derivation":
        """theta times the product of the linear forms, on the images."""
        if self.is_zero or not forms:
            return self
        dom, P, Q, den = self.cleared
        g, gden = product_images(forms)
        return _divided(dom, _times(dom, P, g), _times(dom, Q, g), dom.scale(dom.one, den * gden))

    def canonical(self) -> "Derivation":
        """The multiple whose first nonzero coefficient is 1, in the order
        P then Q, each from the highest x-power down; on the images."""
        if self.is_zero:
            return self
        dom, P, Q, _ = self.cleared
        zero = dom.zero
        return _divided(dom, P, Q, next(v for v in (*reversed(P), *reversed(Q)) if v != zero))

    def format(self, fs: FieldSpec) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"({f.format(fs)})*{v}" for f, v in ((self.P, "dx"), (self.Q, "dy"))
                          if not f.is_zero)


def _cleared(dom, P: list, Q: list, den):
    """Derivation.cleared of the images: a zero part as [], None if both are."""
    zero = dom.zero
    P, Q = ([] if f.count(zero) == len(f) else f for f in (P, Q))
    return (dom, P, Q, den) if P or Q else None


def _divided(dom, P: list, Q: list, v) -> Derivation:
    """The derivation with the images P and Q over the nonzero image v."""
    images, den = dom.over(P + Q, v)
    return Derivation.of_images(dom, images[:len(P)], images[len(P):], den)


def _quotient(dom, v, w):
    """v / w of two images (w nonzero) as the hashable (image, den) of dom.over."""
    (u,), den = dom.over([v], w)
    return u, den


def apply_derivation(theta: Derivation, lf: LinearForm) -> HomogPoly:
    """theta(alpha) = P*a + Q*b, homogeneous of degree deg(theta) or zero."""
    out = HomogPoly.zero()
    if not theta.P.is_zero and lf.a:
        out = out + theta.P.scale(lf.a)
    if not theta.Q.is_zero and lf.b:
        out = out + theta.Q.scale(lf.b)
    return out


def _determinant(dom, p1: list, q1: list, p2: list, q2: list) -> list:
    """Images of P1*Q2 - P2*Q1 from the images of two nonzero derivations
    (a zero part as [] or as zeros)."""
    out = [dom.zero] * (len(p1 or q1) + len(p2 or q2) - 1)
    dom.convolve(out, p1, q2, 1)
    dom.convolve(out, p2, q1, -1)
    return out


def saito_determinant(t1: Derivation, t2: Derivation) -> HomogPoly:
    """P1*Q2 - P2*Q1; nonzero iff {t1, t2} is independent over the ring.

    The convolution of the integer images, over den1*den2; field elements
    are built only for a nonzero result.  No decision reads it: dependent
    decides from Derivation.ends and, where those agree, the convolution
    alone, and the Saito certificate from one coefficient; it is their
    oracle, public API, and the source of verify_saito's scalar.
    """
    if t1.is_zero or t2.is_zero:
        return HomogPoly.zero()
    (dom, p1, q1, den1), (_, p2, q2, den2) = t1.cleared, t2.cleared
    out = _determinant(dom, p1, q1, p2, q2)
    if out.count(dom.zero) == len(out):
        return HomogPoly.zero()
    return HomogPoly(tuple(dom.back(v, den1 * den2) for v in out))


def dependent(t1: Derivation, t2: Derivation) -> bool:
    """True iff det(t1, t2) = P1*Q2 - P2*Q1 is zero, i.e. {t1, t2} is
    dependent over the ring; a zero derivation counts as dependent.

    If det = 0 then P1*Q2 = P2*Q1, and valuation and leading coefficient
    at x = 0 and at y = 0 are multiplicative, so dependent derivations
    have equal Derivation.ends: different ends prove independence, and two
    with P = 0, or two with Q = 0, are dependent.  Otherwise the full
    convolution of the images decides.
    """
    if t1.is_zero or t2.is_zero:
        return True
    ends = t1.ends
    if ends != t2.ends:
        return False
    if isinstance(ends, str):
        return True
    dom = t1.cleared[0]
    out = _determinant(dom, *t1.cleared[1:3], *t2.cleared[1:3])
    return out.count(dom.zero) == len(out)


def dependence_classes(thetas: Sequence[Derivation]) -> List[Optional[int]]:
    """Class ids under dependent: two nonzero derivations share an id iff
    they are dependent, and a zero derivation, dependent on everything,
    gets None.  Ids count from 0 in order of first appearance.

    For nonzero derivations det = 0 says that (P1, Q1) and (P2, Q2) are
    proportional over the fraction field K(x, y), an equivalence relation,
    so one representative per class settles every pair.  Dependent
    derivations have equal ends, so each derivation is bucketed by
    Derivation.ends and compared, with dependent, only with the
    representatives of its bucket.
    """
    ids: List[Optional[int]] = []
    buckets: dict = {}  # ends -> [(id, representative)]
    count = 0
    for theta in thetas:
        if theta.is_zero:
            ids.append(None)
            continue
        reps = buckets.setdefault(theta.ends, [])
        found = next((i for i, rep in reps if dependent(theta, rep)), None)
        if found is None:
            found, count = count, count + 1
            reps.append((found, theta))
        ids.append(found)
    return ids


def proportional(t1: Derivation, t2: Derivation, forms: Sequence[LinearForm] = ()) -> bool:
    """True iff t1 is a scalar multiple of g*t2, g the product of the
    linear forms; a zero derivation counts.

    Nonzero multiples of one derivation share one canonical form, so the
    canonical forms of t1 and g*t2, formed on the images, are compared.
    """
    if t1.is_zero or t2.is_zero or (t1 is t2 and not forms):
        return True
    return t1.canonical() == t2.times(forms).canonical()


def _times(dom, f: list, g: list) -> list:
    """Images of f*g; [] for a zero f."""
    if not f:
        return f
    out = [dom.zero] * (len(f) + len(g) - 1)
    dom.convolve(out, f, g, 1)
    return out


def product_images(forms: Sequence[LinearForm]):
    """(images, den) of the product of the linear forms (at least one),
    as a coefficient list from the y-power end."""
    dom = domain_of(forms[0].a)
    out, den = forms[0].images
    out = list(out)  # the form's images are cached on it
    for lf in forms[1:]:
        form, q = lf.images
        prod = [dom.zero] * (len(out) + 1)
        dom.convolve(prod, out, form, 1)
        out, den = prod, den * q
    return out, den


def defining_polynomial(A: Arrangement, mu: Sequence[int]) -> HomogPoly:
    """Product of alpha_H ** mu_H over the arrangement; degree |mu|."""
    if len(mu) != len(A):
        raise LengthMismatch("multiplicity length does not match arrangement")
    forms = [lf for lf, m in zip(A.forms, mu) for _ in range(m)]
    if not forms:
        return HomogPoly.one(A.field)
    out, den = product_images(forms)
    back = domain_of(A.field.one()).back
    return HomogPoly(tuple(back(v, den) for v in out))
