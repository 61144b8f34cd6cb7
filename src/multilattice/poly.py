"""Homogeneous bivariate polynomials, linear forms, arrangements, derivations.

Coefficient convention: a homogeneous polynomial of degree d is stored as
the tuple (c_0, ..., c_d) meaning sum(c_i * x**i * y**(d - i)).  The zero
polynomial is the empty tuple and carries no degree.

The verification kernels (the dependence and proportionality predicates,
Saito determinants, defining polynomials and the divisions behind module
membership) run on the integer images of the coefficients, through the
field's linalg.Domain.  Dependence is decided from the values of the
images at (EVAL_POINT, 1); the full determinant is convolved only when a
value vanishes.  dermod's Saito certificate evaluates nothing: it reads
one determinant coefficient.  The HomogPoly arithmetic stays for
everything else and as their test oracle.
"""

from __future__ import annotations

import functools as _functools
import json
from typing import List, Optional, Sequence, Tuple

from .errors import (
    ExactDivisionError,
    FieldMismatch,
    ParseError,
    ProportionalForms,
    ZeroPolynomial,
)
from .field import FieldSpec, Scalar, invert
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
        lead = a if a else b
        inv = invert(lead)
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

    @classmethod
    def from_linear_form(cls, lf: LinearForm) -> "HomogPoly":
        return cls.make((lf.b, lf.a))  # c_0*y + c_1*x

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add homogeneous polynomials of different degrees")
        return HomogPoly.make(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(tuple(-c for c in self.coeffs))

    def scale(self, s: Scalar) -> "HomogPoly":
        if not s:
            return HomogPoly.zero()
        return HomogPoly.make(tuple(c * s for c in self.coeffs))

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        if self.is_zero or other.is_zero:
            return HomogPoly.zero()
        da, db = self.degree, other.degree
        out = [None] * (da + db + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                t = a * b
                out[i + j] = t if out[i + j] is None else out[i + j] + t
        return HomogPoly.make(tuple(out))

    def pow(self, n: int, fs: FieldSpec) -> "HomogPoly":
        result = HomogPoly.one(fs)
        for _ in range(n):
            result = result * self
        return result

    def format(self, fs: FieldSpec, vars=("x", "y")) -> str:
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
                mono.append(vars[0] if i == 1 else f"{vars[0]}^{i}")
            if d - i:
                mono.append(vars[1] if d - i == 1 else f"{vars[1]}^{d - i}")
            cs = fs.format_scalar(c)
            if isinstance(cs, dict):
                cs = _format_quadratic(cs["a"], cs["b"], fs.d)
            if mono and cs == "1":
                terms.append("*".join(mono))
            elif mono and cs == "-1":
                terms.append("-" + "*".join(mono))
            elif mono:
                terms.append(cs + "*" + "*".join(mono))
            else:
                terms.append(cs)
        return " + ".join(terms).replace("+ -", "- ")


def _format_quadratic(a: str, b: str, d: int) -> str:
    """a + b*sqrt(d) without its zero parts: a, b*sqrt(d) or (a+b*sqrt(d))."""
    if b == "0":
        return a
    root = {"1": "", "-1": "-"}.get(b, b + "*") + f"sqrt({d})"
    if a == "0":
        return root
    return f"({a}{'' if root.startswith('-') else '+'}{root})"


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
    """theta = P*dx + Q*dy with P, Q homogeneous of a common degree."""

    _fields = ("P", "Q")  # no __slots__: cleared and values are cached

    def __init__(self, P: HomogPoly = HomogPoly(), Q: HomogPoly = HomogPoly()):
        if P.coeffs and Q.coeffs and len(P.coeffs) != len(Q.coeffs):
            raise ValueError("P and Q must have the same degree")
        set_field(self, "P", P)
        set_field(self, "Q", Q)

    @property
    def is_zero(self) -> bool:
        return self.P.is_zero and self.Q.is_zero

    @property
    def degree(self) -> Optional[int]:
        if not self.P.is_zero:
            return self.P.degree
        return self.Q.degree

    @classmethod
    def zero(cls) -> "Derivation":
        return cls()

    @_functools.cached_property
    def cleared(self):
        """(dom, P, Q, den): P and Q as integer images over one common
        denominator (a zero part as []), with their linalg.Domain.

        None for the zero derivation.  Computed once per object.
        """
        if self.is_zero:
            return None
        dom = domain_of((self.P.coeffs or self.Q.coeffs)[0])
        n = len(self.P.coeffs)
        vals, den = dom.clear(self.P.coeffs + self.Q.coeffs)
        return dom, vals[:n], vals[n:], den

    @_functools.cached_property
    def values(self):
        """(dom, P, Q): the images of cleared evaluated at (EVAL_POINT, 1),
        which dependent and dependence_classes read.

        None for the zero derivation.  Computed once per object.
        """
        if self.is_zero:
            return None
        dom, P, Q, _ = self.cleared
        return dom, dom.evaluate(P, EVAL_POINT), dom.evaluate(Q, EVAL_POINT)

    def __add__(self, other: "Derivation") -> "Derivation":
        return Derivation(self.P + other.P, self.Q + other.Q)

    def __sub__(self, other: "Derivation") -> "Derivation":
        return Derivation(self.P - other.P, self.Q - other.Q)

    def __neg__(self) -> "Derivation":
        return Derivation(-self.P, -self.Q)

    def scale(self, s: Scalar) -> "Derivation":
        return Derivation(self.P.scale(s), self.Q.scale(s))

    def mul_poly(self, g: HomogPoly) -> "Derivation":
        return Derivation(g * self.P, g * self.Q)

    def _flat(self):
        # P then Q, each listed from the highest x-power down
        d = self.degree
        if d is None:
            return ()
        z = None
        pc = self.P.coeffs if not self.P.is_zero else None
        qc = self.Q.coeffs if not self.Q.is_zero else None
        out = []
        for cs in (pc, qc):
            if cs is None:
                out.extend([z] * (d + 1))
            else:
                out.extend(reversed(cs))
        return tuple(out)

    def canonical(self) -> "Derivation":
        """Scale so the first nonzero flattened coefficient is 1."""
        if self.is_zero:
            return self
        for c in self._flat():
            if c is not None and c:
                return self.scale(invert(c))
        return self  # pragma: no cover

    def format(self, fs: FieldSpec) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if not self.P.is_zero:
            parts.append(f"({self.P.format(fs)})*dx")
        if not self.Q.is_zero:
            parts.append(f"({self.Q.format(fs)})*dy")
        return " + ".join(parts)


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
    are built only for a nonzero result.  No production path calls it:
    dependent decides from values at (EVAL_POINT, 1) and the Saito
    certificate from one coefficient, and it stays as their oracle and
    public API.
    """
    if t1.is_zero or t2.is_zero:
        return HomogPoly.zero()
    (dom, p1, q1, den1), (_, p2, q2, den2) = t1.cleared, t2.cleared
    out = _determinant(dom, p1, q1, p2, q2)
    if out.count(dom.zero) == len(out):
        return HomogPoly.zero()
    return HomogPoly(tuple(dom.back(v, den1 * den2) for v in out))


# The x-coordinate t of the point (t, 1) at which Derivation.values
# evaluates, for dependent and dependence_classes only.  Any integer keeps
# them exact, since a zero value falls back to the full determinant.  t is
# off the lines of the rank-2 Coxeter arrangements over Q and Q(sqrt 3), so
# on their scans only dependent pairs fall back.  Where a line passes
# through (t, 1), e.g. x - 2*y over Q or x + y over F_3, its multiples have
# both values 0, and dependence_classes compares them with every class.
EVAL_POINT = 2


def dependent(t1: Derivation, t2: Derivation) -> bool:
    """True iff det(t1, t2) = P1*Q2 - P2*Q1 is zero, i.e. {t1, t2} is
    dependent over the ring; a zero derivation counts as dependent.

    The determinant's value at (EVAL_POINT, 1) is two products of cached
    values, and a nonzero value proves independence.  A zero value means
    only that x - t*y divides the determinant, so then the full
    convolution of the images decides.
    """
    if t1.is_zero or t2.is_zero:
        return True
    (dom, a1, b1), (_, a2, b2) = t1.values, t2.values
    if dom.mul(a1, b2) != dom.mul(a2, b1):
        return False
    out = _determinant(dom, *t1.cleared[1:3], *t2.cleared[1:3])
    return out.count(dom.zero) == len(out)


def dependence_classes(thetas: Sequence[Derivation]) -> List[Optional[int]]:
    """Class ids under dependent: two nonzero derivations share an id iff
    they are dependent, and a zero derivation, dependent on everything,
    gets None.  Ids count from 0 in order of first appearance.

    For nonzero derivations det = 0 says that (P1, Q1) and (P2, Q2) are
    proportional over the fraction field K(x, y), an equivalence relation,
    so one representative per class settles every pair.  Dependent
    derivations have proportional values at (EVAL_POINT, 1), so each is
    bucketed by the field element P(t)/Q(t) (one bucket for Q(t) = 0) and
    compared, with dependent, only with the representatives of its bucket.
    A derivation whose values both vanish is a multiple of x - t*y: it is
    compared with every representative, and every later one with it.
    """
    ids: List[Optional[int]] = []
    buckets: dict = {}  # key -> [(id, representative)]
    blind: List[Tuple[int, Derivation]] = []  # representatives with both values 0
    count = 0
    for theta in thetas:
        if theta.is_zero:
            ids.append(None)
            continue
        dom, p, q = theta.values
        if q != dom.zero:
            reps = buckets.setdefault(dom.ratio(p, q), [])
        elif p != dom.zero:
            reps = buckets.setdefault(None, [])
        else:
            reps = blind
        rivals = [rep for group in buckets.values() for rep in group] if reps is blind else reps
        found = next((i for i, rep in rivals + blind if dependent(theta, rep)), None)
        if found is None:
            found, count = count, count + 1
            reps.append((found, theta))
        ids.append(found)
    return ids


def proportional(t1: Derivation, t2: Derivation, forms: Sequence[LinearForm] = ()) -> bool:
    """True iff t1 is a scalar multiple of g*t2, g the product of the
    linear forms; a zero derivation counts.

    g*t2 is formed on the integer images, and both flattened image vectors
    are cross-multiplied against t1's first nonzero entry.
    """
    if t1.is_zero or t2.is_zero:
        return True
    if t1.degree != t2.degree + len(forms):
        return False
    dom, p1, q1, _ = t1.cleared
    _, p2, q2, _ = t2.cleared
    if forms:
        g, _ = product_images(forms)
        p2, q2 = (_times(dom, f, g) for f in (p2, q2))
    zero = dom.zero
    n = t1.degree + 1
    u = (p1 or [zero] * n) + (q1 or [zero] * n)
    v = (p2 or [zero] * n) + (q2 or [zero] * n)
    k = next(i for i, c in enumerate(u) if c != zero)
    uk, vk = u[k], v[k]
    if vk == zero:
        return False
    mul = dom.mul
    return all(mul(a, vk) == mul(b, uk) for a, b in zip(u, v))


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
        raise FieldMismatch("multiplicity length does not match arrangement")
    forms = [lf for lf, m in zip(A.forms, mu) for _ in range(m)]
    if not forms:
        return HomogPoly.one(A.field)
    out, den = product_images(forms)
    back = domain_of(A.field.one()).back
    return HomogPoly(tuple(back(v, den) for v in out))
