"""The derivation-module solver.

A derivation theta = P*dx + Q*dy of degree d belongs to the module of an
arrangement with multiplicity mu iff for every hyperplane H the polynomial
theta(alpha_H) is divisible by alpha_H**mu_H: iff its valuation v_H, the
largest power of alpha_H dividing theta(alpha_H), is at least mu_H.  Each
derivation computes its valuations once (Derivation.valuations), and the
walk hands out one theta_min object per distinct value, so a generator
shared by many points is divided once.

Every 2-multiarrangement is free (Ziegler 1989): its exponents d1 <= d2
satisfy d1 + d2 = |mu|.  exponents and full_basis walk the multiplicity
lattice: from the basis {dx, dy} at 0, one order-basis step per covering
pair mu -> mu + e_H turns a basis at mu into one at mu + e_H (see _Walk),
on the integer images of the field's linalg.Domain.  Each process memoises
the bases it has walked and the results it has returned (its only memo of
exponents), so a scan in box order costs one step per point.  A walk that
starts at 0 certifies the basis it reaches before its bases enter the memo,
with the Saito decision that verify_saito makes too (_saito): both
generators in the module, degrees summing to |mu|, and a nonzero
determinant coefficient where the defining polynomial's first nonzero one
lies.  That proves both exponents.  exponent_pair reads (d1, d2) off the
degrees of the basis, and exponents adds theta_min; a scan asks for the
pair alone.  No memo outlives the process.  The reported generators are
fixed by the module, not by the path: theta_min and the full_basis
partner are the nullspace vectors that elimination would pick (see
_Walk.minimal and _Walk.partner).

Each requirement alpha_H**mu_H | theta(alpha_H) is also linear in the
2*(d+1) coefficients of P and Q, so the graded piece D_d is the nullspace
of a stacked constraint system.  Freeness gives dim D_d = max(0, d-d1+1) +
max(0, d-d2+1), so one rank below d2 fixes d1 (_minimal_degree).  That
elimination is only the tests' oracle for the walk: graded_dimension
(with _constraint_rows_images, the rows it ranks), _minimal_degree,
_constraint_rows_basis, _alpha_basis_rows and _nullspace_derivations stay
in this module because the benchmark's tracer (perfbench/tracer.py) binds
them, and nothing else that only tests call does.  Its rows read the coordinates of theta(alpha_H) on the basis
{alpha**i * beta**(d-i)}, for a fixed complementary form beta, off a
closed form and kill the low alpha-coordinates.  Production builds these
rows on integer images (_residual_rows, the rows the walk takes its
residuals with); _alpha_basis_rows and _constraint_rows_basis build the
same rows in field arithmetic.  The tests' differential oracle of these
rows, the exact synthetic division of theta(alpha_H) by alpha_H run
symbolically, lives in tests/helpers.py.

A solve refuses |mu| > MAX_MULTIPLICITY_SUM before its walk steps.
"""

from __future__ import annotations

import atexit
import functools
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InternalInconsistency, LengthMismatch, PreconditionViolated
from .field import FieldSpec, Scalar
from .linalg import domain_of, nullspace, rank
from .poly import (Arrangement, Derivation, HomogPoly, LinearForm, defining_polynomial,
                   saito_determinant)
from .record import Frozen, set_field

Multiplicity = Tuple[int, ...]


@functools.lru_cache(maxsize=4096)
def _alpha_basis_rows(fs: FieldSpec, lf: LinearForm, d: int) -> Tuple[Tuple[Scalar, ...], ...]:
    """Constraint rows [a*r_i | b*r_i], i = 0..d, for alpha = a*x + b*y.

    r_i maps the coefficients of x**j * y**(d-j) to the coordinate of
    alpha**i * beta**(d-i).  For alpha = x + b*y and beta = y, expanding
    x = alpha - b*beta gives r_i[j] = C(j, i) * (-b)**(j-i); for alpha = y
    and beta = x, r_i is the unit vector at j = d - i.
    """
    zero, one = fs.zero(), fs.one()
    if lf.a:
        neg_b = -lf.b
        powers = [one]
        for _ in range(d):
            powers.append(powers[-1] * neg_b)
        coords = [[powers[j - i] * comb(j, i) if j >= i else zero for j in range(d + 1)]
                  for i in range(d + 1)]
    else:
        coords = [[one if j == d - i else zero for j in range(d + 1)] for i in range(d + 1)]
    return tuple(tuple(lf.a * v for v in r) + tuple(lf.b * v for v in r) for r in coords)


def _constraint_rows_basis(A: Arrangement, mu: Sequence[int], d: int) -> List[Tuple[Scalar, ...]]:
    rows: List[Tuple[Scalar, ...]] = []
    for lf, m in zip(A.forms, mu):
        if m > 0:
            rows.extend(_alpha_basis_rows(A.field, lf, d)[:m])
    return rows


def _residual_rows(A: Arrangement, h: int, d: int, ms: Sequence[int]) -> List[List]:
    """Rows m in ms of _alpha_basis_rows(A.field, A.forms[h], d) on integer
    images, each up to a nonzero factor: its dot product with [P | Q] is a
    multiple of the coordinate of theta(alpha_h) on alpha_h**m * beta**(d-m).
    A row past the degree (m > d) is zero.

    With q*alpha_h = s*x + r*y cleared, s**(d-m) * C(j, m) * (-b)**(j-m) is
    w[j] = C(j, m) * (-r)**(j-m) * s**(d-j), and the row is [s*w | r*w]:
    C(j, m) * (-1)**(j-m) times r**a * s**(d-m+1-a) for a = j-m and j-m+1.

    A walk step takes its residuals with one row (m = mu_h); the rank
    oracle stacks the rows m < min(mu_h, d+1) of every form.
    """
    dom = domain_of(A.forms[h].a)
    zero, mul, scale = dom.zero, dom.mul, dom.scale
    (r, s), _ = A.forms[h].images
    one = dom.one
    r_pows, s_pows = [one], [one]
    for _ in range(d + 1 - min(ms, default=d + 1)):
        r_pows.append(mul(r_pows[-1], r))
        s_pows.append(mul(s_pows[-1], s))
    rows = []
    for m in ms:
        row = [zero] * (2 * d + 2)
        if m <= d and s == zero:  # alpha = y, beta = x: w is the unit vector at j = d - m
            row[2 * d + 1 - m] = one
        elif m <= d:
            n = d + 1 - m
            pw = [mul(r_pows[a], s_pows[n - a]) for a in range(n + 1)]
            for j in range(m, d + 1):
                c = (-1) ** (j - m) * comb(j, m)
                row[j] = scale(pw[j - m], c)
                row[d + 1 + j] = scale(pw[j - m + 1], c)
            row = dom.primitive(row)
        rows.append(row)
    return rows


def _constraint_rows_images(A: Arrangement, mu: Sequence[int], d: int) -> List[List]:
    """The rows of _constraint_rows_basis on integer images, each up to a
    nonzero factor: the rank oracle's rows."""
    rows: List[List] = []
    for h, m in enumerate(mu):
        rows.extend(_residual_rows(A, h, d, range(min(m, d + 1))))
    return rows


def graded_dimension(A: Arrangement, mu: Sequence[int], d: int) -> int:
    """Dimension of the degree-d piece of the derivation module, by one rank
    of the image rows.

    The tests' oracle for the walk; no production path calls it.  It stays
    here, and importable from this module, because perfbench/tracer.py
    binds it.
    """
    if len(mu) != len(A):
        raise LengthMismatch("multiplicity length does not match arrangement")
    if d < 0:
        return 0
    ncols = 2 * (d + 1)
    return ncols - rank(_constraint_rows_images(A, mu, d), domain_of(A.field.one()), ncols)


def _nullspace_derivations(A: Arrangement, mu: Sequence[int], d: int) -> List[Derivation]:
    """The nullspace basis of D_d as canonical derivations: the tests'
    elimination oracle for the walk."""
    rows = _constraint_rows_basis(A, mu, d)
    basis = nullspace(rows, A.field, 2 * (d + 1))
    out = []
    for v in basis:
        P = HomogPoly.make(tuple(v[: d + 1]))
        Q = HomogPoly.make(tuple(v[d + 1:]))
        out.append(Derivation(P, Q).canonical())
    return out


class ExponentResult(Frozen):
    """Exponents (d1 <= d2) and the minimal-degree generator.

    theta_min is canonical and unique up to scalar only when the gap
    delta = d2 - d1 is positive; at gap 0 it is one of several (non_unique).
    """

    __slots__ = _fields = ("d1", "d2", "theta_min")

    def __init__(self, d1: int, d2: int, theta_min: Derivation):
        set_field(self, "d1", d1)
        set_field(self, "d2", d2)
        set_field(self, "theta_min", theta_min)

    @property
    def delta(self) -> int:
        return self.d2 - self.d1

    @property
    def non_unique(self) -> bool:
        return self.d1 == self.d2


def _minimal_degree(A: Arrangement, mu: Multiplicity) -> int:
    """The lower exponent d1, from the rank at one degree.

    For |mu| >= 1 take d* = (|mu| - 1) // 2.  Then d* < d2 and d1 <= d* + 1,
    so freeness gives dim D_{d*} = d* + 1 - d1.  The tests' oracle for the
    walk, kept here for perfbench/tracer.py as graded_dimension is.
    """
    total = sum(mu)
    if total == 0:
        return 0
    top = (total - 1) // 2
    return top + 1 - graded_dimension(A, mu, top)


# -- the lattice walk ----------------------------------------------------------
#
# A derivation of degree d is held as the flat list [P | Q] of the integer
# images of its 2*(d+1) coefficients, P and Q each from the y-power end: the
# column order of the constraint rows.  A state (t1, d1, t2, d2) is a basis
# of D(A, mu) with deg t1 = d1 <= d2 = deg t2.

_MAX_STATES = 1 << 16  # a walk drops its memo past this many bases
_MAX_WALKS = 64  # the memo drops every walk past this many arrangements
# walks by id() of their arrangement: hashing an Arrangement hashes all its
# coefficients, and a walk keeps its arrangement, so the id stays unique
_WALKS: Dict[int, "_Walk"] = {}


@atexit.register
def _free_walks() -> None:
    # freeing the memo costs less than the interpreter's exit, whose garbage
    # collections visit every live object; the global is looked up here, at
    # exit, since tests replace it
    _WALKS.clear()

_State = Tuple[List, int, List, int]


def _shift(t: List, d: int, lo: int, hi: int, zero) -> List:
    """x**lo * y**hi * t for t of degree d."""
    n = d + 1
    pad_lo, pad_hi = [zero] * lo, [zero] * hi
    return pad_lo + t[:n] + pad_hi + pad_lo + t[n:] + pad_hi


def _last(t: List, zero) -> int:
    """Index of the last nonzero coordinate of t."""
    return max(i for i, v in enumerate(t) if v != zero)


class _Walk:
    """Bases of D(A, mu) for one arrangement, memoised by mu.

    The step from mu to mu + e_h is the order-basis (sigma-basis) recursion
    (Beckermann and Labahn 1994).  Let r_i be the coordinate of t_i(alpha_h)
    on alpha_h**m * beta**(d_i - m), m = mu_h, with beta = y (beta = x when
    alpha_h = y).  The pivot is t1 if r1 != 0 and t2 otherwise; for pivot t1
    the partner becomes r1*t2 - r2*beta**(d2-d1)*t1, which kills its
    residual; then the pivot is multiplied by alpha_h.  Both results lie in
    D(mu + e_h), their degrees sum to |mu| + 1 and their Saito determinant
    gains the factor alpha_h, so by Saito's criterion they are a basis.
    Ziegler's freeness theorem makes a basis exist at every mu, so a step
    where both residuals vanish is a solver bug.  results keeps what
    exponents returned at each mu, and thetas one theta_min object per
    distinct value, so that value-equal generators share the valuations
    that membership reads off them.
    """

    def __init__(self, A: Arrangement):
        self.A = A
        self.dom = domain_of(A.forms[0].a)
        # cleared alpha_h as a coefficient list [y, x]
        self.forms = [lf.images[0] for lf in A.forms]
        self.rows: Dict[Tuple[int, int, int], List] = {}
        self.states: Dict[Multiplicity, _State] = {}
        self.results: Dict[Multiplicity, ExponentResult] = {}
        self.thetas: Dict[Derivation, Derivation] = {}

    def _root(self) -> _State:
        one, zero = self.dom.one, self.dom.zero
        return ([one, zero], 0, [zero, one], 0)  # dx, dy

    def _residual(self, t: List, d: int, h: int, m: int):
        key = (h, m, d)
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = _residual_rows(self.A, h, d, (m,))[0]
        return self.dom.dot(row, t)

    def _times_alpha(self, t: List, d: int, h: int) -> List:
        # alpha_h * f = f0*[f, 0] - (-f1)*[0, f] on each half f of t, for
        # alpha_h = [f0, f1]: one combine of u = [P, 0, Q, 0] and u shifted
        dom, zero = self.dom, [self.dom.zero]
        f0, f1 = self.forms[h]
        u = t[:d + 1] + zero + t[d + 1:] + zero
        return dom.primitive(dom.combine(f0, u, dom.scale(f1, -1), zero + u[:-1]))

    def step(self, state: _State, h: int, m: int) -> _State:
        """The basis at mu + e_h from the basis at mu (mu_h = m)."""
        t1, d1, t2, d2 = state
        dom = self.dom
        r1, r2 = self._residual(t1, d1, h, m), self._residual(t2, d2, h, m)
        if r1 == dom.zero:
            if r2 == dom.zero:
                raise InternalInconsistency(
                    f"both generators already lie in the module one step up line {h}")
            return (t1, d1, self._times_alpha(t2, d2, h), d2 + 1)
        if r2 != dom.zero:
            # rows of different degrees clear over different factors, so
            # beta**k * t1 takes its residual from t2's row
            k = d2 - d1
            lo, hi = (k, 0) if self.forms[h][1] == dom.zero else (0, k)  # beta = x or y
            shifted = _shift(t1, d1, lo, hi, dom.zero)
            rs = r1 if k == 0 else self._residual(shifted, d2, h, m)
            t2 = dom.primitive(dom.combine(rs, t2, r2, shifted))
        t1 = self._times_alpha(t1, d1, h)
        if d1 + 1 > d2:
            return (t2, d2, t1, d1 + 1)
        return (t1, d1 + 1, t2, d2)

    def basis(self, mu: Multiplicity) -> _State:
        """The basis at mu, walked up from the nearest memoised point on
        the chain mu, mu - e_h, ... (h the last nonzero coordinate), which
        ends at 0 and runs back through box order.

        A walk that starts at 0 memoises its chain only after certify
        accepts the basis it reaches.  One that starts at a memoised basis
        does not certify, so a scan in box order pays one step per point.
        """
        chain = []
        nu = mu
        while nu not in self.states and any(nu):
            h = len(nu) - 1
            while not nu[h]:
                h -= 1
            chain.append((nu, h))
            nu = nu[:h] + (nu[h] - 1,) + nu[h + 1:]
        rooted = not any(nu)
        state = self.states.get(nu) or self._root()
        walked = []
        for up, h in reversed(chain):  # keyed by the chain's tuples, mu itself last
            state = self.step(state, h, up[h] - 1)
            walked.append((up, state))
        if rooted and chain:
            self.certify(mu, state)
        if len(self.states) + len(walked) > _MAX_STATES:
            self.states.clear()
            self.rows.clear()
            self.results.clear()
            self.thetas.clear()
        self.states.update(walked)
        return state

    def certify(self, mu: Multiplicity, state: _State) -> None:
        """Saito's criterion (_saito) on the images of a state: raise
        InternalInconsistency unless it is a basis of D(A, mu), which
        proves both exponents."""
        t1, d1, t2, d2 = state
        gens = [Derivation.of_images(self.dom, t[:d + 1], t[d + 1:], 1)
                for t, d in ((t1, d1), (t2, d2))]
        failed = _saito(self.A, mu, gens)
        if failed:
            raise InternalInconsistency({
                "degree": f"degree: the walk gives {d1}+{d2} != |mu|={sum(mu)} for mu={mu}",
                "dependent": "dependent: the walk's generators have a zero determinant at "
                             f"mu={mu}",
            }.get(failed, f"membership: the walk's {failed} is not in the module at mu={mu}"))

    def minimal(self, state: _State) -> Tuple[List, List]:
        """(theta_min, another generator of degree d2) as images.

        For delta > 0 theta_min is t1.  For delta == 0 it is the element of
        span{t1, t2} whose last nonzero coordinate comes first: the first
        nullspace vector, whose free variables run in column order.
        """
        t1, d1, t2, d2 = state
        if d1 < d2:
            return t1, t2
        zero = self.dom.zero
        l1, l2 = _last(t1, zero), _last(t2, zero)
        if l1 < l2:
            return t1, t2
        if l2 < l1:
            return t2, t1
        return self.dom.primitive(self.dom.combine(t2[l1], t1, t1[l1], t2)), t1

    def partner(self, state: _State) -> List:
        """The degree-d2 generator that full_basis pairs with theta_min.

        It is the first vector of the reduced right-echelon basis of D_{d2}
        = span{x**i * y**(delta-i) * theta_min} + span{t2} whose Saito
        determinant with theta_min is nonzero: t2 reduced to zero at the
        last nonzero coordinates of the shifts of theta_min.
        """
        _, d1, _, d2 = state
        t, w = self.minimal(state)
        dom, k = self.dom, d2 - d1
        last = _last(t, dom.zero)
        for i in range(k, -1, -1):  # shift i has its last nonzero at f
            f = last + i + (k if last > d1 else 0)
            if w[f] != dom.zero:
                w = dom.primitive(dom.combine(t[last], w, w[f], _shift(t, d1, i, k - i, dom.zero)))
        return w

    def derivation(self, t: List, d: int) -> Derivation:
        """canonical() of the derivation with images t, on the images."""
        return Derivation.of_images(self.dom, t[:d + 1], t[d + 1:], 1).canonical()


def _walk(A: Arrangement) -> _Walk:
    w = _WALKS.get(id(A))
    if w is None:
        if len(_WALKS) >= _MAX_WALKS:
            _WALKS.clear()
        w = _WALKS[id(A)] = _Walk(A)
    return w


# The largest |mu| a solve takes.  A walk takes |mu| steps on generators of
# degree up to |mu|, with growing coefficients: fresh ml exponents processes
# on a 2-CPU x86-64 host (Python 3.11) took 1.5 s and 71 MB for B2 at
# |mu| = 1 001, 9.9 s and 316 MB at 2 001; G2 took 6.0 s and 161 MB at
# |mu| = 750 and 24.8 s and 361 MB at 1 001.
MAX_MULTIPLICITY_SUM = 1000


def _kept(A: Arrangement,
          mu: Sequence[int]) -> Tuple[Multiplicity, _Walk, Optional[ExponentResult]]:
    """The one validation of exponent_pair and exponents: mu as a tuple, the
    walk of A and the result it keeps at mu, if any.  A mu with
    |mu| > MAX_MULTIPLICITY_SUM raises PreconditionViolated."""
    mu = tuple(mu)
    if len(mu) != len(A):
        raise LengthMismatch("multiplicity length does not match arrangement")
    for m in mu:  # checked before the lookup, where 1.0 would find the result kept at 1
        if not (isinstance(m, int) and m >= 0):  # the walk steps each entry down to 0
            raise PreconditionViolated(f"multiplicity entries must be non-negative integers: {mu}")
    if sum(mu) > MAX_MULTIPLICITY_SUM:
        raise PreconditionViolated(
            f"|mu| = {sum(mu)}; a solve takes at most {MAX_MULTIPLICITY_SUM}")
    walk = _walk(A)
    return mu, walk, walk.results.get(mu)


def exponent_pair(A: Arrangement, mu: Sequence[int]) -> Tuple[int, int]:
    """The exponents (d1, d2) at mu: the walk's kept result, else the
    degrees of the basis walked up the multiplicity lattice.  Builds no
    generator, so a scan pays only the walk's steps."""
    mu, walk, result = _kept(A, mu)
    if result is not None:
        return (result.d1, result.d2)
    _, d1, _, d2 = walk.basis(mu)
    total = sum(mu)
    if mu and total > 0 and d1 > total - max(mu):
        raise InternalInconsistency(
            f"d1={d1} exceeds the constructive bound |mu|-max(mu) for mu={mu}")
    return (d1, d2)


def exponents(A: Arrangement, mu: Sequence[int]) -> ExponentResult:
    """Exponents of the multiarrangement and a minimal-degree generator,
    kept in the walk's memo, so that a kept result costs one lookup:
    exponent_pair, and theta_min from the basis it walked to, one object
    per distinct value (the walk's thetas)."""
    mu, walk, result = _kept(A, mu)
    if result is None:
        d1, d2 = exponent_pair(A, mu)
        theta = walk.derivation(walk.minimal(walk.basis(mu))[0], d1)
        theta = walk.thetas.setdefault(theta, theta)
        result = walk.results[mu] = ExponentResult(d1, d2, theta)
    return result


def delta(A: Arrangement, mu: Sequence[int]) -> int:
    d1, d2 = exponent_pair(A, mu)
    return d2 - d1


def min_derivation(A: Arrangement, mu: Sequence[int]) -> Derivation:
    return exponents(A, mu).theta_min


def full_basis(A: Arrangement, mu: Sequence[int]) -> Tuple[Derivation, Derivation]:
    """A Saito-verified homogeneous basis with degrees (d1, d2).

    A partner equal to a theta_min of the walk is handed out as that object,
    with the valuations it keeps; the walk keeps no partner of its own."""
    t1 = exponents(A, mu).theta_min
    walk = _walk(A)
    state = walk.basis(tuple(mu))
    t2 = walk.derivation(walk.partner(state), state[3])
    t2 = walk.thetas.get(t2, t2)
    failed = _saito(A, tuple(mu), [t1, t2])
    if failed:
        raise InternalInconsistency(f"independent partner failed Saito verification: {failed}")
    return (t1, t2)


class SaitoVerdict(Frozen):
    __slots__ = _fields = ("accepted", "reason", "scalar")

    def __init__(self, accepted: bool, reason: Optional[str] = None,
                 scalar: Optional[Scalar] = None):
        set_field(self, "accepted", accepted)
        set_field(self, "reason", reason)
        set_field(self, "scalar", scalar)


def in_module(A: Arrangement, mu: Sequence[int], theta: Derivation) -> bool:
    """Membership test: alpha_H**mu_H divides theta(alpha_H) for every H,
    read off the valuations that theta keeps for A (Derivation.valuations)."""
    return theta.is_zero or _member(A, mu, theta)


def _member(A: Arrangement, mu: Sequence[int], theta: Derivation) -> bool:
    """in_module for a nonzero theta: v_H >= mu_H on every line, where
    theta(alpha_H) = 0 (v_H None) counts as infinite."""
    return all(v is None or v >= m for v, m in zip(theta.valuations(A), mu))


def _saito(A: Arrangement, mu: Multiplicity, gens: Sequence[Derivation]) -> Optional[str]:
    """Saito's criterion on integer images: the one decision of
    _Walk.certify, full_basis and verify_saito, on two Derivations, whose
    membership reads the valuations each keeps (Derivation.valuations).
    Returns None for a basis of D(A, mu); else the first failed check:
    "theta1" or "theta2" (zero or not in the module), "degree" (degrees
    not summing to |mu|), then "dependent".

    Members whose degrees sum to |mu| have det = c*Q(A, mu), since each
    alpha_H**mu_H divides det.  With every form normalised, only the line
    x has b = 0, so Q = x**k * (a product of forms with b != 0), k = mu_x:
    its first nonzero coefficient is Q_k.  So det_k, one coefficient from
    the first k + 1 images of each part (_determinant_coefficient), decides
    on every field.
    """
    for label, theta in zip(("theta1", "theta2"), gens):
        if theta.is_zero or not _member(A, mu, theta):
            return label
    (dom, p1, q1, _), (_, p2, q2, _) = (theta.cleared for theta in gens)
    if len(p1 or q1) + len(p2 or q2) - 2 != sum(mu):
        return "degree"
    k = next((m for lf, m in zip(A.forms, mu) if not lf.b), 0)  # mu at the line x
    if _determinant_coefficient(dom, p1, q1, p2, q2, k) == dom.zero:
        return "dependent"
    return None


def _determinant_coefficient(dom, p1: list, q1: list, p2: list, q2: list, k: int):
    """The image of coefficient k of P1*Q2 - P2*Q1 (poly._determinant),
    from the first k + 1 images of each part (a zero part as [] or as
    zeros): one dot product of P1, P2 with Q2, -Q1, each Q reversed."""
    def head(f: list) -> list:  # f's first k + 1 images, zeros past its end
        return f[:k + 1] + [dom.zero] * (k + 1 - len(f))

    q1, q2 = head(q1), head(q2)
    return dom.dot(head(p1) + head(p2), q2[::-1] + [dom.scale(v, -1) for v in reversed(q1)])


def verify_saito(A: Arrangement, mu: Sequence[int], t1: Derivation, t2: Derivation) -> SaitoVerdict:
    """Accept iff {t1, t2} is a basis of the derivation module at mu, as
    _saito decides on the images and valuations each derivation keeps; an
    accepted verdict carries the scalar c with det = c*Q(A, mu)."""
    mu = tuple(mu)
    if len(mu) != len(A):
        raise LengthMismatch("multiplicity length does not match arrangement")
    reason = _saito(A, mu, [t1, t2])
    scalar = None
    if reason is None:  # det = c*Q(A, mu): c is their quotient at Q's first nonzero coefficient
        Q = defining_polynomial(A, mu).coeffs
        k = next(i for i, c in enumerate(Q) if c)
        scalar = saito_determinant(t1, t2).coeffs[k] / Q[k]
    if reason in ("theta1", "theta2"):
        zero = (t1 if reason == "theta1" else t2).is_zero
        reason = f"membership: {reason} {'is zero' if zero else 'not in the module'}"
    elif reason:
        reason = {"degree": f"degree: {t1.degree}+{t2.degree} != |mu|={sum(mu)}",
                  "dependent": "dependent: determinant is zero"}[reason]
    return SaitoVerdict(reason is None, reason, scalar)
