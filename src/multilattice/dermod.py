"""The derivation-module solver.

A derivation theta = P*dx + Q*dy of degree d belongs to the module of an
arrangement with multiplicity mu iff for every hyperplane H the polynomial
theta(alpha_H) is divisible by alpha_H**mu_H.

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
elimination is only the tests' oracle for the walk; it stays in this module
because the benchmark's tracer (perfbench/tracer.py) binds its functions.
Its two constraint constructions, whose ranks run on the images, must
always agree; the second is the differential oracle of the first:

* ``basis``: read the coordinates of theta(alpha_H) on the basis
  {alpha**i * beta**(d-i)}, for a fixed complementary form beta, off a
  closed form and kill the low alpha-coordinates.  Production builds these
  rows on integer images (_residual_rows, the rows the walk takes its
  residuals with); _alpha_basis_rows and _constraint_rows_basis build the
  same rows in field arithmetic and are only the tests' oracle;
* ``division``: run the exact synthetic division of theta(alpha_H) by
  alpha_H symbolically and kill the remainders, then clear the field rows.
"""

from __future__ import annotations

import atexit
import functools
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InternalInconsistency, LengthMismatch, PreconditionViolated
from .field import FieldSpec, Scalar
from .linalg import domain_of, nullspace, rank
from .poly import Arrangement, Derivation, HomogPoly, LinearForm, _determinant
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


def _constraint_rows_division(A: Arrangement, mu: Sequence[int], d: int) -> List[List[Scalar]]:
    fs = A.field
    zero, one = fs.zero(), fs.one()
    ncols = 2 * (d + 1)
    rows: List[List[Scalar]] = []
    for hi, (lf, m) in enumerate(zip(A.forms, mu)):
        m = min(m, d + 1)
        if m <= 0:
            continue
        a, b = lf.a, lf.b
        # coefficient j of theta(alpha) as a functional of the unknowns
        funcs: List[List[Scalar]] = []
        for j in range(d + 1):
            row = [zero] * ncols
            row[j] = a
            row[d + 1 + j] = b
            funcs.append(row)
        for _ in range(m):
            deg = len(funcs) - 1
            if not lf.a:
                # alpha = y: remainder is the x^deg coefficient
                rows.append(funcs[deg])
                funcs = funcs[:deg]
            else:
                r = -lf.b
                acc = funcs[deg]
                quot: List[Optional[List[Scalar]]] = [None] * deg
                for j in range(deg - 1, -1, -1):
                    quot[j] = acc
                    acc = [fj + r * aj for fj, aj in zip(funcs[j], acc)]
                rows.append(acc)
                funcs = quot
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


def graded_dimension(A: Arrangement, mu: Sequence[int], d: int, method: str = "basis") -> int:
    """Dimension of the degree-d piece of the derivation module, by one rank.

    The tests' oracle for the walk; no production path calls it.  It stays
    here, and importable from this module, because perfbench/tracer.py
    binds it.
    """
    if len(mu) != len(A):
        raise LengthMismatch("multiplicity length does not match arrangement")
    if d < 0:
        return 0
    dom = domain_of(A.field.one())
    if method == "basis":
        rows = _constraint_rows_images(A, mu, d)
    elif method == "division":
        rows = [dom.clear(r)[0] for r in _constraint_rows_division(A, mu, d)]
    else:
        raise ValueError(f"unknown method {method!r}")
    ncols = 2 * (d + 1)
    return ncols - rank(rows, dom, ncols)


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
    exponents returned at each mu.
    """

    def __init__(self, A: Arrangement):
        self.A = A
        self.dom = domain_of(A.forms[0].a)
        # cleared alpha_h as a coefficient list [y, x]
        self.forms = [lf.images[0] for lf in A.forms]
        self.rows: Dict[Tuple[int, int, int], List] = {}
        self.states: Dict[Multiplicity, _State] = {}
        self.results: Dict[Multiplicity, ExponentResult] = {}

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
        dom, n = self.dom, d + 1
        p, q = [dom.zero] * (n + 1), [dom.zero] * (n + 1)
        dom.convolve(p, self.forms[h], t[:n], 1)
        dom.convolve(q, self.forms[h], t[n:], 1)
        return dom.primitive(p + q)

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
            out = [dom.zero] * len(t2)
            dom.convolve(out, [rs], t2, 1)
            dom.convolve(out, [r2], shifted, -1)
            t2 = dom.primitive(out)
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
            h = max(i for i, v in enumerate(nu) if v)
            chain.append(h)
            nu = nu[:h] + (nu[h] - 1,) + nu[h + 1:]
        rooted = not any(nu)
        state = self.states.get(nu) or self._root()
        walked = []
        for h in reversed(chain):
            state = self.step(state, h, nu[h])
            nu = nu[:h] + (nu[h] + 1,) + nu[h + 1:]
            walked.append((nu, state))
        if rooted and chain:
            self.certify(mu, state)
        if len(self.states) + len(walked) > _MAX_STATES:
            self.states.clear()
            self.rows.clear()
            self.results.clear()
        self.states.update(walked)
        return state

    def certify(self, mu: Multiplicity, state: _State) -> None:
        """Saito's criterion (_saito) on the images of a state: raise
        InternalInconsistency unless it is a basis of D(A, mu), which
        proves both exponents."""
        t1, d1, t2, d2 = state
        # the shape of Derivation.cleared
        gens = [(self.dom, t[:d + 1], t[d + 1:], 1) for t, d in ((t1, d1), (t2, d2))]
        failed, _ = _saito(self.A, mu, gens)
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
        out = [zero] * len(t1)
        self.dom.convolve(out, [t2[l1]], t1, 1)
        self.dom.convolve(out, [t1[l1]], t2, -1)
        return self.dom.primitive(out), t1

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
                out = [dom.zero] * len(w)
                dom.convolve(out, [t[last]], w, 1)
                dom.convolve(out, [w[f]], _shift(t, d1, i, k - i, dom.zero), -1)
                w = dom.primitive(out)
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


def _kept(A: Arrangement,
          mu: Sequence[int]) -> Tuple[Multiplicity, _Walk, Optional[ExponentResult]]:
    """The one validation of exponent_pair and exponents: mu as a tuple, the
    walk of A and the result it keeps at mu, if any."""
    mu = tuple(mu)
    if len(mu) != len(A):
        raise LengthMismatch("multiplicity length does not match arrangement")
    for m in mu:  # checked before the lookup, where 1.0 would find the result kept at 1
        if not (isinstance(m, int) and m >= 0):  # the walk steps each entry down to 0
            raise PreconditionViolated(f"multiplicity entries must be non-negative integers: {mu}")
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
    exponent_pair, and theta_min from the basis it walked to."""
    mu, walk, result = _kept(A, mu)
    if result is None:
        d1, d2 = exponent_pair(A, mu)
        theta = walk.derivation(walk.minimal(walk.basis(mu))[0], d1)
        result = walk.results[mu] = ExponentResult(d1, d2, theta)
    return result


def delta(A: Arrangement, mu: Sequence[int]) -> int:
    d1, d2 = exponent_pair(A, mu)
    return d2 - d1


def min_derivation(A: Arrangement, mu: Sequence[int]) -> Derivation:
    return exponents(A, mu).theta_min


def full_basis(A: Arrangement, mu: Sequence[int]) -> Tuple[Derivation, Derivation]:
    """A Saito-verified homogeneous basis with degrees (d1, d2)."""
    t1 = exponents(A, mu).theta_min
    walk = _walk(A)
    state = walk.basis(tuple(mu))
    t2 = walk.derivation(walk.partner(state), state[3])
    failed, _ = _saito(A, tuple(mu), [t1.cleared, t2.cleared])
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
    """Membership test: alpha_H**mu_H divides theta(alpha_H) for every H.

    theta(alpha) = a*P + b*Q is formed on the integer images of the field's
    linalg.Domain and divided exactly.
    """
    return theta.is_zero or _in_module_images(A, mu, *theta.cleared[:3])


def _in_module_images(A: Arrangement, mu: Sequence[int], dom, P: List, Q: List) -> bool:
    """in_module on the images P and Q of a nonzero derivation's parts (a
    zero part as [] or as zeros)."""
    zero = dom.zero
    for lf, m in zip(A.forms, mu):
        if m <= 0:
            continue
        if not lf.a:
            # alpha = y and theta(alpha) = Q: its top m coefficients must vanish
            if any(v != zero for v in Q[max(len(Q) - m, 0):]):
                return False
            continue
        (r, s), _ = lf.images  # the images of b and a
        f = [zero] * max(len(P), len(Q))
        dom.convolve(f, [s], P, 1)
        dom.convolve(f, [r], Q, 1)
        if f.count(zero) < len(f) and not dom.power_divides(f, s, r, m):
            return False
    return True


def _saito(A: Arrangement, mu: Multiplicity,
           gens: Sequence[Tuple]) -> Tuple[Optional[str], Optional[Tuple]]:
    """Saito's criterion on integer images: the one decision of
    _Walk.certify, full_basis and verify_saito, on two generators, each
    given as Derivation.cleared.  Returns (None, c) for a basis of D(A, mu)
    with det = c*Q(A, mu), c as the ([image], den) of dom.over; else
    (check, None) for the first failed check:
    "theta1" or "theta2" (zero or not in the module), "degree" (degrees
    not summing to |mu|), then "dependent".

    Members whose degrees sum to |mu| have det = c*Q(A, mu), since each
    alpha_H**mu_H divides det.  With every form normalised, only the line
    x has b = 0, so Q = x**k * (a product of forms with b != 0), k = mu_x:
    its first nonzero coefficient is Q_k = the product of b_H**mu_H over
    H != x.  So det_k, from the first k + 1 images of each part, decides
    on every field, with c = det_k / Q_k.
    """
    for label, cleared in zip(("theta1", "theta2"), gens):
        if cleared is None or not _in_module_images(A, mu, *cleared[:3]):
            return label, None
    (dom, p1, q1, den1), (_, p2, q2, den2) = gens
    if len(p1 or q1) + len(p2 or q2) - 2 != sum(mu):
        return "degree", None
    q, qden = dom.one, 1  # Q_k = q / qden
    k = 0
    for lf, m in zip(A.forms, mu):
        (r, _), den = lf.images  # r / den = b
        if r == dom.zero:  # alpha = x
            k = m
        else:
            q = functools.reduce(dom.mul, [r] * m, q)
            qden *= den ** m
    det = _determinant(dom, p1[:k + 1], q1[:k + 1], p2[:k + 1], q2[:k + 1])[k]
    if det == dom.zero:
        return "dependent", None
    return None, dom.over([dom.scale(det, qden)], dom.scale(q, den1 * den2))


def verify_saito(A: Arrangement, mu: Sequence[int], t1: Derivation, t2: Derivation) -> SaitoVerdict:
    """Accept iff {t1, t2} is a basis of the derivation module at mu, as
    _saito decides on the images each derivation caches; an accepted
    verdict carries the scalar c with det = c*Q(A, mu)."""
    mu = tuple(mu)
    if len(mu) != len(A):
        raise LengthMismatch("multiplicity length does not match arrangement")
    reason, c = _saito(A, mu, [t1.cleared, t2.cleared])
    scalar = c and t1.cleared[0].back(c[0][0], c[1])
    if reason in ("theta1", "theta2"):
        zero = (t1 if reason == "theta1" else t2).is_zero
        reason = f"membership: {reason} {'is zero' if zero else 'not in the module'}"
    elif reason:
        reason = {"degree": f"degree: {t1.degree}+{t2.degree} != |mu|={sum(mu)}",
                  "dependent": "dependent: determinant is zero"}[reason]
    return SaitoVerdict(reason is None, reason, scalar)
