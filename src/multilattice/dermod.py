"""The derivation-module solver.

A derivation theta = P*dx + Q*dy of degree d belongs to the module of an
arrangement with multiplicity mu iff for every hyperplane H the polynomial
theta(alpha_H) is divisible by alpha_H**mu_H.  Each divisibility requirement
is linear in the 2*(d+1) unknown coefficients of P and Q, so the graded
piece D_d of the module is the nullspace of a stacked constraint system.

Every 2-multiarrangement is free (Ziegler 1989): its exponents d1 <= d2
satisfy d1 + d2 = |mu| and dim D_d = max(0, d-d1+1) + max(0, d-d2+1).  One
rank below d2 therefore fixes d1, and the nullspace at d1, which yields the
minimal generator, must have the dimension freeness predicts.

Two independent constraint constructions are provided:

* ``basis``: read the coordinates of theta(alpha_H) on the basis
  {alpha**i * beta**(d-i)}, for a fixed complementary form beta, off a
  closed form and kill the low alpha-coordinates;
* ``division``: run the exact synthetic division of theta(alpha_H) by
  alpha_H symbolically and kill the remainders.

They must always agree; the second serves as a differential-testing oracle
for the first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb
from typing import List, Optional, Sequence, Tuple

from .errors import InternalInconsistency, LengthMismatch
from .field import FieldSpec, Scalar, invert
from .linalg import nullspace, rank
from .poly import (
    Arrangement,
    Derivation,
    HomogPoly,
    LinearForm,
    defining_polynomial,
    saito_determinant,
)

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


def graded_dimension(A: Arrangement, mu: Sequence[int], d: int, method: str = "basis") -> int:
    """Dimension of the degree-d piece of the derivation module."""
    if len(mu) != len(A):
        raise LengthMismatch("multiplicity length does not match arrangement")
    if d < 0:
        return 0
    if method == "basis":
        rows = _constraint_rows_basis(A, mu, d)
    elif method == "division":
        rows = _constraint_rows_division(A, mu, d)
    else:
        raise ValueError(f"unknown method {method!r}")
    ncols = 2 * (d + 1)
    return ncols - rank(rows, A.field, ncols)


def _nullspace_derivations(A: Arrangement, mu: Sequence[int], d: int) -> List[Derivation]:
    rows = _constraint_rows_basis(A, mu, d)
    basis = nullspace(rows, A.field, 2 * (d + 1))
    out = []
    for v in basis:
        P = HomogPoly.make(tuple(v[: d + 1]))
        Q = HomogPoly.make(tuple(v[d + 1:]))
        out.append(Derivation(P, Q).canonical())
    return out


@dataclass(frozen=True)
class ExponentResult:
    """Exponents (d1 <= d2), their gap, and the minimal-degree generator.

    theta_min is canonical and unique up to scalar only when delta > 0;
    when delta == 0 it is one of several minimal generators and carries
    the non_unique flag.
    """

    d1: int
    d2: int
    delta: int
    theta_min: Derivation
    non_unique: bool

    def as_pair(self) -> Tuple[int, int]:
        return (self.d1, self.d2)


def _minimal_degree(A: Arrangement, mu: Multiplicity) -> int:
    """The lower exponent d1, from the rank at one degree.

    For |mu| >= 1 take d* = (|mu| - 1) // 2.  Then d* < d2 and d1 <= d* + 1,
    so freeness gives dim D_{d*} = d* + 1 - d1.
    """
    total = sum(mu)
    if total == 0:
        return 0
    top = (total - 1) // 2
    return top + 1 - graded_dimension(A, mu, top)


def exponents(A: Arrangement, mu: Sequence[int], cache=None) -> ExponentResult:
    """Exponents of the multiarrangement and a minimal-degree generator.

    The nullspace at d1 is the consistency check: freeness predicts
    dimension 1 when delta > 0 and 2 when delta == 0.
    """
    mu = tuple(mu)
    if len(mu) != len(A):
        raise LengthMismatch("multiplicity length does not match arrangement")
    if cache is not None:
        hit = cache.get(A, mu)
        if hit is not None:
            return hit
    total = sum(mu)
    d1 = _minimal_degree(A, mu)
    d2 = total - d1
    if mu and total > 0 and d1 > total - max(mu):
        raise InternalInconsistency(
            f"d1={d1} exceeds the constructive bound |mu|-max(mu) for mu={mu}")
    gens = _nullspace_derivations(A, mu, d1)
    delta = d2 - d1
    expected = 1 if delta > 0 else 2
    if delta < 0 or len(gens) != expected:
        raise InternalInconsistency(
            f"degree-{d1} piece has dimension {len(gens)}, freeness predicts"
            f" {expected} for exponents ({d1}, {d2}), mu={mu}")
    result = ExponentResult(d1, d2, delta, gens[0], non_unique=(delta == 0))
    if cache is not None:
        cache.put(A, mu, result)
    return result


def delta(A: Arrangement, mu: Sequence[int], cache=None) -> int:
    return exponents(A, mu, cache=cache).delta


def min_derivation(A: Arrangement, mu: Sequence[int], cache=None) -> Derivation:
    return exponents(A, mu, cache=cache).theta_min


def full_basis(A: Arrangement, mu: Sequence[int], cache=None) -> Tuple[Derivation, Derivation]:
    """A Saito-verified homogeneous basis with degrees (d1, d2)."""
    res = exponents(A, mu, cache=cache)
    t1 = res.theta_min
    for cand in _nullspace_derivations(A, mu, res.d2):
        if not saito_determinant(t1, cand).is_zero:
            verdict = verify_saito(A, mu, t1, cand)
            if not verdict.accepted:
                raise InternalInconsistency(
                    f"independent partner failed Saito verification: {verdict.reason}")
            return (t1, cand)
    raise InternalInconsistency(f"no independent partner at degree {res.d2} for mu={mu}")


@dataclass(frozen=True)
class SaitoVerdict:
    accepted: bool
    reason: Optional[str] = None
    scalar: Optional[Scalar] = None


def in_module(A: Arrangement, mu: Sequence[int], theta: Derivation) -> bool:
    """Membership test: alpha_H**mu_H divides theta(alpha_H) for every H.

    theta(alpha) = a*P + b*Q is formed on the integer images of the field's
    linalg.Domain and divided exactly.
    """
    if theta.is_zero:
        return True
    dom, P, Q, _ = theta.cleared
    for lf, m in zip(A.forms, mu):
        if m <= 0:
            continue
        if not lf.a:
            # alpha = y and theta(alpha) = Q: its top m coefficients must vanish
            if any(theta.Q.coeffs[max(len(theta.Q.coeffs) - m, 0):]):
                return False
            continue
        (s, r), _ = dom.clear((lf.a, lf.b))
        f = [dom.zero] * (theta.degree + 1)
        dom.convolve(f, [s], P, 1)
        dom.convolve(f, [r], Q, 1)
        if f.count(dom.zero) < len(f) and not dom.power_divides(f, s, r, m):
            return False
    return True


def verify_saito(A: Arrangement, mu: Sequence[int], t1: Derivation, t2: Derivation) -> SaitoVerdict:
    """Accept iff {t1, t2} is a basis of the derivation module at mu.

    Checks, in order: membership of both derivations, the degree-sum
    identity, and that the determinant is a nonzero scalar multiple of
    the defining polynomial.
    """
    mu = tuple(mu)
    for label, t in (("theta1", t1), ("theta2", t2)):
        if t.is_zero:
            return SaitoVerdict(False, f"membership: {label} is zero")
        if not in_module(A, mu, t):
            return SaitoVerdict(False, f"membership: {label} not in the module")
    if t1.degree + t2.degree != sum(mu):
        return SaitoVerdict(
            False, f"degree: {t1.degree}+{t2.degree} != |mu|={sum(mu)}")
    det = saito_determinant(t1, t2)
    if det.is_zero:
        return SaitoVerdict(False, "dependent: determinant is zero")
    q = defining_polynomial(A, mu)
    lead_idx = next(i for i, c in enumerate(q.coeffs) if c)
    c = det.coeffs[lead_idx] * invert(q.coeffs[lead_idx])
    if det != q.scale(c):
        return SaitoVerdict(False, "determinant is not a scalar multiple of the defining polynomial")
    return SaitoVerdict(True, None, c)
