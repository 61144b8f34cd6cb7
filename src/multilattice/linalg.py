"""Integer images and exact kernels per field.

Each field has one Domain: it clears elements to integer images (ints over
Q, integer pairs (a, b) for a + b*sqrt(d) over Q(sqrt d), residues over
F_p), builds elements back, and runs every exact kernel on the images:
convolution, the linear combination a*u - b*v of two image lists, the
valuation along a line (the power of a linear form that divides a
polynomial, by exact synthetic division), and the products,
integer multiples, dot products, content removal and division by a lead
coefficient that the lattice walk in dermod, its Saito certificate and
poly's derivations run on.
Elimination is written once, on three of those kernels (over, combine,
primitive), for every field: rank is its pivot count on rows of images;
nullspace takes field rows, clears them and back-substitutes from its
echelon rows; invert_matrix reads the inverse off a nullspace.  All three
are the tests' elimination oracle: no production path eliminates, and
they stay here because perfbench/tracer.py binds them.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Callable, List, NamedTuple, Sequence, Tuple

from .errors import InternalInconsistency
from .field import FieldSpec, ModInt, QuadElem, Scalar


class Domain(NamedTuple):
    """The integer images of one field's elements and the kernels on them.

    Coefficient lists of polynomials run from the y-power end as in
    HomogPoly.  Members are module-level functions or partials of them, so
    a Derivation that caches its images still pickles to pool workers.
    No member eliminates: _echelon does, for every field, on over, combine
    and primitive.
    """

    clear: Callable  # row -> (images, den) with row[i] == images[i] / den
    zero: object  # the image of 0
    one: object  # the image of 1
    back: Callable  # (image[, den]) -> the field element image / den
    convolve: Callable  # (out, f, g, sign) adds sign * f * g into out
    combine: Callable  # (a, u, b, v) -> the images of a*u - b*v, u and v of one length
    valuation: Callable  # (f, s, r) -> the largest m with (s*t + r)**m dividing f(t), f nonzero
    mul: Callable  # (u, v) -> the image of u * v
    scale: Callable  # (u, n) -> the image of n * u, for an integer n
    dot: Callable  # (u, v) -> the image of sum(u[i] * v[i])
    primitive: Callable  # vec -> vec over its integer content (residues reduced over F_p)
    over: Callable  # (vec, v) -> clear of the elements vec[i] / v, for images (v nonzero)

    def __reduce__(self):
        # by its field, so that an unpickled domain is domain_of's own and
        # the derivations over it compare equal
        return domain_of, (self.back(self.zero),)


def _clear_rational(row) -> Tuple[List[int], int]:
    den = math.lcm(*(c.denominator for c in row))
    return [c.numerator * (den // c.denominator) for c in row], den


def _convolve_int(out: List[int], f: Sequence[int], g: Sequence[int], sign: int) -> None:
    n = len(g)
    for i, a in enumerate(f):
        if a:
            a *= sign
            out[i:i + n] = [o + a * b for o, b in zip(out[i:i + n], g)]


def _combine_int(a: int, u: Sequence[int], b: int, v: Sequence[int]) -> List[int]:
    return [a * x - b * y for x, y in zip(u, v)]


def _leading_zeros(f, zero) -> int:
    """The valuation along the line x (r = 0): the power of t dividing f."""
    return next(i for i, c in enumerate(f) if c != zero)


def _valuation_int(f: List[int], s: int, r: int) -> int:
    """The largest m with (s*t + r)**m dividing f(t), for f and s nonzero,
    by exact synthetic division until a remainder is nonzero.

    With u = s*t the divisor is the monic u + r, and f becomes
    s**n * f(u/s), whose coefficients f[i] * s**(n-i) are ints.  A monic
    divisor leaves integer quotients, so each division is one pass on ints,
    from the top coefficient, and its remainder decides.
    """
    if not r:
        return _leading_zeros(f, 0)
    g = f[::-1]
    if s != 1:
        g = [c * s ** k for k, c in enumerate(g)]
    m = 0
    while True:
        acc = 0
        g = [acc := c - r * acc for c in g]  # the quotient, then the remainder
        if g.pop():
            return m
        m += 1


def _dot_int(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(operator.mul, u, v))


def _primitive_int(vec: List[int]) -> List[int]:
    g = math.gcd(*vec)
    return vec if g <= 1 else [c // g for c in vec]


def _over_int(vec: List[int], v: int) -> Tuple[List[int], int]:
    # clear gives the images and the den > 0 that share no factor
    g = math.gcd(*vec, v) if v > 0 else -math.gcd(*vec, v)
    return [c // g for c in vec], v // g


_RATIONAL_DOMAIN = Domain(_clear_rational, 0, 1, Fraction, _convolve_int, _combine_int,
                          _valuation_int, operator.mul, operator.mul, _dot_int, _primitive_int,
                          _over_int)


def _clear_quadratic(row) -> Tuple[List[Tuple[int, int]], int]:
    den = math.lcm(*(c.a.denominator for c in row), *(c.b.denominator for c in row))
    return [(c.a.numerator * (den // c.a.denominator), c.b.numerator * (den // c.b.denominator))
            for c in row], den


def _qmul(u: Tuple[int, int], v: Tuple[int, int], d: int) -> Tuple[int, int]:
    """Product of integer pairs read as u[0] + u[1]*sqrt(d)."""
    return (u[0] * v[0] + d * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _qscale(u: Tuple[int, int], n: int) -> Tuple[int, int]:
    return (u[0] * n, u[1] * n)


def _convolve_quad(d: int, out, f, g, sign: int) -> None:
    for i, a in enumerate(f):
        if a != (0, 0):
            a = (sign * a[0], sign * a[1])
            for j, b in enumerate(g):
                u, v = _qmul(a, b, d)
                o = out[i + j]
                out[i + j] = (o[0] + u, o[1] + v)


def _combine_quad(d: int, a, u, b, v) -> List[Tuple[int, int]]:
    (a0, a1), (b0, b1) = a, b
    da1, db1 = d * a1, d * b1
    return [(a0 * x0 + da1 * x1 - b0 * y0 - db1 * y1, a0 * x1 + a1 * x0 - b0 * y1 - b1 * y0)
            for (x0, x1), (y0, y1) in zip(u, v)]


def _valuation_quad(d: int, f, s, r) -> int:
    """The valuation of _valuation_int for s = (q, 0), q a nonzero int:
    with u = q*t the divisor is the monic u + r, and q**n * f(u/q) has the
    integer pairs f[i] * q**(n-i), so each division is exact on them."""
    if r == (0, 0):
        return _leading_zeros(f, (0, 0))
    q = s[0]
    g = f[::-1]
    if q != 1:
        g = [(a * q ** k, b * q ** k) for k, (a, b) in enumerate(g)]
    r0, r1, dr1 = r[0], r[1], d * r[1]
    m = 0
    while True:
        acc = (0, 0)
        # c - r*acc, the quotient and then the remainder
        g = [acc := (a - r0 * acc[0] - dr1 * acc[1], b - r0 * acc[1] - r1 * acc[0])
             for a, b in g]
        if g.pop() != (0, 0):
            return m
        m += 1


def _dot_quad(d: int, u, v) -> Tuple[int, int]:
    a = b = 0
    for x, y in zip(u, v):
        if x != (0, 0) and y != (0, 0):
            a += x[0] * y[0] + d * x[1] * y[1]
            b += x[0] * y[1] + x[1] * y[0]
    return (a, b)


def _primitive_quad(vec: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    g = math.gcd(*(c for pair in vec for c in pair))
    return vec if g <= 1 else [(a // g, b // g) for a, b in vec]


def _over_quad(d: int, vec, v) -> Tuple[List[Tuple[int, int]], int]:
    # vec[i] / v = vec[i] * conj(v) / norm(v), and the norm is nonzero since
    # d is no square; then as _over_int, on both parts of every image
    n = v[0] * v[0] - d * v[1] * v[1]
    vec = [_qmul(c, (v[0], -v[1]), d) for c in vec]
    g = math.gcd(*(c for pair in vec for c in pair), n) * (1 if n > 0 else -1)
    return [(a // g, b // g) for a, b in vec], n // g


def _quad_back(d: int, v, den: int = 1) -> QuadElem:
    if den == 1:
        return QuadElem(Fraction(v[0]), Fraction(v[1]), d)
    return QuadElem(Fraction(v[0], den), Fraction(v[1], den), d)


@functools.lru_cache(maxsize=None)
def _quadratic_domain(d: int) -> Domain:
    return Domain(_clear_quadratic, (0, 0), (1, 0), functools.partial(_quad_back, d),
                  functools.partial(_convolve_quad, d), functools.partial(_combine_quad, d),
                  functools.partial(_valuation_quad, d),
                  functools.partial(_qmul, d=d), _qscale, functools.partial(_dot_quad, d),
                  _primitive_quad, functools.partial(_over_quad, d))


def _convolve_modp(p: int, out: List[int], f, g, sign: int) -> None:
    _convolve_int(out, f, g, sign)
    out[:] = [o % p for o in out]


def _combine_modp(p: int, a: int, u: Sequence[int], b: int, v: Sequence[int]) -> List[int]:
    return [(a * x - b * y) % p for x, y in zip(u, v)]


def _valuation_modp(p: int, f: List[int], s: int, r: int) -> int:
    """The valuation of _valuation_int mod p (s a unit, f reduced and
    nonzero): synthetic division by the monic t + r/s."""
    if not r:
        return _leading_zeros(f, 0)
    r = r * pow(s, -1, p) % p
    g = f[::-1]
    m = 0
    while True:
        acc = 0
        g = [acc := (c - r * acc) % p for c in g]  # the quotient, then the remainder
        if g.pop():
            return m
        m += 1


def _mul_modp(p: int, u: int, v: int) -> int:
    return u * v % p


def _dot_modp(p: int, u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(operator.mul, u, v)) % p


def _primitive_modp(p: int, vec: List[int]) -> List[int]:
    return [c % p for c in vec]


def _over_modp(p: int, vec: List[int], v: int) -> Tuple[List[int], int]:
    inv = pow(v, -1, p)
    return [c * inv % p for c in vec], 1


def _clear_modp(row) -> Tuple[List[int], int]:
    return [c.v for c in row], 1


def _modp_back(p: int, v: int, den: int = 1) -> ModInt:
    # residues clear over den = 1, so every product of denominators is 1
    return ModInt(v, p)


@functools.lru_cache(maxsize=None)
def _prime_domain(p: int) -> Domain:
    return Domain(_clear_modp, 0, 1, functools.partial(_modp_back, p),
                  functools.partial(_convolve_modp, p), functools.partial(_combine_modp, p),
                  functools.partial(_valuation_modp, p),
                  functools.partial(_mul_modp, p), functools.partial(_mul_modp, p),
                  functools.partial(_dot_modp, p),
                  functools.partial(_primitive_modp, p), functools.partial(_over_modp, p))


def domain_of(x: Scalar) -> Domain:
    """The domain of the field x lies in."""
    if isinstance(x, QuadElem):
        return _quadratic_domain(x.d)
    if isinstance(x, ModInt):
        return _prime_domain(x.p)
    return _RATIONAL_DOMAIN


def _echelon(dom: Domain, mat: Sequence[Sequence], ncols: int):
    """Forward elimination on rows of images; returns (echelon rows, pivot columns).

    The pivot row is divided by its pivot (over), so the pivot is rational,
    and each row below becomes pr[c]*row - row[c]*pr over its content
    (combine, primitive), the combination the lattice walk takes.  Rows are
    reduced (primitive) before any pivot is read, so an unreduced residue
    is no pivot over F_p; the rows of mat are left as they are.
    """
    zero, over, combine, primitive = dom.zero, dom.over, dom.combine, dom.primitive
    mat = [r for r in map(primitive, mat) if r.count(zero) < len(r)]
    pivcols = []
    for c in range(ncols):
        r = len(pivcols)
        for piv in range(r, len(mat)):
            if mat[piv][c] != zero:
                break
        else:
            continue
        pr = over(mat[piv], mat[piv][c])[0]
        mat[piv], mat[r] = mat[r], pr
        lead, tail = pr[c], pr[c:]
        for i in range(r + 1, len(mat)):
            row = mat[i]
            if row[c] != zero:
                # the rows below are zero left of c
                mat[i] = [zero] * c + primitive(combine(lead, row[c:], row[c], tail))
        pivcols.append(c)
    return mat[:len(pivcols)], pivcols


def rank(rows: Sequence[Sequence], dom: Domain, ncols: int) -> int:
    """Rank of a list of rows of integer images, exactly, over dom's field.

    The rows are left as they are.  The tests' oracle (see the module
    docstring).
    """
    return len(_echelon(dom, rows, ncols)[1])


def nullspace(rows: Sequence[Sequence[Scalar]], fs: FieldSpec, ncols: int) -> List[List[Scalar]]:
    """Deterministic nullspace basis (free variables in column order).

    Back-substitution runs on images too: each vector is kept as images
    over a common denominator den, and solving for a pivot multiplies both
    by the pivot (rational, see _echelon).
    """
    dom = domain_of(fs.one())
    zero, one, mul, back = dom.zero, dom.one, dom.mul, dom.back
    ech, pivcols = _echelon(dom, [dom.clear(r)[0] for r in rows], ncols)
    basis = []
    for free in sorted(set(range(ncols)).difference(pivcols)):
        v, den = [zero] * ncols, one
        v[free] = one
        for pc, row in zip(reversed(pivcols), reversed(ech)):
            s = dom.dot(row[pc + 1:], v[pc + 1:])
            if s != zero:
                v, den = [mul(x, row[pc]) for x in v], mul(den, row[pc])
                v[pc] = dom.scale(s, -1)
        images, den = dom.over(v, den)
        basis.append([back(x, den) for x in images])
    return basis


def invert_matrix(rows: Sequence[Sequence[Scalar]], fs: FieldSpec) -> List[List[Scalar]]:
    """Inverse of a square matrix A, read off the nullspace of [A | -I]; raises if singular.

    Every kernel vector (x, y) has A*x = y.  A is invertible exactly when
    its n columns all pivot, that is when the free coordinates are y: then
    the basis vector with y = e_j has x = A^-1 * e_j.
    """
    n = len(rows)
    zero, one = fs.zero(), fs.one()
    eye = [[one if i == j else zero for j in range(n)] for i in range(n)]
    basis = nullspace([list(r) + [-e for e in unit] for r, unit in zip(rows, eye)], fs, 2 * n)
    if [v[n:] for v in basis] != eye:
        raise InternalInconsistency("singular basis-change matrix")
    return [list(col) for col in zip(*(v[:n] for v in basis))]
