"""Integer images and exact kernels per field.

Each field has one Domain: it clears elements to integer images (ints over
Q, integer pairs (a, b) for a + b*sqrt(d) over Q(sqrt d), residues over
F_p), builds elements back, and runs every exact kernel on the images:
fraction-free (Bareiss) or unit-pivot mod-p elimination, convolution,
synthetic division, evaluation, and the products, integer multiples, dot
products, content removal and division by a lead coefficient that the
lattice walk and the rank check in dermod run on.
rank is the elimination's pivot count on rows of images.  nullspace, the
tests' elimination oracle, takes field rows, clears them and
back-substitutes from the same echelon form.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Callable, List, NamedTuple, Sequence, Tuple

from .errors import InternalInconsistency
from .field import FieldSpec, ModInt, QuadElem, Scalar, invert


class Domain(NamedTuple):
    """The integer images of one field's elements and the kernels on them.

    Coefficient lists of polynomials run from the y-power end as in
    HomogPoly.  Members are module-level functions or partials of them, so
    a Derivation that caches its images still pickles to pool workers.
    """

    clear: Callable  # row -> (images, den) with row[i] == images[i] / den
    zero: object  # the image of 0
    back: Callable  # (image[, den]) -> the field element image / den
    echelon: Callable  # (mat, ncols) -> (echelon rows, pivot columns); mat is consumed
    convolve: Callable  # (out, f, g, sign) adds sign * f * g into out
    power_divides: Callable  # (f, s, r, m) -> whether (s*t + r)**m divides f(t)
    mul: Callable  # (u, v) -> the image of u * v
    scale: Callable  # (u, n) -> the image of n * u, for an integer n
    dot: Callable  # (u, v) -> the image of sum(u[i] * v[i])
    primitive: Callable  # vec -> vec over its integer content (residues reduced over F_p)
    ratio: Callable  # (v, lead) -> the field element v / lead (lead nonzero)
    evaluate: Callable  # (f, t) -> the image of f(t, 1), for an integer t


def _clear_rational(row) -> Tuple[List[int], int]:
    den = math.lcm(*(c.denominator for c in row))
    return [c.numerator * (den // c.denominator) for c in row], den


def _echelon_int(mat: List[List[int]], ncols: int):
    """Bareiss forward elimination; returns (echelon rows, pivot columns)."""
    prev = 1
    r = 0
    nrows = len(mat)
    pivcols = []
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pr = mat[r]
        for i in range(r + 1, nrows):
            ri = mat[i]
            if ri[c]:
                f = ri[c]
                for k in range(c + 1, ncols):
                    ri[k] = (pr[c] * ri[k] - f * pr[k]) // prev
                ri[c] = 0
            else:
                for k in range(c + 1, ncols):
                    ri[k] = pr[c] * ri[k] // prev
        prev = pr[c]
        pivcols.append(c)
        r += 1
    return mat[:r], pivcols


def _convolve_int(out: List[int], f: Sequence[int], g: Sequence[int], sign: int) -> None:
    n = len(g)
    for i, a in enumerate(f):
        if a:
            a *= sign
            out[i:i + n] = [o + a * b for o, b in zip(out[i:i + n], g)]


def _power_divides_int(f: List[int], s: int, r: int, m: int) -> bool:
    """Exact synthetic division by s*t + r (gcd(s, r) = 1, f nonzero).

    By Gauss's lemma a primitive divisor leaves an integer quotient, so
    the first inexact step already proves that it does not divide.
    """
    for _ in range(m):
        n = len(f) - 1
        if n == 0:
            return False
        quot = [0] * n
        acc = f[n]
        for i in range(n, 0, -1):
            g, rem = divmod(acc, s)
            if rem:
                return False
            quot[i - 1] = g
            acc = f[i - 1] - r * g
        if acc:
            return False
        f = quot
    return True


def _dot_int(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(operator.mul, u, v))


def _primitive_int(vec: List[int]) -> List[int]:
    g = math.gcd(*vec)
    return vec if g <= 1 else [c // g for c in vec]


def _evaluate_int(f: Sequence[int], t: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * t + c
    return acc


@functools.lru_cache(maxsize=1 << 12)
def _ratio_int(v: int, lead: int) -> Fraction:
    # walked bases repeat the same few coefficients: 93 % of the calls of a
    # B2 [0,5]^4 + G2 [0,2]^6 scan hit, and the shared immutable results
    # keep the table smaller; the bound caps the memory of large keys
    return Fraction(v, lead)


_RATIONAL_DOMAIN = Domain(_clear_rational, 0, Fraction, _echelon_int, _convolve_int,
                          _power_divides_int, operator.mul, operator.mul, _dot_int,
                          _primitive_int, _ratio_int, _evaluate_int)


def _clear_quadratic(row) -> Tuple[List[Tuple[int, int]], int]:
    den = math.lcm(*(c.a.denominator for c in row), *(c.b.denominator for c in row))
    return [(c.a.numerator * (den // c.a.denominator), c.b.numerator * (den // c.b.denominator))
            for c in row], den


def _qmul(u: Tuple[int, int], v: Tuple[int, int], d: int) -> Tuple[int, int]:
    """Product of integer pairs read as u[0] + u[1]*sqrt(d)."""
    return (u[0] * v[0] + d * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _qscale(u: Tuple[int, int], n: int) -> Tuple[int, int]:
    return (u[0] * n, u[1] * n)


def _qdivexact(u: tuple, v: tuple, d: int) -> tuple:
    n = v[0] * v[0] - d * v[1] * v[1]
    a = u[0] * v[0] - d * u[1] * v[1]
    b = u[1] * v[0] - u[0] * v[1]
    if a % n or b % n:
        raise InternalInconsistency("fraction-free elimination lost exactness")
    return (a // n, b // n)


def _echelon_quad(d: int, mat: List[List[tuple]], ncols: int):
    prev = (1, 0)
    r = 0
    nrows = len(mat)
    pivcols = []
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if mat[i][c] != (0, 0):
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pr = mat[r]
        for i in range(r + 1, nrows):
            ri = mat[i]
            f = ri[c]
            if f != (0, 0):
                for k in range(c + 1, ncols):
                    t1 = _qmul(pr[c], ri[k], d)
                    t2 = _qmul(f, pr[k], d)
                    ri[k] = _qdivexact((t1[0] - t2[0], t1[1] - t2[1]), prev, d)
                ri[c] = (0, 0)
            else:
                for k in range(c + 1, ncols):
                    ri[k] = _qdivexact(_qmul(pr[c], ri[k], d), prev, d)
        prev = pr[c]
        pivcols.append(c)
        r += 1
    return mat[:r], pivcols


def _convolve_quad(d: int, out, f, g, sign: int) -> None:
    for i, a in enumerate(f):
        if a != (0, 0):
            a = (sign * a[0], sign * a[1])
            for j, b in enumerate(g):
                u, v = _qmul(a, b, d)
                o = out[i + j]
                out[i + j] = (o[0] + u, o[1] + v)


def _power_divides_quad(d: int, f, s, r, m: int) -> bool:
    """Synthetic division by t + r/q (s = (q, 0), f nonzero), the
    denominator carried as a power of q: h[j] = q**(n-1-j) * quotient[j]."""
    q = s[0]
    for _ in range(m):
        n = len(f) - 1
        if n == 0:
            return False
        h = [None] * n
        acc = f[n]
        scale = 1
        for i in range(n, 0, -1):
            h[i - 1] = acc
            scale *= q
            u, v = _qmul(r, acc, d)
            acc = (f[i - 1][0] * scale - u, f[i - 1][1] * scale - v)
        if acc != (0, 0):
            return False
        f = [(a * q ** j, b * q ** j) for j, (a, b) in enumerate(h)]  # q**(n-1) * quotient
    return True


def _dot_quad(d: int, u, v) -> Tuple[int, int]:
    a = b = 0
    for x, y in zip(u, v):
        if x != (0, 0) and y != (0, 0):
            a += x[0] * y[0] + d * x[1] * y[1]
            b += x[0] * y[1] + x[1] * y[0]
    return (a, b)


def _evaluate_quad(f, t: int) -> Tuple[int, int]:
    a = b = 0
    for u, v in reversed(f):
        a = a * t + u
        b = b * t + v
    return (a, b)


def _primitive_quad(vec: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    g = math.gcd(*(c for pair in vec for c in pair))
    return vec if g <= 1 else [(a // g, b // g) for a, b in vec]


@functools.lru_cache(maxsize=1 << 12)
def _ratio_quad(d: int, v, lead) -> QuadElem:
    # cached for the reason _ratio_int is
    # v / lead = v * conj(lead) / norm(lead); the norm is nonzero since d is no square
    return _quad_back(d, _qmul(v, (lead[0], -lead[1]), d), lead[0] ** 2 - d * lead[1] ** 2)


def _quad_back(d: int, v, den: int = 1) -> QuadElem:
    if den == 1:
        return QuadElem(Fraction(v[0]), Fraction(v[1]), d)
    return QuadElem(Fraction(v[0], den), Fraction(v[1], den), d)


@functools.lru_cache(maxsize=None)
def _quadratic_domain(d: int) -> Domain:
    return Domain(_clear_quadratic, (0, 0), functools.partial(_quad_back, d),
                  functools.partial(_echelon_quad, d), functools.partial(_convolve_quad, d),
                  functools.partial(_power_divides_quad, d), functools.partial(_qmul, d=d),
                  _qscale, functools.partial(_dot_quad, d),
                  _primitive_quad, functools.partial(_ratio_quad, d), _evaluate_quad)


def _echelon_modp(p: int, mat: List[List[int]], ncols: int):
    """Forward elimination with unit pivots mod p; returns (echelon rows, pivot columns)."""
    r = 0
    nrows = len(mat)
    pivcols = []
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if mat[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        pr = [v * inv % p for v in mat[r]]
        mat[r] = pr
        for i in range(r + 1, nrows):
            f = mat[i][c] % p
            if f:
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], pr)]
        pivcols.append(c)
        r += 1
    return mat[:r], pivcols


def _convolve_modp(p: int, out: List[int], f, g, sign: int) -> None:
    _convolve_int(out, f, g, sign)
    out[:] = [o % p for o in out]


def _power_divides_modp(p: int, f: List[int], s: int, r: int, m: int) -> bool:
    """Synthetic division by s*t + r mod p (s a unit, f nonzero)."""
    inv = pow(s, -1, p)
    for _ in range(m):
        n = len(f) - 1
        if n == 0:
            return False
        quot = [0] * n
        acc = f[n]
        for i in range(n, 0, -1):
            g = acc * inv % p
            quot[i - 1] = g
            acc = (f[i - 1] - r * g) % p
        if acc:
            return False
        f = quot
    return True


def _mul_modp(p: int, u: int, v: int) -> int:
    return u * v % p


def _dot_modp(p: int, u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(operator.mul, u, v)) % p


def _primitive_modp(p: int, vec: List[int]) -> List[int]:
    return [c % p for c in vec]


def _ratio_modp(p: int, v: int, lead: int) -> ModInt:
    return ModInt(v * pow(lead, -1, p), p)


def _evaluate_modp(p: int, f: Sequence[int], t: int) -> int:
    return _evaluate_int(f, t) % p


def _clear_modp(row) -> Tuple[List[int], int]:
    return [c.v for c in row], 1


def _modp_back(p: int, v: int, den: int = 1) -> ModInt:
    # residues clear over den = 1, so every product of denominators is 1
    return ModInt(v, p)


@functools.lru_cache(maxsize=None)
def _prime_domain(p: int) -> Domain:
    return Domain(_clear_modp, 0, functools.partial(_modp_back, p),
                  functools.partial(_echelon_modp, p), functools.partial(_convolve_modp, p),
                  functools.partial(_power_divides_modp, p), functools.partial(_mul_modp, p),
                  functools.partial(_mul_modp, p), functools.partial(_dot_modp, p),
                  functools.partial(_primitive_modp, p), functools.partial(_ratio_modp, p),
                  functools.partial(_evaluate_modp, p))


def domain_of(x: Scalar) -> Domain:
    """The domain of the field x lies in."""
    if isinstance(x, QuadElem):
        return _quadratic_domain(x.d)
    if isinstance(x, ModInt):
        return _prime_domain(x.p)
    return _RATIONAL_DOMAIN


def rank(rows: Sequence[Sequence], dom: Domain, ncols: int) -> int:
    """Rank of a list of rows of integer images, exactly, over dom's field.

    The rows are copied, not consumed.
    """
    zero = dom.zero
    return len(dom.echelon([list(r) for r in rows if r.count(zero) < len(r)], ncols)[1])


def nullspace(rows: Sequence[Sequence[Scalar]], fs: FieldSpec, ncols: int) -> List[List[Scalar]]:
    """Deterministic nullspace basis (free variables in column order)."""
    zero, one = fs.zero(), fs.one()
    dom = domain_of(one)
    back = dom.back
    ech, pivcols = dom.echelon([dom.clear(r)[0] for r in rows if any(r)], ncols)
    pivset = set(pivcols)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [zero] * ncols
        v[free] = one
        for i in range(len(pivcols) - 1, -1, -1):
            pc = pivcols[i]
            row = ech[i]
            s = zero
            for j in range(pc + 1, ncols):
                if v[j] and row[j]:
                    s = s + back(row[j]) * v[j]
            if s:
                v[pc] = -s / back(row[pc])
        basis.append(v)
    return basis


def invert_matrix(rows: Sequence[Sequence[Scalar]], fs: FieldSpec) -> List[List[Scalar]]:
    """Inverse of a square matrix via Gauss-Jordan; raises if singular."""
    n = len(rows)
    zero, one = fs.zero(), fs.one()
    aug = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        piv = None
        for i in range(c, n):
            if aug[i][c]:
                piv = i
                break
        if piv is None:
            raise InternalInconsistency("singular basis-change matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = invert(aug[c][c])
        aug[c] = [v * inv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]
