"""Exact rank and nullspace computations over the supported fields.

Each field has one forward-elimination kernel on integer data: rows are
cleared of denominators and reduced fraction-free (Bareiss), as big integers
for the rationals and as integer pairs for quadratic extensions; prime
fields reduce residues with unit pivots.  Rank is the kernel's pivot count,
and a nullspace basis is back-substituted from the same echelon form, one
vector per free column.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .errors import InternalInconsistency
from .field import FieldSpec, ModInt, QuadElem, Scalar, clear_quadratic, clear_rational, qmul


def _qdivexact(u: tuple, v: tuple, d: int) -> tuple:
    n = v[0] * v[0] - d * v[1] * v[1]
    a = u[0] * v[0] - d * u[1] * v[1]
    b = u[1] * v[0] - u[0] * v[1]
    if a % n or b % n:
        raise InternalInconsistency("fraction-free elimination lost exactness")
    return (a // n, b // n)


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


def _echelon_quad(mat: List[List[tuple]], ncols: int, d: int):
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
                    t1 = qmul(pr[c], ri[k], d)
                    t2 = qmul(f, pr[k], d)
                    ri[k] = _qdivexact((t1[0] - t2[0], t1[1] - t2[1]), prev, d)
                ri[c] = (0, 0)
            else:
                for k in range(c + 1, ncols):
                    ri[k] = _qdivexact(qmul(pr[c], ri[k], d), prev, d)
        prev = pr[c]
        pivcols.append(c)
        r += 1
    return mat[:r], pivcols


def _echelon_modp(mat: List[List[int]], ncols: int, p: int):
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


def _nullspace_from_echelon(ech, pivcols, ncols, fs: FieldSpec, conv):
    """Back-substitute one basis vector per free column (in column order)."""
    zero, one = fs.zero(), fs.one()
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
                    s = s + conv(row[j]) * v[j]
            if s:
                v[pc] = -s / conv(row[pc])
        basis.append(v)
    return basis


def _echelon(rows: Sequence[Sequence[Scalar]], fs: FieldSpec, ncols: int):
    """Echelon form of the nonzero rows in the field's kernel.

    Returns (echelon rows, pivot columns, conv), where conv maps an echelon
    entry back to a field element.
    """
    rows = [r for r in rows if any(r)]
    if fs.kind == "rational":
        ech, pivcols = _echelon_int([clear_rational(r)[0] for r in rows], ncols)
        return ech, pivcols, Fraction
    if fs.kind == "quadratic":
        ech, pivcols = _echelon_quad([clear_quadratic(r)[0] for r in rows], ncols, fs.d)
        return ech, pivcols, lambda v: QuadElem(Fraction(v[0]), Fraction(v[1]), fs.d)
    ech, pivcols = _echelon_modp([[c.v for c in r] for r in rows], ncols, fs.p)
    return ech, pivcols, lambda v: ModInt(v, fs.p)


def rank(rows: Sequence[Sequence[Scalar]], fs: FieldSpec, ncols: int) -> int:
    """Rank of the row list, exactly, over the given field."""
    return len(_echelon(rows, fs, ncols)[1])


def nullspace(rows: Sequence[Sequence[Scalar]], fs: FieldSpec, ncols: int) -> List[List[Scalar]]:
    """Deterministic nullspace basis (free variables in column order)."""
    ech, pivcols, conv = _echelon(rows, fs, ncols)
    return _nullspace_from_echelon(ech, pivcols, ncols, fs, conv)


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
        inv = 1 / aug[c][c] if isinstance(aug[c][c], Fraction) else aug[c][c].inverse()
        aug[c] = [v * inv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]
