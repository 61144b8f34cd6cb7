"""Exact linear algebra: fraction-free rank against a plain Gaussian oracle.

rank runs on integer images; the tests clear their field rows with the
field's Domain first (image_rank)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multilattice.errors import InternalInconsistency
from multilattice.field import FieldSpec, QuadElem
from multilattice.linalg import domain_of, invert_matrix, nullspace, rank

RAT = FieldSpec.rational()
QUAD = FieldSpec.quadratic(3)
PRIME = FieldSpec.prime(10007)


def image_rank(rows, fs, ncols):
    """rank of field rows, on their integer images."""
    dom = domain_of(fs.one())
    return rank([dom.clear(r)[0] for r in rows], dom, ncols)


def oracle_rank(rows, ncols):
    """Straightforward Gaussian elimination over Fractions (the oracle)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [v / mat[r][c] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


small_fraction = st.fractions(min_value=-30, max_value=30, max_denominator=6)


@settings(max_examples=200)
@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_rank_matches_oracle_rational(nrows, ncols, data):
    rows = [[data.draw(small_fraction) for _ in range(ncols)] for _ in range(nrows)]
    assert image_rank(rows, RAT, ncols) == oracle_rank(rows, ncols)


@settings(max_examples=100)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_rank_quadratic_consistent_with_rational_embedding(nrows, ncols, data):
    # matrices with b = 0 must behave exactly like their rational images
    rows_q = [[QuadElem(data.draw(small_fraction), Fraction(0), 3)
               for _ in range(ncols)] for _ in range(nrows)]
    rows_r = [[c.a for c in r] for r in rows_q]
    assert image_rank(rows_q, QUAD, ncols) == oracle_rank(rows_r, ncols)


def test_rank_quadratic_uses_the_radical():
    s3 = QUAD.sqrt_element()
    one = QUAD.one()
    # (1, sqrt3) and (sqrt3, 3) are proportional; (1, 1) is not
    assert image_rank([[one, s3], [s3, QUAD.from_int(3)]], QUAD, 2) == 1
    assert image_rank([[one, s3], [one, one]], QUAD, 2) == 2


@settings(max_examples=100)
@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_rank_modp_matches_rational_generic(nrows, ncols, data):
    # integer matrices with small entries: rank mod a large prime can only
    # drop, and for these sizes dropping requires a determinant divisible
    # by p, impossible below p
    rows = [[Fraction(data.draw(st.integers(-20, 20))) for _ in range(ncols)]
            for _ in range(nrows)]
    rp = [[PRIME.coerce(x) for x in r] for r in rows]
    assert image_rank(rp, PRIME, ncols) == oracle_rank(rows, ncols)


@settings(max_examples=150)
@given(st.integers(1, 5), st.integers(2, 6), st.data())
def test_nullspace_dimension_and_membership(nrows, ncols, data):
    rows = [[data.draw(small_fraction) for _ in range(ncols)] for _ in range(nrows)]
    basis = nullspace(rows, RAT, ncols)
    assert len(basis) == ncols - image_rank(rows, RAT, ncols)
    for v in basis:
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0
    # deterministic: repeated runs give identical vectors
    assert basis == nullspace(rows, RAT, ncols)


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(2, 5), st.data())
def test_nullspace_quadratic_membership(nrows, ncols, data):
    rows = [[QuadElem(data.draw(small_fraction), data.draw(small_fraction), 3)
             for _ in range(ncols)] for _ in range(nrows)]
    basis = nullspace(rows, QUAD, ncols)
    assert len(basis) == ncols - image_rank(rows, QUAD, ncols)
    zero = QUAD.zero()
    for v in basis:
        for r in rows:
            acc = zero
            for a, b in zip(r, v):
                acc = acc + a * b
            assert acc == zero


def test_nullspace_prime_field():
    rows = [[PRIME.from_int(1), PRIME.from_int(2), PRIME.from_int(3)]]
    basis = nullspace(rows, PRIME, 3)
    assert len(basis) == 2
    for v in basis:
        acc = PRIME.zero()
        for a, b in zip(rows[0], v):
            acc = acc + a * b
        assert not acc


@settings(max_examples=60)
@given(st.integers(1, 4), st.data())
def test_invert_matrix_roundtrip(n, data):
    rows = [[data.draw(small_fraction) for _ in range(n)] for _ in range(n)]
    if oracle_rank(rows, n) < n:
        with pytest.raises(InternalInconsistency):
            invert_matrix(rows, RAT)
        return
    inv = invert_matrix(rows, RAT)
    for i in range(n):
        for j in range(n):
            acc = sum(rows[i][k] * inv[k][j] for k in range(n))
            assert acc == (1 if i == j else 0)


def test_rank_empty_and_zero_rows():
    assert image_rank([], RAT, 3) == 0
    assert image_rank([[Fraction(0)] * 3], RAT, 3) == 0
    assert rank([[(0, 0)] * 2, [(0, 0), (1, 0)]], domain_of(QUAD.one()), 2) == 1


def test_rank_leaves_its_rows_alone():
    dom = domain_of(RAT.one())
    rows = [[2, 4], [1, 3]]
    assert rank(rows, dom, 2) == 2
    assert rows == [[2, 4], [1, 3]]


@pytest.mark.parametrize("fs", [RAT, QUAD, PRIME], ids=lambda fs: fs.kind)
def test_scale_is_the_integer_multiple(fs):
    dom = domain_of(fs.one())
    for x in (fs.from_int(5), fs.one() / fs.from_int(3), fs.zero()):
        (u,), den = dom.clear((x,))
        for n in (-7, 0, 1, 12):
            assert dom.back(dom.scale(u, n), den) == fs.from_int(n) * x


def oracle_nullspace(rows, fs, ncols):
    """Gauss-Jordan to reduced echelon form, then one vector per free column."""
    mat = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        piv = next((i for i in range(len(pivots), len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        r = len(pivots)
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [fs.zero()] * ncols
        v[free] = fs.one()
        for row_idx, pc in enumerate(pivots):
            v[pc] = -mat[row_idx][free]
        basis.append(v)
    return basis


@settings(max_examples=150)
@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_nullspace_prime_matches_gauss_jordan(nrows, ncols, data):
    # a small prime makes dependent rows and zero pivots common
    fs = FieldSpec.prime(7)
    rows = [[fs.from_int(data.draw(st.integers(0, 6))) for _ in range(ncols)]
            for _ in range(nrows)]
    want = oracle_nullspace(rows, fs, ncols)
    assert nullspace(rows, fs, ncols) == want
    assert image_rank(rows, fs, ncols) == ncols - len(want)
