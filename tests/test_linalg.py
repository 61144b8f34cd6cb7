"""Exact linear algebra: the one elimination against plain Gaussian oracles.

rank runs on integer images; the tests clear their field rows with the
field's Domain first (image_rank)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multilattice.errors import InternalInconsistency
from multilattice.field import FieldSpec, QuadElem
from multilattice.linalg import _echelon, domain_of, invert_matrix, nullspace, rank
from multilattice.poly import HomogPoly, LinearForm, linear_form_multiplicity
from helpers import form_poly, mul_polys

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
    assert image_rank([[one, s3], [s3, QUAD.coerce(3)]], QUAD, 2) == 1
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
    rows = [[PRIME.coerce(1), PRIME.coerce(2), PRIME.coerce(3)]]
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
    for x in (fs.coerce(5), fs.one() / fs.coerce(3), fs.zero()):
        (u,), den = dom.clear((x,))
        for n in (-7, 0, 1, 12):
            assert dom.back(dom.scale(u, n), den) == fs.coerce(n) * x


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
        inv = fs.one() / mat[r][c]
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


F7 = FieldSpec.prime(7)
# small entries, so that dependent rows and zero pivots are common
SMALL_ENTRIES = {
    "rational": (RAT, st.sampled_from([Fraction(a, b) for a in range(-2, 3) for b in (1, 2)])),
    "quadratic": (QUAD, st.sampled_from([QuadElem(Fraction(a), Fraction(b), 3)
                                         for a in range(-1, 2) for b in range(-1, 2)])),
    "prime": (F7, st.sampled_from([F7.coerce(a) for a in range(7)])),
}


@pytest.mark.parametrize("fs,entries", SMALL_ENTRIES.values(), ids=SMALL_ENTRIES.keys())
@settings(max_examples=150)
@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_nullspace_matches_gauss_jordan(fs, entries, nrows, ncols, data):
    rows = [[data.draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    want = oracle_nullspace(rows, fs, ncols)
    assert nullspace(rows, fs, ncols) == want
    assert image_rank(rows, fs, ncols) == ncols - len(want)


@pytest.mark.parametrize("fs,entries", [SMALL_ENTRIES["quadratic"], SMALL_ENTRIES["prime"]],
                         ids=["quadratic", "prime"])
@settings(max_examples=60)
@given(st.integers(1, 4), st.data())
def test_invert_matrix_over_quadratic_and_prime_fields(fs, entries, n, data):
    rows = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    if oracle_nullspace(rows, fs, n):
        with pytest.raises(InternalInconsistency):
            invert_matrix(rows, fs)
        return
    inv = invert_matrix(rows, fs)
    for i in range(n):
        for j in range(n):
            acc = fs.zero()
            for k in range(n):
                acc = acc + rows[i][k] * inv[k][j]
            assert acc == (fs.one() if i == j else fs.zero())


def test_an_unreduced_residue_is_no_pivot():
    # 7 and 14 are the residue 0 of F_7: the one pivot is in column 1
    dom = domain_of(F7.one())
    rows = [[7, 1], [14, 3]]
    assert _echelon(dom, rows, 2)[1] == [1]
    assert rank(rows, dom, 2) == 1
    assert rows == [[7, 1], [14, 3]]


F5 = FieldSpec.prime(5)
SQRT2 = FieldSpec.quadratic(2)
# forms a*x + b*y with a != 0, the lines the valuation kernel divides by
# (Derivation.valuations reads the line y off its images); x is the line
# r = 0, 2x + 3y clears to (r, s) = (3, 2) and 2x + (1+sqrt 2)y to
# ((1, 1), (2, 0)), so that the divisor is not monic
VALUATION_FORMS = {
    "Q": (RAT, [(1, 0), (1, 1), (1, -2), (2, 3)]),
    "Q(sqrt2)": (SQRT2, [(1, 0), (1, 1), (2, QuadElem(Fraction(1), Fraction(1), 2))]),
    "Q(sqrt3)": (QUAD, [(1, 0), (3, QuadElem(Fraction(1), Fraction(1), 3)),
                        (1, QuadElem(Fraction(0), Fraction(1, 2), 3))]),
    "F5": (F5, [(1, 0), (1, 1), (2, 3)]),
    "F7": (F7, [(1, 0), (1, 4), (2, 3)]),
}


def random_scalar(fs, rng):
    num, den = rng.randint(-3, 3), rng.randint(1, 3)
    if fs.kind == "quadratic":
        return QuadElem(Fraction(num, den), Fraction(rng.randint(-2, 2), den), fs.d)
    return fs.coerce(num) / fs.coerce(den)


def test_forms_clear_to_a_divisor_that_is_not_monic():
    assert LinearForm.make(RAT, 2, 3).images == ([3, 2], 2)
    assert LinearForm.make(SQRT2, 2, QuadElem(Fraction(1), Fraction(1), 2)).images[0] == \
        [(1, 1), (2, 0)]


@pytest.mark.parametrize("fs,pairs", VALUATION_FORMS.values(), ids=VALUATION_FORMS.keys())
def test_valuation_matches_the_fraction_oracle(fs, pairs):
    """Domain.valuation of the images of f against linear_form_multiplicity,
    repeated division in field arithmetic, on products of powers of the
    forms with random cofactors; also with s and r times a unit, which
    leaves the line and so the valuation as they are."""
    rng = random.Random(fs.kind + str(len(pairs)))
    dom = domain_of(fs.one())
    forms = [LinearForm.make(fs, a, b) for a, b in pairs]
    seen = set()
    for _ in range(60):
        f = HomogPoly.make([random_scalar(fs, rng) for _ in range(rng.randint(1, 4))])
        if f.is_zero:
            continue
        for lf in forms:
            for _ in range(rng.randint(0, 4)):
                f = mul_polys(f, form_poly(lf))
        images, _ = dom.clear(f.coeffs)
        for lf in forms:
            (r, s), _ = lf.images
            want = linear_form_multiplicity(f, lf)
            assert dom.valuation(images, s, r) == want, (f, lf)
            c = 3 if fs.kind != "prime" else 2  # a unit of every field here
            assert dom.valuation(images, dom.scale(s, c), dom.scale(r, c)) == want
            seen.add(want)
    assert {0, 1, 4} <= seen


# -- combine against the construction it replaced: a zero list and two convolve calls


def two_convolutions(dom, a, u, b, v):
    """a*u - b*v as the walk built it before combine: zeros, then two convolve calls."""
    out = [dom.zero] * len(u)
    dom.convolve(out, [a], u, 1)
    dom.convolve(out, [b], v, -1)
    return out


COMBINE_FIELDS = [RAT, SQRT2, QUAD, FieldSpec.prime(3), FieldSpec.prime(101)]


@pytest.mark.parametrize("fs", COMBINE_FIELDS,
                         ids=lambda fs: f"sqrt{fs.d}" if fs.d else f"F{fs.p}" if fs.p else "Q")
@settings(max_examples=150)
@given(st.integers(0, 6), st.data())
def test_combine_matches_two_convolutions(fs, n, data):
    # negative images and, for F_p, images past p too; zero scalars and zero images
    dom = domain_of(fs.one())
    ints = st.integers(-250, 250)
    image = st.one_of(st.just(dom.zero), st.tuples(ints, ints) if fs.kind == "quadratic" else ints)
    u, v = (data.draw(st.lists(image, min_size=n, max_size=n)) for _ in range(2))
    a, b = data.draw(image), data.draw(image)
    assert dom.combine(a, u, b, v) == two_convolutions(dom, a, u, b, v)
