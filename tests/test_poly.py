"""Polynomial layer: exact division, multiplicity, derivations.

Divisibility facts are cross-checked against the multiplication oracle
(building f = alpha**m * g explicitly and recovering m).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multilattice.errors import ExactDivisionError, ProportionalForms, ZeroPolynomial
from multilattice.field import FieldSpec, QuadElem
from multilattice.poly import (
    Arrangement,
    Derivation,
    HomogPoly,
    LinearForm,
    apply_derivation,
    defining_polynomial,
    divide_by_linear_form,
    linear_form_multiplicity,
    proportional_derivations,
    saito_determinant,
)

FS = FieldSpec.rational()

coeffs = st.lists(st.fractions(min_value=-100, max_value=100, max_denominator=10),
                  min_size=1, max_size=6)
form_pairs = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda t: t != (0, 0))


def mk_form(t):
    return LinearForm.make(FS, *t)


# -- linear forms -------------------------------------------------------------


@given(form_pairs, st.integers(1, 7))
def test_linear_form_normalization(t, s):
    lf = mk_form(t)
    scaled = LinearForm.make(FS, t[0] * s, t[1] * s)
    assert lf == scaled  # normalization kills the scalar
    assert lf.a == 1 or (lf.a == 0 and lf.b == 1)


def test_linear_form_zero_rejected():
    with pytest.raises(ValueError):
        LinearForm.make(FS, 0, 0)


@given(form_pairs)
def test_perp_annihilates(t):
    lf = mk_form(t)
    px, py = lf.perp()
    assert lf.a * px + lf.b * py == 0


# -- homogeneous polynomials --------------------------------------------------


def test_zero_polynomial_canonical():
    assert HomogPoly.make([Fraction(0), Fraction(0)]).is_zero
    assert HomogPoly.zero().degree is None
    assert HomogPoly.make([Fraction(0)]) == HomogPoly.zero()


@given(coeffs, coeffs)
def test_mul_degree_additive(ca, cb):
    f, g = HomogPoly.make(ca), HomogPoly.make(cb)
    if f.is_zero or g.is_zero:
        assert (f * g).is_zero
    else:
        assert (f * g).degree == f.degree + g.degree


@given(coeffs, form_pairs)
def test_division_is_left_inverse_of_multiplication(c, t):
    g = HomogPoly.make(c)
    lf = mk_form(t)
    f = g * HomogPoly.from_linear_form(lf)
    if g.is_zero:
        assert f.is_zero
    else:
        assert divide_by_linear_form(f, lf) == g


@given(coeffs, form_pairs, st.integers(0, 4))
def test_linear_form_multiplicity_oracle(c, t, m):
    g = HomogPoly.make(c)
    lf = mk_form(t)
    if g.is_zero:
        return
    f = g * HomogPoly.from_linear_form(lf).pow(m, FS)
    # f has multiplicity exactly m + mult(g)
    assert linear_form_multiplicity(f, lf) == m + linear_form_multiplicity(g, lf)


def test_division_failure_cases():
    x_form = LinearForm.make(FS, 1, 0)
    y_form = LinearForm.make(FS, 0, 1)
    one = HomogPoly.one(FS)
    with pytest.raises(ExactDivisionError):
        divide_by_linear_form(one, x_form)  # degree 0
    f = HomogPoly.make([Fraction(1), Fraction(1)])  # y + x
    with pytest.raises(ExactDivisionError):
        divide_by_linear_form(f, y_form)


def test_multiplicity_of_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        linear_form_multiplicity(HomogPoly.zero(), LinearForm.make(FS, 1, 0))


def test_quadratic_field_division():
    fs = FieldSpec.quadratic(3)
    s3 = fs.sqrt_element()
    lf = LinearForm.make(fs, 1, s3)  # x + sqrt(3) y
    g = HomogPoly.make([fs.from_int(2), s3])
    f = g * HomogPoly.from_linear_form(lf)
    assert divide_by_linear_form(f, lf) == g


def test_format_readable():
    f = HomogPoly.make([Fraction(-1), Fraction(0), Fraction(1)])  # x^2 - y^2
    assert f.format(FS) == "x^2 - y^2"
    assert HomogPoly.zero().format(FS) == "0"


# -- arrangements -------------------------------------------------------------


def test_arrangement_rejects_proportional_forms():
    with pytest.raises(ProportionalForms):
        Arrangement.make(FS, [(1, 1), (2, 2)])


def test_arrangement_hash_is_representation_invariant():
    a1 = Arrangement.make(FS, [(1, 0), (1, 1)])
    a2 = Arrangement.make(FS, [(2, 0), (3, 3)])  # same lines, different scaling
    a3 = Arrangement.make(FS, [(1, 0), (1, -1)])
    assert a1.canonical_hash() == a2.canonical_hash()
    assert a1.canonical_hash() != a3.canonical_hash()


def test_defining_polynomial(boolean):
    q = defining_polynomial(boolean, (2, 1))
    # x^2 * y: degree 3, coefficient 1 on the x^2 y term
    assert q == HomogPoly.make([Fraction(0), Fraction(0), Fraction(1), Fraction(0)])


# -- derivations --------------------------------------------------------------


def test_derivation_degree_consistency():
    with pytest.raises(ValueError):
        Derivation(HomogPoly.make([Fraction(1)]),
                   HomogPoly.make([Fraction(1), Fraction(1)]))


def test_euler_applies_to_forms():
    e = Derivation.euler(FS)
    lf = LinearForm.make(FS, 1, -1)
    # euler(alpha) = alpha for any linear form
    assert apply_derivation(e, lf) == HomogPoly.from_linear_form(lf)


@given(coeffs, st.fractions(min_value=-50, max_value=50, max_denominator=10).filter(bool))
def test_proportional_derivations_detects_scaling(c, s):
    p = HomogPoly.make(c)
    if p.is_zero:
        return
    t1 = Derivation(p, p.scale(Fraction(2)))
    t2 = t1.scale(s)
    assert proportional_derivations(t1, t2)
    # perturbing one coefficient breaks proportionality unless it is absorbed
    bumped = Derivation(p, p.scale(Fraction(3)))
    assert not proportional_derivations(t1, bumped)


def test_saito_determinant_alternating():
    t1 = Derivation(HomogPoly.make([Fraction(0), Fraction(1)]),
                    HomogPoly.make([Fraction(1), Fraction(0)]))
    t2 = Derivation(HomogPoly.make([Fraction(1), Fraction(2)]),
                    HomogPoly.make([Fraction(3), Fraction(1)]))
    assert saito_determinant(t1, t1).is_zero
    assert saito_determinant(t1, t2) == -saito_determinant(t2, t1)


def test_canonical_leading_one():
    t = Derivation(HomogPoly.make([Fraction(0), Fraction(-3)]),
                   HomogPoly.make([Fraction(6), Fraction(0)]))
    c = t.canonical()
    # first nonzero flattened coefficient (highest x power of P) becomes 1
    assert c.P.coeffs[1] == 1
    assert proportional_derivations(t, c)


# -- cleared-integer kernels against the HomogPoly arithmetic -----------------

# p = 7: convolution sums exceed p and synthetic-division quotients wrap
FIELDS = [FieldSpec.rational(), FieldSpec.quadratic(3), FieldSpec.prime(101), FieldSpec.prime(7)]
FIELD_IDS = ["rational", "quadratic", "prime", "prime7"]


def rand_scalar(fs, rng):
    if rng.random() < 0.3:
        return fs.zero()
    a = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if fs.kind == "quadratic":
        return QuadElem(a, Fraction(rng.randint(-9, 9), rng.randint(1, 6)), fs.d)
    return fs.coerce(a)


def rand_derivation(fs, rng, d):
    """Random degree-d derivation; P, Q or both may be zero."""
    def part():
        if rng.random() < 0.2:
            return HomogPoly.zero()
        return HomogPoly.make([rand_scalar(fs, rng) for _ in range(d + 1)])
    return Derivation(part(), part())


@pytest.mark.parametrize("fs", FIELDS, ids=FIELD_IDS)
def test_saito_determinant_matches_polynomial_product(fs):
    rng = random.Random(fs.kind)
    zeros = 0
    for _ in range(300):
        t1 = rand_derivation(fs, rng, rng.randint(0, 5))
        t2 = rand_derivation(fs, rng, rng.randint(0, 5))  # degrees may differ
        if rng.random() < 0.1:
            t2 = t1.scale(rand_scalar(fs, rng))  # dependent: cancels to zero
        det = saito_determinant(t1, t2)
        assert det == t1.P * t2.Q - t2.P * t1.Q
        assert det.is_zero or type(det.coeffs[0]) is type(fs.one())
        zeros += det.is_zero
    assert 0 < zeros < 300
    z = Derivation.zero()
    t = rand_derivation(fs, rng, 3)
    assert saito_determinant(z, t).is_zero and saito_determinant(t, z).is_zero


ARRANGEMENTS = [
    # alpha = y, integer and non-integer slopes
    (FieldSpec.rational(), [(1, 0), (0, 1), (1, 1), (2, 3), (3, -5)]),
    (FieldSpec.quadratic(3), [(1, 0), (0, 1), (1, QuadElem(Fraction(1, 2), Fraction(1, 3), 3)),
                              (3, QuadElem(Fraction(0), Fraction(1), 3))]),
    (FieldSpec.prime(101), [(1, 0), (0, 1), (1, 1), (2, 3)]),
    (FieldSpec.prime(7), [(1, 0), (0, 1), (1, 1), (2, 3), (1, 4)]),
]


@pytest.mark.parametrize("fs,pairs", ARRANGEMENTS, ids=FIELD_IDS)
def test_defining_polynomial_matches_power_product(fs, pairs):
    A = Arrangement.make(fs, pairs)
    rng = random.Random(7)
    for mu in [(0,) * len(A)] + [tuple(rng.randint(0, 4) for _ in A.forms) for _ in range(20)]:
        want = HomogPoly.one(fs)
        for lf, m in zip(A.forms, mu):
            want = want * HomogPoly.from_linear_form(lf).pow(m, fs)
        assert defining_polynomial(A, mu) == want
