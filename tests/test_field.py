"""Field arithmetic: axioms, canonical forms, parsing, modular projection.

Oracle discipline: algebraic laws are checked against the independent
float approximation only for sanity (never for correctness); exact
properties are verified by round-tripping through inverse operations.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multilattice.errors import (
    BadReduction,
    DivisionByZero,
    FieldMismatch,
    ParseError,
)
from multilattice.field import (
    FieldSpec,
    ModInt,
    QuadElem,
    _parse_fraction,
    invert,
    is_prime,
    is_squarefree,
)
from modular import Projection, sqrt_mod

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


def quad(d):
    return st.builds(lambda a, b: QuadElem(a, b, d), rationals, rationals)


# -- primality / squarefree helpers ------------------------------------------


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_is_squarefree():
    assert is_squarefree(1) and is_squarefree(2) and is_squarefree(30)
    assert not is_squarefree(4) and not is_squarefree(12) and not is_squarefree(0)


# -- quadratic field elements -------------------------------------------------


@given(quad(3), quad(3), quad(3))
def test_quad_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == QuadElem(Fraction(0), Fraction(0), 3)


@given(quad(3))
def test_quad_inverse_roundtrip(x):
    if not x:
        with pytest.raises(DivisionByZero):
            x.inverse()
    else:
        assert x * x.inverse() == QuadElem(Fraction(1), Fraction(0), 3)


@given(quad(5))
def test_quad_norm_is_multiplicative_conjugate(x):
    conjugate = QuadElem(x.a, -x.b, x.d)
    assert x.norm() == (x * conjugate).a
    assert QuadElem(conjugate.a, -conjugate.b, conjugate.d) == x


def test_quad_mixed_radicals_rejected():
    with pytest.raises(FieldMismatch):
        QuadElem(1, 1, 2) + QuadElem(1, 1, 3)


def test_quad_int_interop():
    x = QuadElem(Fraction(1, 2), Fraction(1), 3)
    assert 2 * x == x + x
    assert 1 + x == QuadElem(Fraction(3, 2), Fraction(1), 3)
    assert x - 1 == QuadElem(Fraction(-1, 2), Fraction(1), 3)


def test_quad_float_sanity():
    # float view only sanity-checks the representation, never correctness
    x = QuadElem(Fraction(1), Fraction(2), 3)
    assert abs(float(x) - (1 + 2 * 3**0.5)) < 1e-12


# -- prime-field elements -----------------------------------------------------


@given(st.integers(), st.integers())
def test_modint_matches_int_arithmetic(a, b):
    p = 10007
    assert (ModInt(a, p) + ModInt(b, p)).v == (a + b) % p
    assert (ModInt(a, p) * ModInt(b, p)).v == (a * b) % p
    assert (ModInt(a, p) - ModInt(b, p)).v == (a - b) % p


@given(st.integers(min_value=1, max_value=10006))
def test_modint_inverse(a):
    p = 10007
    assert (ModInt(a, p) * ModInt(a, p).inverse()).v == 1


def test_modint_zero_inverse():
    with pytest.raises(DivisionByZero):
        ModInt(0, 7).inverse()


# -- FieldSpec ----------------------------------------------------------------


def test_fieldspec_validation():
    FieldSpec.rational()
    FieldSpec.quadratic(3)
    FieldSpec.prime(10007)
    with pytest.raises(FieldMismatch):
        FieldSpec.quadratic(4)  # not squarefree
    with pytest.raises(FieldMismatch):
        FieldSpec.quadratic(1)
    with pytest.raises(FieldMismatch):
        FieldSpec.prime(2)
    with pytest.raises(FieldMismatch):
        FieldSpec.prime(9)
    with pytest.raises(FieldMismatch):
        FieldSpec("gaussian")


@pytest.mark.parametrize("fs", [FieldSpec.rational(), FieldSpec.quadratic(3),
                                FieldSpec.prime(10007)])
def test_fieldspec_units(fs):
    assert not fs.zero()
    assert fs.one() * fs.one() == fs.one()
    assert fs.from_int(5) - fs.from_int(5) == fs.zero()
    assert fs == FieldSpec.from_json(fs.to_json())


@given(rationals)
def test_scalar_text_roundtrip_rational(x):
    fs = FieldSpec.rational()
    assert fs.parse_scalar(fs.format_scalar(x)) == x


@given(quad(3))
def test_scalar_text_roundtrip_quadratic(x):
    fs = FieldSpec.quadratic(3)
    assert fs.parse_scalar(fs.format_scalar(x)) == x


def test_parse_scalar_errors():
    with pytest.raises(ParseError):
        FieldSpec.rational().parse_scalar("not-a-number")
    with pytest.raises(ParseError):
        FieldSpec.rational().parse_scalar("1/0")


# the writer's spellings, and spellings only Fraction's own parser decides:
# signs, spaces, decimals, exponents, underscores, zero or signed
# denominators, non-ASCII digits and malformed text
FRACTION_SPELLINGS = [
    "0", "-0", "7", "-12", "007", "3/4", "-3/6", "10/5", "0/9", "-0/5", "1/07",
    "1/0", "0/0", "1/00", "-1/0", "1/-2", "-1/-2", "+3", "+3/4", "1/+2", " 2/4 ", "2 /4",
    "2/ 4", "\t5\n", "1.5", "-.5", "1e3", "3_0", "1_000/3", "1/2_0", "_1", "", " ", "-", "/",
    "1/", "/2", "1//2", "1/2/3", "--1", "-+1", "nan", "inf", "0x10", "\u0663", "\u0663/\u0664",
    "\uff13", "1/\u0664", "\u00b2", "\u2074/2", "abc",
]


def _fraction_or_error(text):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@pytest.mark.parametrize("text", FRACTION_SPELLINGS)
def test_parse_fraction_accepts_exactly_what_fraction_accepts(text):
    want = _fraction_or_error(text)
    if isinstance(want, type):
        with pytest.raises(want):
            _parse_fraction(text)
    else:
        got = _parse_fraction(text)
        assert type(got) is Fraction and got == want


@given(st.text(alphabet="0123456789-+/._ e\u0663", max_size=8))
def test_parse_fraction_agrees_with_fraction_on_any_text(text):
    want = _fraction_or_error(text)
    try:
        got = _parse_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        got = type(exc)
    assert got == want


def test_coerce_rejects_foreign_elements():
    with pytest.raises(FieldMismatch):
        FieldSpec.rational().coerce(QuadElem(1, 1, 3))
    with pytest.raises(FieldMismatch):
        FieldSpec.quadratic(3).coerce(QuadElem(1, 1, 5))


def test_invert_dispatch():
    assert invert(Fraction(2, 3)) == Fraction(3, 2)
    assert invert(4) == Fraction(1, 4)
    with pytest.raises(DivisionByZero):
        invert(Fraction(0))


# -- modular projection -------------------------------------------------------


@given(st.integers(min_value=0, max_value=10**6))
def test_sqrt_mod_squares(a):
    p = 10007
    r = sqrt_mod(a * a % p, p)
    assert r * r % p == a * a % p


def test_sqrt_mod_nonresidue():
    # 3 is not a QR mod 7 (squares mod 7: 0,1,2,4)
    with pytest.raises(ValueError):
        sqrt_mod(3, 7)


def test_projection_rational():
    pr = Projection(FieldSpec.rational(), 10007)
    assert pr(Fraction(1, 2)).v == pow(2, -1, 10007)
    with pytest.raises(BadReduction):
        pr(Fraction(1, 10007))


def test_projection_quadratic_canonical_root():
    # 3 is a QR mod 11 (5*5 = 25 = 3); canonical image is the smaller root
    pr = Projection(FieldSpec.quadratic(3), 11)
    assert pr.sqrt_image == 5
    s3 = QuadElem(Fraction(0), Fraction(1), 3)
    assert (pr(s3) * pr(s3)).v == 3
    # the projection is a ring homomorphism on a sample product
    x = QuadElem(Fraction(2), Fraction(1, 3), 3)
    y = QuadElem(Fraction(-1), Fraction(4), 3)
    assert pr(x * y) == pr(x) * pr(y)


def test_projection_rejects_prime_source_and_even_p():
    with pytest.raises(FieldMismatch):
        Projection(FieldSpec.prime(10007), 11)
    with pytest.raises(FieldMismatch):
        Projection(FieldSpec.rational(), 4)
