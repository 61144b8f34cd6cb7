"""Field arithmetic: axioms, canonical forms, parsing, modular projection.

Oracle discipline: algebraic laws are checked against the independent
float approximation only for sanity (never for correctness); exact
properties are verified by round-tripping through inverse operations.
"""

import fractions
import operator
import sys
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
    PRIME_BOUND,
    SQUAREFREE_BOUND,
    FieldSpec,
    ModInt,
    QuadElem,
    _parse_fraction,
    invert,
    is_prime,
    is_squarefree,
)
from helpers import quad_float
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


# the least strong pseudoprimes to every prime base up to 37 and up to 41
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_refutes_the_pseudoprime_to_the_bases_below_41():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    # PSI_13 passes every base is_prime tries, so it decides nothing from there on
    assert PRIME_BOUND == PSI_13
    with pytest.raises(ValueError):
        is_prime(PSI_13)


def test_fieldspec_refuses_p_and_d_past_their_bounds():
    for p in (PSI_12, PSI_13, PSI_13 + 2):
        with pytest.raises(FieldMismatch, match="odd prime below"):
            FieldSpec.prime(p)
    # d from the bound on is refused before any trial division, which would
    # not end for the last one
    assert FieldSpec.quadratic(999999937).d == 999999937 < SQUAREFREE_BOUND
    for d in (SQUAREFREE_BOUND, SQUAREFREE_BOUND + 1, 10**30 + 57):
        with pytest.raises(FieldMismatch, match="squarefree, > 1 and below"):
            FieldSpec.quadratic(d)


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
    assert abs(quad_float(x) - (1 + 2 * 3**0.5)) < 1e-12


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


# -- the operators each element class derives ---------------------------------


OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv]


def quad_oracle(op, x, y, d):
    """x op y on Fraction pairs (a, b) standing for a + b*sqrt(d)."""
    (a1, b1), (a2, b2) = x, y
    if op is operator.add:
        return a1 + a2, b1 + b2
    if op is operator.sub:
        return a1 - a2, b1 - b2
    if op is operator.mul:
        return a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2
    n = a2 * a2 - d * b2 * b2  # x / y = x * conjugate(y) / norm(y)
    return (a1 * a2 - d * b1 * b2) / n, (b1 * a2 - a1 * b2) / n


def quad_operands(d):
    """(operand, its Fraction pair): an element of Q(sqrt d), an int or a Fraction."""
    parts = rationals | st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)])
    return st.one_of(
        st.builds(lambda a, b: (QuadElem(a, b, d), (a, b)), parts, parts),
        st.integers(-50, 50).map(lambda n: (n, (Fraction(n), Fraction(0)))),
        parts.map(lambda q: (q, (q, Fraction(0)))))


@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("d", [2, 3, 5])
@given(data=st.data())
def test_quad_operators_and_their_reflections_match_fraction_pairs(op, d, data):
    # the element on the left, then on the right, of any operand: the
    # reflected operator answers an int or Fraction on the left
    a, b = data.draw(rationals), data.draw(rationals)
    elem = (QuadElem(a, b, d), (a, b))
    other = data.draw(quad_operands(d))
    for (x, px), (y, py) in ((elem, other), (other, elem)):
        if op is operator.truediv and py == (0, 0):
            with pytest.raises(DivisionByZero):
                op(x, y)
            continue
        got = op(x, y)
        assert type(got) is QuadElem and got.d == d
        assert (got.a, got.b) == quad_oracle(op, px, py, d)


@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("p", [3, 101])
@given(a=st.integers(-500, 500), b=st.integers(-500, 500), element=st.booleans())
def test_modint_operators_and_their_reflections_match_int_arithmetic(op, p, a, b, element):
    # b is a ModInt or a plain int, on either side of the ModInt a
    x, y = ModInt(a, p), ModInt(b, p) if element else b
    for (u, pu), (v, pv) in (((x, a), (y, b)), ((y, b), (x, a))):
        if op is operator.truediv:
            if pv % p == 0:
                with pytest.raises(DivisionByZero):
                    op(u, v)
                continue
            want = pu * pow(pv, -1, p) % p
        else:
            want = op(pu, pv) % p
        got = op(u, v)
        assert type(got) is ModInt and got.p == p and got.v == want


@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
def test_operators_refuse_mixed_fields_and_foreign_operands(op):
    mixed = [(QuadElem(1, 1, 2), QuadElem(1, 1, 3)), (ModInt(1, 3), ModInt(1, 101))]
    for x, y in mixed:
        for call in (lambda: op(x, y), lambda: getattr(x, f"__r{op.__name__}__")(y)):
            with pytest.raises(FieldMismatch):
                call()
    foreign = [(ModInt(2, 3), Fraction(1, 2)), (QuadElem(1, 1, 2), ModInt(2, 3))]
    for x, y in foreign:
        for u, v in ((x, y), (y, x)):
            with pytest.raises(TypeError):
                op(u, v)


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
# denominators, non-ASCII digits and malformed text; and exponents around
# the int digit limit (4 300 by default), above which ParseError refuses them
FRACTION_SPELLINGS = [
    "0", "-0", "7", "-12", "007", "3/4", "-3/6", "10/5", "0/9", "-0/5", "1/07",
    "1/0", "0/0", "1/00", "-1/0", "1/-2", "-1/-2", "+3", "+3/4", "1/+2", " 2/4 ", "2 /4",
    "2/ 4", "\t5\n", "1.5", "-.5", "1e3", "3_0", "1_000/3", "1/2_0", "_1", "", " ", "-", "/",
    "1/", "/2", "1//2", "1/2/3", "--1", "-+1", "nan", "inf", "0x10", "\u0663", "\u0663/\u0664",
    "\uff13", "1/\u0664", "\u00b2", "\u2074/2", "abc",
    "1e4300", "-2.5E-4300", "1e4301", "1e-4301", " 1E+30_000_000 ", "1e30000000", "1/2e99999",
    "1e99999x", "1e\u0663\u0663\u0663\u0663\u0663",
]


def _fraction_or_error(text):
    """Fraction(text) or the type of its error, except that a spelling whose
    exponent (as Fraction's grammar reads it) is above the int digit limit
    gives ParseError, without building 10**e."""
    match = fractions._RATIONAL_FORMAT.match(text.strip())
    limit = sys.get_int_max_str_digits()
    if match and match["exp"] and limit and abs(int(match["exp"])) > limit:
        return ParseError
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
        # a ParseError is a ValueError; it also refuses a text that ends in a
        # large exponent but that Fraction would not read
        assert isinstance(want, type) and issubclass(type(exc), want), (text, exc)
    else:
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
