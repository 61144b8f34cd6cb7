"""Polynomial layer: exact division, multiplicity, derivations.

Divisibility facts are cross-checked against the multiplication oracle
(building f = alpha**m * g explicitly and recovering m).
"""

import random
from fractions import Fraction
from itertools import combinations

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
    EVAL_POINT,
    dependence_classes,
    dependent,
    proportional,
    saito_determinant,
)
from helpers import euler, proportional_derivations

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
    px, py = lf.b, -lf.a  # the direction (b, -a)
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


def test_format_drops_zero_quadratic_parts():
    fs = FieldSpec.quadratic(3)
    s3, n = fs.sqrt_element(), fs.from_int
    f = HomogPoly.make([n(2) + s3, -s3, fs.coerce(Fraction(-2, 3)) * s3, n(-1), n(1)])
    assert f.format(fs) == "x^4 - x^3*y - 2/3*sqrt(3)*x^2*y^2 - sqrt(3)*x*y^3 + (2+sqrt(3))*y^4"
    g = HomogPoly.make([n(1) - n(2) * s3, s3, n(0), fs.coerce(Fraction(1, 2))])
    assert g.format(fs) == "1/2*x^3 + sqrt(3)*x*y^2 + (1-2*sqrt(3))*y^3"
    # cache lines keep both parts
    assert fs.format_scalar(n(1)) == {"a": "1", "b": "0"}
    assert fs.format_scalar(s3) == {"a": "0", "b": "1"}


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


def test_arrangement_hash_is_computed_once_per_object(monkeypatch):
    A = Arrangement.make(FS, [(1, 0), (1, 1), (1, 5)])
    calls = []
    real = Arrangement.to_json
    monkeypatch.setattr(Arrangement, "to_json", lambda self: calls.append(self) or real(self))
    assert A.canonical_hash() == A.canonical_hash()
    assert calls == [A]


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
    e = euler(FS)
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
    den = rng.randint(1, 6)
    if fs.kind == "prime" and den % fs.p == 0:
        den = 1
    a = Fraction(rng.randint(-9, 9), den)
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


# -- dependence and proportionality predicates against the HomogPoly oracles --

PREDICATE_FIELDS = [FieldSpec.rational(), FieldSpec.quadratic(3), FieldSpec.prime(3),
                    FieldSpec.prime(101)]
PREDICATE_IDS = ["rational", "quadratic", "prime3", "prime101"]


def small_poly(fs, rng, d):
    """Random nonzero homogeneous polynomial of degree d."""
    while True:
        f = HomogPoly.make([rand_scalar(fs, rng) for _ in range(d + 1)])
        if not f.is_zero:
            return f


def small_derivation(fs, rng, d):
    """Random nonzero degree-d derivation; P or Q may be zero."""
    while True:
        theta = rand_derivation(fs, rng, d)
        if not theta.is_zero:
            return theta


def evaluation_vanishes(t1, t2):
    """Whether the determinant's value at (EVAL_POINT, 1) is zero."""
    dom, p1, q1 = t1.values
    _, p2, q2 = t2.values
    return dom.mul(p1, q2) == dom.mul(p2, q1)


@pytest.mark.parametrize("fs", PREDICATE_FIELDS, ids=PREDICATE_IDS)
def test_derivation_values_evaluate_the_field_polynomials(fs):
    rng = random.Random(11)
    t = fs.from_int(EVAL_POINT)
    for _ in range(40):
        theta = small_derivation(fs, rng, rng.randint(0, 5))
        dom, P, Q = theta.values
        den = theta.cleared[3]
        for f, v in ((theta.P, P), (theta.Q, Q)):
            want = fs.zero()
            for c in reversed(f.coeffs):
                want = want * t + c
            assert dom.back(v, den) == want
    assert Derivation.zero().values is None


@pytest.mark.parametrize("fs", PREDICATE_FIELDS, ids=PREDICATE_IDS)
def test_dependent_matches_saito_determinant(fs):
    rng = random.Random(fs.kind + str(fs.p))
    root = HomogPoly.from_linear_form(LinearForm.make(fs, 1, -EVAL_POINT))
    seen = {"random": 0, "multiples": 0, "root-independent": 0, "root-dependent": 0}
    for _ in range(150):
        d1, d2 = rng.randint(0, 4), rng.randint(0, 4)  # degrees may differ
        theta = small_derivation(fs, rng, d1)
        kind = rng.choice(("random", "multiples", "root-left", "root-mixed"))
        if kind == "random":
            pair = (theta, small_derivation(fs, rng, d2))
        elif kind == "multiples":
            # f*theta and g*theta: the determinant vanishes identically
            pair = (theta.mul_poly(small_poly(fs, rng, d2)),
                    theta.mul_poly(small_poly(fs, rng, rng.randint(0, 3))))
        elif kind == "root-left":
            # det((x - t*y)*theta, theta2) = (x - t*y) * det(theta, theta2)
            pair = (theta.mul_poly(root), small_derivation(fs, rng, d2))
        else:
            # theta2 = g*theta + (x - t*y)*theta': det = (x - t*y) * det(theta, theta')
            e = rng.randint(0, 2)
            g = small_poly(fs, rng, e)
            other = small_derivation(fs, rng, d1 + e - 1) if d1 + e else Derivation.zero()
            pair = (theta, theta.mul_poly(g) + other.mul_poly(root))
        want = saito_determinant(*pair).is_zero
        assert dependent(*pair) is want
        assert dependent(*reversed(pair)) is want
        if kind.startswith("root"):
            # the certificate is silent, so the exact fallback decided
            assert evaluation_vanishes(*pair)
            seen["root-dependent" if want else "root-independent"] += 1
        else:
            seen[kind] += 1
            assert want or kind == "random"
    assert all(seen.values()), seen
    zero = Derivation.zero()
    theta = small_derivation(fs, rng, 2)
    assert dependent(zero, theta) and dependent(theta, zero) and dependent(zero, zero)
    assert saito_determinant(zero, theta).is_zero


CLASS_FIELDS = [FieldSpec.rational(), FieldSpec.quadratic(2), FieldSpec.quadratic(3),
                FieldSpec.prime(3), FieldSpec.prime(101)]
CLASS_IDS = ["rational", "sqrt2", "sqrt3", "prime3", "prime101"]


@pytest.mark.parametrize("fs", CLASS_FIELDS, ids=CLASS_IDS)
def test_dependence_classes_match_pairwise_dependent(fs):
    """Two derivations share a class (or one is zero, with class None)
    exactly when dependent says so, on sets mixing repeats, scalar and
    polynomial multiples, zero, multiples of x - t*y (both values 0) and
    independent derivations whose values at (EVAL_POINT, 1) are
    proportional."""
    rng = random.Random(f"classes {fs.kind} {fs.d} {fs.p}")
    root = HomogPoly.from_linear_form(LinearForm.make(fs, 1, -EVAL_POINT))
    kinds = ("repeat", "scalar", "multiple", "root", "zero", "same-values", "fresh")
    seen = dict.fromkeys(kinds + ("independent-same-values", "dependent-both-values-0"), 0)
    for _ in range(25):
        bases = [small_derivation(fs, rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        thetas = []
        for _ in range(rng.randint(2, 14)):
            kind = rng.choice(kinds)
            base = rng.choice(bases)
            if kind == "repeat":
                theta = base
            elif kind == "scalar":
                theta = base.scale(small_poly(fs, rng, 0).coeffs[0])
            elif kind == "multiple":
                theta = base.mul_poly(small_poly(fs, rng, rng.randint(1, 2)))
            elif kind == "root":
                theta = base.mul_poly(root).mul_poly(small_poly(fs, rng, rng.randint(0, 1)))
            elif kind == "zero":
                theta = Derivation.zero()
            elif kind == "same-values":
                # the values at (EVAL_POINT, 1) are base's; dependent on base
                # only if the added multiple of x - t*y is
                theta = base + small_derivation(fs, rng, base.degree - 1).mul_poly(root)
            else:
                theta = small_derivation(fs, rng, rng.randint(0, 3))
            seen[kind] += 1
            thetas.append(theta)
        rng.shuffle(thetas)
        ids = dependence_classes(thetas)
        assert len(ids) == len(thetas)
        assert [i is None for i in ids] == [t.is_zero for t in thetas]
        firsts = list(dict.fromkeys(i for i in ids if i is not None))
        assert firsts == list(range(len(firsts)))
        for (t1, i1), (t2, i2) in combinations(zip(thetas, ids), 2):
            want = dependent(t1, t2)
            assert (i1 is None or i2 is None or i1 == i2) is want
            if not (t1.is_zero or t2.is_zero) and evaluation_vanishes(t1, t2):
                if not want:
                    seen["independent-same-values"] += 1
                elif t1.values[1] == t1.values[2] == t1.values[0].zero:
                    seen["dependent-both-values-0"] += 1
    assert all(seen.values()), seen
    assert dependence_classes([]) == []


@pytest.mark.parametrize("fs", PREDICATE_FIELDS, ids=PREDICATE_IDS)
def test_proportional_matches_proportional_derivations(fs):
    rng = random.Random(fs.kind + str(fs.p))
    lines = [LinearForm.make(fs, 1, 0), LinearForm.make(fs, 0, 1), LinearForm.make(fs, 1, 1),
             LinearForm.make(fs, 1, -EVAL_POINT)]
    verdicts = set()
    for _ in range(150):
        d = rng.randint(0, 4)
        t2 = small_derivation(fs, rng, d)
        forms = [rng.choice(lines) for _ in range(rng.randint(0, 3))]
        g = HomogPoly.one(fs)
        for lf in forms:
            g = g * HomogPoly.from_linear_form(lf)
        expect = t2.mul_poly(g)
        kind = rng.randrange(4)
        if kind == 0:
            t1 = expect.scale(small_poly(fs, rng, 0).coeffs[0])
        elif kind == 1:
            t1 = expect + small_derivation(fs, rng, expect.degree)
        elif kind == 2:
            t1 = small_derivation(fs, rng, rng.randint(0, 6))  # any degree
        else:
            t1 = Derivation.zero()
        want = proportional_derivations(t1, expect)
        assert proportional(t1, t2, forms) is want
        verdicts.add(want)
        if not forms:
            assert proportional(t2, t1) is proportional_derivations(t2, t1)
    assert verdicts == {True, False}
