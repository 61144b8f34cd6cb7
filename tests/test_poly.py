"""Polynomial layer: exact division, multiplicity, derivations.

Divisibility facts are cross-checked against the multiplication oracle
(building f = alpha**m * g explicitly and recovering m).
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from multilattice import poly
from multilattice.errors import ExactDivisionError, ProportionalForms, ZeroPolynomial
from multilattice.field import FieldSpec, QuadElem
from multilattice.linalg import domain_of
from multilattice.poly import (
    Arrangement,
    Derivation,
    HomogPoly,
    LinearForm,
    apply_derivation,
    defining_polynomial,
    divide_by_linear_form,
    linear_form_multiplicity,
    dependence_classes,
    dependent,
    proportional,
    saito_determinant,
)
from helpers import (assert_same_derivation, euler, field_canonical, form_poly, mul_poly,
                     mul_polys, neg_poly, plus, power, proportional_derivations, scale, sub_poly)

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
        assert mul_polys(f, g).is_zero
    else:
        assert mul_polys(f, g).degree == f.degree + g.degree


@given(coeffs, form_pairs)
def test_division_is_left_inverse_of_multiplication(c, t):
    g = HomogPoly.make(c)
    lf = mk_form(t)
    f = mul_polys(g, form_poly(lf))
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
    f = mul_polys(g, power(form_poly(lf), m, FS))
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
    f = mul_polys(g, form_poly(lf))
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
    assert apply_derivation(e, lf) == form_poly(lf)


@given(coeffs, st.fractions(min_value=-50, max_value=50, max_denominator=10).filter(bool))
def test_proportional_derivations_detects_scaling(c, s):
    p = HomogPoly.make(c)
    if p.is_zero:
        return
    t1 = Derivation(p, p.scale(Fraction(2)))
    t2 = scale(t1, s)
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
    assert saito_determinant(t1, t2) == neg_poly(saito_determinant(t2, t1))


def test_canonical_leading_one():
    t = Derivation(HomogPoly.make([Fraction(0), Fraction(-3)]),
                   HomogPoly.make([Fraction(6), Fraction(0)]))
    c = t.canonical()
    # first nonzero flattened coefficient (highest x power of P) becomes 1
    assert c.P.coeffs[1] == 1
    assert proportional_derivations(t, c)
    assert c == field_canonical(t) and c.format(FS) == field_canonical(t).format(FS)


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
            t2 = scale(t1, rand_scalar(fs, rng))  # dependent: cancels to zero
        det = saito_determinant(t1, t2)
        assert det == sub_poly(mul_polys(t1.P, t2.Q), mul_polys(t2.P, t1.Q))
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
            want = mul_polys(want, power(form_poly(lf), m, fs))
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


def one_part(fs, rng, d, zero_p):
    """A degree-d derivation with P = 0 (zero_p) or Q = 0, the other part nonzero."""
    part = small_poly(fs, rng, d)
    return Derivation(HomogPoly(), part) if zero_p else Derivation(part, HomogPoly())


def field_ends(theta):
    """Derivation.ends from the field coefficients: the leading terms of
    P/Q at x = 0 (the lowest x-power) and at y = 0 (the highest), each
    quotient as the (image, den) that its field's clear gives."""
    P, Q = theta.P.coeffs, theta.Q.coeffs
    if not P:
        return "dy"
    if not Q:
        return "dx"
    px, qx = (min(i for i, c in enumerate(f) if c) for f in (P, Q))
    py, qy = (max(i for i, c in enumerate(f) if c) for f in (P, Q))

    def cleared(r):
        (image,), den = domain_of(r).clear([r])
        return image, den

    return px - qx, cleared(P[px] / Q[qx]), qy - py, cleared(P[py] / Q[qy])


def same_ends(fs, rng, theta):
    """A derivation with theta's ends, dependent on theta only by chance.

    g*theta + x**a * y**b * other keeps theta's leading terms of P/Q at
    x = 0 and at y = 0 when g has nonzero x**0 and y**0 coefficients and
    a and b exceed the valuations of theta's parts there; its determinant
    with theta is x**a * y**b * det(theta, other).  Where P = 0 (or Q = 0)
    any derivation with that part zero has theta's ends.
    """
    if theta.P.is_zero or theta.Q.is_zero:
        return one_part(fs, rng, rng.randint(0, 3), theta.P.is_zero)
    d = theta.degree
    a = max(min(i for i, c in enumerate(f.coeffs) if c) for f in (theta.P, theta.Q)) + 1
    b = d - min(max(i for i, c in enumerate(f.coeffs) if c) for f in (theta.P, theta.Q)) + 1
    e = max(0, a + b - d) + rng.randint(0, 1)
    g = small_poly(fs, rng, e)
    while not (g.coeffs[0] and g.coeffs[e]):
        g = small_poly(fs, rng, e)
    monomial = HomogPoly.make([fs.zero()] * a + [fs.one()] + [fs.zero()] * b)
    return plus(mul_poly(theta, g), mul_poly(small_derivation(fs, rng, d + e - a - b), monomial))


def ends_kind(t1, t2):
    """How dependent decides a pair of nonzero derivations: by different
    ends, by two P = 0 ("dy") or two Q = 0 ("dx") parts, or by the full
    determinant."""
    if t1.ends != t2.ends:
        return "ends-differ"
    return t1.ends if isinstance(t1.ends, str) else "determinant"


CLASS_FIELDS = [FieldSpec.rational(), FieldSpec.quadratic(2), FieldSpec.quadratic(3),
                FieldSpec.prime(3), FieldSpec.prime(101)]
CLASS_IDS = ["rational", "sqrt2", "sqrt3", "prime3", "prime101"]


@pytest.mark.parametrize("fs", CLASS_FIELDS, ids=CLASS_IDS)
def test_derivation_ends_are_the_leading_terms_of_p_over_q(fs):
    """ends, read off the integer images, equals the leading terms computed
    from the field coefficients, and scalar and polynomial multiples keep it."""
    rng = random.Random(f"ends {fs.kind} {fs.d} {fs.p}")
    seen = set()
    for _ in range(60):
        theta = small_derivation(fs, rng, rng.randint(0, 5))
        multiple = scale(theta, small_poly(fs, rng, 0).coeffs[0])
        multiple = mul_poly(multiple, small_poly(fs, rng, rng.randint(1, 3)))
        assert theta.ends == field_ends(theta) == field_ends(multiple) == multiple.ends
        seen.add(theta.ends if isinstance(theta.ends, str) else "both parts")
    assert seen == {"dx", "dy", "both parts"}
    assert Derivation.zero().ends is None


@pytest.mark.parametrize("fs", CLASS_FIELDS, ids=CLASS_IDS)
def test_a_derivation_is_its_images(fs):
    """A derivation built from field coefficients reads them back unchanged
    and is the one built from its images (Derivation.of_images); so are its
    scalar and polynomial multiples.  The image kernels match their field
    oracles: times against mul_poly by the product of the forms, and
    canonical against field_canonical."""
    rng = random.Random(f"images {fs.kind} {fs.d} {fs.p}")
    lines = [LinearForm.make(fs, 1, 0), LinearForm.make(fs, 0, 1), LinearForm.make(fs, 1, 1),
             LinearForm.make(fs, 1, -2), LinearForm.make(fs, 3, 2)]
    for _ in range(60):
        d = rng.randint(0, 4)
        P, Q = (rng.choice([HomogPoly.zero(), small_poly(fs, rng, d)]) for _ in "PQ")
        theta = Derivation(P, Q)
        assert theta.P == P and theta.Q == Q and theta.is_zero == (P.is_zero and Q.is_zero)
        if theta.is_zero:
            assert theta == Derivation.zero() and theta.cleared is None
            continue
        multiple = scale(theta, small_poly(fs, rng, 0).coeffs[0])
        multiple = mul_poly(multiple, small_poly(fs, rng, rng.randint(0, 3)))
        forms = [rng.choice(lines) for _ in range(rng.randint(0, 3))]
        g = HomogPoly.one(fs)
        for lf in forms:
            g = mul_polys(g, form_poly(lf))
        for t in (theta, multiple):
            assert_same_derivation(fs, t, Derivation.of_images(*t.cleared))
        assert_same_derivation(fs, mul_poly(theta, g), theta.times(forms))
        assert_same_derivation(fs, field_canonical(multiple), multiple.canonical())


@pytest.mark.parametrize("fs", PREDICATE_FIELDS, ids=PREDICATE_IDS)
def test_dependent_matches_saito_determinant(fs, monkeypatch):
    """dependent against the determinant oracle on random pairs, multiples,
    multiples of x - 2*y, derivations with P = 0 or Q = 0, and pairs with
    equal ends; the full determinant is convolved exactly when the ends
    agree and neither part vanishes."""
    rng = random.Random(fs.kind + str(fs.p))
    root = form_poly(LinearForm.make(fs, 1, -2))
    convolved = []
    real = poly._determinant
    monkeypatch.setattr(poly, "_determinant", lambda *a: convolved.append(a) or real(*a))
    kinds = ("random", "multiples", "root-left", "root-mixed", "one-part", "same-ends")
    seen = dict.fromkeys(kinds + ("ends-differ", "dx", "dy", "determinant-dependent",
                                  "determinant-independent"), 0)
    for _ in range(200):
        d1, d2 = rng.randint(0, 4), rng.randint(0, 4)  # degrees may differ
        theta = small_derivation(fs, rng, d1)
        kind = rng.choice(kinds)
        if kind == "random":
            pair = (theta, small_derivation(fs, rng, d2))
        elif kind == "multiples":
            # f*theta and g*theta: the determinant vanishes identically
            pair = (mul_poly(theta, small_poly(fs, rng, d2)),
                    mul_poly(theta, small_poly(fs, rng, rng.randint(0, 3))))
        elif kind == "root-left":
            # det((x - 2*y)*theta, theta2) = (x - 2*y) * det(theta, theta2)
            pair = (mul_poly(theta, root), small_derivation(fs, rng, d2))
        elif kind == "root-mixed":
            # theta2 = g*theta + (x - 2*y)*theta': det = (x - 2*y) * det(theta, theta')
            e = rng.randint(0, 2)
            g = small_poly(fs, rng, e)
            other = small_derivation(fs, rng, d1 + e - 1) if d1 + e else Derivation.zero()
            pair = (theta, plus(mul_poly(theta, g), mul_poly(other, root)))
        elif kind == "one-part":
            pair = (one_part(fs, rng, d1, rng.random() < 0.5),
                    one_part(fs, rng, d2, rng.random() < 0.5))
        else:
            pair = (theta, same_ends(fs, rng, theta))
            assert pair[0].ends == pair[1].ends
        want = saito_determinant(*pair).is_zero
        how = ends_kind(*pair)
        for t1, t2 in (pair, pair[::-1]):
            convolved.clear()
            assert dependent(t1, t2) is want
            assert len(convolved) == (how == "determinant")
        assert want or (how in ("ends-differ", "determinant") and kind != "multiples")
        if how == "determinant":
            how += "-dependent" if want else "-independent"
        seen[kind] += 1
        seen[how] += 1
    assert all(seen.values()), seen
    zero = Derivation.zero()
    theta = small_derivation(fs, rng, 2)
    assert dependent(zero, theta) and dependent(theta, zero) and dependent(zero, zero)
    assert saito_determinant(zero, theta).is_zero


@pytest.mark.parametrize("fs", CLASS_FIELDS, ids=CLASS_IDS)
def test_dependence_classes_match_pairwise_dependent(fs):
    """Two derivations share a class (or one is zero, with class None)
    exactly when dependent says so, on sets mixing repeats, scalar and
    polynomial multiples, zero, multiples of x - 2*y, derivations with
    P = 0 or Q = 0, and independent derivations with equal ends."""
    rng = random.Random(f"classes {fs.kind} {fs.d} {fs.p}")
    root = form_poly(LinearForm.make(fs, 1, -2))
    kinds = ("repeat", "scalar", "multiple", "root", "zero", "one-part", "same-ends", "fresh")
    seen = dict.fromkeys(kinds + ("ends-differ", "dx", "dy", "determinant-dependent",
                                  "determinant-independent"), 0)
    for _ in range(25):
        bases = [small_derivation(fs, rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        thetas = []
        for _ in range(rng.randint(2, 14)):
            kind = rng.choice(kinds)
            base = rng.choice(bases)
            if kind == "repeat":
                theta = base
            elif kind == "scalar":
                theta = scale(base, small_poly(fs, rng, 0).coeffs[0])
            elif kind == "multiple":
                theta = mul_poly(base, small_poly(fs, rng, rng.randint(1, 2)))
            elif kind == "root":
                theta = mul_poly(mul_poly(base, root), small_poly(fs, rng, rng.randint(0, 1)))
            elif kind == "zero":
                theta = Derivation.zero()
            elif kind == "one-part":
                theta = one_part(fs, rng, rng.randint(0, 3), rng.random() < 0.5)
            elif kind == "same-ends":
                theta = same_ends(fs, rng, base)
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
            if not (t1.is_zero or t2.is_zero):
                how = ends_kind(t1, t2)
                if how == "determinant":
                    how += "-dependent" if want else "-independent"
                seen[how] += 1
    assert all(seen.values()), seen
    assert dependence_classes([]) == []


@pytest.mark.parametrize("fs,line", [(FieldSpec.rational(), (1, -2)), (FieldSpec.prime(3), (1, 1))],
                         ids=["x-2y", "prime3-x+y"])
def test_dependence_classes_convolve_only_pairs_with_equal_ends(fs, line, monkeypatch):
    """On multiples of a line through (2, 1), which vanish there, every full
    determinant that dependence_classes convolves is of two derivations with
    equal leading terms of P/Q at x = 0 and at y = 0 (field_ends)."""
    rng = random.Random(f"equal ends {fs.kind} {fs.p}")
    root = form_poly(LinearForm.make(fs, *line))
    bases = [small_derivation(fs, rng, rng.randint(1, 3)) for _ in range(5)]
    thetas = [mul_poly(mul_poly(rng.choice(bases), root), small_poly(fs, rng, rng.randint(0, 2)))
              for _ in range(30)]
    thetas += [mul_poly(small_derivation(fs, rng, rng.randint(0, 3)), root) for _ in range(10)]
    ends_of = {(tuple(t.cleared[1]), tuple(t.cleared[2])): field_ends(t) for t in thetas}
    convolved = []
    real = poly._determinant

    def spy(dom, p1, q1, p2, q2):
        convolved.append((ends_of[tuple(p1), tuple(q1)], ends_of[tuple(p2), tuple(q2)]))
        return real(dom, p1, q1, p2, q2)

    monkeypatch.setattr(poly, "_determinant", spy)
    ids = dependence_classes(thetas)
    monkeypatch.undo()
    assert convolved and all(e1 == e2 for e1, e2 in convolved)
    for (t1, i1), (t2, i2) in combinations(zip(thetas, ids), 2):
        assert (i1 == i2) is saito_determinant(t1, t2).is_zero


@pytest.mark.parametrize("fs", PREDICATE_FIELDS, ids=PREDICATE_IDS)
def test_proportional_matches_proportional_derivations(fs):
    rng = random.Random(fs.kind + str(fs.p))
    lines = [LinearForm.make(fs, 1, 0), LinearForm.make(fs, 0, 1), LinearForm.make(fs, 1, 1),
             LinearForm.make(fs, 1, -2)]
    verdicts = set()
    for _ in range(150):
        d = rng.randint(0, 4)
        t2 = small_derivation(fs, rng, d)
        forms = [rng.choice(lines) for _ in range(rng.randint(0, 3))]
        g = HomogPoly.one(fs)
        for lf in forms:
            g = mul_polys(g, form_poly(lf))
        expect = mul_poly(t2, g)
        kind = rng.randrange(4)
        if kind == 0:
            t1 = scale(expect, small_poly(fs, rng, 0).coeffs[0])
        elif kind == 1:
            t1 = plus(expect, small_derivation(fs, rng, expect.degree))
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
