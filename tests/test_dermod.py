"""Solver tests: closed-form oracles, differential constraint oracles, Saito.

Oracles:
* Boolean arrangements have the explicit basis {x^a dx, y^b dy}, giving a
  closed-form graded dimension and exponent pair.
* The two independent constraint constructions ("basis" vs "division")
  must agree everywhere.
* Prime-field projections must agree with characteristic 0 on good primes.
* On a cone (2*mu_H > |mu|) the exponents are (|mu| - mu_H, mu_H), with
  the closed-form generator (Wakamiko 2007).
* The one-rank lower exponent must be the least degree where the division
  construction has a derivation, and the closed-form constraint rows must
  equal the ones built from polynomial powers and a matrix inverse.
* Elimination (one rank, the nullspace at d1 and at d2) is the oracle of
  the lattice walk: the same exponents, theta_min and full_basis partner.
* Saito's criterion certifies every walk rooted at 0: it passes on the
  walk's windows over every field, and each corrupted step fails it for
  its own reason.
* The determinant of two members whose degrees sum to |mu| is a scalar
  times the defining polynomial, whose first nonzero coefficient sits at
  the multiplicity of the line x: the theorem that lets one coefficient
  decide Saito's criterion; verify_saito agrees with the HomogPoly
  comparison.
"""

import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multilattice import dermod, lattice, poly
from multilattice.coxeter import check_delta_invariance, coxeter_arrangement, standard_generators
from multilattice.dermod import (
    _alpha_basis_rows,
    delta,
    exponents,
    full_basis,
    graded_dimension,
    in_module,
    min_derivation,
    verify_saito,
)
from multilattice.errors import (BadReduction, InternalInconsistency, LengthMismatch,
                                 PreconditionViolated, ProportionalForms)
from multilattice.field import FieldSpec, QuadElem, is_prime
from multilattice.linalg import domain_of, invert_matrix, rank
from multilattice.poly import (
    Arrangement,
    Derivation,
    HomogPoly,
    LinearForm,
    apply_derivation,
    defining_polynomial,
    linear_form_multiplicity,
    saito_determinant,
)
from helpers import (assert_same_derivation, division_dimension, euler, field_derivation,
                     form_poly, mul_poly, plus, power, proportional_derivations, scale)
from modular import Projection

FS = FieldSpec.rational()


def random_arrangement(rng, n):
    forms = set()
    while len(forms) < n:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if (a, b) == (0, 0):
            continue
        lf = LinearForm.make(FS, a, b)
        forms.add((lf.a, lf.b))
    return Arrangement.make(FS, sorted(forms))


# -- closed-form oracles ------------------------------------------------------


@given(st.integers(0, 5), st.integers(0, 5))
def test_boolean_exponents_closed_form(a, b):
    A = Arrangement.make(FS, [(1, 0), (0, 1)])
    res = exponents(A, (a, b))
    assert (res.d1, res.d2) == tuple(sorted((a, b)))
    assert res.delta == abs(a - b)


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 7))
def test_boolean_graded_dimension_closed_form(a, b, d):
    A = Arrangement.make(FS, [(1, 0), (0, 1)])
    want = max(0, d - a + 1) + max(0, d - b + 1)
    assert graded_dimension(A, (a, b), d) == want


@given(st.integers(0, 5), st.integers(0, 7))
def test_single_line_graded_dimension(m, d):
    A = Arrangement.make(FS, [(1, 0)])
    # theta(x) = P in (x^m): P has max(0, d-m+1) free coefficients, Q all d+1
    assert graded_dimension(A, (m,), d) == max(0, d - m + 1) + (d + 1)


def test_boolean_min_derivation_is_monomial():
    A = Arrangement.make(FS, [(1, 0), (0, 1)])
    t = min_derivation(A, (2, 3))
    x2 = HomogPoly.make([FS.zero(), FS.zero(), FS.one()])
    assert proportional_derivations(t, Derivation(x2, HomogPoly.zero()))


# -- differential oracle: the two constraint constructions --------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_constraint_construction_oracle_equivalence(seed):
    rng = random.Random(seed)
    A = random_arrangement(rng, rng.randint(1, 5))
    mu = tuple(rng.randint(0, 4) for _ in range(len(A)))
    d = rng.randint(0, max(1, sum(mu) // 2 + 1))
    assert graded_dimension(A, mu, d) == division_dimension(A, mu, d)


# -- one rank and closed-form rows, against their oracles ----------------------

FIELDS = [FieldSpec.rational(), FieldSpec.quadratic(3), FieldSpec.prime(101)]


def random_scalar(rng, fs):
    if fs.kind == "quadratic":
        return QuadElem(Fraction(rng.randint(-3, 3)),
                        Fraction(rng.randint(-2, 2), rng.randint(1, 2)), fs.d)
    return fs.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def random_form(rng, fs):
    while True:
        a = rng.choice([fs.zero(), random_scalar(rng, fs)])
        b = random_scalar(rng, fs)
        if a or b:
            return LinearForm.make(fs, a, b)


def random_arrangement_over(rng, fs, n):
    forms = {}
    while len(forms) < n:
        lf = random_form(rng, fs)
        forms[(lf.a, lf.b)] = lf
    return Arrangement(fs, tuple(forms.values()))


@pytest.mark.parametrize("fs", FIELDS, ids=lambda fs: fs.kind)
def test_d1_is_least_degree_of_the_division_oracle(fs):
    rng = random.Random(fs.kind)
    for total in range(8):  # |mu| = 0, 1 and both parities above
        for _ in range(4):
            A = random_arrangement_over(rng, fs, rng.randint(1, 4))
            mu = [0] * len(A)
            for _ in range(total):
                mu[rng.randrange(len(A))] += 1
            least = next(d for d in itertools.count()
                         if division_dimension(A, mu, d) > 0)
            assert exponents(A, mu).d1 == least, (A, mu)


def rows_by_inversion(fs, lf, d):
    """Constraint rows from powers of alpha and beta and a matrix inverse."""
    beta = LinearForm.make(fs, 0, 1) if lf.a else LinearForm.make(fs, 1, 0)
    ap, bp = form_poly(lf), form_poly(beta)
    cols = [(power(ap, i, fs) * power(bp, d - i, fs)).coeffs for i in range(d + 1)]
    inv = invert_matrix([[cols[i][j] for i in range(d + 1)] for j in range(d + 1)], fs)
    return tuple(tuple(lf.a * v for v in r) + tuple(lf.b * v for v in r) for r in inv)


@pytest.mark.parametrize("fs", FIELDS, ids=lambda fs: fs.kind)
def test_closed_form_rows_match_inverted_basis_change(fs):
    rng = random.Random(fs.kind)
    forms = [LinearForm.make(fs, 0, 1), LinearForm.make(fs, 1, 0)]
    forms += [random_form(rng, fs) for _ in range(12)]
    for lf in forms:
        for d in range(7):
            assert _alpha_basis_rows(fs, lf, d) == rows_by_inversion(fs, lf, d), (lf, d)


@pytest.mark.parametrize("fs", FIELDS, ids=lambda fs: fs.kind)
def test_residual_rows_are_the_closed_form_rows_on_images(fs):
    # up to one nonzero factor, including alpha = y and rows past the degree
    rng = random.Random(fs.kind)
    forms = {(lf.a, lf.b): lf for lf in (LinearForm.make(fs, 0, 1), LinearForm.make(fs, 1, 0))}
    while len(forms) < 8:
        lf = random_form(rng, fs)
        forms[(lf.a, lf.b)] = lf
    A = Arrangement(fs, tuple(forms.values()))
    dom = domain_of(fs.one())
    for h in range(len(A)):
        for d in range(6):
            batch = dermod._residual_rows(A, h, d, range(d + 2))  # the rank check's rows
            for m in range(d + 2):
                rows = _alpha_basis_rows(fs, A.forms[h], d)
                want = rows[m] if m <= d else (fs.zero(),) * (2 * d + 2)
                got = dermod._residual_rows(A, h, d, (m,))[0]  # the walk's row
                assert batch[m] == got, (h, m, d)
                lead_w = next((c for c in want if c), None)
                lead_g = next((c for c in got if c != dom.zero), None)
                assert (lead_w is None) == (lead_g is None), (h, m, d)
                if lead_w is not None:
                    assert dom.clear([c / lead_w for c in want]) == dom.over(got, lead_g)


ORACLE_FIELDS = [FieldSpec.rational(), FieldSpec.quadratic(2), FieldSpec.quadratic(3),
                 FieldSpec.prime(3), FieldSpec.prime(101)]


def field_name(fs):
    return {"rational": "Q", "quadratic": f"Q(sqrt{fs.d})", "prime": f"F{fs.p}"}[fs.kind]


def oracle_arrangement(rng, fs):
    """A random arrangement of 1-4 lines, with alpha = y in about half of them."""
    lines = {}
    if rng.random() < 0.5:
        lines[(fs.zero(), fs.one())] = LinearForm.make(fs, 0, 1)
    size = rng.randint(max(1, len(lines)), 4)  # F_3 has exactly 4 lines
    while len(lines) < size:
        if fs.kind == "prime":
            a, b = fs.from_int(rng.randrange(fs.p)), fs.from_int(rng.randrange(fs.p))
        else:
            a, b = rng.choice([fs.zero(), random_scalar(rng, fs)]), random_scalar(rng, fs)
        if a or b:
            lf = LinearForm.make(fs, a, b)
            lines[(lf.a, lf.b)] = lf
    return Arrangement(fs, tuple(lines.values()))


def random_images(rng, fs, n):
    """n integer images of fs: signed ints, signed pairs, or residues."""
    if fs.kind == "quadratic":
        return [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n)]
    if fs.kind == "prime":
        return [rng.randrange(fs.p) for _ in range(n)]
    return [rng.randint(-9, 9) for _ in range(n)]


@pytest.mark.parametrize("fs", ORACLE_FIELDS, ids=field_name)
def test_times_alpha_is_the_convolution_by_the_form(fs):
    # alpha_h * [P | Q], each half convolved with the form's images, over its content
    rng = random.Random(field_name(fs))
    for _ in range(10):
        walk = dermod._Walk(oracle_arrangement(rng, fs))
        dom = walk.dom
        for h, form in enumerate(walk.forms):
            d = rng.randint(0, 4)
            t = random_images(rng, fs, 2 * d + 2)
            p, q = [dom.zero] * (d + 2), [dom.zero] * (d + 2)
            dom.convolve(p, form, t[:d + 1], 1)
            dom.convolve(q, form, t[d + 1:], 1)
            assert walk._times_alpha(t, d, h) == dom.primitive(p + q)


def field_rows_dimension(A, mu, d):
    """dim D_d from the field rows of _constraint_rows_basis, cleared."""
    dom, ncols = domain_of(A.field.one()), 2 * (d + 1)
    rows = [dom.clear(r)[0] for r in dermod._constraint_rows_basis(A, mu, d)]
    return ncols - rank(rows, dom, ncols)


@pytest.mark.parametrize("fs", ORACLE_FIELDS, ids=field_name)
def test_image_rows_rank_matches_field_rows_and_division(fs):
    rng = random.Random(f"image rows {field_name(fs)}")
    seen = set()
    for _ in range(60):
        A = oracle_arrangement(rng, fs)
        mu = tuple(rng.choice([0, 0, 1, 2, 3, 5, 8]) for _ in A.forms)
        d = rng.randint(0, sum(mu) // 2 + 2)
        got = graded_dimension(A, mu, d)
        assert got == field_rows_dimension(A, mu, d), (A, mu, d)
        assert got == division_dimension(A, mu, d), (A, mu, d)
        seen.update({"alpha = y"} if any(not lf.a for lf in A.forms) else ())
        seen.update({"zero entry"} if 0 in mu else ())
        seen.update({"mu_h > d + 1"} if max(mu) > d + 1 else ())
    assert seen == {"alpha = y", "zero entry", "mu_h > d + 1"}


def test_dropped_image_row_raises_the_oracle_dimension(B2, G2, monkeypatch):
    # the rank oracle's rows one short per form: at every point of these
    # boxes that raises dim D_{d*}, so each row counts
    def one_row_short(A, mu, d):
        return [row for h, m in enumerate(mu)
                for row in dermod._residual_rows(A, h, d, range(min(m, d + 1) - 1))]

    points = [(A, mu) for A, box in ((B2, (3,) * 4), (G2, (1,) * 6))
              for mu in lattice.box_points(box) if any(mu)]
    full = [graded_dimension(A, mu, (sum(mu) - 1) // 2) for A, mu in points]
    monkeypatch.setattr(dermod, "_constraint_rows_images", one_row_short)
    for (A, mu), dim in zip(points, full):
        assert graded_dimension(A, mu, (sum(mu) - 1) // 2) > dim, mu


def assert_cone_closed_form(A, mu):
    """Exponents (|mu| - mu_H, mu_H) and generator f*(b dx - a dy), where
    alpha_H = a x + b y dominates and f is the product of the other lines."""
    h = lattice.cone_index(mu)
    res = exponents(A, mu)
    assert (res.d1, res.d2) == (sum(mu) - mu[h], mu[h]) and not res.non_unique, (A, mu)
    f = defining_polynomial(A, mu[:h] + (0,) + mu[h + 1:])
    lf = A.forms[h]
    assert res.theta_min == Derivation(f.scale(lf.b), f.scale(-lf.a)).canonical(), (A, mu)


@pytest.mark.parametrize("name,box,count", [("B2", (5,) * 4, 280), ("G2", (2,) * 6, 42)])
def test_cone_points_have_closed_form_exponents(request, name, box, count):
    A = request.getfixturevalue(name)
    cones = [mu for mu in lattice.box_points(box) if lattice.cone_index(mu) is not None]
    assert len(cones) == count
    for mu in cones:
        assert_cone_closed_form(A, mu)


def test_cone_closed_form_on_random_arrangements():
    rng = random.Random("cone")
    slopes = set()
    for _ in range(200):
        A = random_arrangement_over(rng, FS, rng.randint(1, 4))
        mu = [rng.randint(0, 3) for _ in A.forms]
        h = rng.randrange(len(A))
        mu[h] = sum(mu) - mu[h] + rng.randint(1, 3)
        assert_cone_closed_form(A, tuple(mu))
        slopes.update("y" if not lf.a else "fraction" if lf.b.denominator > 1 else "integer"
                      for lf in A.forms)
    assert slopes == {"y", "fraction", "integer"}


def times_beta(walk, t, d, h):
    """beta * t for the complementary form beta of line h: x when alpha_h = y,
    y otherwise."""
    lo, hi = (1, 0) if walk.forms[h][1] == walk.dom.zero else (0, 1)
    return dermod._shift(t, d, lo, hi, walk.dom.zero)


def pivot_times_beta(walk, step, state, h, m):
    walk._times_alpha = lambda t, d, h: times_beta(walk, t, d, h)
    try:
        return step(walk, state, h, m)
    finally:
        del walk._times_alpha


def partner_is_shifted_t1(walk, step, state, h, m):
    t1, d1, _, d2 = step(walk, state, h, m)
    return (t1, d1, dermod._shift(t1, d1, d2 - d1, 0, walk.dom.zero), d2)


def partner_times_beta(walk, step, state, h, m):
    t1, d1, t2, d2 = step(walk, state, h, m)
    return (t1, d1, times_beta(walk, t2, d2, h), d2 + 1)


def lower_times_x(walk, step, state, h, m):
    t1, d1, t2, d2 = step(walk, state, h, m)
    return (dermod._shift(t1, d1, 1, 0, walk.dom.zero), d1 + 1, t2, d2)


def corrupt_last_step(monkeypatch, corruption, total):
    """Patch _Walk.step so that the total-th call, the last step of a walk
    rooted at 0 to a point of weight total, returns a corrupted state.
    Returns the list of the calls made."""
    step, calls = dermod._Walk.step, []

    def patched(walk, state, h, m):
        calls.append(h)
        if len(calls) == total:
            return corruption(walk, step, state, h, m)
        return step(walk, state, h, m)

    monkeypatch.setattr(dermod._Walk, "step", patched)
    return calls


def test_wrong_lower_exponent_raises(B2, monkeypatch):
    # (1,1,1,1) has exponents (1, 3): a walk rooted at 0, on a fresh memo,
    # must raise when its last step returns x*t1, of degree 2, in the module
    # and independent of t2
    monkeypatch.setattr(dermod, "_WALKS", {})
    corrupt_last_step(monkeypatch, lower_times_x, 4)
    with pytest.raises(InternalInconsistency, match="degree: the walk gives 2\\+3"):
        exponents(B2, (1, 1, 1, 1))


@pytest.mark.parametrize("corruption,reason", [
    (pivot_times_beta, "membership"),
    (partner_is_shifted_t1, "dependent"),
    (partner_times_beta, "degree"),
], ids=["pivot-times-beta", "partner-x^k-t1", "partner-times-beta"])
def test_certificate_catches_a_corrupted_last_step(B2, G2, monkeypatch, corruption, reason):
    # each corruption breaks exactly one condition of Saito's criterion, at
    # every point of both boxes
    for A, box in ((B2, (3,) * 4), (G2, (1,) * 6)):
        for mu in lattice.box_points(box):
            if not any(mu):
                continue
            monkeypatch.setattr(dermod, "_WALKS", {})
            calls = corrupt_last_step(monkeypatch, corruption, sum(mu))
            with pytest.raises(InternalInconsistency, match=f"^{reason}: ") as exc:
                exponents(A, mu)
            assert len(calls) == sum(mu) and str(mu) in str(exc.value), mu


def test_a_rejected_basis_is_not_memoised(B2, monkeypatch):
    # the step to (1,1,1,1), up line 3 from (1,1,1,0) of weight 3, returns
    # x^k*t1 as partner on every walk: the certificate must reject the basis
    # each time, and (1,1,1,2) must not be walked from it
    monkeypatch.setattr(dermod, "_WALKS", {})
    step = dermod._Walk.step

    def patched(walk, state, h, m):
        if (h, m, state[1] + state[3]) == (3, 0, 3):
            return partner_is_shifted_t1(walk, step, state, h, m)
        return step(walk, state, h, m)

    monkeypatch.setattr(dermod._Walk, "step", patched)
    for _ in range(2):
        with pytest.raises(InternalInconsistency, match="^dependent: "):
            exponents(B2, (1, 1, 1, 1))
    with pytest.raises(InternalInconsistency):
        exponents(B2, (1, 1, 1, 2))
    assert not dermod._walk(B2).states


def test_no_production_path_ranks(B2, G2, tmp_path, monkeypatch):
    # the rank is the tests' oracle only: solves, bases, scans and every
    # verification run without it, each walk rooted at 0 certified instead
    from multilattice import cli, explorer, linalg

    def no_rank(*args):
        raise AssertionError("a production path called rank")

    monkeypatch.setattr(linalg, "rank", no_rank)
    monkeypatch.setattr(dermod, "rank", no_rank)
    monkeypatch.setattr(dermod, "_WALKS", {})
    res = exponents(B2, (9, 9, 9, 9))
    assert (res.d1, res.d2) == (17, 19)
    assert [t.degree for t in full_basis(G2, (2, 1, 1, 1, 1, 1))] == [2, 5]
    path = tmp_path / "scan.json"
    path.write_text(explorer.scan(B2, (2, 2, 2, 2)).to_json())
    assert cli.main(["verify", "--scan", str(path), "all"]) == 0


def test_vanishing_residual_pair_raises(B2, monkeypatch):
    # a basis whose generators both lie one step up contradicts Saito's criterion
    monkeypatch.setattr(dermod, "_WALKS", {})
    monkeypatch.setattr(dermod, "_residual_rows", lambda A, h, d, ms: [[0] * (2 * d + 2)])
    with pytest.raises(InternalInconsistency, match="both generators"):
        exponents(B2, (1, 0, 0, 0))


# -- the lattice walk, against elimination --------------------------------------


def eliminated(A, mu):
    """(d1, d2, theta_min) from one rank and the nullspace at d1."""
    d1 = dermod._minimal_degree(A, mu)
    return d1, sum(mu) - d1, dermod._nullspace_derivations(A, mu, d1)[0]


def walked(A, points):
    return {mu: (r.d1, r.d2, r.theta_min) for mu in points for r in [exponents(A, mu)]}


def walk_cases():
    pairs = [(1, 0), (0, 1), (1, 1), (1, -1)]
    cases = [("B2", coxeter_arrangement("B2"), (5,) * 4),
             ("G2", coxeter_arrangement("G2"), (2,) * 6),
             ("B2-prime7", Arrangement.make(FieldSpec.prime(7), pairs), (4,) * 4)]
    rng = random.Random("walk")
    for fs in FIELDS:
        for i in range(4):
            A = random_arrangement_over(rng, fs, rng.randint(2, 5))
            cases.append((f"{fs.kind}{i}", A, (2,) * len(A)))
    return cases


@pytest.mark.parametrize("name,A,box", walk_cases(), ids=[c[0] for c in walk_cases()])
def test_walk_matches_elimination(monkeypatch, name, A, box):
    monkeypatch.setattr(dermod, "_WALKS", {})
    points = list(lattice.box_points(box))
    got = walked(A, points)
    for mu in points:
        assert got[mu] == eliminated(A, mu), mu


# fractional forms (1, 3/2) and (1, -5/3), and G2's sqrt(3)/3, clear over
# den > 1; x - 2*y over Q and x + y over F_3 pass through (2, 1); the last
# case has no line x, so the defining polynomial starts at x**0 at every mu
SAITO_CASES = [
    (FieldSpec.rational(), [(1, 0), (0, 1), (1, 1), (1, -1)]),
    (FieldSpec.rational(), [(1, 0), (0, 1), (2, 3), (3, -5)]),
    (FieldSpec.quadratic(3), [(f.a, f.b) for f in coxeter_arrangement("G2").forms]),
    (FieldSpec.prime(3), [(1, 0), (0, 1), (1, 1), (1, -1)]),
    (FieldSpec.prime(101), [(1, 0), (0, 1), (1, 1), (2, 3)]),
    (FieldSpec.rational(), [(1, 0), (0, 1), (1, 1), (1, -2)]),
    (FieldSpec.rational(), [(0, 1), (1, 1), (1, -1), (1, 2)]),
]
SAITO_IDS = ["B2", "rational-fractions", "G2", "B2-prime3", "prime101", "x-2y", "no-x"]


def certificate_cases():
    """The windows of test_walk_matches_elimination, random ones over
    Q(sqrt 2) and F_3, and the SAITO_CASES with a line through (2, 1) or
    without the line x."""
    rng = random.Random("certificate")
    extra = [(f"{field_name(fs)}-{i}", A, (2,) * len(A))
             for fs in (FieldSpec.quadratic(2), FieldSpec.prime(3))
             for i in range(4) for A in [oracle_arrangement(rng, fs)]]
    saito = [(name, Arrangement.make(fs, pairs), (2,) * len(pairs))
             for (fs, pairs), name in zip(SAITO_CASES, SAITO_IDS)
             if name in ("B2-prime3", "x-2y", "no-x")]
    return walk_cases() + extra + saito


def mu_x(A, mu):
    """The multiplicity of the line x (b = 0) in mu, 0 without that line:
    the index of the defining polynomial's first nonzero coefficient."""
    return sum(m for lf, m in zip(A.forms, mu) if not lf.b)


def x_branches(A):
    """The values of mu_x > 0 that saito_points reaches: both when x is a
    line of A, else False alone."""
    return {True, False} if any(not lf.b for lf in A.forms) else {False}


@pytest.mark.parametrize("name,A,box", certificate_cases(),
                         ids=[c[0] for c in certificate_cases()])
def test_certificate_passes_on_the_walk_windows(monkeypatch, name, A, box):
    # one coefficient decides, at mu_x; certify raises on a rejected basis
    monkeypatch.setattr(dermod, "_WALKS", {})
    walk = dermod._walk(A)
    for mu in lattice.box_points(box):
        walk.certify(mu, walk.basis(mu))


def test_walk_is_path_independent(B2, G2, monkeypatch):
    for A, box in ((B2, (4,) * 4), (G2, (2,) * 6)):
        points = list(lattice.box_points(box))
        monkeypatch.setattr(dermod, "_WALKS", {})
        in_order = walked(A, points)
        random.Random(3).shuffle(points)
        monkeypatch.setattr(dermod, "_WALKS", {})
        assert walked(A, points) == in_order


def nullspace_partner(A, mu):
    """full_basis's partner as the first degree-d2 nullspace vector that is
    independent of theta_min."""
    d1, d2, t1 = eliminated(A, mu)
    return next(c for c in dermod._nullspace_derivations(A, mu, d2)
                if not saito_determinant(t1, c).is_zero)


def test_full_basis_matches_nullspace_partner(B2, G2):
    for A, box in ((B2, (3,) * 4), (G2, (1,) * 6)):
        for mu in lattice.box_points(box):
            assert full_basis(A, mu) == (eliminated(A, mu)[2], nullspace_partner(A, mu)), mu


# -- exponent invariants ------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_exponent_invariants_random(seed):
    rng = random.Random(seed)
    A = random_arrangement(rng, rng.randint(2, 4))
    mu = tuple(rng.randint(0, 3) for _ in range(len(A)))
    res = exponents(A, mu)
    assert res.d1 + res.d2 == sum(mu)
    assert res.d1 <= res.d2
    assert res.delta % 2 == sum(mu) % 2
    if mu and sum(mu) > 0:
        assert res.d1 <= sum(mu) - max(mu)
    assert in_module(A, mu, res.theta_min)
    assert res.non_unique == (res.delta == 0)


def test_exponents_permutation_invariance():
    rng = random.Random(7)
    A = random_arrangement(rng, 4)
    mu = (2, 0, 3, 1)
    perm = [2, 0, 3, 1]
    B = Arrangement(FS, tuple(A.forms[i] for i in perm))
    nu = tuple(mu[i] for i in perm)
    res, perm_res = exponents(A, mu), exponents(B, nu)
    assert (res.d1, res.d2) == (perm_res.d1, perm_res.d2)


def test_exponents_zero_multiplicity():
    A = Arrangement.make(FS, [(1, 0), (0, 1), (1, 1)])
    res = exponents(A, (0, 0, 0))
    assert (res.d1, res.d2) == (0, 0)
    assert res.non_unique


def test_exponents_length_mismatch():
    A = Arrangement.make(FS, [(1, 0), (0, 1)])
    with pytest.raises(LengthMismatch):
        exponents(A, (1, 2, 3))
    with pytest.raises(LengthMismatch):
        dermod.exponent_pair(A, (1, 2, 3))
    t1, t2 = full_basis(A, (1, 2))
    with pytest.raises(LengthMismatch):
        verify_saito(A, (1, 2, 0), t1, t2)


@pytest.mark.parametrize("mu", [(-1, 0, 0, 0), (2, 1, -3, 1), (1.0, 0, 0, 0), (0.5, 1, 1, 1)])
def test_exponents_rejects_entries_the_walk_cannot_reach(B2, mu):
    # the walk steps each coordinate down to 0; a negative or fractional
    # entry never gets there
    exponents(B2, (1, 0, 0, 0))  # a kept result at an equal tuple lets no float through
    for solve in (exponents, dermod.exponent_pair, full_basis):
        with pytest.raises(PreconditionViolated):
            solve(B2, mu)


def test_delta_monotone_steps(B2):
    # covering steps change delta by exactly one (spot check off the scan path)
    base = (2, 1, 2, 1)
    d0 = delta(B2, base)
    for i in range(4):
        up = base[:i] + (base[i] + 1,) + base[i + 1:]
        assert abs(delta(B2, up) - d0) == 1


# -- membership and Saito verification ---------------------------------------


def test_theta_min_membership_b2(B2):
    for mu in [(1, 1, 1, 1), (2, 1, 0, 3), (0, 2, 2, 1)]:
        res = exponents(B2, mu)
        assert in_module(B2, mu, res.theta_min)
        for lf, m in zip(B2.forms, mu):
            f = apply_derivation(res.theta_min, lf)
            assert f.is_zero or True  # exercised through in_module above


def in_module_oracle(A, mu, theta):
    """Membership by repeated division with HomogPoly arithmetic."""
    for lf, m in zip(A.forms, mu):
        if m > 0:
            f = apply_derivation(theta, lf)
            if not f.is_zero and linear_form_multiplicity(f, lf) < m:
                return False
    return True


MEMBERSHIP_CASES = [
    # alpha = y, integer and non-integer slopes
    (FS, [(1, 0), (0, 1), (1, 1), (2, 3), (3, -5)]),
    (FieldSpec.quadratic(3), [(1, 0), (0, 1), (1, QuadElem(Fraction(1, 2), Fraction(1, 3), 3)),
                              (3, QuadElem(Fraction(0), Fraction(1), 3))]),
    (FieldSpec.prime(101), [(1, 0), (0, 1), (1, 1), (2, 3)]),
    # p = 7: convolution sums exceed p and synthetic-division quotients wrap
    (FieldSpec.prime(7), [(1, 0), (0, 1), (1, 1), (2, 3), (1, 4)]),
]
MEMBERSHIP_IDS = ["rational", "quadratic", "prime", "prime7"]


@pytest.mark.parametrize("fs,pairs", MEMBERSHIP_CASES, ids=MEMBERSHIP_IDS)
def test_in_module_matches_division_oracle(fs, pairs):
    A = Arrangement.make(fs, pairs)
    rng = random.Random(fs.kind)
    outcomes = set()
    for _ in range(12):
        mu = tuple(rng.randint(0, 3) for _ in A.forms)
        t1, t2 = full_basis(A, mu)
        # members, neighbours one step up (mostly not members), products
        # with forms and random perturbations that leave the module
        nus = [mu] + [mu[:i] + (mu[i] + 1,) + mu[i + 1:] for i in range(len(mu))]
        bump = Derivation(HomogPoly.make([fs.zero()] * t1.degree + [fs.one()]), HomogPoly.zero())
        thetas = [t1, t2, plus(t1, bump), plus(scale(t2, fs.from_int(3)), mul_poly(
            t1, HomogPoly.make([fs.zero()] * (t2.degree - t1.degree) + [fs.one()]))),
                  mul_poly(t1, form_poly(rng.choice(A.forms))),
                  Derivation(t1.P, HomogPoly.zero()), Derivation(HomogPoly.zero(), t1.Q),
                  Derivation.zero()]
        for nu in nus:
            for theta in thetas:
                got = in_module(A, nu, theta)
                assert got == in_module_oracle(A, nu, theta), (mu, nu, theta)
                outcomes.add(got)
        assert in_module(A, mu, t1) and in_module(A, mu, t2)
    assert outcomes == {True, False}


def valuations_oracle(A, theta):
    """Derivation.valuations by repeated division in field arithmetic."""
    out = []
    for lf in A.forms:
        f = apply_derivation(theta, lf)
        out.append(None if f.is_zero else linear_form_multiplicity(f, lf))
    return tuple(out)


def valuation_probes(A, rng):
    """Derivations with high, low and infinite valuations: random ones,
    products with powers of the forms, theta(x) = 0 (Q*dy), theta(y) = 0
    (P*dx) and theta(alpha) = 0 for alpha = a*x + b*y (g*(b*dx - a*dy))."""
    fs = A.field

    def poly(d):
        return HomogPoly.make([fs.from_int(rng.randint(-2, 2)) for _ in range(d + 1)])

    out = [Derivation.zero()]
    for _ in range(6):
        d = rng.randint(0, 3)
        g = HomogPoly.one(fs)
        for lf in A.forms:
            g = g * power(form_poly(lf), rng.randint(0, 2), fs)
        lf = rng.choice(A.forms)
        out += [mul_poly(Derivation(poly(d), poly(d)), g), Derivation(HomogPoly(), poly(d)),
                Derivation(poly(d), HomogPoly()),
                mul_poly(Derivation(HomogPoly.make([lf.b]), HomogPoly.make([-lf.a])), g)]
    return out


@pytest.mark.parametrize("fs,pairs", MEMBERSHIP_CASES, ids=MEMBERSHIP_IDS)
def test_valuations_match_the_division_oracle(fs, pairs):
    """One valuation per line, None where theta(alpha) = 0, on the lines x
    and y, forms that clear to a divisor that is not monic (2x + 3y) and
    derivations that some forms kill; membership reads them, cached or not."""
    A = Arrangement.make(fs, pairs)
    rng = random.Random(len(pairs))
    seen = set()
    for theta in valuation_probes(A, rng):
        want = valuations_oracle(A, theta)
        assert theta.valuations(A) == want
        assert theta.valuations(A) is theta.valuations(A)  # kept in its slot
        seen.update(want)
        mu = tuple(rng.randint(0, 3) for _ in pairs)
        for nu in [mu] + [tuple(v if v is None else v + k for v in want) for k in (0, 1)]:
            nu = tuple(0 if v is None else v for v in nu)
            uncached = Derivation.of_images(*theta.cleared) if theta.cleared else theta
            assert in_module(A, nu, theta) == in_module(A, nu, uncached) == \
                in_module_oracle(A, nu, theta)
    assert None in seen and {0, 1, 2} <= seen


def test_valuations_are_kept_per_arrangement(B2):
    # one derivation asked by two arrangements gets each one's own answer,
    # and each arrangement in turn overwrites the one slot
    other = Arrangement.make(FS, [(1, 0), (0, 1), (1, 2), (1, -3)])
    theta = exponents(B2, (2, 1, 2, 1)).theta_min
    ours = theta.valuations(B2)
    theirs = theta.valuations(other)
    assert ours == valuations_oracle(B2, theta) and theirs == valuations_oracle(other, theta)
    assert ours != theirs
    assert in_module(B2, (2, 1, 2, 1), theta) and not in_module(other, (2, 1, 2, 1), theta)
    assert theta.valuations(B2) == ours and in_module(B2, (2, 1, 2, 1), theta)
    # an equal arrangement that is another object recomputes, to the same answer
    twin = Arrangement.make(FS, [(lf.a, lf.b) for lf in B2.forms])
    assert theta.valuations(twin) == ours and theta._valuations[0] is twin


def test_valuations_stay_out_of_the_value(B2):
    # the slot is no part of equality, hash or pickling
    theta = exponents(B2, (1, 2, 1, 2)).theta_min
    fresh = Derivation.of_images(*theta.cleared)
    theta.valuations(B2)
    assert theta._valuations is not None and fresh._valuations is None
    assert theta == fresh and hash(theta) == hash(fresh)
    back = pickle.loads(pickle.dumps(theta))
    assert "_valuations" not in vars(back) and back._valuations is None
    assert "_valuations" in vars(theta)
    assert back == theta and hash(back) == hash(theta)
    assert back.valuations(B2) == theta.valuations(B2)


def test_value_equal_theta_min_are_one_object(B2):
    """exponents hands out one theta_min per distinct value, and full_basis
    a partner equal to one as that object, so valuations are shared."""
    points = list(lattice.box_points((5, 5, 5, 5)))
    thetas = [exponents(B2, mu).theta_min for mu in points]
    by_value = {}
    for theta in thetas:
        by_value.setdefault(theta, set()).add(id(theta))
    assert all(len(ids) == 1 for ids in by_value.values())
    assert len(by_value) < len(points)  # value-equal theta_min at two points exist
    shared = 0
    for mu in points:
        t1, t2 = full_basis(B2, mu)
        assert t1 is exponents(B2, mu).theta_min
        if t2 in by_value:
            assert id(t2) in by_value[t2]
            shared += 1
    assert shared


@pytest.mark.parametrize("fs,pairs", MEMBERSHIP_CASES, ids=MEMBERSHIP_IDS)
def test_walk_generators_are_the_field_oracle_derivations(fs, pairs):
    """The walk hands out each generator as integer images; it is the
    derivation that field_derivation builds from field coefficients, at
    every point of a box, for theta_min and the full_basis partner."""
    A = Arrangement.make(fs, pairs)
    walk = dermod._walk(A)
    for mu in lattice.box_points((2,) * len(A)):
        state = walk.basis(mu)
        for t, d in ((walk.minimal(state)[0], state[1]), (walk.partner(state), state[3])):
            assert_same_derivation(fs, field_derivation(fs, t, d), walk.derivation(t, d))


@pytest.mark.parametrize("fs,pairs", MEMBERSHIP_CASES, ids=MEMBERSHIP_IDS)
def test_result_with_cached_images_pickles(fs, pairs):
    # a result pickles after a membership test has cached the generator's
    # integer images (and their domain) on it
    A = Arrangement.make(fs, pairs)
    mu = (2, 1, 1, 2, 1)[:len(A)]
    res = exponents(A, mu)
    assert in_module(A, mu, res.theta_min) and res.theta_min.cleared is not None
    back = pickle.loads(pickle.dumps(res))
    assert back == res and in_module(A, mu, back.theta_min)


def test_full_basis_saito_accepted(B2, G2):
    for A, mu in [(B2, (1, 1, 1, 1)), (B2, (2, 1, 2, 1)), (B2, (0, 3, 1, 2)),
                  (G2, (1, 1, 1, 1, 1, 1)), (G2, (2, 1, 1, 0, 2, 1))]:
        t1, t2 = full_basis(A, mu)
        v = verify_saito(A, mu, t1, t2)
        assert v.accepted, v.reason
        assert v.scalar


def test_verify_saito_rejections(B2):
    mu = (1, 1, 1, 1)
    t1, t2 = full_basis(B2, mu)
    # dependent pair
    assert not verify_saito(B2, mu, t1, t1).accepted
    # degree-sum violation
    e = euler(B2.field)
    assert "degree" in verify_saito(B2, mu, e, mul_poly(
        e, HomogPoly.make([FS.zero(), FS.one()]))).reason
    # non-member
    bad = Derivation(HomogPoly.one(FS), HomogPoly.zero())
    assert "membership" in verify_saito(B2, mu, bad, t2).reason
    # zero derivation
    assert "zero" in verify_saito(B2, mu, Derivation.zero(), t2).reason


def fraction_verify_saito(A, mu, t1, t2):
    """verify_saito in HomogPoly arithmetic, the oracle of the image path:
    (accepted, reason, scalar)."""
    for label, t in (("theta1", t1), ("theta2", t2)):
        if t.is_zero:
            return False, f"membership: {label} is zero", None
        if not dermod.in_module(A, mu, t):
            return False, f"membership: {label} not in the module", None
    if t1.degree + t2.degree != sum(mu):
        return False, f"degree: {t1.degree}+{t2.degree} != |mu|={sum(mu)}", None
    det = saito_determinant(t1, t2)
    if det.is_zero:
        return False, "dependent: determinant is zero", None
    q = defining_polynomial(A, mu)
    lead = next(i for i, c in enumerate(q.coeffs) if c)
    c = det.coeffs[lead] / q.coeffs[lead]
    if det != q.scale(c):
        return False, "determinant is not a scalar multiple of the defining polynomial", None
    return True, None, c


def _small_poly(fs, rng, d):
    while True:
        f = HomogPoly.make([fs.from_int(rng.randint(-4, 4)) for _ in range(d + 1)])
        if not f.is_zero:
            return f


def saito_points(A, rng):
    """Four random points of [0,3]^n, then 1 on every line, and 1 on every
    line but the first: with the line x first, the defining polynomial
    starts at x**1 at the one and at x**0 at the other."""
    n = len(A)
    return [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(4)] + [
        (1,) * n, (0,) + (1,) * (n - 1)]


@pytest.mark.parametrize("fs,pairs", SAITO_CASES, ids=SAITO_IDS)
def test_verify_saito_matches_the_fraction_path(fs, pairs):
    A = Arrangement.make(fs, pairs)
    rng = random.Random(5)
    x = form_poly(LinearForm.make(fs, 1, 0))
    cases = []
    mus = saito_points(A, rng)
    for mu in mus:
        t1, t2 = full_basis(A, mu)
        g = _small_poly(fs, rng, sum(mu) - 2 * t1.degree)
        cases += [
            (mu, t1, t2), (mu, t2, t1), (mu, scale(t1, fs.from_int(2)), plus(t2, mul_poly(t1, g))),
            (mu, t1, mul_poly(t1, g)),  # dependent
            (mu, t1, mul_poly(t2, x)),  # wrong degree
            (mu, Derivation.zero(), t2), (mu, t1, Derivation.zero()),
            (mu, Derivation(HomogPoly.one(fs), HomogPoly.zero()), t2),  # non-member
            (mu, t1, Derivation(HomogPoly.zero(), x)),
        ]
    reasons = set()
    for mu, t1, t2 in cases:
        got = verify_saito(A, mu, t1, t2)
        assert (got.accepted, got.reason, got.scalar) == fraction_verify_saito(A, mu, t1, t2)
        assert got.scalar is None or type(got.scalar) is type(fs.one())
        reasons.add(got.reason and got.reason.split(":")[0])
    assert reasons == {None, "membership", "degree", "dependent"}
    assert {mu_x(A, mu) > 0 for mu in mus} == x_branches(A)


def image_part(rng, fs, d):
    """The images of a random part of degree d: zero as [] or as zeros, or
    random coefficients."""
    kind = rng.choice(["zero", "zeros", "random", "random"])
    if kind == "zero":
        return []
    coeffs = [fs.zero() if kind == "zeros" else random_scalar(rng, fs) for _ in range(d + 1)]
    return domain_of(fs.one()).clear(coeffs)[0]


@pytest.mark.parametrize("fs", [FieldSpec.rational(), FieldSpec.quadratic(2), FieldSpec.prime(5)],
                         ids=field_name)
def test_determinant_coefficient_matches_the_convolution(fs):
    # the one coefficient _saito reads, against the full determinant, on
    # seeded random image pairs of two nonzero derivations
    rng = random.Random(f"determinant coefficient {field_name(fs)}")
    dom = domain_of(fs.one())
    seen = set()
    for _ in range(400):
        d1, d2 = rng.randint(0, 5), rng.randint(0, 5)
        p1, q1, p2, q2 = (image_part(rng, fs, d) for d in (d1, d1, d2, d2))
        if not (p1 or q1) or not (p2 or q2):
            continue
        k = rng.randint(0, d1 + d2)
        want = poly._determinant(dom, p1, q1, p2, q2)[k]
        assert dermod._determinant_coefficient(dom, p1, q1, p2, q2, k) == want, (p1, q1, p2, q2, k)
        seen.update({"zero part"} if [] in (p1, q1, p2, q2) else ())
        seen.update({"part shorter than k + 1"} if min(d1, d2) < k else ())
        seen.add("nonzero" if want != dom.zero else "zero")
    assert seen == {"zero part", "part shorter than k + 1", "nonzero", "zero"}


def test_a_multiplicity_past_the_solve_bound_is_refused_before_any_step(B2, boolean,
                                                                        monkeypatch):
    bound = dermod.MAX_MULTIPLICITY_SUM

    def no_step(*args):
        raise AssertionError("the walk stepped")

    monkeypatch.setattr(dermod, "_WALKS", {})
    monkeypatch.setattr(dermod._Walk, "step", no_step)
    for solve in (dermod.exponent_pair, exponents, delta, min_derivation, full_basis):
        with pytest.raises(PreconditionViolated, match=f"a solve takes at most {bound}"):
            solve(B2, (bound - 2, 1, 1, 1))
    assert dermod._kept(boolean, (bound - 1, 1))[0] == (bound - 1, 1)  # the bound itself is taken


def random_member(fs, rng, basis, k):
    """A random element of degree k of the module with the given basis
    (degrees d1 <= k <= d2): f*theta1 for a nonzero f of degree k - d1,
    plus a scalar, possibly 0, times theta2 when k = d2."""
    t1, t2 = basis
    theta = mul_poly(t1, _small_poly(fs, rng, k - t1.degree))
    if k == t2.degree:
        theta = plus(theta, scale(t2, fs.from_int(rng.randint(-2, 2))))
    return theta


@pytest.mark.parametrize("fs,pairs", SAITO_CASES, ids=SAITO_IDS)
def test_member_determinants_are_multiples_of_the_defining_polynomial(fs, pairs):
    # the theorem behind the certificate: for members theta1, theta2 whose
    # degrees sum to |mu|, det(theta1, theta2) = c*Q(A, mu) for a scalar c,
    # possibly 0, and Q's first nonzero coefficient sits at mu_x;
    # verify_saito accepts exactly when c != 0 and returns c
    A = Arrangement.make(fs, pairs)
    rng = random.Random(11)
    scalars, seen = set(), set()
    for mu in saito_points(A, rng):
        basis = full_basis(A, mu)
        d1, d2 = (t.degree for t in basis)
        q = defining_polynomial(A, mu)
        lead = next(i for i, c in enumerate(q.coeffs) if c)
        assert lead == mu_x(A, mu), mu
        seen.add(lead > 0)
        for _ in range(6):
            k = rng.randint(d1, d2)
            t1, t2 = random_member(fs, rng, basis, k), random_member(fs, rng, basis, sum(mu) - k)
            assert in_module(A, mu, t1) and in_module(A, mu, t2)
            det = saito_determinant(t1, t2)
            c = det.coeffs[lead] / q.coeffs[lead] if det.coeffs else fs.zero()
            assert det == q.scale(c), (mu, t1, t2)
            got = verify_saito(A, mu, t1, t2)
            assert (got.accepted, got.scalar) == (bool(c), c if c else None), (mu, t1, t2)
            scalars.add(bool(c))
    assert scalars == {True, False} and seen == x_branches(A)


def test_saito_determinant_matches_defining_polynomial(B2):
    from multilattice.poly import defining_polynomial
    mu = (2, 1, 1, 2)
    t1, t2 = full_basis(B2, mu)
    det = saito_determinant(t1, t2)
    q = defining_polynomial(B2, mu)
    assert det.degree == q.degree == sum(mu)


# -- modular projection -------------------------------------------------------


def project_arrangement(A, p):
    """Reduce a characteristic-0 arrangement mod p (good reduction only)."""
    proj = Projection(A.field, p)
    pairs = []
    for lf in A.forms:
        a, b = proj(lf.a), proj(lf.b)
        if not a and not b:
            raise BadReduction(f"form collapses mod {p}")
        pairs.append((a, b))
    try:
        return Arrangement.make(proj.target, pairs, names=A.names)
    except ProportionalForms as exc:
        raise BadReduction(f"forms collide mod {p}") from exc


def random_good_prime(rng, bits):
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(p):
            return p


def modular_consistency(A, mus, rng, bits=40):
    """Compare exponents over random good primes with characteristic 0."""
    matches = 0
    mismatches = []
    for mu in mus:
        res = exponents(A, mu)
        expected = (res.d1, res.d2)
        for _ in range(20):
            p = random_good_prime(rng, bits)
            try:
                res = exponents(project_arrangement(A, p), tuple(mu))
                got = (res.d1, res.d2)
                break
            except (BadReduction, ValueError):
                continue
        else:
            mismatches.append({"mu": mu, "error": "no good prime found"})
            continue
        if got == expected:
            matches += 1
        else:
            mismatches.append({"mu": mu, "p": p, "expected": expected, "got": got})
    return {"total": len(mus), "matches": matches, "mismatches": mismatches}


def test_project_arrangement_bad_reduction():
    A = Arrangement.make(FS, [(1, 0), (1, 7)])
    with pytest.raises(BadReduction):
        project_arrangement(A, 7)  # the two forms collide mod 7


def test_modular_consistency_b2_g2(B2, G2):
    rng = random.Random(0)
    report = modular_consistency(B2, [(1, 1, 1, 1), (2, 1, 2, 1)], rng)
    assert report["matches"] == report["total"], report["mismatches"]
    report = modular_consistency(G2, [(1, 1, 1, 1, 1, 1)], rng)
    assert report["matches"] == report["total"], report["mismatches"]


def test_cache_hit_returns_same_result(B2, monkeypatch):
    # the walk's memo is the only cache: a second ask is a lookup, and a
    # fresh memo solves again to an equal result
    monkeypatch.setattr(dermod, "_WALKS", {})
    mu = (1, 2, 1, 0)
    first = exponents(B2, mu)
    assert exponents(B2, mu) is first
    assert dermod.exponent_pair(B2, mu) == (first.d1, first.d2)
    monkeypatch.setattr(dermod, "_WALKS", {})
    again = exponents(B2, mu)
    assert again == first and again is not first


def test_the_walk_keeps_the_results_it_returns(B2, monkeypatch):
    monkeypatch.setattr(dermod, "_WALKS", {})
    mu = (2, 1, 3, 1)
    first = exponents(B2, mu)
    assert dermod._walk(B2).results == {mu: first}
    assert exponents(B2, mu) is first
    # the results go with the bases when the walk drops its memo
    monkeypatch.setattr(dermod, "_MAX_STATES", 1)
    exponents(B2, (0, 0, 0, 2))
    assert mu not in dermod._walk(B2).results


def test_exponent_pair_builds_no_generator(B2, G2, monkeypatch):
    # the pair comes off the degrees of the walked basis: no theta_min is
    # built and no result is kept, yet it is the pair exponents returns;
    # delta and the gap-invariance check read the gap off the pair too
    monkeypatch.setattr(dermod, "_WALKS", {})

    def no_generator(*args):
        raise AssertionError("exponent_pair built a generator")

    points = {B2: [(0, 0, 0, 0), (1, 1, 1, 1), (2, 1, 3, 1), (0, 5, 1, 0)],
              G2: [(1, 1, 1, 1, 1, 1), (2, 0, 1, 3, 1, 1)]}
    with monkeypatch.context() as m:
        m.setattr(dermod._Walk, "derivation", no_generator)
        pairs = {(A, mu): dermod.exponent_pair(A, mu) for A, mus in points.items() for mu in mus}
        gaps = {(A, mu): dermod.delta(A, mu) for A, mus in points.items() for mu in mus}
        invariance = check_delta_invariance(B2, standard_generators(B2, "B2"), (2, 2, 2, 2))
        assert all(not dermod._walk(A).results for A in points)
    assert invariance.passed
    assert all(gaps[key] == d2 - d1 for key, (d1, d2) in pairs.items())
    for (A, mu), pair in pairs.items():
        res = exponents(A, mu)
        assert (res.d1, res.d2) == pair
        assert dermod.exponent_pair(A, list(mu)) == pair  # now from the kept result


def test_exponent_pair_checks_the_constructive_bound(B2, monkeypatch):
    # d1 <= |mu| - max(mu): a walk that reached a larger d1 is a solver bug
    monkeypatch.setattr(dermod, "_WALKS", {})
    monkeypatch.setattr(dermod._Walk, "basis", lambda walk, mu: ([], 3, [], 1))
    for solve in (dermod.exponent_pair, exponents):
        with pytest.raises(InternalInconsistency, match="constructive bound"):
            solve(B2, (2, 1, 1, 0))
