"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` to get exactly one line per
criterion.  Tolerances are pinned as constants below; everything else is
exact arithmetic with exact equality.
"""

import random
import time

import pytest

from multilattice import dermod, lattice
from multilattice.coxeter import (
    CENTER_GAP,
    coxeter_arrangement,
    near_constant_exponents,
)
from multilattice.dermod import (
    delta,
    exponents,
    full_basis,
    graded_dimension,
    min_derivation,
    verify_saito,
)
from multilattice.errors import HypothesisViolated
from multilattice.explorer import centers, components, scan
from multilattice.field import FieldSpec
from multilattice.poly import (
    Arrangement,
    Derivation,
    HomogPoly,
    LinearForm,
)
from multilattice.theorems import (
    CandidateMap,
    ThetaOracle,
    basis_for,
    certify_centers,
    certify_support,
    check_ball_structure,
    check_covering_steps,
    check_independency,
    check_singleton_gaps,
    construct_basis_between,
    reconstruct_components,
)
from helpers import enumerate_offsets, euler, proportional_derivations

# pinned tolerances (seconds); all numeric comparisons are exact
SINGLE_SOLVE_BUDGET = 5.0
NEAR_CONSTANT_BUDGET = 600.0
SCAN_INVARIANTS_BUDGET = 900.0

FS = FieldSpec.rational()


@pytest.fixture(scope="module")
def b2():
    return coxeter_arrangement("B2")


@pytest.fixture(scope="module")
def g2():
    return coxeter_arrangement("G2")


@pytest.fixture(scope="module")
def b2_window(b2):
    """The B2 acceptance window: the full box [0,5]^4."""
    return scan(b2, (5, 5, 5, 5))


@pytest.fixture(scope="module")
def b2_oracle(b2):
    return ThetaOracle(b2)


def _timed_exponents(A, mu):
    # a fresh walk memo so every solve is timed cold
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dermod, "_WALKS", {})
        t0 = time.monotonic()
        res = exponents(A, mu)
        elapsed = time.monotonic() - t0
    assert elapsed < SINGLE_SOLVE_BUDGET, (mu, elapsed)
    return res


def test_criterion_01_coxeter_constant_exponents(b2, g2):
    for k in (0, 1, 2):
        res = _timed_exponents(b2, ((2 * k + 1),) * 4)
        assert res.as_pair() == (4 * k + 1, 4 * k + 3)
        assert res.delta == 2
    for k in (1, 2):
        res = _timed_exponents(b2, ((2 * k),) * 4)
        assert res.as_pair() == (4 * k, 4 * k)
        assert res.delta == 0
    for k in (0, 1):
        res = _timed_exponents(g2, ((2 * k + 1),) * 6)
        assert res.as_pair() == (6 * k + 1, 6 * k + 5)


def test_criterion_02_near_constant_formulas(b2, g2):
    t0 = time.monotonic()
    for ctype, A, n, want_cases in (("B2", b2, 4, 35), ("G2", g2, 6, 462)):
        offsets = list(enumerate_offsets(n, n - 1))
        assert len(offsets) == want_cases
        for k in (0, 1):
            for off in offsets:
                r = near_constant_exponents(ctype, k, off, A=A)
                assert r.verdict == "match", (ctype, k, off, r)
                assert r.computed == tuple(sorted(r.printed_formula)), (ctype, k, off, r)
    assert time.monotonic() - t0 < NEAR_CONSTANT_BUDGET


def test_criterion_03_distance_window(b2, g2):
    for ctype, A, n in (("B2", b2, 4), ("G2", g2, 6)):
        gap_c = CENTER_GAP[ctype]
        for k in (0, 1):
            center = (2 * k + 1,) * n
            for off in enumerate_offsets(n, gap_c + 1, signed=True):
                nu = tuple(c + i for c, i in zip(center, off))
                if any(v < 0 for v in nu):
                    continue
                want = abs(gap_c - sum(abs(i) for i in off))
                assert delta(A, nu) == want, (ctype, k, off)


def test_criterion_04_scan_invariants(b2_window):
    t0 = time.monotonic()
    s = b2_window
    assert len(s.table) == 1296
    assert check_covering_steps(s).passed
    for mu, gap in s.table.items():
        assert gap % 2 == sum(mu) % 2, mu
    assert check_singleton_gaps(s).passed
    for mu, gap in s.table.items():
        h = lattice.cone_index(mu)
        if h is not None:
            assert gap > 0, mu
            assert (sum(mu) - gap) // 2 <= sum(mu) - mu[h], mu  # d1 from d1 + d2 = |mu|
    comps = components(s)
    assert check_ball_structure(s, comps).passed
    for comp in comps:
        if comp.kind == "ball":
            assert comp.center is not None and not comp.notes
    assert time.monotonic() - t0 < SCAN_INVARIANTS_BUDGET


def test_criterion_05_saito_verification(b2, b2_window):
    bad = []
    for mu in sorted(b2_window.table):
        t1, t2 = full_basis(b2, mu)
        if not verify_saito(b2, mu, t1, t2).accepted:
            bad.append(("full_basis", mu))
    mu, nu = (1, 1, 1, 1), (2, 2, 1, 2)
    t_mu = exponents(b2, mu).theta_min
    t_nu = exponents(b2, nu).theta_min
    for kappa in [(1, 1, 1, 1), (2, 2, 1, 2), (1, 2, 1, 1), (2, 1, 1, 2)]:
        _, verdict = construct_basis_between(b2, mu, nu, kappa, t_mu, t_nu)
        if not verdict.accepted:
            bad.append(("construct_basis_between", kappa))
    index = [(e.center, e.delta) for e in centers(b2_window) if e.center]
    for kappa in [(2, 2, 2, 2), (1, 2, 1, 2), (3, 2, 3, 2)]:
        _, verdict = basis_for(b2, kappa, index)
        if not verdict.accepted:
            bad.append(("basis_for", kappa))
    assert not bad, bad


def test_criterion_06_independence_pattern(b2_window, b2_oracle):
    v = check_independency(b2_window, b2_oracle, components(b2_window))
    assert v.passed, v.witnesses[:3]
    assert v.details["cross_pairs"] > 0 and v.details["same_pairs"] > 0


def test_criterion_07_certification_round_trips(b2, b2_window, b2_oracle):
    s = b2_window
    support = [mu for mu in s.support() if lattice.is_balanced(mu)]
    cand = CandidateMap({mu: b2_oracle(mu) for mu in support})
    v = certify_support(b2, cand, s.box, trusted_scan=s)
    assert v.passed and v.details["matches_true_support"]
    # negative control: dropping a whole ball leaves an uncertifiable hole
    ball = next(c for c in components(s)
                if c.kind == "ball" and len(c.members) > 1)
    pruned = CandidateMap({mu: t for mu, t in cand.assignment.items()
                           if mu not in ball.members})
    with pytest.raises(HypothesisViolated):
        certify_support(b2, pruned, s.box, trusted_scan=s)

    center_pts = {e.center: e.delta for e in centers(s) if e.center}
    cmap = CandidateMap({mu: b2_oracle(mu) for mu in center_pts})
    inner = tuple(b - max(center_pts.values()) for b in s.box)
    v = certify_centers(b2, cmap, inner, trusted_scan=s, oracle=b2_oracle)
    assert v.passed and v.details["matches_true_centers"]
    # negative control: a spurious extra center overlaps an existing ball
    overlapping = CandidateMap({**cmap.assignment,
                                (2, 1, 1, 1): b2_oracle((2, 1, 1, 1))})
    with pytest.raises(HypothesisViolated):
        certify_centers(b2, overlapping, inner, trusted_scan=s, oracle=b2_oracle)

    partition, v = reconstruct_components(b2, s.box, b2_oracle, trusted_scan=s)
    assert v.passed
    odd = {mu for mu in lattice.box_points(s.box)
           if lattice.is_balanced(mu) and sum(mu) % 2 == 1}
    want = set()
    for comp in components(s):
        cls = frozenset(mu for mu in comp.members
                        if lattice.is_balanced(mu) and sum(mu) % 2 == 1)
        if cls:
            want.add(cls)
    singles = odd - set().union(*want) if want else odd
    want |= {frozenset([mu]) for mu in singles}
    assert {frozenset(p) for p in partition} == want


def test_criterion_08_oracle_equivalence_1000_cases():
    rng = random.Random(20260823)
    agree = 0
    for _ in range(1000):
        forms = set()
        n = rng.randint(1, 5)
        while len(forms) < n:
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            if (a, b) == (0, 0):
                continue
            lf = LinearForm.make(FS, a, b)
            forms.add((lf.a, lf.b))
        A = Arrangement.make(FS, sorted(forms))
        mu = tuple(rng.randint(0, 4) for _ in range(n))
        d = rng.randint(0, sum(mu) // 2 + 2)
        if graded_dimension(A, mu, d, "basis") == graded_dimension(A, mu, d, "division"):
            agree += 1
    assert agree == 1000


def test_criterion_09_fixed_points(b2):
    e = euler(FS)
    assert proportional_derivations(min_derivation(b2, (1, 1, 1, 1)), e)
    cube = HomogPoly.make([FS.zero()] * 3 + [FS.one()])           # x^3
    cube_y = HomogPoly.make([FS.one()] + [FS.zero()] * 3)         # y^3
    second = Derivation(cube, cube_y)                             # x^3 dx + y^3 dy
    assert verify_saito(b2, (1, 1, 1, 1), e, second).accepted
    boolean = Arrangement.make(FS, [(1, 0), (0, 1)])
    x2 = HomogPoly.make([FS.zero(), FS.zero(), FS.one()])
    assert min_derivation(boolean, (2, 3)).canonical() == Derivation(x2, HomogPoly.zero())


def test_criterion_10_determinism_across_workers(b2, real_pool):
    texts = {scan(b2, (3, 3, 3, 3), jobs=j).to_json() for j in (1, 4, 8)}
    assert len(texts) == 1
    assert len(real_pool) == 2 and min(real_pool) >= 2
