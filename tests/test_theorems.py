"""Structure checks: green on solver output, witnesses on corrupted data.

The verified statements are theorems: a Fail on honest solver output is a
defect.  Negative controls therefore corrupt either the scan data or the
candidate inputs and assert the checks notice.
"""

import copy
import json
import random
from itertools import combinations

import pytest

from multilattice import lattice
from multilattice import theorems
from multilattice.cli import _check_saito_everywhere, _run_criteria
from multilattice.coxeter import coxeter_arrangement
from multilattice.dermod import exponents
from multilattice.errors import (
    HypothesisViolated,
    NoCenterPairFound,
    PreconditionViolated,
    UncoveredWindow,
)
from multilattice.explorer import PointResult, ScanResult, centers, components, scan
from multilattice.poly import Derivation, HomogPoly, saito_determinant
from multilattice.theorems import (
    CandidateMap,
    ThetaOracle,
    check_ball_structure,
    check_basis_step_and_path,
    check_covering_steps,
    check_independency,
    check_singleton_gaps,
    certify_centers,
    certify_support,
    construct_basis_between,
    basis_for,
    multiplier_form,
    pairs_at_distance_two,
    reconstruct_components,
)
from helpers import downalpha, euler, proportional_derivations


@pytest.fixture(scope="module")
def b2_scan(B2):
    return scan(B2, (3, 3, 3, 3))


@pytest.fixture(scope="module")
def b2_oracle(B2):
    return ThetaOracle(B2)


def corrupt(scan_result, mu, new_delta):
    bad = copy.copy(scan_result)
    bad.table = dict(scan_result.table)
    total = sum(mu)
    d1 = (total - new_delta) // 2
    bad.table[mu] = PointResult(d1, total - d1, new_delta)
    return bad


# -- positive runs ------------------------------------------------------------


def test_covering_steps_pass(b2_scan):
    assert check_covering_steps(b2_scan).passed


def test_ball_structure_pass(b2_scan):
    assert check_ball_structure(b2_scan).passed


def test_singleton_gaps_pass(b2_scan):
    assert check_singleton_gaps(b2_scan).passed


def test_basis_transport_pass(b2_scan, b2_oracle):
    v = check_basis_step_and_path(b2_scan, b2_oracle)
    assert v.passed, v.witnesses[:3]
    assert v.details["steps"] > 0 and v.details["paths"] > 0


def test_independency_exhaustive_pass(b2_scan, b2_oracle):
    v = check_independency(b2_scan, b2_oracle, max_pairs=None)
    assert v.passed, v.witnesses[:3]
    assert v.details["cross_pairs"] > 0 and v.details["same_pairs"] > 0


# -- negative controls on corrupted scans ------------------------------------


def test_legacy_estimated_cone_rows_read_as_exact(b2_scan, b2_oracle):
    """Older scan files flag cone rows as estimates; their values are the exact
    closed form, so they load as the same table and every check covers them."""
    obj = json.loads(b2_scan.to_json())
    for row in obj["points"]:
        if lattice.cone_index(tuple(row["mu"])) is not None:
            row["estimated"] = True
    legacy = ScanResult.from_json(json.dumps(obj))
    assert legacy.table == b2_scan.table
    checks = [check_covering_steps,
              lambda s: check_independency(s, b2_oracle, seed=0),
              lambda s: check_basis_step_and_path(s, b2_oracle, seed=0),
              lambda s: _check_saito_everywhere(s, None)]
    for check in checks:
        want, got = check(b2_scan), check(legacy)
        assert (got.status, got.witnesses, got.details) == (want.status, want.witnesses,
                                                             want.details)


def test_covering_steps_detects_corruption(b2_scan):
    bad = corrupt(b2_scan, (1, 1, 1, 1), 4)
    v = check_covering_steps(bad)
    assert v.status == "fail"
    assert any(w["mu"] == (1, 1, 1, 1) or w["nu"] == (1, 1, 1, 1)
               for w in v.witnesses)


def test_ball_structure_detects_corruption(b2_scan):
    # inflate the gap of an interior point of the (1,1,1,1)-ball: the point
    # then exceeds the radius its neighbouring centers would allow
    bad = corrupt(b2_scan, (2, 1, 1, 1), 3)
    v = check_ball_structure(bad, components(bad))
    assert v.status == "fail"
    assert any(w["nu"] == (2, 1, 1, 1) for w in v.witnesses)


def test_singleton_gaps_detects_adjacent_zeros(b2_scan):
    bad = corrupt(b2_scan, (1, 1, 1, 0), 0)  # adjacent to the zero at (0,1,1,0)? no:
    bad = corrupt(bad, (1, 1, 0, 0), 0)      # make two adjacent deltas zero
    v = check_singleton_gaps(bad)
    assert v.status == "fail"


def component_distance(c1, c2):
    return min(lattice.distance(a, b) for a in c1.members for b in c2.members)


def test_component_distance(b2_scan):
    comps = components(b2_scan)
    balls = [c for c in comps if c.kind == "ball"]
    assert component_distance(balls[0], balls[0]) == 0
    if len(balls) > 1:
        assert component_distance(balls[0], balls[1]) >= 2


def all_pairs_at_distance_two(groups):
    return [(i, j) for i, j in combinations(range(len(groups)), 2)
            if min(lattice.distance(a, b) for a in groups[i] for b in groups[j]) == 2]


def pairs_at_distance_two_by_balls(groups, box):
    """The earlier implementation: each member against its radius-3 ball."""
    owner = {mu: i for i, g in enumerate(groups) for mu in g}
    least = {}
    for i, g in enumerate(groups):
        for a in g:
            for b in lattice.ball(a, 3, box):
                j = owner.get(b, -1)
                if j > i:
                    dist = lattice.distance(a, b)
                    if dist < least.get((i, j), 3):
                        least[(i, j)] = dist
    return sorted(pair for pair, dist in least.items() if dist == 2)


@pytest.mark.parametrize("ctype,box", [("B2", (3, 3, 3, 3)), ("G2", (2, 2, 1, 1, 2, 1))])
def test_pairs_at_distance_two_match_all_pairs(ctype, box):
    s = scan(coxeter_arrangement(ctype), box)
    groups = [c.members for c in components(s)]
    want = all_pairs_at_distance_two(groups)
    assert want and pairs_at_distance_two(groups, box) == want
    # adjacent pieces of one component (distance 1) are not at distance 2
    big = max(groups, key=len)
    members = sorted(big)
    pieces = [members[:len(big) // 2], members[len(big) // 2:]] + [g for g in groups if g is not big]
    assert pairs_at_distance_two(pieces, box) == all_pairs_at_distance_two(pieces)
    odd = [(mu,) for mu in lattice.box_points(box) if lattice.is_balanced(mu) and sum(mu) % 2]
    assert pairs_at_distance_two(odd, box) == all_pairs_at_distance_two(odd)


@pytest.mark.parametrize("ctype,box", [("B2", (4, 4, 4, 4)), ("G2", (2, 1, 2, 1, 2, 1))])
def test_pairs_at_distance_two_match_the_ball_search(ctype, box):
    s = scan(coxeter_arrangement(ctype), box)
    odd = [(mu,) for mu in lattice.box_points(box) if lattice.is_balanced(mu) and sum(mu) % 2]
    # every point its own group, including the box's faces and corners
    points = [(mu,) for mu in lattice.box_points(box)]
    for groups in ([c.members for c in components(s)], odd, points):
        assert pairs_at_distance_two(groups, box) == pairs_at_distance_two_by_balls(groups, box)


# -- oracle preconditions -----------------------------------------------------


def test_oracle_rejects_gap_zero(B2, b2_oracle):
    with pytest.raises(PreconditionViolated):
        b2_oracle((1, 1, 1, 3))  # |mu|=6 even with delta 0
    assert b2_oracle.delta((1, 1, 1, 3)) == 0  # delta itself is fine


# -- basis construction -------------------------------------------------------


def test_multiplier_form(B2):
    f = multiplier_form(B2, (1, 1, 1, 1), (2, 1, 3, 0))
    want = (HomogPoly.from_linear_form(B2.forms[0])
            * HomogPoly.from_linear_form(B2.forms[2]).pow(2, B2.field))
    assert f == want


def test_construct_basis_between_accepts(B2):
    mu, nu = (1, 1, 1, 1), (2, 2, 1, 2)
    t_mu = exponents(B2, mu).theta_min
    t_nu = exponents(B2, nu).theta_min
    for kappa in [(1, 1, 1, 1), (2, 2, 1, 2), (1, 2, 1, 1), (2, 1, 1, 2)]:
        (t1, t2), verdict = construct_basis_between(
            B2, mu, nu, kappa, t_mu, t_nu)
        assert verdict.accepted, (kappa, verdict.reason)
        assert t1.degree + t2.degree == sum(kappa)


def test_construct_basis_between_preconditions(B2):
    mu, nu = (1, 1, 1, 1), (2, 2, 1, 2)
    t_mu = exponents(B2, mu).theta_min
    t_nu = exponents(B2, nu).theta_min
    with pytest.raises(PreconditionViolated):  # kappa outside [meet, join]
        construct_basis_between(B2, mu, nu, (0, 0, 0, 0), t_mu, t_nu)
    with pytest.raises(PreconditionViolated):  # gap-distance identity fails
        construct_basis_between(B2, mu, (2, 1, 1, 1), (1, 1, 1, 1), t_mu,
                                exponents(B2, (2, 1, 1, 1)).theta_min)
    with pytest.raises(PreconditionViolated):  # dependent endpoint generators
        construct_basis_between(B2, mu, nu, (1, 1, 1, 1), t_mu, t_mu)
    with pytest.raises(PreconditionViolated):  # endpoint with gap zero
        zero_mu = (1, 1, 1, 3)
        construct_basis_between(B2, zero_mu, nu, (1, 1, 1, 2), t_mu, t_nu)


def test_basis_for_from_scan_centers(B2):
    big = scan(B2, (5, 5, 5, 5))
    index = [(e.center, e.delta) for e in centers(big) if e.center]
    for kappa in [(2, 2, 2, 2), (1, 2, 1, 2), (2, 1, 2, 1)]:
        (t1, t2), verdict = basis_for(B2, kappa, index)
        assert verdict.accepted
        assert t1.degree + t2.degree == sum(kappa)


def test_basis_for_preconditions(B2):
    with pytest.raises(PreconditionViolated):  # cone point
        basis_for(B2, (5, 0, 0, 0), [])
    with pytest.raises(NoCenterPairFound):
        basis_for(B2, (2, 2, 2, 2), [])


# -- certification criteria ---------------------------------------------------


def support_candidate(scan_result, oracle):
    pts = [mu for mu in scan_result.support() if lattice.is_balanced(mu)]
    return CandidateMap({mu: oracle(mu) for mu in pts})


def test_certify_support_roundtrip(B2, b2_scan, b2_oracle):
    cand = support_candidate(b2_scan, b2_oracle)
    v = certify_support(B2, cand, b2_scan.box, trusted_scan=b2_scan)
    assert v.passed
    assert v.details["condition_holds"] and v.details["matches_true_support"]


def test_certify_support_without_scan_is_skipped(B2, b2_scan, b2_oracle):
    cand = support_candidate(b2_scan, b2_oracle)
    v = certify_support(B2, cand, b2_scan.box)
    assert v.status == "skipped"


def test_certify_support_negative_controls(B2, b2_scan, b2_oracle):
    cand = support_candidate(b2_scan, b2_oracle)
    # control 1: candidate set leaves the balanced region
    bad = CandidateMap({**cand.assignment, (3, 0, 0, 0): b2_oracle((3, 0, 0, 0))})
    with pytest.raises(HypothesisViolated):
        certify_support(B2, bad, b2_scan.box, trusted_scan=b2_scan)
    # control 2: a candidate that is not a module member -> skipped verdict
    from multilattice.poly import Derivation
    # pick a point with a line of multiplicity >= 2, where Euler fails
    victim = next(mu for mu in sorted(cand.assignment) if max(mu) >= 2)
    smaller = CandidateMap({**cand.assignment,
                            victim: euler(B2.field)})
    v = certify_support(B2, smaller, b2_scan.box, trusted_scan=b2_scan)
    assert v.status == "skipped"
    # control 3: dropping a whole component leaves a >1 hole in the complement
    comps = components(b2_scan)
    ball = next(c for c in comps if c.kind == "ball" and len(c.members) > 1)
    pruned = {mu: t for mu, t in cand.assignment.items() if mu not in ball.members}
    with pytest.raises(HypothesisViolated):
        certify_support(B2, CandidateMap(pruned), b2_scan.box, trusted_scan=b2_scan)
    # control 4: tampered ground truth must surface as Fail, never repaired
    tampered = corrupt(b2_scan, ball.center, 0)
    v = certify_support(B2, cand, b2_scan.box, trusted_scan=tampered)
    assert v.status == "fail"


@pytest.fixture(scope="module")
def b2_center_setup(B2):
    big = scan(B2, (5, 5, 5, 5))
    oracle = ThetaOracle(B2)
    pts = {e.center: e.delta for e in centers(big) if e.center}
    cand = CandidateMap({mu: oracle(mu) for mu in pts})
    margin = max(pts.values())
    inner = tuple(b - margin for b in big.box)
    return big, oracle, cand, inner


def test_certify_centers_roundtrip(B2, b2_center_setup):
    big, oracle, cand, inner = b2_center_setup
    v = certify_centers(B2, cand, inner, trusted_scan=big, oracle=oracle)
    assert v.passed
    assert v.details["condition_holds"] and v.details["matches_true_centers"]


def test_certify_centers_negative_controls(B2, b2_center_setup, b2_oracle):
    big, oracle, cand, inner = b2_center_setup
    # control 1: overlapping candidate balls ((2,1,1,1) sits inside the
    # radius-2 ball around (1,1,1,1))
    overlapping = CandidateMap({**cand.assignment,
                                (2, 1, 1, 1): b2_oracle((2, 1, 1, 1))})
    with pytest.raises(HypothesisViolated) as exc:
        certify_centers(B2, overlapping, inner, trusted_scan=big, oracle=oracle)
    assert not isinstance(exc.value, UncoveredWindow)  # no window mends an overlap
    # control 2: dropping a center leaves an uncovered hole larger than one
    victim = next(mu for mu, t in cand.assignment.items()
                  if big.delta(mu) == 2 and lattice.in_box(mu, inner))
    pruned = CandidateMap({mu: t for mu, t in cand.assignment.items() if mu != victim})
    with pytest.raises(UncoveredWindow):
        certify_centers(B2, pruned, inner, trusted_scan=big, oracle=oracle)
    # control 3: tampered ground truth -> Fail
    tampered = corrupt(big, victim, 0)
    v = certify_centers(B2, cand, inner, trusted_scan=tampered, oracle=oracle)
    assert v.status == "fail"


def test_reconstruct_components_roundtrip(B2, b2_scan, b2_oracle):
    partition, v = reconstruct_components(B2, b2_scan.box, b2_oracle,
                                          trusted_scan=b2_scan)
    assert v.passed, v.witnesses[:2]
    # partition covers exactly the odd balanced points of the box
    odd = {mu for mu in lattice.box_points(b2_scan.box)
           if lattice.is_balanced(mu) and sum(mu) % 2 == 1}
    assert set().union(*partition) == odd


def test_reconstruct_components_skipped_without_scan(B2, b2_scan, b2_oracle):
    partition, v = reconstruct_components(B2, (1, 1, 1, 1), b2_oracle)
    assert v.status == "skipped"
    assert partition


def _verdicts(scan_result, perturbed=None):
    oracle = ThetaOracle(scan_result.arrangement)
    if perturbed is not None:
        # a wrong generator of the right degree: theta + y**d * dx
        theta = oracle(perturbed)
        one, zero = scan_result.arrangement.field.one(), scan_result.arrangement.field.zero()
        y_power = HomogPoly.make([one] + [zero] * theta.degree)
        oracle._memo[perturbed] = theta + Derivation(y_power, HomogPoly.zero())
    comps = components(scan_result)
    out = [check_independency(scan_result, oracle, comps, seed=3, max_pairs=50),
           check_basis_step_and_path(scan_result, oracle, comps, seed=3, max_pairs=50)]
    out += _run_criteria(scan_result, oracle)
    return [json.loads(v.to_json()) for v in out]


# (type, box, corruption, expected failures): the honest scans pass every
# check.  A gap lowered to 0 splits a component (cross-dependent
# witnesses); a gap raised by 2 turns ascent steps into descents (transport
# witnesses of the wrong degree); a wrong generator of the right degree is
# independent of its component, transports nothing and splits its
# reconstructed class.  The oracle run over
# Q(sqrt 3) takes seconds, so G2 runs honest data only.
VERDICT_CASES = [
    ("B2", (4, 4, 4, 4), None, set()),
    ("B2", (4, 4, 4, 4), ("gap", (0, 0, 0, 2), 0), {"independence-pattern"}),
    ("B2", (4, 4, 4, 4), ("gap", (1, 1, 1, 2), 3), {"basis-step-and-path"}),
    ("B2", (4, 4, 4, 4), ("generator", (1, 1, 1, 2)),
     {"independence-pattern", "basis-step-and-path", "criterion-reconstruct"}),
    ("G2", (2, 2, 2, 2, 2, 2), None, set()),
]


@pytest.mark.parametrize("ctype,box,corruption,failed", VERDICT_CASES)
def test_verdicts_match_the_determinant_oracles(ctype, box, corruption, failed,
                                                monkeypatch):
    """The image predicates give the verdicts, witnesses included, that
    saito_determinant and proportional_derivations give."""
    A = coxeter_arrangement(ctype)
    scan_result = scan(A, box)
    perturbed = None
    if corruption and corruption[0] == "gap":
        scan_result = corrupt(scan_result, *corruption[1:])
    elif corruption:
        perturbed = corruption[1]
    fast = _verdicts(scan_result, perturbed)

    def oracle_proportional(t1, t2, forms=()):
        g = HomogPoly.one(A.field)
        for lf in forms:
            g = g * HomogPoly.from_linear_form(lf)
        return proportional_derivations(t1, t2.mul_poly(g))

    monkeypatch.setattr(theorems, "dependent", lambda t1, t2: saito_determinant(t1, t2).is_zero)
    monkeypatch.setattr(theorems, "proportional", oracle_proportional)
    assert _verdicts(scan_result, perturbed) == fast
    # G2 [0,2]^6 has no certified center, so its center criterion does not run
    assert [v["check"] for v in fast] == [
        "independence-pattern", "basis-step-and-path", "criterion-support",
        *(["criterion-centers"] if ctype == "B2" else []), "criterion-reconstruct"]
    assert {v["check"] for v in fast if v["status"] == "fail"} == failed


@pytest.mark.parametrize("seed", range(3))
def test_descent_forms_multiply_to_downalpha(B2, b2_scan, seed):
    rng = random.Random(seed)
    points = sorted(b2_scan.table)
    for _ in range(20):
        mu, nu = sorted(rng.sample(points, 2))
        nu = tuple(max(a, b) for a, b in zip(mu, nu))
        chain = lattice.saturated_chain(mu, nu)
        dvals = [b2_scan.table[p].delta for p in chain]
        g = HomogPoly.one(B2.field)
        for lf in theorems._descent_forms(B2, chain, dvals):
            g = g * HomogPoly.from_linear_form(lf)
        assert g == downalpha(B2, chain, dvals)
