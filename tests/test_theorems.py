"""Structure checks: green on solver output, witnesses on corrupted data.

The verified statements are theorems: a Fail on honest solver output is a
defect.  Negative controls therefore corrupt either the scan data or the
candidate inputs and assert the checks notice.
"""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from multilattice import dermod, lattice, poly
from multilattice import theorems
from multilattice.coxeter import coxeter_arrangement
from multilattice.dermod import exponents
from multilattice.errors import (
    HypothesisViolated,
    NoCenterPairFound,
    PreconditionViolated,
)
from multilattice.explorer import ScanResult, centers, components, scan
from multilattice.field import FieldSpec, ModInt
from multilattice.poly import Arrangement, Derivation, HomogPoly, saito_determinant
from multilattice.theorems import (
    CandidateMap,
    ThetaOracle,
    check_ball_structure,
    check_basis_step_and_path,
    check_covering_steps,
    check_independency,
    check_saito_everywhere,
    check_singleton_gaps,
    certify_centers,
    certify_support,
    construct_basis_between,
    basis_for,
    pairs_at_distance_two,
    reconstruct_components,
    run_checks,
)
from helpers import (
    descent_forms,
    downalpha,
    euler,
    form_poly,
    mul_poly,
    mul_polys,
    multiplier_form,
    pairs_at_distance_two_by_tuples,
    pairwise_certify_centers,
    path_transport,
    power,
    proportional_derivations,
    saturated_chain,
    wrong_generator_oracle,
)


@pytest.fixture(scope="module")
def b2_scan(B2):
    return scan(B2, (3, 3, 3, 3))


@pytest.fixture(scope="module")
def b2_oracle(B2):
    return ThetaOracle(B2)


def corrupt(scan_result, mu, new_delta):
    """A new scan: scan_result with the gap at mu set to new_delta."""
    return ScanResult(scan_result.arrangement, scan_result.box,
                      {**scan_result.table, mu: new_delta})


# -- positive runs ------------------------------------------------------------


def test_covering_steps_pass(b2_scan):
    assert check_covering_steps(b2_scan).passed


def test_ball_structure_pass(b2_scan):
    assert check_ball_structure(b2_scan).passed


def test_singleton_gaps_pass(b2_scan):
    assert check_singleton_gaps(b2_scan).passed


def test_basis_transport_pass(b2_scan, b2_oracle):
    """Every covering step inside a component is checked, and nothing else."""
    comps = components(b2_scan)
    steps = [(mu, nu) for c in comps for mu in c.members
             for nu, _h, dirn in lattice.covering_neighbors(mu, b2_scan.box)
             if dirn == +1 and nu in c.members]
    v = check_basis_step_and_path(b2_scan, b2_oracle)
    assert v.passed, v.witnesses[:3]
    assert steps and v.details == {"steps": len(steps)}


def test_independency_exhaustive_pass(b2_scan, b2_oracle):
    v = check_independency(b2_scan, b2_oracle)
    assert v.passed, v.witnesses[:3]
    assert v.details["cross_pairs"] > 0 and v.details["same_pairs"] > 0


@pytest.mark.parametrize("max_comps", [None, 4, 50])
def test_independency_counts_the_pairs_it_would_sample(b2_scan, b2_oracle, max_comps):
    """cross_pairs and same_pairs count every pair of the scan's components,
    also when no pairwise walk runs because the classes already pass.
    max_comps keeps the gaps of that many components (the box has 44, so 50
    slices past the end) and sets every other gap to 0; None keeps them all."""
    comps = components(b2_scan)[:max_comps]
    kept = {mu for c in comps for mu in c.members}
    part = ScanResult(b2_scan.arrangement, b2_scan.box,
                      {mu: gap if mu in kept else 0 for mu, gap in b2_scan.table.items()})
    assert components(part) == comps
    near = pairs_at_distance_two([c.members for c in comps], b2_scan.box)
    v = check_independency(part, b2_oracle)
    assert v.passed, v.witnesses[:3]
    assert v.details == {
        "cross_pairs": sum(1 for i, j in near
                           for _a in comps[i].members for _b in comps[j].members),
        "same_pairs": sum(1 for c in comps for _pair in combinations(c.members, 2))}


# -- negative controls on corrupted scans ------------------------------------


def test_independency_lists_every_failing_pair(B2, b2_center_setup):
    """A wrong generator at one point of the largest component fails the
    classes, and the witnesses are every failing pair: all of them hold
    that point, since the honest scan passes."""
    big = b2_center_setup[0]
    bad = (0, 3, 0, 5)
    oracle = wrong_generator_oracle(B2, bad)
    comps = components(big)
    near = pairs_at_distance_two([c.members for c in comps], big.box)
    home = next(i for i, c in enumerate(comps) if bad in c.members)
    want = {("same-independent", *sorted((bad, b))) for b in comps[home].members
            if b != bad and not saito_dependent(oracle(bad), oracle(b))}
    want |= {("cross-dependent", a, b) for i, j in near if home in (i, j)
             for a in comps[i].members for b in comps[j].members
             if bad in (a, b) and saito_dependent(oracle(a), oracle(b))}
    v = check_independency(big, oracle)
    assert v.status == "fail" and len(comps[home].members) > 50
    assert sorted((w["kind"], w["mu"], w["nu"]) for w in v.witnesses) == sorted(want)


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
              lambda s: check_independency(s, b2_oracle),
              lambda s: check_basis_step_and_path(s, b2_oracle),
              theorems.check_saito_everywhere]
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
    v = check_ball_structure(bad)
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


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_pairs_at_distance_two_match_the_tuple_oracle(n):
    """Flat indices give the pairs, in the order, of the tuple lookups, on
    seeded random disjoint groups that hold points of the box's faces."""
    rng = random.Random(n)
    for _ in range(75):
        box = tuple(rng.randint(0, 4 if n < 6 else 2) for _ in range(n))
        points = list(lattice.box_points(box))
        faces = [mu for mu in points if any(v in (0, b) for v, b in zip(mu, box))]
        chosen = set(rng.sample(points, rng.randint(1, len(points))))
        chosen.update(rng.sample(faces, min(len(faces), 3)))
        chosen = sorted(chosen)
        rng.shuffle(chosen)
        groups = [[] for _ in range(rng.randint(1, len(chosen)))]
        for mu in chosen:
            rng.choice(groups).append(mu)
        groups = [sorted(g) for g in groups if g]
        assert pairs_at_distance_two(groups, box) == pairs_at_distance_two_by_tuples(groups, box)


# -- oracle preconditions -----------------------------------------------------


def test_oracle_rejects_gap_zero(B2, b2_oracle):
    with pytest.raises(PreconditionViolated):
        b2_oracle((1, 1, 1, 3))  # |mu|=6 even with delta 0
    assert exponents(B2, (1, 1, 1, 3)).delta == 0  # delta itself is fine


# -- basis construction -------------------------------------------------------


def test_multiplier_form(B2):
    # construct_basis_between multiplies on the images by what the field
    # oracle multiplier_form gives
    f = multiplier_form(B2, (1, 1, 1, 1), (2, 1, 3, 0))
    want = mul_polys(form_poly(B2.forms[0]), power(form_poly(B2.forms[2]), 2, B2.field))
    assert f == want
    mu, nu = (1, 1, 1, 1), (2, 2, 1, 2)
    t_mu, t_nu = exponents(B2, mu).theta_min, exponents(B2, nu).theta_min
    for kappa in [(1, 1, 1, 1), (2, 2, 1, 2), (1, 2, 1, 1), (2, 1, 1, 2)]:
        (t1, t2), _ = construct_basis_between(B2, mu, nu, kappa, t_mu, t_nu)
        for got, theta, base in ((t1, t_mu, mu), (t2, t_nu, nu)):
            want = mul_poly(theta, multiplier_form(B2, base, kappa))
            assert got == want and got.format(B2.field) == want.format(B2.field)


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
    index = [(ball.center, ball.radius) for ball in centers(big)]
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
    pts = {ball.center: ball.radius for ball in centers(big)}
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
    assert "overlap" in str(exc.value)  # no window mends an overlap
    # control 2: dropping a center leaves an uncovered hole larger than one
    victim = next(mu for mu, t in cand.assignment.items()
                  if big.table[mu] == 2 and all(0 <= a <= b for a, b in zip(mu, inner)))
    pruned = CandidateMap({mu: t for mu, t in cand.assignment.items() if mu != victim})
    with pytest.raises(HypothesisViolated, match="uncovered balanced region"):
        certify_centers(B2, pruned, inner, trusted_scan=big, oracle=oracle)
    # control 3: tampered ground truth -> Fail
    tampered = corrupt(big, victim, 0)
    v = certify_centers(B2, cand, inner, trusted_scan=tampered, oracle=oracle)
    assert v.status == "fail"


def test_criteria_witness_their_last_dependent_pair(B2, b2_scan, b2_oracle, b2_center_setup,
                                                  monkeypatch):
    """With every generator in one class, the support and center conditions
    fail, and each names the last dependent pair of its pairwise order."""
    monkeypatch.setattr(theorems, "dependence_classes", lambda thetas: [0] * len(thetas))
    cand = support_candidate(b2_scan, b2_oracle)
    v = certify_support(B2, cand, b2_scan.box, trusted_scan=b2_scan)
    ncomps = lattice.connected_components(set(cand.points()), b2_scan.box)
    pairs = [(a, b) for i, j in pairs_at_distance_two(ncomps, b2_scan.box)
             for a in sorted(ncomps[i]) for b in sorted(ncomps[j])]
    assert pairs and v.status == "fail"
    assert not v.details["condition_holds"]
    assert v.details["condition_witness"] == {"mu": pairs[-1][0], "nu": pairs[-1][1]}
    big, oracle, cand, inner = b2_center_setup
    v = certify_centers(B2, cand, inner, trusted_scan=big, oracle=oracle)
    gap = {mu: cand.delta_prime(mu) for mu in cand.points()}
    pairs = [(a, b) for a, b in combinations(cand.points(), 2)
             if gap[a] + gap[b] == lattice.distance(a, b)]
    assert pairs and v.status == "fail"
    assert not v.details["condition_holds"]
    assert v.details["condition_witness"] == {"mu": pairs[-1][0], "nu": pairs[-1][1]}


def _outcome(check, *args, **kwargs):
    """A check's verdict as JSON, or the type and message of what it raised."""
    try:
        return check(*args, **kwargs).to_json()
    except HypothesisViolated as exc:
        return type(exc).__name__, str(exc)


def _centers_as_pairwise(A, cand, window, trusted_scan=None, oracle=None):
    """certify_centers's outcome, asserted equal to the pair-by-pair oracle's."""
    got = _outcome(certify_centers, A, cand, window, trusted_scan=trusted_scan, oracle=oracle)
    want = _outcome(pairwise_certify_centers, A, cand, window,
                    trusted_scan=trusted_scan, oracle=oracle)
    assert got == want
    return got


@pytest.fixture(scope="module")
def g2_small_scan(G2):
    return scan(G2, (2,) * 6)


def test_certify_centers_matches_pairwise_on_scan_centers(B2, G2, b2_center_setup,
                                                          g2_small_scan):
    big, oracle, cand, inner = b2_center_setup
    g2_oracle = ThetaOracle(G2)
    g2_cand = CandidateMap({ball.center: g2_oracle(ball.center)
                            for ball in centers(g2_small_scan)})
    assert not g2_cand.assignment  # G2 [0,2]^6 certifies no ball
    for A, s, o, c, windows in ((B2, big, oracle, cand, [inner, (3,) * 4, (0,) * 4, big.box]),
                                (G2, g2_small_scan, g2_oracle, g2_cand, [(0,) * 6, (1,) * 6])):
        for window in windows:
            for trusted in (s, None):
                _centers_as_pairwise(A, c, window, trusted_scan=trusted, oracle=o)


def test_certify_centers_empty_map(B2, b2_center_setup):
    big, oracle, _, _ = b2_center_setup
    empty = CandidateMap({})
    kind, message = _centers_as_pairwise(B2, empty, (3, 3, 3, 3), trusted_scan=big, oracle=oracle)
    assert kind == "HypothesisViolated" and message.startswith("uncovered balanced region")
    v = json.loads(_centers_as_pairwise(B2, empty, (0, 0, 0, 0), trusted_scan=big, oracle=oracle))
    assert v["status"] == "fail"
    assert v["details"] == {"condition_holds": True, "matches_true_centers": False}


def test_certify_centers_names_the_least_overlapping_pair(B2, b2_center_setup):
    # balls in sorted order meet the overlap of b and c (at c) before that
    # of a and d (at d); combinations order names (a, d) first
    big, oracle, _, _ = b2_center_setup
    a, b, c, d = (0, 0, 0, 2), (0, 0, 1, 0), (0, 0, 2, 0), (0, 1, 0, 2)
    cand = CandidateMap({mu: oracle(mu) for mu in (a, b, c, d)})
    gap = {mu: cand.delta_prime(mu) for mu in cand.points()}
    overlap = {pair for pair in combinations(cand.points(), 2)
               if lattice.distance(*pair) < gap[pair[0]] + gap[pair[1]] - 1}
    assert overlap == {(a, d), (b, c)}
    assert _centers_as_pairwise(B2, cand, big.box, trusted_scan=big, oracle=oracle) == (
        "HypothesisViolated", f"candidate balls at {a} and {d} overlap")


def test_certify_centers_matches_pairwise_on_random_maps(B2, G2, b2_center_setup, g2_small_scan):
    """Seeded maps: true centers with some dropped, support points added
    (overlapping balls or not, inside the window or not), now and then a
    generator that is not a module member, on random windows."""
    rng = random.Random(20)
    big, oracle, _, _ = b2_center_setup
    seen = set()
    for A, s, o, runs in ((B2, big, oracle, 24), (G2, g2_small_scan, ThetaOracle(G2), 12)):
        support = sorted(mu for mu, gap in s.table.items() if gap > 0)
        true = sorted(ball.center for ball in centers(s))
        for _ in range(runs):
            pts = set(rng.sample(true, max(len(true) - rng.randint(0, 2), 0)))
            pts |= set(rng.sample(support, rng.choice([0, 0, 1, 2, 5])))
            assignment = {mu: o(mu) for mu in sorted(pts)}
            if assignment and rng.random() < 0.1:
                assignment[rng.choice(sorted(pts))] = euler(A.field)
            window = tuple(max(b - rng.randint(0, 5), 0) for b in s.box)
            trusted = s if rng.random() < 0.8 else None
            got = _centers_as_pairwise(A, CandidateMap(assignment), window,
                                       trusted_scan=trusted, oracle=o)
            if isinstance(got, tuple):  # coverage apart from the other hypotheses
                seen.add("uncovered" if got[1].startswith("uncovered") else got[0])
            else:
                seen.add(json.loads(got)["status"])
    assert seen == {"HypothesisViolated", "uncovered", "pass", "fail", "skipped"}


@pytest.mark.parametrize("field", ["F3", "B2"])
def test_center_criterion_does_its_window_independent_work_once(B2, field, monkeypatch):
    """On [0,4]^4 the margin grows from the largest center gap, 2, to 3.
    Membership is still tested and each ball built once per center, and the
    verdict is certify_centers's on the window that margin leaves."""
    A = B2 if field == "B2" else Arrangement.make(FieldSpec.prime(3),
                                                  [(1, 0), (0, 1), (1, 1), (1, 2)])
    s = scan(A, (4,) * 4)
    oracle = ThetaOracle(A)
    gaps = {ball.center: ball.radius for ball in centers(s)}
    theorems._offsets_within_two(4)  # its one ball is built before the count
    members, balls = [], []
    real_in_module, real_ball = theorems.in_module, lattice.ball
    monkeypatch.setattr(theorems, "in_module",
                        lambda A, mu, theta: members.append(mu) or real_in_module(A, mu, theta))
    monkeypatch.setattr(lattice, "ball",
                        lambda mu, radius, box: balls.append(mu) or real_ball(mu, radius, box))
    v = theorems._center_criterion(s, oracle)
    assert max(gaps.values()) == 2
    assert v.passed and v.details["margin"] == 3
    assert sorted(members) == sorted(balls) == sorted(gaps)
    monkeypatch.undo()
    cand = CandidateMap({mu: oracle(mu) for mu in gaps})
    fixed = certify_centers(A, cand, (1,) * 4, trusted_scan=s, oracle=oracle)
    assert {**fixed.details, "margin": 3} == v.details
    with pytest.raises(HypothesisViolated, match="uncovered balanced region"):
        certify_centers(A, cand, (2,) * 4, trusted_scan=s, oracle=oracle)


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


def _verdicts(scan_result, oracle, monkeypatch):
    """The verdicts of ml verify's independence, transport and criteria
    checks, with the generators of oracle."""
    monkeypatch.setattr(theorems, "ThetaOracle", lambda A: oracle)
    out = [v for what in ("independence", "transport", "criteria")
           for v in run_checks(scan_result, what)]
    return [json.loads(v.to_json()) for v in out]


def test_run_checks_refuses_an_unknown_check(b2_scan):
    with pytest.raises(PreconditionViolated, match="unknown check 'bogus'"):
        run_checks(b2_scan, "bogus")


def test_saito_everywhere_lists_the_rows_its_bases_refute(B2):
    """B2 [0,4]^4 with the 11 rows that the x - 2y arrangement's scan gives
    differently: each is a witness, with the scan's gap and Saito's degrees."""
    box = (4,) * 4
    b2 = scan(B2, box)
    other = scan(Arrangement.make(FieldSpec.rational(), [(1, 0), (0, 1), (1, 1), (1, -2)]), box)
    rows = {mu: gap for mu, gap in other.table.items() if gap != b2.table[mu]}
    assert len(rows) == 11
    v = check_saito_everywhere(ScanResult(B2, box, {**b2.table, **rows}))
    assert v.status == "fail" and v.details == {"checked": len(b2.table)}
    total = {mu: sum(mu) for mu in rows}
    assert v.witnesses == [
        {"mu": mu, "delta": gap,
         "degrees": ((total[mu] - b2.table[mu]) // 2, (total[mu] + b2.table[mu]) // 2)}
        for mu, gap in sorted(rows.items())]


def test_a_second_maximizer_is_no_center(monkeypatch):
    """F_3 lines x, y, x + y on [0,6]^3 with the gap at (4,4,3) raised to
    that of the center (3,3,3): the component is no ball, and neither the
    centers nor the center criterion's candidates hold (3,3,3)."""
    A = Arrangement.make(FieldSpec.prime(3), [(1, 0), (0, 1), (1, 1)])
    honest = scan(A, (6,) * 3)
    assert check_ball_structure(honest).passed
    assert (3, 3, 3) in {ball.center for ball in centers(honest)}
    bad = corrupt(honest, (4, 4, 3), 3)
    home = next(c for c in components(bad) if (3, 3, 3) in c.members)
    assert home.kind == "undetermined"
    assert home.maximizers == ((3, 3, 3), (4, 4, 3))
    assert home.notes == ("multiple maximizers", "ball_mismatch")
    balls = centers(bad)
    assert (3, 3, 3) not in {ball.center for ball in balls}
    v = check_ball_structure(bad)
    assert v.status == "fail" and v.details == {"certified_components": len(balls)}
    assert [w for w in v.witnesses if "maximizers" in w] == [
        {"component": home.sorted_members()[:8], "maximizers": home.maximizers,
         "reason": "members do not form the certified ball"}]
    candidates = []
    real = theorems._certify_centers
    monkeypatch.setattr(theorems, "_certify_centers",
                        lambda A, cand, *rest: candidates.append(cand.points())
                        or real(A, cand, *rest))
    assert [v.status for v in run_checks(bad, "criteria")] == ["pass"] * 3
    assert candidates == [sorted(ball.center for ball in balls)]


def _case(ctype, box, corruption):
    """The scan and the generator oracle of a VERDICT_CASES row."""
    scan_result = scan(coxeter_arrangement(ctype), box)
    perturbed = None
    if corruption and corruption[0] == "gap":
        scan_result = corrupt(scan_result, *corruption[1:])
    elif corruption:
        perturbed = corruption[1]
    return scan_result, wrong_generator_oracle(scan_result.arrangement, perturbed)


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


def saito_dependent(t1, t2):
    return saito_determinant(t1, t2).is_zero


def saito_classes(thetas):
    """poly.dependence_classes from pairwise determinants in field
    arithmetic: each derivation joins the first earlier representative it
    is dependent on, and a zero derivation gets None."""
    reps, ids = [], []
    for theta in thetas:
        if theta.is_zero:
            ids.append(None)
            continue
        found = next((i for i, rep in enumerate(reps) if saito_dependent(theta, rep)), None)
        if found is None:
            found = len(reps)
            reps.append(theta)
        ids.append(found)
    return ids


@pytest.mark.parametrize("ctype,box,corruption,failed", VERDICT_CASES)
def test_verdicts_match_the_determinant_oracles(ctype, box, corruption, failed,
                                                monkeypatch):
    """The image predicates and the dependence classes give the verdicts,
    witnesses included, that saito_determinant and proportional_derivations
    give pair by pair."""
    scan_result, oracle = _case(ctype, box, corruption)
    A = scan_result.arrangement
    fast = _verdicts(scan_result, oracle, monkeypatch)

    def oracle_proportional(t1, t2, forms=()):
        g = HomogPoly.one(A.field)
        for lf in forms:
            g = mul_polys(g, form_poly(lf))
        return proportional_derivations(t1, mul_poly(t2, g))

    classified = []

    def oracle_classes(thetas):
        classified.append(len(thetas))
        return saito_classes(thetas)

    monkeypatch.setattr(theorems, "dependent", saito_dependent)
    monkeypatch.setattr(theorems, "dependence_classes", oracle_classes)
    monkeypatch.setattr(theorems, "proportional", oracle_proportional)
    assert _verdicts(scan_result, oracle, monkeypatch) == fast
    assert sum(classified) > 0  # the checks read their classes through the patch
    # G2 [0,2]^6 has no certified center, so its center criterion does not run
    assert [v["check"] for v in fast] == [
        "independence-pattern", "basis-step-and-path", "criterion-support",
        *(["criterion-centers"] if ctype == "B2" else []), "criterion-reconstruct"]
    assert {v["check"] for v in fast if v["status"] == "fail"} == failed


@pytest.mark.parametrize("ctype,box,corruption,failed", VERDICT_CASES)
def test_covering_steps_settle_every_path(ctype, box, corruption, failed):
    """The transport lemma against its oracle: the pairwise path search
    over every comparable pair of a component passes on honest data, and
    whenever it finds a failing path, the step check fails too."""
    scan_result, oracle = _case(ctype, box, corruption)
    checked, failing = path_transport(scan_result, oracle)
    steps = check_basis_step_and_path(scan_result, oracle)
    assert checked > 0
    if corruption is None:
        assert not failing and steps.passed, (failing[:3], steps.witnesses[:3])
    if failing:
        assert steps.status == "fail"
    assert steps.passed == ("basis-step-and-path" not in failed)


@pytest.mark.parametrize("seed", range(3))
def test_descent_forms_multiply_to_downalpha(B2, b2_scan, seed):
    rng = random.Random(seed)
    points = sorted(b2_scan.table)
    for _ in range(20):
        mu, nu = sorted(rng.sample(points, 2))
        nu = tuple(max(a, b) for a, b in zip(mu, nu))
        chain = saturated_chain(mu, nu)
        dvals = [b2_scan.table[p] for p in chain]
        g = HomogPoly.one(B2.field)
        for lf in descent_forms(B2, chain, dvals):
            g = mul_polys(g, form_poly(lf))
        assert g == downalpha(B2, chain, dvals)


@pytest.mark.parametrize("pairs,box", [
    (None, (5, 5, 5, 5)),  # B2 over Q
    ([(1, 0), (0, 1), (1, 1), (1, 2)], (4, 4, 4, 4)),  # the four lines of F_3
], ids=["B2", "F3"])
def test_saito_everywhere_builds_no_field_element(pairs, box, monkeypatch):
    """saito-everywhere walks, certifies and checks every basis on integer
    images: no domain builds an element back (Domain.back), no derivation's
    P or Q is read, and no Fraction or ModInt is made."""
    A = coxeter_arrangement("B2") if pairs is None else Arrangement.make(FieldSpec.prime(3), pairs)
    # read back as ml verify does, so that a fresh arrangement gets a fresh walk
    scan_result = ScanResult.from_json(scan(A, box).to_json())
    built = []
    domains = {}
    real_domain_of = dermod.domain_of

    def spied_domain_of(x):
        dom = real_domain_of(x)
        if dom not in domains:
            domains[dom] = dom._replace(back=lambda *a: built.append("back") or dom.back(*a))
        return domains[dom]

    for module in (dermod, poly):
        monkeypatch.setattr(module, "domain_of", spied_domain_of)
    for part in "PQ":
        monkeypatch.setattr(Derivation, part, property(lambda self, part=part: built.append(part)))
    real_new, real_init = Fraction.__new__, ModInt.__init__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *a, **k: built.append("Fraction") or real_new(cls, *a, **k))
    monkeypatch.setattr(ModInt, "__init__",
                        lambda self, *a: built.append("ModInt") or real_init(self, *a))
    verdicts = theorems.run_checks(scan_result, "saito")
    assert [(v.name, v.status) for v in verdicts] == [("saito-everywhere", "pass")]
    assert built == [] and domains and not hasattr(domains.popitem()[1], "ratio")
