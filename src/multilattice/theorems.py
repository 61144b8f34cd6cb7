"""Mechanical verification of the structure results on scan data.

Every check is report-generating and never self-repairing: the verified
statements are theorems, so any Fail verdict on correct solver output
signals a solver defect and must surface with witnesses.  Every check is
exhaustive over its window: no pair is sampled, and no chain is searched,
since transport along covering steps settles transport along chains.

The dependence questions (the independence pattern, the support, center
and reconstruction criteria) are settled by classes: dependence of nonzero
derivations is proportionality over K(x, y), an equivalence relation, so
each check sorts the generators it reads into classes once
(poly.dependence_classes) and answers every pair by comparing class ids.
The classes live only as long as the check.

All four ask pairs_at_distance_two which groups of points lie at distance 2
(components, candidate components, odd points, the candidate centers' open
balls), and one walk, _dependent_pairs, lists the dependent pairs across them;
it walks the member pairs of two groups only when their classes meet.  The
support and center criteria share the rest of their steps too: _unmet skips a
candidate that is not a module member, _hole finds an uncovered component
larger than one, and _judged compares the condition with the trusted scan.

run_checks is the check sequence of ``ml verify``.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import combinations
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from . import lattice
from .dermod import delta as solve_delta
from .dermod import exponents, full_basis, in_module, verify_saito
from .errors import GapZero, HypothesisViolated, PreconditionViolated
from .explorer import ScanResult, centers as scan_centers, components as scan_components
from .lattice import Box, Multiplicity
from .poly import Arrangement, Derivation, dependence_classes, dependent, proportional
from .record import Frozen, Record, set_field


class Verdict(Record):
    __slots__ = _fields = ("name", "status", "witnesses", "details")

    def __init__(self, name: str, status: str, witnesses: Optional[List[dict]] = None,
                 details: Optional[dict] = None):
        self.name = name
        self.status = status  # "pass" | "fail" | "skipped"
        self.witnesses = [] if witnesses is None else witnesses
        self.details = {} if details is None else details

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        return json.dumps({
            "check": self.name,
            "status": self.status,
            "witnesses": self.witnesses,
            "details": self.details,
        }, sort_keys=True, default=str)


def _finish(name: str, witnesses: List[dict], details: dict) -> Verdict:
    status = "fail" if witnesses else "pass"
    return Verdict(name, status, witnesses, details)


class ThetaOracle:
    """Minimal-degree generators at points with a positive gap (dermod.exponents);
    GapZero at a point whose gap is 0."""

    def __init__(self, A: Arrangement):
        self.A = A

    def __call__(self, mu: Multiplicity) -> Derivation:
        res = exponents(self.A, mu)
        if res.non_unique:
            raise GapZero(tuple(mu))
        return res.theta_min


# -- structure checks --------------------------------------------------------


def check_covering_steps(scan: ScanResult) -> Verdict:
    """Every covering pair in the box changes the gap by exactly one."""
    witnesses = []
    for mu, gap in scan.table.items():
        for nu, _h, dirn in lattice.covering_neighbors(mu, scan.box):
            if dirn == +1 and abs(gap - scan.table[nu]) != 1:
                witnesses.append({"mu": mu, "nu": nu, "delta_mu": gap,
                                  "delta_nu": scan.table[nu]})
    return _finish("covering-steps", witnesses, {})


def check_ball_structure(scan: ScanResult) -> Verdict:
    """Certified finite components are strict balls with a unique center.

    A component whose gap maximizers are not one center of a ball that is
    the component (explorer marks it ball_mismatch) is a witness.  Inside
    a certified ball the gap decreases linearly with the distance from the
    center; the sphere at the certificate radius has gap 0 and the next
    shell has gap 1.
    """
    witnesses = [{"component": comp.sorted_members()[:8], "maximizers": comp.maximizers,
                  "reason": "members do not form the certified ball"}
                 for comp in scan_components(scan) if "ball_mismatch" in comp.notes]
    balls = scan_centers(scan)
    for comp in balls:
        c, r = comp.center, comp.radius
        for nu in comp.members:
            want = r - lattice.distance(c, nu)
            if scan.table[nu] != want:
                witnesses.append({"center": c, "nu": nu,
                                  "delta": scan.table[nu], "want": want})
        # shells at distance r and r+1 (strictly outside the component)
        for nu in lattice.ball(c, r + 2, scan.box):
            d = lattice.distance(c, nu)
            if d < r:
                continue
            want = d - r  # 0 on the sphere, 1 one step further
            if scan.table[nu] != want:
                witnesses.append({"center": c, "nu": nu, "shell_distance": d,
                                  "delta": scan.table[nu], "want": want})
    return _finish("ball-structure", witnesses, {"certified_components": len(balls)})


def check_singleton_gaps(scan: ScanResult) -> Verdict:
    """No two adjacent points both have gap zero."""
    witnesses = []
    for mu in scan.table:
        if scan.table[mu] != 0:
            continue
        for nu, _h, dirn in lattice.covering_neighbors(mu, scan.box):
            if dirn == +1 and scan.table[nu] == 0:
                witnesses.append({"mu": mu, "nu": nu})
    return _finish("zero-set-singletons", witnesses, {})


def check_basis_step_and_path(scan: ScanResult, oracle: ThetaOracle) -> Verdict:
    """Generator transport along every covering step inside a component.

    On an ascent step the generator is unchanged up to scalar; on a
    descent step it picks up the step form.  That settles the chains too:
    a saturated chain in the support stays in one component, each of its
    links is such a step, and theta_{p+1} = c_p * f_p * theta_p with every
    c_p nonzero gives theta_nu = (prod c)(prod f) * theta_mu, the product
    of the descent-step forms, whichever chain is taken.
    """
    witnesses = []
    checked = 0
    A = scan.arrangement
    for comp in scan_components(scan):
        mem = comp.members
        for mu in comp.sorted_members():
            for nu, h, dirn in lattice.covering_neighbors(mu, scan.box):
                if dirn != +1 or nu not in mem:
                    continue
                checked += 1
                descent = scan.table[mu] > scan.table[nu]
                if not proportional(oracle(nu), oracle(mu), (A.forms[h],) if descent else ()):
                    witnesses.append({"kind": "step", "mu": mu, "nu": nu, "form": h})
    return _finish("basis-step-and-path", witnesses, {"steps": checked})


@functools.lru_cache(maxsize=None)
def _offsets_within_two(n: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """The nonzero offsets of L1 norm at most 2 in n coordinates, each with
    its norm: the radius-3 ball around (2, ..., 2), moved to the origin."""
    moved = (tuple(v - 2 for v in p) for p in lattice.ball((2,) * n, 3, (4,) * n))
    return tuple((off, sum(map(abs, off))) for off in moved if any(off))


def pairs_at_distance_two(groups: Sequence[Sequence[Multiplicity]], box: Box) -> List[Tuple[int, int]]:
    """Index pairs i < j, in combinations order, of the disjoint point groups
    whose least distance is exactly 2.

    Each member is looked up against its neighbours at distance 1 and 2, from
    one offset table per dimension, instead of against every point of every
    other group.  Points are flat ints, with the strides of the box padded
    by 2 on each side: an offset is one int added, and no offset of a member
    wraps round to another point.  Every member must lie in the box.
    """
    strides, size = [], 1
    for b in reversed(box):
        strides.append(size)
        size *= b + 5
    strides.reverse()
    deltas = [(sum(map(mul, off, strides)), dist) for off, dist in _offsets_within_two(len(box))]
    flat = [[sum(map(mul, mu, strides)) for mu in g] for g in groups]
    owner = {k: i for i, ks in enumerate(flat) for k in ks}
    least: Dict[Tuple[int, int], int] = {}
    for i, ks in enumerate(flat):
        for k in ks:
            for delta, dist in deltas:
                j = owner.get(k + delta, -1)
                if j > i and dist < least.get((i, j), 3):
                    least[(i, j)] = dist
    return sorted(pair for pair, dist in least.items() if dist == 2)


def _classes(points, theta) -> Dict[Multiplicity, Optional[int]]:
    """The dependence class (poly.dependence_classes) of each point's generator."""
    points = sorted(points)
    return dict(zip(points, dependence_classes([theta(mu) for mu in points])))


def _dependent_pairs(cls: Dict[Multiplicity, Optional[int]],
                     groups: Sequence[Sequence[Multiplicity]],
                     near: Sequence[Tuple[int, int]]) -> List[Tuple[Multiplicity, Multiplicity]]:
    """The dependent pairs (a, b) with a in groups[i] and b in groups[j], for
    (i, j) in near order, each group given in sorted order, read off the
    classes of _classes.  The member pairs of (i, j) are walked only when the
    class ids of the two groups meet; None is a zero generator and meets
    every class."""
    ids = {k: {cls[mu] for mu in groups[k]} for k in {i for pair in near for i in pair}}
    return [(a, b) for i, j in near
            if None in ids[i] or None in ids[j] or not ids[i].isdisjoint(ids[j])
            for a in groups[i] for b in groups[j]
            if cls[a] is None or cls[b] is None or cls[a] == cls[b]]


def check_independency(scan: ScanResult, oracle: ThetaOracle) -> Verdict:
    """Generators across components at distance 2 are independent;
    generators within one component are dependent.

    Every pair is decided, on class lookups: a component must hold one
    class, and components at distance 2 must share none.  So the walk for
    cross-dependent witnesses visits only component pairs whose classes
    meet, and the one for same-independent witnesses only components that
    hold two classes.
    """
    comps = scan_components(scan)
    groups = [c.sorted_members() for c in comps]
    near = pairs_at_distance_two(groups, scan.box)
    cls = _classes((mu for c in comps for mu in c.members), oracle)
    cross = sum(len(comps[i].members) * len(comps[j].members) for i, j in near)
    same = sum(math.comb(len(c.members), 2) for c in comps)
    witnesses = [{"kind": "cross-dependent", "mu": a, "nu": b}
                 for a, b in _dependent_pairs(cls, groups, near)]
    witnesses += [{"kind": "same-independent", "mu": a, "nu": b} for g in groups
                  if len({cls[mu] for mu in g} - {None}) > 1
                  for a, b in combinations(g, 2)
                  if None not in (cls[a], cls[b]) and cls[a] != cls[b]]
    return _finish("independence-pattern", witnesses,
                   {"cross_pairs": cross, "same_pairs": same})


# -- basis construction ------------------------------------------------------


def construct_basis_between(A: Arrangement, mu: Multiplicity, nu: Multiplicity,
                            kappa: Multiplicity, theta_mu: Derivation,
                            theta_nu: Derivation):
    """Basis of the module at kappa from generators at two ball centers.

    Returns ((theta1, theta2), verdict).  Raises PreconditionViolated if
    the center pair does not satisfy the gap-distance identity or kappa
    is outside the meet-join interval; a rejected verdict signals a
    structure violation, never repaired here.
    """
    mu, nu, kappa = tuple(mu), tuple(nu), tuple(kappa)
    d_mu = solve_delta(A, mu)
    d_nu = solve_delta(A, nu)
    if d_mu == 0 or d_nu == 0:
        raise PreconditionViolated("both endpoints must have a positive gap")
    if d_mu + d_nu != lattice.distance(mu, nu):
        raise PreconditionViolated(
            f"gap sum {d_mu}+{d_nu} != distance {lattice.distance(mu, nu)}")
    if dependent(theta_mu, theta_nu):
        raise PreconditionViolated("endpoint generators are dependent")
    meet, join = lattice.meet_join(mu, nu)
    if not (lattice.leq(meet, kappa) and lattice.leq(kappa, join)):
        raise PreconditionViolated("kappa outside the meet-join interval")
    # each generator times the product of alpha_H ** max(kappa_H - base_H, 0)
    t1, t2 = (theta.times([lf for lf, b, k in zip(A.forms, base, kappa) for _ in range(k - b)])
              for theta, base in ((theta_mu, mu), (theta_nu, nu)))
    verdict = verify_saito(A, kappa, t1, t2)
    return (t1, t2), verdict


def basis_for(A: Arrangement, kappa: Multiplicity,
              centers_index: Sequence[Tuple[Multiplicity, int]]):
    """Saito-verified basis at a balanced point, from known ball centers.

    centers_index holds (center, gap) pairs covering the relevant window.
    Candidate center pairs are tried nearest-first; the first feasible
    pair is delegated to construct_basis_between.
    """
    from .errors import NoCenterPairFound

    kappa = tuple(kappa)
    if lattice.cone_index(kappa) is not None:
        raise PreconditionViolated("kappa must be balanced")
    ranked = sorted(centers_index,
                    key=lambda cd: (lattice.distance(kappa, cd[0]), cd[0]))
    for i in range(len(ranked)):
        for j in range(i + 1, len(ranked)):
            (m1, dl1), (m2, dl2) = ranked[i], ranked[j]
            if dl1 + dl2 != lattice.distance(m1, m2):
                continue
            meet, join = lattice.meet_join(m1, m2)
            if not (lattice.leq(meet, kappa) and lattice.leq(kappa, join)):
                continue
            t1 = exponents(A, m1).theta_min
            t2 = exponents(A, m2).theta_min
            pair, verdict = construct_basis_between(A, m1, m2, kappa, t1, t2)
            if verdict.accepted:
                return pair, verdict
    raise NoCenterPairFound(
        f"no feasible center pair for {kappa}; enlarge the scan window")


# -- certification criteria --------------------------------------------------


class CandidateMap(Frozen):
    """A proposed assignment of low-degree module members to lattice points."""

    __slots__ = _fields = ("assignment",)

    def __init__(self, assignment: Dict[Multiplicity, Derivation]):
        set_field(self, "assignment", assignment)

    def points(self) -> List[Multiplicity]:
        return sorted(self.assignment)

    def delta_prime(self, mu: Multiplicity) -> int:
        theta = self.assignment[mu]
        deg = theta.degree if not theta.is_zero else 0
        return sum(mu) - 2 * deg


def _balanced_window(box: Box) -> List[Multiplicity]:
    return [mu for mu in lattice.box_points(box) if lattice.is_balanced(mu)]


def _unmet(name: str, A: Arrangement, candidate: CandidateMap) -> Optional[Verdict]:
    """The skipped verdict of criterion name if a candidate is not a module
    member, else None."""
    for mu, theta in candidate.assignment.items():
        if theta.is_zero or not in_module(A, mu, theta):
            return Verdict(name, "skipped",
                           details={"reason": f"candidate at {mu} is not a module member"})
    return None


def _hole(points, box: Box) -> Optional[Multiplicity]:
    """The least point of the first connected component of points (in the
    order of lattice.connected_components) larger than one, or None."""
    return next((min(c) for c in lattice.connected_components(points, box) if len(c) > 1), None)


def _judged(name: str, bad_pairs: List[Tuple[Multiplicity, Multiplicity]], details: dict,
            key: str, truth: Optional[bool]) -> Verdict:
    """The verdict of a criterion whose condition is that no pair in its
    window is dependent, given the dependent pairs found: the last of them
    is the condition's witness.  The truth read off the trusted scan is
    reported under key; with no trusted scan (truth None) the criterion is
    skipped, and otherwise it passes iff the condition equals the truth."""
    condition = not bad_pairs
    details = {"condition_holds": condition, **details}
    if bad_pairs:
        details["condition_witness"] = {"mu": bad_pairs[-1][0], "nu": bad_pairs[-1][1]}
    if truth is None:
        return Verdict(name, "skipped", details={**details, "reason": "no trusted scan"})
    details[key] = truth
    return _finish(name, [] if condition == truth else [{"condition": condition, "truth": truth}],
                   details)


def certify_support(A: Arrangement, candidate: CandidateMap, box: Box,
                    trusted_scan: Optional[ScanResult] = None) -> Verdict:
    """Support-identification criterion from pairwise independence.

    The ambient graph for "connected component in N" is taken N-induced,
    with inter-component distances measured in the full lattice (an
    ambiguity in the source statement; flagged in the details).
    """
    name = "criterion-support"
    balanced = set(_balanced_window(box))
    N = set(candidate.points())
    if not N <= balanced:
        raise HypothesisViolated("candidate set leaves the balanced window")
    for mu in N:
        if candidate.delta_prime(mu) <= 0:
            raise HypothesisViolated(f"degree of the candidate at {mu} is not below |mu|/2")
    if (skipped := _unmet(name, A, candidate)) is not None:
        return skipped
    if (hole := _hole(balanced - N, box)) is not None:
        raise HypothesisViolated(
            f"complement has a connected component larger than one, near {hole}")
    ncomps = [sorted(c) for c in lattice.connected_components(N, box)]
    near = pairs_at_distance_two(ncomps, box)
    cls = _classes({mu for pair in near for i in pair for mu in ncomps[i]},
                   candidate.assignment.__getitem__)
    truth = None if trusted_scan is None else N == {
        mu for mu in balanced if mu in trusted_scan.table and trusted_scan.table[mu] > 0}
    return _judged(name, _dependent_pairs(cls, ncomps, near),
                   {"ambient_graph": "candidate-induced components, lattice distances"},
                   "matches_true_support", truth)


def certify_centers(A: Arrangement, candidate: CandidateMap, box: Box,
                    trusted_scan: Optional[ScanResult] = None,
                    oracle: Optional[ThetaOracle] = None) -> Verdict:
    """Center-identification criterion from the gap-distance identity.

    Open balls B(a, g_a) and B(b, g_b) in the orthant share a point iff
    dist(a, b) <= g_a + g_b - 2; disjoint ones lie dist(a, b) - g_a - g_b + 2
    apart, on a shortest path from a to b.  So overlap, touching (gap sum
    equal to the distance) and coverage are read off each candidate's ball,
    built once in a box that holds every ball whole.  A point that balls
    i < j share is first claimed by i or an earlier ball, so the least
    overlapping pair is always claimed.
    """
    return _certify_centers(A, candidate, [box], trusted_scan, oracle)[0]


def _certify_centers(A: Arrangement, candidate: CandidateMap, windows: Sequence[Box],
                     trusted_scan: Optional[ScanResult],
                     oracle: Optional[ThetaOracle]) -> Tuple[Verdict, int]:
    """certify_centers on the first of the shrinking windows whose balanced
    points the balls cover, with that window's index.  Only coverage depends
    on the window, so everything else is computed once; if no window is
    covered, the last one's coverage raises."""
    name = "criterion-centers"
    N = candidate.points()
    gap = {mu: candidate.delta_prime(mu) for mu in N}
    for mu in N:
        if gap[mu] <= 0:
            raise HypothesisViolated(f"candidate gap at {mu} is not positive")
    if (skipped := _unmet(name, A, candidate)) is not None:
        return skipped, 0
    top = tuple(map(max, zip(windows[0], *([m + gap[mu] - 1 for m in mu] for mu in N))))
    balls = [lattice.ball(mu, gap[mu], top) for mu in N]
    owner: Dict[Multiplicity, int] = {}  # each point's first claimant
    claims = {(owner.setdefault(p, j), j) for j, ball in enumerate(balls) for p in ball}
    overlaps = sorted((i, j) for i, j in claims if i != j)
    if overlaps:
        i, j = overlaps[0]
        raise HypothesisViolated(f"candidate balls at {N[i]} and {N[j]} overlap")
    for index, window in enumerate(windows):
        hole = _hole(set(_balanced_window(window)).difference(owner), window)
        if hole is None:
            break
    else:
        raise HypothesisViolated(
            f"uncovered balanced region has a component larger than one, near {hole}")
    touching = pairs_at_distance_two(balls, top)
    cls = _classes({N[k] for pair in touching for k in pair}, candidate.assignment.__getitem__)
    truth = None
    if trusted_scan is not None:
        truth = set(N) == {ball.center for ball in scan_centers(trusted_scan)}
        if truth and oracle is not None:
            truth = all(proportional(candidate.assignment[mu], oracle(mu)) for mu in N)
    return _judged(name, _dependent_pairs(cls, [(mu,) for mu in N], touching), {},
                   "matches_true_centers", truth), index


def reconstruct_components(A: Arrangement, box: Box, oracle: ThetaOracle,
                           trusted_scan: Optional[ScanResult] = None):
    """Rebuild finite-component membership from dependence at distance 2.

    Works on the odd-size balanced points of the window, where the gap is
    forced positive by parity.  Returns (partition, verdict).
    """
    name = "criterion-reconstruct"
    N = [mu for mu in _balanced_window(box) if sum(mu) % 2 == 1]
    parent = {mu: mu for mu in N}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    singletons = [(mu,) for mu in N]
    near = pairs_at_distance_two(singletons, box)
    cls = _classes({N[k] for pair in near for k in pair}, oracle)
    for a, b in _dependent_pairs(cls, singletons, near):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    classes: Dict[Multiplicity, set] = {}
    for mu in N:
        classes.setdefault(find(mu), set()).add(mu)
    partition = sorted((frozenset(c) for c in classes.values()), key=lambda c: sorted(c)[0])
    if trusted_scan is None:
        return partition, Verdict(name, "skipped", details={"reason": "no trusted scan"})
    comp_classes: Dict[int, set] = {}
    comp_of = {mu: i for i, c in enumerate(scan_components(trusted_scan)) for mu in c.members}
    witnesses = []
    for mu in N:
        if mu not in comp_of:
            witnesses.append({"mu": mu, "reason": "odd point missing from the support"})
            continue
        comp_classes.setdefault(comp_of[mu], set()).add(mu)
    truth = sorted((frozenset(c) for c in comp_classes.values()),
                   key=lambda c: sorted(c)[0])
    if partition != truth:
        witnesses.append({"reason": "partition mismatch",
                          "reconstructed": [sorted(c)[:4] for c in partition],
                          "true": [sorted(c)[:4] for c in truth]})
    return partition, _finish(name, witnesses, {"points": len(N)})


# -- the ml verify run -------------------------------------------------------

def check_saito_everywhere(scan: ScanResult) -> Verdict:
    """A Saito-verified basis at every point of the scan (full_basis raises
    InternalInconsistency unless verify_saito accepts the pair it returns),
    whose degrees d1 <= d2 differ by the scan's gap: both sum to |mu|."""
    witnesses = []
    for mu, gap in sorted(scan.table.items()):
        t1, t2 = full_basis(scan.arrangement, mu)
        if t2.degree - t1.degree != gap:
            witnesses.append({"mu": mu, "delta": gap, "degrees": (t1.degree, t2.degree)})
    return _finish("saito-everywhere", witnesses, {"checked": len(scan.table)})


def _support_criterion(scan: ScanResult, oracle: ThetaOracle) -> Verdict:
    """The support criterion on the scan's own generators, the scan as truth."""
    candidate = CandidateMap({mu: oracle(mu) for mu in scan.support() if lattice.is_balanced(mu)})
    return certify_support(scan.arrangement, candidate, scan.box, trusted_scan=scan)


def _center_criterion(scan: ScanResult, oracle: ThetaOracle) -> Optional[Verdict]:
    """The center criterion on the scan's centers, the scan as truth, on the
    box shrunk by a margin: balls near its upper edge are cut off there;
    None if the scan has no center.

    The margin starts at the largest center gap and grows by one while the
    window leaves an uncovered balanced component larger than one, down to
    the origin; it is reported when it grew.
    """
    balls = scan_centers(scan)
    if not balls:
        return None
    candidate = CandidateMap({ball.center: oracle(ball.center) for ball in balls})
    gap = max(ball.radius for ball in balls)
    windows = [tuple(max(b - margin, 0) for b in scan.box)
               for margin in range(gap, max(gap, *scan.box) + 1)]
    verdict, grown = _certify_centers(scan.arrangement, candidate, windows, scan, oracle)
    if grown:
        verdict.details["margin"] = gap + grown
    return verdict


# The checks of ml verify in the order printed: the name that selects each,
# the name of its verdict, and the check, run on the scan and its oracle.  A
# public check is called through its module-level name, so that rebinding the
# name (perfbench/tracer.py times them so) reaches the call.
_CHECKS = (
    ("covering", "covering-steps", lambda scan, oracle: check_covering_steps(scan)),
    ("ball", "ball-structure", lambda scan, oracle: check_ball_structure(scan)),
    ("singletons", "zero-set-singletons", lambda scan, oracle: check_singleton_gaps(scan)),
    ("transport", "basis-step-and-path",
     lambda scan, oracle: check_basis_step_and_path(scan, oracle)),
    ("independence", "independence-pattern",
     lambda scan, oracle: check_independency(scan, oracle)),
    ("saito", "saito-everywhere", lambda scan, oracle: check_saito_everywhere(scan)),
    ("criteria", "criterion-support", _support_criterion),
    ("criteria", "criterion-centers", _center_criterion),
    ("criteria", "criterion-reconstruct", lambda scan, oracle: reconstruct_components(
        scan.arrangement, scan.box, oracle, trusted_scan=scan)[1]))
CHECKS = tuple(dict.fromkeys(what for what, _, _ in _CHECKS)) + ("all",)


def run_checks(scan: ScanResult, what: str) -> List[Verdict]:
    """The verdicts of ``ml verify WHAT``, in the order printed: the check
    WHAT of CHECKS, or every check for "all".

    A criterion whose hypotheses the scan breaks is skipped, with the
    reason.  A check that asks the oracle for the generator at a point of
    the scan's support where the solver's gap is 0 fails, with the point,
    the scan's gap and the solver's as witness.
    """
    if what not in CHECKS:
        raise PreconditionViolated(f"unknown check {what!r}; choose from {', '.join(CHECKS)}")
    oracle = ThetaOracle(scan.arrangement)
    out = []
    for selector, name, check in _CHECKS:
        if what not in (selector, "all"):
            continue
        try:
            verdict = check(scan, oracle)
        except HypothesisViolated as exc:
            verdict = Verdict(name, "skipped", details={"reason": str(exc)})
        except GapZero as exc:
            verdict = Verdict(name, "fail", [{"mu": exc.mu, "delta": scan.table[exc.mu],
                                              "solver_delta": 0}])
        if verdict is not None:
            out.append(verdict)
    return out
