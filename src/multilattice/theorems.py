"""Mechanical verification of the structure results on scan data.

Every check is report-generating and never self-repairing: the verified
statements are theorems, so any Fail verdict on correct solver output
signals a solver defect and must surface with witnesses.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field as dc_field
from itertools import combinations
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from . import lattice
from .dermod import delta as solve_delta
from .dermod import exponents, in_module, verify_saito
from .errors import HypothesisViolated, PreconditionViolated, UncoveredWindow
from .explorer import Component, ScanResult, components as scan_components
from .lattice import Box, Multiplicity
from .poly import Arrangement, Derivation, HomogPoly, LinearForm, dependent, proportional


@dataclass
class Verdict:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    witnesses: List[dict] = dc_field(default_factory=list)
    details: dict = dc_field(default_factory=dict)

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
    """Minimal-degree generators, memoized, for points with a positive gap."""

    def __init__(self, A: Arrangement, cache=None):
        self.A = A
        self.cache = cache
        self._memo: Dict[Multiplicity, Derivation] = {}
        self._delta: Dict[Multiplicity, int] = {}

    def delta(self, mu: Multiplicity) -> int:
        mu = tuple(mu)
        if mu not in self._delta:
            self._delta[mu] = solve_delta(self.A, mu, cache=self.cache)
        return self._delta[mu]

    def __call__(self, mu: Multiplicity) -> Derivation:
        mu = tuple(mu)
        if mu not in self._memo:
            res = exponents(self.A, mu, cache=self.cache)
            self._delta[mu] = res.delta
            if res.non_unique:
                raise PreconditionViolated(
                    f"theta is only defined up to scalar on the support; gap is 0 at {mu}")
            self._memo[mu] = res.theta_min
        return self._memo[mu]


# -- structure checks --------------------------------------------------------


def check_covering_steps(scan: ScanResult) -> Verdict:
    """Every covering pair in the box changes the gap by exactly one."""
    witnesses = []
    for mu, pr in scan.table.items():
        for nu, _h, dirn in lattice.covering_neighbors(mu, scan.box):
            if dirn == +1 and abs(pr.delta - scan.table[nu].delta) != 1:
                witnesses.append({"mu": mu, "nu": nu, "delta_mu": pr.delta,
                                  "delta_nu": scan.table[nu].delta})
    return _finish("covering-steps", witnesses, {})


def check_ball_structure(scan: ScanResult, comps: Optional[List[Component]] = None) -> Verdict:
    """Certified finite components are strict balls with a unique center.

    Inside a component the gap decreases linearly with the distance from
    the center; the sphere at the certificate radius has gap 0 and the
    next shell has gap 1.
    """
    if comps is None:
        comps = scan_components(scan)
    witnesses = []
    checked = 0
    for comp in comps:
        if comp.kind == "undetermined" and "ball_mismatch" in comp.notes:
            witnesses.append({"component": comp.sorted_members()[:8],
                              "reason": "members do not form the certified ball"})
            continue
        if comp.kind != "ball":
            continue
        checked += 1
        if len(comp.maximizers) != 1:
            witnesses.append({"component": comp.sorted_members()[:8],
                              "reason": f"non-unique center {comp.maximizers}"})
            continue
        c, r = comp.center, comp.radius
        for nu in comp.members:
            want = r - lattice.distance(c, nu)
            if scan.table[nu].delta != want:
                witnesses.append({"center": c, "nu": nu,
                                  "delta": scan.table[nu].delta, "want": want})
        # shells at distance r and r+1 (strictly outside the component)
        for nu in lattice.ball(c, r + 2, scan.box):
            d = lattice.distance(c, nu)
            if d < r:
                continue
            want = d - r  # 0 on the sphere, 1 one step further
            if scan.table[nu].delta != want:
                witnesses.append({"center": c, "nu": nu, "shell_distance": d,
                                  "delta": scan.table[nu].delta, "want": want})
    return _finish("ball-structure", witnesses, {"certified_components": checked})


def check_singleton_gaps(scan: ScanResult) -> Verdict:
    """No two adjacent points both have gap zero."""
    witnesses = []
    for mu in scan.table:
        if scan.table[mu].delta != 0:
            continue
        for nu, _h, dirn in lattice.covering_neighbors(mu, scan.box):
            if dirn == +1 and scan.table[nu].delta == 0:
                witnesses.append({"mu": mu, "nu": nu})
    return _finish("zero-set-singletons", witnesses, {})


def check_basis_step_and_path(scan: ScanResult, oracle: ThetaOracle,
                              comps: Optional[List[Component]] = None,
                              seed: int = 0, max_pairs: int = 50) -> Verdict:
    """Generator transport along covering steps and saturated chains.

    On an ascent step the generator is unchanged up to scalar; on a
    descent step it picks up the step form.  Along a chain whose every
    element stays in the support, the product of the descent-step forms
    carries the generator, independently of the chain chosen.  Chains
    leaving the support transport nothing (the generator is not unique at
    gap 0), so pairs admitting no support-contained chain are skipped.
    """
    if comps is None:
        comps = scan_components(scan)
    rng = random.Random(seed)
    witnesses = []
    step_checked = 0
    path_checked = 0
    paths_skipped = 0
    support_set = set(scan.support())
    A = scan.arrangement
    for comp in comps:
        members = comp.sorted_members()
        # covering steps inside the component
        pairs = []
        mem = comp.members
        for mu in members:
            for nu, h, dirn in lattice.covering_neighbors(mu, scan.box):
                if dirn == +1 and nu in mem:
                    pairs.append((mu, nu, h))
        if len(pairs) > max_pairs:
            pairs = rng.sample(pairs, max_pairs)
        for mu, nu, h in sorted(pairs):
            step_checked += 1
            t_mu, t_nu = oracle(mu), oracle(nu)
            descent = scan.table[mu].delta > scan.table[nu].delta
            if not proportional(t_nu, t_mu, (A.forms[h],) if descent else ()):
                witnesses.append({"kind": "step", "mu": mu, "nu": nu, "form": h})
        # saturated chains between comparable pairs
        comparable = [(mu, nu) for mu, nu in combinations(members, 2)
                      if lattice.leq(mu, nu)]
        if len(comparable) > max_pairs:
            comparable = rng.sample(comparable, max_pairs)
        for mu, nu in sorted(comparable):
            # candidate chains that never leave the support
            chains = [ch for ch in (lattice.saturated_chain(mu, nu),
                                    _chain_high_first(mu, nu))
                      if all(p in support_set for p in ch)]
            if not chains:
                found = _support_chain(mu, nu, support_set)
                if found is None:
                    paths_skipped += 1
                    continue
                chains.append(found)
            path_checked += 1
            t_mu, t_nu = oracle(mu), oracle(nu)
            for idx, chain in enumerate(chains):
                forms = _descent_forms(A, chain, [scan.table[p].delta for p in chain])
                if not proportional(t_nu, t_mu, forms):
                    kind = "path" if idx == 0 else "path-alt-chain"
                    witnesses.append({"kind": kind, "mu": mu, "nu": nu})
                    break
    return _finish("basis-step-and-path", witnesses,
                   {"steps": step_checked, "paths": path_checked,
                    "paths_skipped": paths_skipped, "seed": seed})


def _descent_forms(A: Arrangement, chain: Sequence[Multiplicity],
                   delta_vals: Sequence[int]) -> List[LinearForm]:
    """The step forms over the steps where delta decreases: the factors
    of the chain's transport polynomial."""
    steps = lattice.chain_steps(chain)
    return [A.forms[h] for idx, h in enumerate(steps) if delta_vals[idx] > delta_vals[idx + 1]]


def _support_chain(mu: Multiplicity, nu: Multiplicity, support) -> Optional[List[Multiplicity]]:
    """A saturated chain from mu to nu staying inside the support, if any."""
    stack = [[mu]]
    while stack:
        chain = stack.pop()
        cur = chain[-1]
        if cur == nu:
            return chain
        for i in range(len(mu)):
            if cur[i] < nu[i]:
                nxt = cur[:i] + (cur[i] + 1,) + cur[i + 1:]
                if nxt in support:
                    stack.append(chain + [nxt])
    return None


def _chain_high_first(mu: Multiplicity, nu: Multiplicity) -> List[Multiplicity]:
    chain = [mu]
    cur = list(mu)
    for i in range(len(mu) - 1, -1, -1):
        while cur[i] < nu[i]:
            cur[i] += 1
            chain.append(tuple(cur))
    return chain


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
    other group.
    """
    owner = {mu: i for i, g in enumerate(groups) for mu in g}
    offsets = _offsets_within_two(len(box))
    least: Dict[Tuple[int, int], int] = {}
    for i, g in enumerate(groups):
        for a in g:
            for off, dist in offsets:
                b = tuple(map(add, a, off))
                j = owner.get(b, -1)
                if j > i and dist < least.get((i, j), 3) and lattice.in_box(b, box):
                    least[(i, j)] = dist
    return sorted(pair for pair, dist in least.items() if dist == 2)


def check_independency(scan: ScanResult, oracle: ThetaOracle,
                       comps: Optional[List[Component]] = None,
                       seed: int = 0, max_pairs: Optional[int] = None) -> Verdict:
    """Generators across components at distance 2 are independent;
    generators within one component are dependent.

    max_pairs=None means exhaustive over the window.
    """
    if comps is None:
        comps = scan_components(scan)
    rng = random.Random(seed)
    witnesses = []
    cross = same = 0
    for i, j in pairs_at_distance_two([c.members for c in comps], scan.box):
        c1, c2 = comps[i], comps[j]
        pairs = [(a, b) for a in c1.sorted_members() for b in c2.sorted_members()]
        if max_pairs and len(pairs) > max_pairs:
            pairs = sorted(rng.sample(pairs, max_pairs))
        for a, b in pairs:
            cross += 1
            if dependent(oracle(a), oracle(b)):
                witnesses.append({"kind": "cross-dependent", "mu": a, "nu": b})
    for comp in comps:
        pairs = list(combinations(comp.sorted_members(), 2))
        if max_pairs and len(pairs) > max_pairs:
            pairs = sorted(rng.sample(pairs, max_pairs))
        for a, b in pairs:
            same += 1
            if not dependent(oracle(a), oracle(b)):
                witnesses.append({"kind": "same-independent", "mu": a, "nu": b})
    return _finish("independence-pattern", witnesses,
                   {"cross_pairs": cross, "same_pairs": same, "seed": seed})


# -- basis construction ------------------------------------------------------


def multiplier_form(A: Arrangement, base: Multiplicity, kappa: Multiplicity) -> HomogPoly:
    """Product of alpha_H ** max(kappa_H - base_H, 0)."""
    out = HomogPoly.one(A.field)
    for lf, b, k in zip(A.forms, base, kappa):
        if k > b:
            out = out * HomogPoly.from_linear_form(lf).pow(k - b, A.field)
    return out


def construct_basis_between(A: Arrangement, mu: Multiplicity, nu: Multiplicity,
                            kappa: Multiplicity, theta_mu: Derivation,
                            theta_nu: Derivation, cache=None):
    """Basis of the module at kappa from generators at two ball centers.

    Returns ((theta1, theta2), verdict).  Raises PreconditionViolated if
    the center pair does not satisfy the gap-distance identity or kappa
    is outside the meet-join interval; a rejected verdict signals a
    structure violation, never repaired here.
    """
    mu, nu, kappa = tuple(mu), tuple(nu), tuple(kappa)
    d_mu = solve_delta(A, mu, cache=cache)
    d_nu = solve_delta(A, nu, cache=cache)
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
    m1 = multiplier_form(A, mu, kappa)
    m2 = multiplier_form(A, nu, kappa)
    t1 = theta_mu.mul_poly(m1)
    t2 = theta_nu.mul_poly(m2)
    verdict = verify_saito(A, kappa, t1, t2)
    return (t1, t2), verdict


def basis_for(A: Arrangement, kappa: Multiplicity,
              centers_index: Sequence[Tuple[Multiplicity, int]], cache=None):
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
            t1 = exponents(A, m1, cache=cache).theta_min
            t2 = exponents(A, m2, cache=cache).theta_min
            pair, verdict = construct_basis_between(A, m1, m2, kappa, t1, t2, cache=cache)
            if verdict.accepted:
                return pair, verdict
    raise NoCenterPairFound(
        f"no feasible center pair for {kappa}; enlarge the scan window")


# -- certification criteria --------------------------------------------------


@dataclass(frozen=True)
class CandidateMap:
    """A proposed assignment of low-degree module members to lattice points."""

    assignment: Dict[Multiplicity, Derivation]

    def points(self) -> List[Multiplicity]:
        return sorted(self.assignment)

    def delta_prime(self, mu: Multiplicity) -> int:
        theta = self.assignment[mu]
        deg = theta.degree if not theta.is_zero else 0
        return sum(mu) - 2 * deg


def _balanced_window(box: Box) -> List[Multiplicity]:
    return [mu for mu in lattice.box_points(box) if lattice.is_balanced(mu)]


def _check_membership(A: Arrangement, candidate: CandidateMap) -> Optional[Multiplicity]:
    for mu, theta in candidate.assignment.items():
        if theta.is_zero or not in_module(A, mu, theta):
            return mu
    return None


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
    bad = _check_membership(A, candidate)
    if bad is not None:
        return Verdict(name, "skipped",
                       details={"reason": f"candidate at {bad} is not a module member"})
    leftovers = lattice.connected_components(balanced - N, box)
    big = [sorted(c)[0] for c in leftovers if len(c) > 1]
    if big:
        raise HypothesisViolated(
            f"complement has a connected component larger than one, near {big[0]}")
    ncomps = lattice.connected_components(N, box)
    condition = True
    cond_witness = None
    for c1, c2 in pairs_at_distance_two(ncomps, box):
        for a in sorted(ncomps[c1]):
            for b in sorted(ncomps[c2]):
                if dependent(candidate.assignment[a], candidate.assignment[b]):
                    condition = False
                    cond_witness = {"mu": a, "nu": b}
    details = {"condition_holds": condition,
               "ambient_graph": "candidate-induced components, lattice distances"}
    if cond_witness:
        details["condition_witness"] = cond_witness
    if trusted_scan is None:
        return Verdict(name, "skipped", details={**details, "reason": "no trusted scan"})
    truth = N == {mu for mu in balanced
                  if mu in trusted_scan.table and trusted_scan.table[mu].delta > 0}
    details["matches_true_support"] = truth
    if condition == truth:
        return Verdict(name, "pass", details=details)
    return Verdict(name, "fail",
                   witnesses=[{"condition": condition, "truth": truth}],
                   details=details)


def certify_centers(A: Arrangement, candidate: CandidateMap, box: Box,
                    trusted_scan: Optional[ScanResult] = None,
                    oracle: Optional[ThetaOracle] = None) -> Verdict:
    """Center-identification criterion from the gap-distance identity."""
    name = "criterion-centers"
    N = candidate.points()
    gap = {mu: candidate.delta_prime(mu) for mu in N}
    for mu in N:
        if gap[mu] <= 0:
            raise HypothesisViolated(f"candidate gap at {mu} is not positive")
    bad = _check_membership(A, candidate)
    if bad is not None:
        return Verdict(name, "skipped",
                       details={"reason": f"candidate at {bad} is not a module member"})
    for a, b in combinations(N, 2):
        if lattice.distance(a, b) < gap[a] + gap[b] - 1:
            raise HypothesisViolated(f"candidate balls at {a} and {b} overlap")
    balanced = set(_balanced_window(box))
    covered = set()
    for mu in N:
        covered.update(lattice.ball(mu, gap[mu], box))
    leftovers = lattice.connected_components(balanced - covered, box)
    big = [sorted(c)[0] for c in leftovers if len(c) > 1]
    if big:
        raise UncoveredWindow(
            f"uncovered balanced region has a component larger than one, near {big[0]}")
    condition = True
    cond_witness = None
    for a, b in combinations(N, 2):
        if gap[a] + gap[b] != lattice.distance(a, b):
            continue
        if dependent(candidate.assignment[a], candidate.assignment[b]):
            condition = False
            cond_witness = {"mu": a, "nu": b}
    details = {"condition_holds": condition}
    if cond_witness:
        details["condition_witness"] = cond_witness
    if trusted_scan is None:
        return Verdict(name, "skipped", details={**details, "reason": "no trusted scan"})
    from .explorer import centers as scan_centers
    true_centers = {}
    for entry in scan_centers(trusted_scan):
        if entry.center is not None:
            true_centers[entry.center] = entry.delta
    truth = set(N) == set(true_centers)
    if truth and oracle is not None:
        for mu in N:
            if not proportional(candidate.assignment[mu], oracle(mu)):
                truth = False
                break
    details["matches_true_centers"] = truth
    if condition == truth:
        return Verdict(name, "pass", details=details)
    return Verdict(name, "fail",
                   witnesses=[{"condition": condition, "truth": truth}],
                   details=details)


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

    for i, j in pairs_at_distance_two([(mu,) for mu in N], box):
        a, b = N[i], N[j]
        if dependent(oracle(a), oracle(b)):
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
    comps = scan_components(trusted_scan)
    comp_of = {mu: i for i, c in enumerate(comps) for mu in c.members}
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
