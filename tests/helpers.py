"""Library code that only the tests call: reference predicates and
enumerations the production paths do not need."""

import pickle
from itertools import combinations, product
from operator import add
from typing import List, Optional, Sequence

from multilattice.dermod import in_module
from multilattice.errors import HypothesisViolated, LengthMismatch, NotComparable
from multilattice.explorer import centers, components
from multilattice.field import FieldSpec, Scalar, invert
from multilattice.linalg import domain_of, rank
from multilattice import lattice
from multilattice.lattice import Multiplicity
from multilattice.poly import (
    Arrangement,
    Derivation,
    HomogPoly,
    LinearForm,
    dependent,
    proportional,
)
from multilattice.theorems import ThetaOracle, Verdict


# -- field arithmetic on derivations and forms, the oracles of the image kernels


def plus(t1: Derivation, t2: Derivation) -> Derivation:
    """t1 + t2 in field arithmetic."""
    return Derivation(t1.P + t2.P, t1.Q + t2.Q)


def scale(theta: Derivation, s: Scalar) -> Derivation:
    """s * theta in field arithmetic."""
    return Derivation(theta.P.scale(s), theta.Q.scale(s))


def mul_poly(theta: Derivation, g: HomogPoly) -> Derivation:
    """g * theta in field arithmetic."""
    return Derivation(g * theta.P, g * theta.Q)


def neg_poly(f: HomogPoly) -> HomogPoly:
    """-f in field arithmetic."""
    return HomogPoly(tuple(-c for c in f.coeffs))


def sub_poly(f: HomogPoly, g: HomogPoly) -> HomogPoly:
    """f - g in field arithmetic."""
    return f + neg_poly(g)


def form_poly(lf: LinearForm) -> HomogPoly:
    """The linear form a*x + b*y as a HomogPoly."""
    return HomogPoly.make((lf.b, lf.a))  # c_0*y + c_1*x


def euler(fs: FieldSpec) -> Derivation:
    """The Euler derivation x*dx + y*dy."""
    one, z = fs.one(), fs.zero()
    return Derivation(HomogPoly((z, one)), HomogPoly((one, z)))


def power(f: HomogPoly, n: int, fs: FieldSpec) -> HomogPoly:
    """f ** n in field arithmetic."""
    out = HomogPoly.one(fs)
    for _ in range(n):
        out = out * f
    return out


def multiplier_form(A: Arrangement, base: Multiplicity, kappa: Multiplicity) -> HomogPoly:
    """Product of alpha_H ** max(kappa_H - base_H, 0) in field arithmetic:
    the oracle for the multiplier of theorems.construct_basis_between."""
    out = HomogPoly.one(A.field)
    for lf, b, k in zip(A.forms, base, kappa):
        if k > b:
            out = out * power(form_poly(lf), k - b, A.field)
    return out


def flat(theta: Derivation) -> tuple:
    """The field coefficients of P then Q, each from the highest x-power
    down, a zero part as Nones."""
    d = theta.degree
    if d is None:
        return ()
    out = []
    for f in (theta.P, theta.Q):
        out.extend(reversed(f.coeffs) if f.coeffs else [None] * (d + 1))
    return tuple(out)


def field_canonical(theta: Derivation) -> Derivation:
    """theta scaled so that the first nonzero coefficient of flat is 1, in
    field arithmetic: the oracle for Derivation.canonical."""
    lead = next((c for c in flat(theta) if c is not None and c), None)
    return theta if lead is None else scale(theta, invert(lead))


def field_derivation(fs: FieldSpec, images: Sequence, d: int) -> Derivation:
    """The canonical derivation of the walk's images [P | Q] of degree d,
    built from field coefficients: each image over the first nonzero one in
    flat order.  The oracle for dermod._Walk.derivation."""
    back = domain_of(fs.one()).back
    coeffs = [back(v) for v in images]
    lead = next(c for c in (*reversed(coeffs[:d + 1]), *reversed(coeffs[d + 1:])) if c)
    return Derivation(HomogPoly.make(tuple(c / lead for c in coeffs[:d + 1])),
                      HomogPoly.make(tuple(c / lead for c in coeffs[d + 1:])))


def assert_same_derivation(fs: FieldSpec, field: Derivation, images: Derivation) -> None:
    """field, built from field coefficients, and images, built on integer
    images, are one derivation: equal, hashed alike, still so after
    pickling, and with the same P, Q and printed form."""
    assert field == images and hash(field) == hash(images)
    for theta in (field, images):
        back = pickle.loads(pickle.dumps(theta))
        assert back == field and hash(back) == hash(field)
    assert field.P == images.P and field.Q == images.Q
    assert field.format(fs) == images.format(fs)
    assert all(type(c) is type(fs.one()) for c in images.P.coeffs + images.Q.coeffs)


def proportional_derivations(t1: Derivation, t2: Derivation) -> bool:
    """True if one is a scalar multiple of the other (zero counts), in
    field arithmetic: the oracle for poly.proportional."""
    if t1.is_zero or t2.is_zero:
        return True
    if t1.degree != t2.degree:
        return False
    f1, f2 = flat(t1), flat(t2)
    lead = None
    for a, b in zip(f1, f2):
        an = bool(a) if a is not None else False
        bn = bool(b) if b is not None else False
        if an != bn:
            return False
        if an and lead is None:
            lead = a * invert(b)
        elif an and a != lead * b:
            return False
    return True


def wrong_generator_oracle(A: Arrangement, mu: Optional[Multiplicity] = None) -> ThetaOracle:
    """A generator oracle whose generator at mu, if given, is wrong but of
    the right degree: theta + y**d * dx."""
    if mu is None:
        return ThetaOracle(A)
    mu = tuple(mu)
    theta = ThetaOracle(A)(mu)
    y_power = HomogPoly.make([A.field.one()] + [A.field.zero()] * theta.degree)
    wrong = plus(theta, Derivation(y_power, HomogPoly.zero()))

    class WrongAt(ThetaOracle):
        def __call__(self, nu: Multiplicity) -> Derivation:
            return wrong if tuple(nu) == mu else super().__call__(nu)

    return WrongAt(A)


def pairwise_certify_centers(A: Arrangement, candidate, box, trusted_scan=None, oracle=None):
    """The center criterion pair by pair: the oracle for
    theorems.certify_centers, which reads overlap, coverage and touching off
    the candidates' balls instead.

    Two candidate balls overlap iff dist < gap sum - 1, and the first
    overlapping pair in combinations order is named; they touch iff
    dist = gap sum, and each touching pair's dependence is decided by
    poly.dependent.
    """
    name = "criterion-centers"
    N = candidate.points()
    gap = {mu: candidate.delta_prime(mu) for mu in N}
    for mu in N:
        if gap[mu] <= 0:
            raise HypothesisViolated(f"candidate gap at {mu} is not positive")
    for mu, theta in candidate.assignment.items():
        if theta.is_zero or not in_module(A, mu, theta):
            return Verdict(name, "skipped",
                           details={"reason": f"candidate at {mu} is not a module member"})
    touching = []
    for a, b in combinations(N, 2):
        dist, reach = lattice.distance(a, b), gap[a] + gap[b]
        if dist < reach - 1:
            raise HypothesisViolated(f"candidate balls at {a} and {b} overlap")
        if dist == reach:
            touching.append((a, b))
    balanced = {mu for mu in lattice.box_points(box) if lattice.is_balanced(mu)}
    covered = set()
    for mu in N:
        covered.update(lattice.ball(mu, gap[mu], box))
    leftovers = lattice.connected_components(balanced - covered, box)
    big = [sorted(c)[0] for c in leftovers if len(c) > 1]
    if big:
        raise HypothesisViolated(
            f"uncovered balanced region has a component larger than one, near {big[0]}")
    bad_pairs = [(a, b) for a, b in touching
                 if dependent(candidate.assignment[a], candidate.assignment[b])]
    details = {"condition_holds": not bad_pairs}
    if bad_pairs:
        details["condition_witness"] = {"mu": bad_pairs[-1][0], "nu": bad_pairs[-1][1]}
    if trusted_scan is None:
        return Verdict(name, "skipped", details={**details, "reason": "no trusted scan"})
    truth = set(N) == {ball.center for ball in centers(trusted_scan)}
    if truth and oracle is not None:
        truth = all(proportional(candidate.assignment[mu], oracle(mu)) for mu in N)
    details["matches_true_centers"] = truth
    if details["condition_holds"] == truth:
        return Verdict(name, "pass", details=details)
    return Verdict(name, "fail", witnesses=[{"condition": not bad_pairs, "truth": truth}],
                   details=details)


def pairs_at_distance_two_by_tuples(groups: Sequence[Sequence[Multiplicity]],
                                    box: lattice.Box) -> List[tuple]:
    """theorems.pairs_at_distance_two on point tuples: each member plus each
    nonzero offset of L1 norm at most 2, looked up in a map from point to
    group.  The oracle for the flat-index version."""
    owner = {mu: i for i, g in enumerate(groups) for mu in g}
    offsets = [(off, sum(map(abs, off))) for off in enumerate_offsets(len(box), 2, signed=True)
               if any(off)]
    least = {}
    for i, g in enumerate(groups):
        for a in g:
            for off, dist in offsets:
                j = owner.get(tuple(map(add, a, off)), -1)
                if j > i and dist < least.get((i, j), 3):
                    least[(i, j)] = dist
    return sorted(pair for pair, dist in least.items() if dist == 2)


def chain_steps(chain: Sequence[Multiplicity]) -> List[int]:
    """The raised coordinate of each covering step; validates the chain."""
    steps = []
    for a, b in zip(chain, chain[1:]):
        if len(a) != len(b):
            raise LengthMismatch(f"{a} and {b} differ in length")
        diff = [j for j in range(len(a)) if a[j] != b[j]]
        if len(diff) != 1 or b[diff[0]] != a[diff[0]] + 1:
            raise NotComparable(f"{a} -> {b} is not a covering step")
        steps.append(diff[0])
    return steps


def downalpha(A: Arrangement, chain: Sequence[Multiplicity],
              delta_vals: Sequence[int]) -> HomogPoly:
    """Product of the step forms over the steps where delta decreases."""
    if len(delta_vals) != len(chain):
        raise LengthMismatch("one delta value per chain element required")
    out = HomogPoly.one(A.field)
    for idx, h in enumerate(chain_steps(chain)):
        if delta_vals[idx] > delta_vals[idx + 1]:
            out = out * form_poly(A.forms[h])
    return out


def enumerate_offsets(n: int, max_weight: int, signed: bool = False):
    """All offset vectors with L1 weight at most max_weight."""
    rng = range(-max_weight, max_weight + 1) if signed else range(max_weight + 1)
    for combo in product(rng, repeat=n):
        if sum(abs(v) for v in combo) <= max_weight:
            yield combo


def descent_forms(A: Arrangement, chain: Sequence[Multiplicity],
                  delta_vals: Sequence[int]) -> List[LinearForm]:
    """The step forms over the steps where delta decreases: the factors
    of the chain's transport polynomial."""
    steps = chain_steps(chain)
    return [A.forms[h] for idx, h in enumerate(steps) if delta_vals[idx] > delta_vals[idx + 1]]


def support_chain(mu: Multiplicity, nu: Multiplicity, support) -> Optional[List[Multiplicity]]:
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


def saturated_chain(mu: Multiplicity, nu: Multiplicity) -> List[Multiplicity]:
    """The chain from mu up to nu raising the lowest index first."""
    if not lattice.leq(mu, nu):
        raise NotComparable(f"{mu} is not below {nu}")
    chain = [mu]
    cur = list(mu)
    for i in range(len(mu)):
        while cur[i] < nu[i]:
            cur[i] += 1
            chain.append(tuple(cur))
    return chain


def chain_high_first(mu: Multiplicity, nu: Multiplicity) -> List[Multiplicity]:
    """The saturated chain from mu to nu that raises the last coordinate first."""
    chain = [mu]
    cur = list(mu)
    for i in range(len(mu) - 1, -1, -1):
        while cur[i] < nu[i]:
            cur[i] += 1
            chain.append(tuple(cur))
    return chain


def path_transport(scan, oracle):
    """The path form of generator transport, pair by pair: the oracle for
    theorems.check_basis_step_and_path, which checks covering steps only.

    For every comparable pair mu <= nu of a component, theta_nu must be a
    scalar times the product of the descent-step forms times theta_mu, along
    the low-first and high-first chains when they stay in the support, else
    along any chain found in the support.  Pairs with no such chain are
    skipped.  Returns (paths checked, failing (mu, nu) pairs).
    """
    support = set(scan.support())
    A = scan.arrangement
    checked, failing = 0, []
    for comp in components(scan):
        for mu, nu in combinations(comp.sorted_members(), 2):
            if not lattice.leq(mu, nu):
                continue
            chains = [ch for ch in (saturated_chain(mu, nu), chain_high_first(mu, nu))
                      if all(p in support for p in ch)]
            if not chains:
                found = support_chain(mu, nu, support)
                if found is None:
                    continue
                chains.append(found)
            checked += 1
            t_mu, t_nu = oracle(mu), oracle(nu)
            for chain in chains:
                forms = descent_forms(A, chain, [scan.table[p] for p in chain])
                if not proportional(t_nu, t_mu, forms):
                    failing.append((mu, nu))
                    break
    return checked, failing


# -- the division construction: the differential oracle of the rank rows


def constraint_rows_division(A: Arrangement, mu: Sequence[int], d: int) -> List[List[Scalar]]:
    fs = A.field
    zero, one = fs.zero(), fs.one()
    ncols = 2 * (d + 1)
    rows: List[List[Scalar]] = []
    for hi, (lf, m) in enumerate(zip(A.forms, mu)):
        m = min(m, d + 1)
        if m <= 0:
            continue
        a, b = lf.a, lf.b
        # coefficient j of theta(alpha) as a functional of the unknowns
        funcs: List[List[Scalar]] = []
        for j in range(d + 1):
            row = [zero] * ncols
            row[j] = a
            row[d + 1 + j] = b
            funcs.append(row)
        for _ in range(m):
            deg = len(funcs) - 1
            if not lf.a:
                # alpha = y: remainder is the x^deg coefficient
                rows.append(funcs[deg])
                funcs = funcs[:deg]
            else:
                r = -lf.b
                acc = funcs[deg]
                quot: List[Optional[List[Scalar]]] = [None] * deg
                for j in range(deg - 1, -1, -1):
                    quot[j] = acc
                    acc = [fj + r * aj for fj, aj in zip(funcs[j], acc)]
                rows.append(acc)
                funcs = quot
    return rows


def division_dimension(A: Arrangement, mu: Sequence[int], d: int) -> int:
    """dim D_d from one rank of the cleared division rows: the differential
    oracle of dermod.graded_dimension, which ranks the basis rows."""
    dom, ncols = domain_of(A.field.one()), 2 * (d + 1)
    rows = [dom.clear(r)[0] for r in constraint_rows_division(A, mu, d)]
    return ncols - rank(rows, dom, ncols)
