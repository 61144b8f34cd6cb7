"""Symmetry applications of the built-in dihedral/Coxeter arrangements.

Covers reflection-group actions on multiplicities, gap invariance under
the action, the symmetric-peak certificate, and the near-constant exponent
formulas around odd constant multiplicities.  The built-in realizations of
the rank-2 types (COXETER_TYPES, coxeter_arrangement) live in builtin,
which the command line loads for --coxeter without the solver, and are
re-exported here.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from . import lattice
from .builtin import COXETER_TYPES, coxeter_arrangement  # COXETER_TYPES is re-exported
from .dermod import delta, exponent_pair
from .errors import (
    HypothesisViolated,
    NotArrangementPreserving,
    OffsetTooLarge,
)
from .lattice import Multiplicity
from .poly import Arrangement, LinearForm
from .record import Frozen, set_field


class GroupElement(Frozen):
    """A nonsingular 2x2 matrix mapping the arrangement's lines to lines.

    The induced permutation (entry i holds the index of the image line of
    line i) is computed, not assumed; construction fails if any line is
    not carried to another line of the arrangement.
    """

    __slots__ = _fields = ("matrix", "perm")

    def __init__(self, matrix: Tuple[Tuple[object, ...], ...], perm: Tuple[int, ...]):
        set_field(self, "matrix", matrix)
        set_field(self, "perm", perm)

    @classmethod
    def make(cls, A: Arrangement, matrix: Sequence[Sequence]) -> "GroupElement":
        fs = A.field
        m = tuple(tuple(fs.coerce(v) for v in row) for row in matrix)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if not det:
            raise NotArrangementPreserving("matrix is singular")
        inv_det = 1 / det
        minv = ((m[1][1] * inv_det, -m[0][1] * inv_det),
                (-m[1][0] * inv_det, m[0][0] * inv_det))
        perm = []
        for lf in A.forms:
            # the image form is alpha composed with the inverse matrix
            a = lf.a * minv[0][0] + lf.b * minv[1][0]
            b = lf.a * minv[0][1] + lf.b * minv[1][1]
            image = LinearForm.make(fs, a, b)
            for j, other in enumerate(A.forms):
                if image.proportional(other):
                    perm.append(j)
                    break
            else:
                raise NotArrangementPreserving(
                    f"the image of line {A.name_of(len(perm))} is not in the arrangement")
        if len(set(perm)) != len(perm):
            raise NotArrangementPreserving("induced map on lines is not a permutation")
        return cls(m, tuple(perm))

    def compose(self, A: Arrangement, other: "GroupElement") -> "GroupElement":
        a, b = self.matrix, other.matrix
        prod = tuple(
            tuple(sum((a[i][k] * b[k][j] for k in range(2)), A.field.zero())
                  for j in range(2))
            for i in range(2))
        return GroupElement.make(A, prod)


def act(sigma: GroupElement, mu: Multiplicity) -> Multiplicity:
    """Permuted multiplicity: the image line inherits the weight of its source."""
    out = [0] * len(mu)
    for i, m in enumerate(mu):
        out[sigma.perm[i]] = m
    return tuple(out)


def standard_generators(A: Arrangement, ctype: str) -> List[GroupElement]:
    """The two standard reflections generating the type's reflection group."""
    ctype = ctype.upper().replace("X", "")
    fs = A.field
    refl_x = ((-1, 0), (0, 1))
    if ctype in ("A1A1",):
        gens = [refl_x, ((1, 0), (0, -1))]
    elif ctype == "A2":
        # reflections swapping the lines y, x+y and the lines x, y
        gens = [((-1, 0), (1, 1)), ((0, -1), (-1, 0))]
    elif ctype == "B2":
        # reflections in ker(x) and ker(x - y)
        gens = [refl_x, ((0, 1), (1, 0))]
    elif ctype == "G2":
        half = fs.one() / 2
        s3half = fs.sqrt_element() * half
        # reflections in ker(x) and ker(s3*x - y)
        gens = [refl_x, ((-half, s3half), (s3half, half))]
    else:
        raise ValueError(f"unknown Coxeter type {ctype!r}")
    return [GroupElement.make(A, g) for g in gens]


# the most elements group_closure builds; the groups here are small dihedral
CLOSURE_LIMIT = 256


def group_closure(A: Arrangement, generators: Sequence[GroupElement]) -> List[GroupElement]:
    """All products of the generators."""
    seen = {g.perm: g for g in generators}
    ident = GroupElement.make(A, ((1, 0), (0, 1)))
    seen.setdefault(ident.perm, ident)
    frontier = list(seen.values())
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                gh = g.compose(A, h)
                if gh.perm not in seen:
                    seen[gh.perm] = gh
                    nxt.append(gh)
        frontier = nxt
        if len(seen) > CLOSURE_LIMIT:
            raise NotArrangementPreserving("group closure did not terminate")
    return list(seen.values())


def moves_every_line(A: Arrangement, group: Sequence[GroupElement]) -> bool:
    """True if every line is moved by some group element."""
    n = len(A)
    return all(any(g.perm[i] != i for g in group) for i in range(n))


def check_delta_invariance(A: Arrangement, generators: Sequence[GroupElement],
                           box: lattice.Box) -> Verdict:
    """The gap is constant along group orbits: each point of the box against
    its image under each generator, read off one scan of the smallest box
    that holds the box and every generator's image of it."""
    from .explorer import scan  # here, so that a single solve never loads the scan layer
    from .theorems import Verdict

    images = [act(g, box) for g in generators]
    table = scan(A, tuple(max(bounds) for bounds in zip(box, *images))).table
    witnesses = [{"mu": mu, "image": nu, "delta_mu": table[mu], "delta_image": table[nu]}
                 for mu in lattice.box_points(box) for g in generators
                 for nu in [act(g, mu)] if table[mu] != table[nu]]
    status = "fail" if witnesses else "pass"
    checked = len(generators) * math.prod(b + 1 for b in box)
    return Verdict("gap-invariance", status, witnesses, {"checked": checked})


def symmetric_peak_certificate(A: Arrangement, group: Sequence[GroupElement],
                               mu: Multiplicity, nu: Multiplicity,
                               kappa: Multiplicity,
                               printed_second_hypothesis: bool = False) -> Verdict:
    """Certify that an invariant point is a finite-component center.

    Hypotheses: no line is fixed by the whole group; mu is group-invariant;
    nu dominates every cover of mu; kappa is below every co-cover of mu;
    and the gap drop to nu beats distance(mu, nu) - 4.  The companion
    condition on kappa is taken in the symmetric form (gap drop from mu to
    kappa beats distance(mu, kappa) - 4) by default; the printed variant
    compares kappa against nu instead and is available behind a flag, as
    the two disagree (details record which was used).  The emitted
    certificate is cross-verified against a local scan.
    """
    from .theorems import Verdict

    mu, nu, kappa = tuple(mu), tuple(nu), tuple(kappa)
    if not moves_every_line(A, group):
        raise HypothesisViolated("some line is fixed by the whole group")
    for g in group:
        if act(g, mu) != mu:
            raise HypothesisViolated(f"mu is not invariant under {g.perm}")
    n = len(mu)
    for i in range(n):
        cover = mu[:i] + (mu[i] + 1,) + mu[i + 1:]
        if not lattice.leq(cover, nu):
            raise HypothesisViolated(f"nu must dominate the cover of mu at index {i}")
    for i in range(n):
        if mu[i] > 0:
            cocover = mu[:i] + (mu[i] - 1,) + mu[i + 1:]
            if not lattice.leq(kappa, cocover):
                raise HypothesisViolated(f"kappa must sit below the co-cover of mu at index {i}")
    d_mu = delta(A, mu)
    if d_mu == 0:
        raise HypothesisViolated("mu has gap 0, so it is outside the support")
    d_nu = delta(A, nu)
    d_kappa = delta(A, kappa)
    if not d_mu - d_nu > lattice.distance(mu, nu) - 4:
        raise HypothesisViolated("gap drop towards nu is too small")
    if printed_second_hypothesis:
        ok = d_kappa - d_nu > lattice.distance(kappa, nu) - 4
        variant = "printed"
    else:
        ok = d_mu - d_kappa > lattice.distance(mu, kappa) - 4
        variant = "symmetric"
    if not ok:
        raise HypothesisViolated(f"gap condition on kappa fails ({variant} form)")
    # cross-verify locally: inside the certified ball the gap must fall off
    # linearly with the distance from mu, and vanish on the sphere
    box = tuple(m + d_mu + 1 for m in mu)
    witnesses = []
    for p in lattice.ball(mu, d_mu + 1, box):
        dist = lattice.distance(mu, p)
        want = max(d_mu - dist, 0)
        got = delta(A, p)
        if got != want:
            witnesses.append({"point": p, "delta": got, "want": want})
    status = "fail" if witnesses else "pass"
    return Verdict("symmetric-peak", status, witnesses, {
        "center": mu, "radius": d_mu, "second_hypothesis_form": variant,
    })


class NearConstantResult(Frozen):
    __slots__ = _fields = ("nu", "predicted", "printed_formula", "computed", "formulas_agree",
                           "verdict")

    def __init__(self, nu: Multiplicity, predicted: Tuple[int, int],
                 printed_formula: Tuple[int, int], computed: Tuple[int, int],
                 formulas_agree: bool, verdict: str):
        set_field(self, "nu", nu)
        set_field(self, "predicted", predicted)
        set_field(self, "printed_formula", printed_formula)
        set_field(self, "computed", computed)
        set_field(self, "formulas_agree", formulas_agree)
        set_field(self, "verdict", verdict)  # "match" | "mismatch"


CENTER_GAP = {"B2": 2, "G2": 4}


def near_constant_exponents(ctype: str, k: int, offsets: Sequence[int],
                            A: Optional[Arrangement] = None) -> NearConstantResult:
    """Exponents near the odd constant multiplicity, predicted vs computed.

    The prediction comes from the gap-distance law around the center
    (2k+1, ..., 2k+1); the printed closed-form
    ((|A|k + 1 + sum|i|, |A|k + |A| - 1)) is reported alongside, and
    provably coincides for nonnegative offsets.  The solver is the
    arbiter whenever the two disagree.
    """
    ctype = ctype.upper()
    if ctype not in CENTER_GAP:
        raise HypothesisViolated(f"near-constant formulas exist only for B2 and G2, not {ctype!r}")
    if A is None:
        A = coxeter_arrangement(ctype)
    n = len(A)
    offsets = tuple(offsets)
    if len(offsets) != n:
        raise OffsetTooLarge(f"expected {n} offsets")
    s = sum(abs(i) for i in offsets)
    if s >= n:
        raise OffsetTooLarge(f"offset weight {s} must be below {n}")
    nu = tuple(2 * k + 1 + i for i in offsets)
    if any(v < 0 for v in nu):
        raise OffsetTooLarge(f"offsets push {nu} below zero")
    gap_c = CENTER_GAP[ctype]
    total = sum(nu)
    gap_pred = abs(gap_c - s)
    predicted = ((total - gap_pred) // 2, (total + gap_pred) // 2)
    printed = (n * k + 1 + s, n * k + n - 1)
    computed = exponent_pair(A, nu)
    return NearConstantResult(
        nu=nu,
        predicted=predicted,
        printed_formula=printed,
        computed=computed,
        formulas_agree=(predicted == printed),
        verdict="match" if computed == predicted else "mismatch",
    )
