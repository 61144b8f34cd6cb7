"""Sweep the exponent gap over a box and dissect its support.

The scan tabulates the gap delta = d2 - d1, one int per point, over a
finite window of the multiplicity lattice from the lattice walk
(dermod.delta); it builds no generator.  Freeness gives d1 + d2 = |mu|, so
the gap fixes both exponents, (|mu| -+ delta) / 2: the scan file and the
CSV write them from it, and from_json checks them before it keeps the gap.
The support (points with delta > 0) restricted to the window decomposes
into connected components of the Hasse graph; components are classified as
certified finite balls, cone portions, or boundary-undetermined when
neither certificate applies.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Optional, Tuple

from . import lattice
from .errors import ParseError, PreconditionViolated
from .lattice import Box, Multiplicity
from .poly import Arrangement
from .record import Frozen, Record, set_field

SCAN_SCHEMA = 1


def _exponents_of(mu: Multiplicity, gap: int) -> Tuple[int, int]:
    """(d1, d2) from the gap: freeness gives d1 + d2 = |mu|."""
    total = sum(mu)
    return (total - gap) // 2, (total + gap) // 2


class ScanResult(Frozen):
    """The gap at every point of a box: table maps mu to delta(mu).

    Immutable; components() builds its support's components on first use and
    keeps them here.
    """

    __slots__ = ("arrangement", "box", "table", "_components")
    _fields = ("arrangement", "box", "table")

    def __init__(self, arrangement: Arrangement, box: Box, table: Dict[Multiplicity, int]):
        set_field(self, "arrangement", arrangement)
        set_field(self, "box", box)
        set_field(self, "table", table)
        set_field(self, "_components", None)

    def support(self) -> List[Multiplicity]:
        return [mu for mu in sorted(self.table) if self.table[mu] > 0]

    def to_json(self) -> str:
        rows = [{"mu": list(mu), "d1": d1, "d2": d2, "delta": gap}
                for mu, gap in sorted(self.table.items())
                for d1, d2 in [_exponents_of(mu, gap)]]
        obj = {
            "schema": SCAN_SCHEMA,
            "arrangement": self.arrangement.to_json(),
            "arrangement_hash": self.arrangement.canonical_hash(),
            "box": list(self.box),
            "points": rows,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScanResult":
        """Parse scan JSON; anything malformed raises ParseError, as does a
        row whose exponents break d1 + d2 = |mu|, delta = d2 - d1 or
        0 <= d1 <= d2, a negative box bound, and an arrangement_hash that is
        not the parsed arrangement's canonical_hash.

        Older versions flagged cone rows as estimates; the flag is ignored,
        since those rows hold the exact closed form (|mu| - mu_H, mu_H).
        """
        try:
            obj = json.loads(text)
        # ValueError: malformed JSON or an integer past the interpreter's
        # digit limit; RecursionError: nesting too deep to parse
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"scan file is not JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ParseError("scan file must hold a JSON object")
        if obj.get("schema") != SCAN_SCHEMA:
            raise ParseError(f"unsupported scan schema {obj.get('schema')!r}")
        try:
            A = Arrangement.from_json(obj["arrangement"])
            if obj["arrangement_hash"] != A.canonical_hash():
                raise ValueError("arrangement_hash does not match the arrangement")
            points = obj["points"]
            if not isinstance(points, list):
                raise TypeError(f"points must be a list, got {type(points).__name__}")
            table = {}
            for row in points:
                d1, d2, dlt = _int_tuple([row["d1"], row["d2"], row["delta"]])
                mu = _int_tuple(row["mu"])
                if d1 + d2 != sum(mu) or dlt != d2 - d1 or not 0 <= d1 <= d2:
                    raise ValueError(f"exponents ({d1}, {d2}, delta {dlt}) do not fit mu={mu}")
                table[mu] = dlt
            box = _int_tuple(obj["box"])
            if any(b < 0 for b in box):
                raise ValueError(f"box bounds must be non-negative, got {list(box)}")
        except KeyError as exc:
            raise ParseError(f"scan file lacks the key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed scan file: {exc}") from exc
        # the counts first: a huge box with few rows must not be enumerated
        if (len(box) != len(A) or len(table) != len(points)
                or len(points) != math.prod(b + 1 for b in box)
                or set(table) != set(lattice.box_points(box))):
            raise ParseError("scan rows must list every point of the box once")
        return cls(A, box, table)


def _int_tuple(vals) -> Tuple[int, ...]:
    if not isinstance(vals, list) or any(type(v) is not int for v in vals):
        raise TypeError(f"expected a list of integers, got {vals!r}")
    return tuple(vals)


_WORKER_ARRANGEMENT: Optional[Arrangement] = None


def _init_worker(A: Arrangement) -> None:
    global _WORKER_ARRANGEMENT, _delta
    from .dermod import delta as _delta  # here, since a command that reads a scan never solves

    _WORKER_ARRANGEMENT = A


def _solve_point(mu: Multiplicity) -> int:
    return _delta(_WORKER_ARRANGEMENT, mu)


# A pool worker pays for its fork, its imports and the pickling of its
# gaps, and a walk in box order costs one order-basis step per point, so a
# worker needs this many points to win; fewer are walked in-process.
# Measured crossover, with two workers on a 2-CPU host only: the pool table
# in CHANGES.md.
_MIN_POINTS_PER_WORKER = 2048


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# The most points a scan takes: twice the 2**20 of a B2 [0,31]^4 box.  A
# scan holds every point and its gap in memory, so a larger box is refused
# before any point is made.
MAX_SCAN_POINTS = 1 << 21


def scan(A: Arrangement, box: Box, jobs: int = 1) -> ScanResult:
    """Tabulate the gap over the box, solving every point exactly.

    jobs is an upper bound: the scan starts
    min(jobs, usable CPUs, points // _MIN_POINTS_PER_WORKER) worker
    processes, each walking one contiguous run of the box, and walks
    in-process when that is at most one.  Every point yields its gap only,
    and no generator is built; the table does not depend on jobs.  A box of
    more than MAX_SCAN_POINTS points raises PreconditionViolated.
    """
    if len(box) != len(A):
        raise ValueError("box length must match the arrangement")
    size = math.prod(b + 1 for b in box)
    if size > MAX_SCAN_POINTS:
        raise PreconditionViolated(
            f"the box has {size} points; a scan takes at most {MAX_SCAN_POINTS}")
    points = list(lattice.box_points(box))
    workers = min(jobs, _usable_cpus(), len(points) // _MIN_POINTS_PER_WORKER)
    if workers <= 1:
        _init_worker(A)
        gaps = map(_solve_point, points)
    else:
        # imported here, since only a pool needs multiprocessing: importing
        # it costs every ml process about 25 ms and 2.5 MB
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(A,)) as pool:
            # one contiguous chunk per worker: each roots one walk and steps
            # through the rest of its chunk
            chunk = -(-len(points) // workers)
            gaps = list(pool.map(_solve_point, points, chunksize=chunk))
    return ScanResult(A, box, dict(zip(points, gaps)))


class Component(Record):
    """A connected component of the support within the scan window."""

    __slots__ = _fields = ("members", "kind", "center", "radius", "cone_h", "maximizers",
                           "notes")

    def __init__(self, members: frozenset, kind: str, center: Optional[Multiplicity] = None,
                 radius: Optional[int] = None, cone_h: Optional[int] = None,
                 maximizers: Tuple[Multiplicity, ...] = (), notes: Tuple[str, ...] = ()):
        self.members = members
        self.kind = kind  # "ball" | "cone" | "undetermined"
        self.center = center
        self.radius = radius
        self.cone_h = cone_h
        self.maximizers = maximizers
        self.notes = notes

    def sorted_members(self) -> List[Multiplicity]:
        return sorted(self.members)


def components(scan_result: ScanResult) -> Tuple[Component, ...]:
    """Partition the in-window support into Hasse-connected components,
    built on the scan's first call and kept on it for every later one."""
    comps = scan_result._components
    if comps is None:
        comps = tuple(_classify_component(scan_result, members)
                      for members in lattice.connected_components(scan_result.support(),
                                                                  scan_result.box))
        set_field(scan_result, "_components", comps)
    return comps


def _classify_component(scan_result: ScanResult, members: frozenset) -> Component:
    """A component is a certified ball only around a unique gap maximizer
    whose ball of that radius, wholly inside the box, is the component."""
    table = scan_result.table
    box = scan_result.box
    cone_hs = sorted({h for mu in members
                      for h in [lattice.cone_index(mu)] if h is not None})
    if cone_hs:
        notes = ()
        if len(cone_hs) > 1:
            notes = (f"multiple cone directions {cone_hs}",)
        return Component(members, "cone", cone_h=cone_hs[0], notes=notes)
    radius = max(table[mu] for mu in members)  # the largest gap
    maximizers = tuple(sorted(mu for mu in members if table[mu] == radius))
    center = maximizers[0]
    notes = []
    if len(maximizers) > 1:
        notes.append("multiple maximizers")
    # the closed ball of the certificate radius must fit inside the box so
    # the zero shell is visible; only upper bounds can truncate
    fits = all(center[i] + radius <= box[i] for i in range(len(center)))
    if not fits:
        notes.append("ball certificate margin exceeds the box")
        return Component(members, "undetermined", maximizers=maximizers,
                         notes=tuple(notes))
    if len(maximizers) > 1 or members != frozenset(lattice.ball(center, radius, box)):
        notes.append("ball_mismatch")  # structure violation; must surface in checks
        return Component(members, "undetermined", center=center, radius=radius,
                         maximizers=maximizers, notes=tuple(notes))
    return Component(members, "ball", center=center, radius=radius, maximizers=maximizers)


def centers(scan_result: ScanResult) -> List[Component]:
    """The certified balls: each has its unique gap maximizer as center and
    that gap as radius."""
    return [comp for comp in components(scan_result) if comp.kind == "ball"]


# -- emission ----------------------------------------------------------------

_DOT_PALETTE = [
    "lightblue", "lightpink", "palegreen", "khaki", "lightsalmon",
    "plum", "paleturquoise", "wheat", "lightgray", "mistyrose",
]


def to_dot(scan_result: ScanResult) -> str:
    """DOT rendering of the in-window support Hasse subgraph.

    Components are colored; certified centers are drawn as double circles.
    """
    box = scan_result.box
    table = scan_result.table
    color_of = {mu: _DOT_PALETTE[idx % len(_DOT_PALETTE)]
                for idx, comp in enumerate(components(scan_result)) for mu in comp.members}
    center_set = {comp.center for comp in centers(scan_result)}
    lines = ["graph support {", "  node [style=filled];"]
    nodes = sorted(color_of)
    for mu in nodes:
        label = lattice.format_multiplicity(mu) + f"\\nd={table[mu]}"
        shape = "doublecircle" if mu in center_set else "ellipse"
        lines.append(
            f'  "{lattice.format_multiplicity(mu)}" '
            f'[label="{label}", fillcolor={color_of[mu]}, shape={shape}];')
    for mu in nodes:
        for nu, _h, dirn in lattice.covering_neighbors(mu, box):
            if dirn != +1 or nu not in color_of:
                continue
            lines.append(
                f'  "{lattice.format_multiplicity(mu)}" -- '
                f'"{lattice.format_multiplicity(nu)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_csv(scan_result: ScanResult) -> str:
    """CSV table: mu, d1, d2, delta, component id, classification."""
    comp_id = {}
    comp_kind = {}
    for idx, comp in enumerate(components(scan_result)):
        for mu in comp.members:
            comp_id[mu] = idx
            comp_kind[mu] = comp.kind
    lines = ["mu,d1,d2,delta,component,classification"]
    for mu, gap in sorted(scan_result.table.items()):
        d1, d2 = _exponents_of(mu, gap)
        cid = comp_id.get(mu, "")
        kind = comp_kind.get(mu, "")
        lines.append(
            f"\"{lattice.format_multiplicity(mu)}\",{d1},{d2},{gap},{cid},{kind}")
    return "\n".join(lines) + "\n"
