"""The multiplicity lattice: order, distance, balls, cones and chains.

Multiplicities are plain tuples of nonnegative ints, indexed in the
arrangement's hyperplane order.  A box is a tuple of inclusive per-coordinate
upper bounds; it truncates the (infinite) lattice to a finite scan window.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import LengthMismatch, NotComparable, ParseError

Multiplicity = Tuple[int, ...]
Box = Tuple[int, ...]


def _check_lengths(mu: Sequence[int], nu: Sequence[int]) -> None:
    if len(mu) != len(nu):
        raise LengthMismatch(f"lengths {len(mu)} and {len(nu)} differ")


def distance(mu: Multiplicity, nu: Multiplicity) -> int:
    _check_lengths(mu, nu)
    return sum(abs(a - b) for a, b in zip(mu, nu))


def leq(mu: Multiplicity, nu: Multiplicity) -> bool:
    _check_lengths(mu, nu)
    return all(a <= b for a, b in zip(mu, nu))


def meet_join(mu: Multiplicity, nu: Multiplicity) -> Tuple[Multiplicity, Multiplicity]:
    _check_lengths(mu, nu)
    return (tuple(min(a, b) for a, b in zip(mu, nu)),
            tuple(max(a, b) for a, b in zip(mu, nu)))


def box_points(box: Box) -> Iterator[Multiplicity]:
    """All lattice points of the box in lexicographic order."""
    return product(*(range(b + 1) for b in box))


def covering_neighbors(mu: Multiplicity, box: Box) -> List[Tuple[Multiplicity, int, int]]:
    """Neighbors of mu in the Hasse graph restricted to the box.

    Returns (nu, index, direction) with direction +1 for mu covered by nu
    and -1 for nu covered by mu.
    """
    out = []
    for i, (m, b) in enumerate(zip(mu, box)):
        if m + 1 <= b:
            out.append((mu[:i] + (m + 1,) + mu[i + 1:], i, +1))
        if m - 1 >= 0:
            out.append((mu[:i] + (m - 1,) + mu[i + 1:], i, -1))
    return out


def connected_components(points: Sequence[Multiplicity], box: Box) -> List[frozenset]:
    """Components of the Hasse graph induced on the points, in the order of
    their least members."""
    pts = set(points)
    seen = set()
    out = []
    for start in sorted(pts):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        members = []
        while stack:
            mu = stack.pop()
            members.append(mu)
            for nu, _h, _dirn in covering_neighbors(mu, box):
                if nu in pts and nu not in seen:
                    seen.add(nu)
                    stack.append(nu)
        out.append(frozenset(members))
    return out


def cone_index(mu: Multiplicity) -> Optional[int]:
    """Index of the hyperplane carrying more than half the weight, if any."""
    total = sum(mu)
    for i, m in enumerate(mu):
        if 2 * m > total:
            return i
    return None


def is_balanced(mu: Multiplicity) -> bool:
    return cone_index(mu) is None


def ball(mu: Multiplicity, radius: int, box: Box) -> List[Multiplicity]:
    """Lattice points of the box at distance strictly less than radius."""
    if radius <= 0:
        return []
    n = len(mu)
    out: List[Multiplicity] = []

    def rec(i: int, budget: int, acc: Tuple[int, ...]):
        if i == n:
            out.append(acc)
            return
        lo = max(0, mu[i] - budget)
        hi = min(box[i], mu[i] + budget)
        for v in range(lo, hi + 1):
            rec(i + 1, budget - abs(v - mu[i]), acc + (v,))

    rec(0, radius - 1, ())
    return out


def saturated_chain(mu: Multiplicity, nu: Multiplicity) -> List[Multiplicity]:
    """The chain from mu up to nu raising the lowest index first."""
    _check_lengths(mu, nu)
    if not leq(mu, nu):
        raise NotComparable(f"{mu} is not below {nu}")
    chain = [mu]
    cur = list(mu)
    for i in range(len(mu)):
        while cur[i] < nu[i]:
            cur[i] += 1
            chain.append(tuple(cur))
    return chain


def parse_multiplicity(text: str, n: int) -> Multiplicity:
    """Comma-separated naturals in arrangement order; bad text raises ParseError."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise LengthMismatch(f"expected {n} entries, got {len(parts)}")
    try:
        vals = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"multiplicities must be integers: {text}") from exc
    if any(v < 0 for v in vals):
        raise ParseError(f"multiplicities must be nonnegative: {text}")
    return vals


def format_multiplicity(mu: Multiplicity) -> str:
    return ",".join(str(v) for v in mu)


# re-exported for callers that only need the window machinery
__all__ = [
    "Multiplicity", "Box", "distance", "leq", "meet_join",
    "box_points", "covering_neighbors", "connected_components", "cone_index",
    "is_balanced", "ball", "saturated_chain",
    "parse_multiplicity", "format_multiplicity",
]
