"""Lattice layer: metric and order properties, balls, chains, transport factor."""

import pytest
from hypothesis import given, strategies as st

from multilattice import lattice
from multilattice.errors import LengthMismatch
from multilattice.poly import HomogPoly
from helpers import NotComparable, chain_steps, downalpha, form_poly, saturated_chain

mults = st.lists(st.integers(0, 6), min_size=1, max_size=5)


def pair_of_mults(draw_len=st.integers(1, 5)):
    return draw_len.flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 6), min_size=n, max_size=n),
            st.lists(st.integers(0, 6), min_size=n, max_size=n)))


@given(pair_of_mults())
def test_distance_metric_axioms(pair):
    mu, nu = map(tuple, pair)
    assert lattice.distance(mu, nu) == lattice.distance(nu, mu) >= 0
    assert lattice.distance(mu, mu) == 0
    assert (lattice.distance(mu, nu) == 0) == (mu == nu)


@given(pair_of_mults())
def test_meet_join_lattice_laws(pair):
    mu, nu = map(tuple, pair)
    meet, join = lattice.meet_join(mu, nu)
    assert lattice.leq(meet, mu) and lattice.leq(meet, nu)
    assert lattice.leq(mu, join) and lattice.leq(nu, join)
    # modular identity specializes to |meet| + |join| = |mu| + |nu|
    assert sum(meet) + sum(join) == sum(mu) + sum(nu)
    # distance through meet and join equals the direct distance
    assert lattice.distance(mu, meet) + lattice.distance(meet, nu) == lattice.distance(mu, nu)


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        lattice.distance((1, 2), (1, 2, 3))


def test_box_points_count_and_order():
    pts = list(lattice.box_points((1, 2)))
    assert len(pts) == 2 * 3
    assert pts == sorted(pts)  # lexicographic


def test_covering_neighbors_structure():
    nbrs = lattice.covering_neighbors((0, 2), (2, 2))
    assert ((1, 2), 0, +1) in nbrs
    assert ((0, 1), 1, -1) in nbrs
    assert all(lattice.distance((0, 2), n) == 1 for n, _h, _d in nbrs)
    # box truncation: no neighbor above the bound or below zero
    assert ((0, 3), 1, +1) not in nbrs


def classify_point(mu):
    """("cone", H) if one hyperplane dominates, else ("balanced", None)."""
    h = lattice.cone_index(mu)
    return ("balanced", None) if h is None else ("cone", h)


@given(mults)
def test_cone_classification(mu):
    mu = tuple(mu)
    h = lattice.cone_index(mu)
    total = sum(mu)
    if h is None:
        assert all(2 * m <= total for m in mu)
        assert lattice.is_balanced(mu)
        assert classify_point(mu) == ("balanced", None)
    else:
        assert 2 * mu[h] > total
        assert classify_point(mu) == ("cone", h)


@given(st.lists(st.integers(0, 4), min_size=2, max_size=4), st.integers(0, 4))
def test_ball_is_strict_and_complete(center, radius):
    center = tuple(center)
    box = tuple(c + radius + 1 for c in center)
    ball = set(lattice.ball(center, radius, box))
    brute = {p for p in lattice.box_points(box)
             if lattice.distance(center, p) < radius}
    assert ball == brute


def test_saturated_chain_and_steps():
    chain = saturated_chain((0, 1), (2, 2))
    assert chain == [(0, 1), (1, 1), (2, 1), (2, 2)]
    assert chain_steps(chain) == [0, 0, 1]
    with pytest.raises(NotComparable):
        saturated_chain((1, 0), (0, 5))
    with pytest.raises(NotComparable):
        chain_steps([(0, 0), (1, 1)])  # not a covering step


def test_downalpha_collects_descent_forms(B2):
    chain = [(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1)]
    # deltas drop on the first step only: the factor is the step form x
    factor = downalpha(B2, chain, [2, 1, 2])
    assert factor == form_poly(B2.forms[0])
    # no descents: factor is 1
    assert downalpha(B2, chain, [0, 1, 2]) == HomogPoly.one(B2.field)
    with pytest.raises(LengthMismatch):
        downalpha(B2, chain, [1, 2])


def test_parse_format_roundtrip():
    assert lattice.parse_multiplicity("1, 2,3", 3) == (1, 2, 3)
    assert lattice.format_multiplicity((1, 2, 3)) == "1,2,3"
    with pytest.raises(LengthMismatch):
        lattice.parse_multiplicity("1,2", 3)
    with pytest.raises(ValueError):
        lattice.parse_multiplicity("1,-2,3", 3)
