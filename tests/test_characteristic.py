"""Exponents over prime fields against characteristic 0.

Reducing an arrangement mod p can change its exponents.  These tests pin
how often that happens on small windows of B2 and A2.  Over Q, the tests
find no balanced multiplicity (2*mu_H <= |mu| for every H) on three lines
with a gap above one, on A2 and on seeded random triples of lines; over F_3,
F_5 and F_7, A2 has such points.
"""

import random

import pytest

from multilattice import lattice
from multilattice.coxeter import coxeter_arrangement
from multilattice.dermod import exponents
from multilattice.errors import ProportionalForms
from multilattice.field import FieldSpec
from multilattice.poly import Arrangement


@pytest.mark.parametrize("p,differ", [(3, 181), (5, 65), (7, 5)])
def test_b2_exponents_mod_p_differ_from_q_at_known_counts(p, differ):
    Q, Fp = coxeter_arrangement("B2"), coxeter_arrangement("B2", FieldSpec.prime(p))
    points = list(lattice.box_points((4,) * 4))
    assert len(points) == 625
    assert sum(exponents(Fp, mu).as_pair() != exponents(Q, mu).as_pair()
               for mu in points) == differ


def _balanced_gaps_above_one(A, bound):
    return [mu for mu in lattice.box_points((bound,) * len(A))
            if lattice.is_balanced(mu) and exponents(A, mu).delta > 1]


@pytest.mark.parametrize("p,count", [(3, 22), (5, 45), (7, 10)])
def test_a2_mod_p_has_balanced_points_with_gap_above_one(p, count):
    A = coxeter_arrangement("A2", FieldSpec.prime(p))
    assert len(_balanced_gaps_above_one(A, 6)) == count


def _random_three_lines(rng):
    while True:
        pairs = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3)]
        if all(pair != (0, 0) for pair in pairs):
            try:
                return Arrangement.make(FieldSpec.rational(), pairs)
            except ProportionalForms:
                continue


def test_three_lines_over_q_have_gap_at_most_one_when_balanced():
    assert _balanced_gaps_above_one(coxeter_arrangement("A2"), 8) == []
    rng = random.Random(2007)
    for _ in range(6):
        A = _random_three_lines(rng)
        assert _balanced_gaps_above_one(A, 6) == [], A
