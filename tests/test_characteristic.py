"""Exponents over prime fields against characteristic 0.

Reducing an arrangement mod p can change its exponents.  These tests pin
how often that happens on small windows of B2 and A2.  Over Q, the tests
find no balanced multiplicity (2*mu_H <= |mu| for every H) on three lines
with a gap above one, on A2 and on seeded random triples of lines; over F_3,
F_5 and F_7, A2 has such points.

A prime p that does not divide the content c of det(t1, t2), for the walk's
primitive basis over Q, cannot change the exponents: the reductions mod p
of t1 and t2 stay in the module (Gauss's lemma) and keep a nonzero
determinant, so Saito's criterion makes them a basis over F_p.  The
converse fails: some points with p | c keep their exponents.
"""

import math
import random

import pytest

from multilattice import dermod, lattice
from multilattice.coxeter import coxeter_arrangement
from multilattice.dermod import exponents
from multilattice.errors import ProportionalForms
from multilattice.field import FieldSpec
from multilattice.poly import Arrangement


def _pair(A, mu):
    res = exponents(A, mu)
    return res.d1, res.d2


@pytest.mark.parametrize("p,differ", [(3, 181), (5, 65), (7, 5)])
def test_b2_exponents_mod_p_differ_from_q_at_known_counts(p, differ):
    Q, Fp = coxeter_arrangement("B2"), coxeter_arrangement("B2", FieldSpec.prime(p))
    points = list(lattice.box_points((4,) * 4))
    assert len(points) == 625
    assert sum(_pair(Fp, mu) != _pair(Q, mu) for mu in points) == differ


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


def _determinant_content(A, mu):
    """The content of det(t1, t2) for the walk's basis at mu over Q, each
    generator made primitive."""
    walk = dermod._walk(A)
    t1, d1, t2, d2 = walk.basis(mu)
    t1, t2 = walk.dom.primitive(t1), walk.dom.primitive(t2)
    det = [0] * (d1 + d2 + 1)
    walk.dom.convolve(det, t1[:d1 + 1], t2[d2 + 1:], 1)
    walk.dom.convolve(det, t2[:d2 + 1], t1[d1 + 1:], -1)
    return math.gcd(*det)


@pytest.mark.parametrize("ctype,box,unexplained", [
    ("B2", (4,) * 4, {3: 34, 5: 0, 7: 4}),
    ("A2", (6,) * 3, {3: 16, 5: 6, 7: 0}),
], ids=["B2", "A2"])
def test_a_prime_not_dividing_the_determinant_content_keeps_the_exponents(ctype, box,
                                                                          unexplained):
    Q = coxeter_arrangement(ctype)
    points = list(lattice.box_points(box))
    content = {mu: _determinant_content(Q, mu) for mu in points}
    for p, count in unexplained.items():
        Fp = coxeter_arrangement(ctype, FieldSpec.prime(p))
        differ = {mu for mu in points if _pair(Fp, mu) != _pair(Q, mu)}
        divides = {mu for mu in points if content[mu] % p == 0}
        assert differ <= divides, (p, sorted(differ - divides)[:5])
        # p | c without a change in the exponents: the bound is not exact
        assert len(divides - differ) == count, p
