"""Built-in Coxeter arrangements, group action, certificates, formulas."""

import pytest

from multilattice import coxeter, dermod, lattice
from multilattice.coxeter import (
    GroupElement,
    act,
    check_delta_invariance,
    coxeter_arrangement,
    group_closure,
    moves_every_line,
    near_constant_exponents,
    standard_generators,
    symmetric_peak_certificate,
)
from multilattice.dermod import delta
from multilattice.errors import (
    FieldMismatch,
    HypothesisViolated,
    NotArrangementPreserving,
    OffsetTooLarge,
)
from multilattice.field import FieldSpec
from helpers import enumerate_offsets


def test_arrangement_shapes():
    assert len(coxeter_arrangement("A1A1")) == 2
    assert len(coxeter_arrangement("A2")) == 3
    assert len(coxeter_arrangement("B2")) == 4
    assert len(coxeter_arrangement("G2")) == 6
    with pytest.raises(ValueError):
        coxeter_arrangement("H2")


def test_g2_needs_the_radical():
    with pytest.raises(FieldMismatch):
        coxeter_arrangement("G2", FieldSpec.rational())
    assert coxeter_arrangement("G2").field == FieldSpec.quadratic(3)


def test_group_element_must_preserve_lines(B2):
    with pytest.raises(NotArrangementPreserving):
        GroupElement.make(B2, ((1, 2), (0, 1)))  # shear: not a symmetry
    with pytest.raises(NotArrangementPreserving):
        GroupElement.make(B2, ((1, 1), (1, 1)))  # singular


def test_standard_generators_are_involutions(B2, G2):
    for A, ctype in [(B2, "B2"), (G2, "G2")]:
        for g in standard_generators(A, ctype):
            gg = g.compose(A, g)
            assert gg.perm == tuple(range(len(A)))


def test_group_closure_orders(B2, G2):
    # the faithful action on lines: the dihedral group modulo its center
    assert len(group_closure(B2, standard_generators(B2, "B2"))) == 4
    assert len(group_closure(G2, standard_generators(G2, "G2"))) == 6
    # both reflections of A1A1 fix both of its lines
    A1A1 = coxeter_arrangement("A1A1")
    assert len(group_closure(A1A1, standard_generators(A1A1, "A1A1"))) == 1


def test_every_line_moved(B2, G2):
    for A, ctype in [(B2, "B2"), (G2, "G2")]:
        group = group_closure(A, standard_generators(A, ctype))
        assert moves_every_line(A, group)


def test_act_is_a_group_action(B2):
    gens = standard_generators(B2, "B2")
    mu = (0, 1, 2, 3)
    for g in gens:
        assert sorted(act(g, mu)) == sorted(mu)
        # acting twice with an involution restores mu
        assert act(g, act(g, mu)) == mu


def test_delta_invariance(B2, G2):
    v = check_delta_invariance(B2, standard_generators(B2, "B2"),
                               (2, 2, 2, 2))
    assert v.passed
    v = check_delta_invariance(G2, standard_generators(G2, "G2"),
                               (1, 1, 1, 1, 1, 1))
    assert v.passed


@pytest.mark.parametrize("ctype,box", [("B2", (1, 2, 3, 0)), ("G2", (2, 1, 0, 1, 0, 0)),
                                      ("A2", (3, 0, 1))])
def test_delta_invariance_matches_the_pointwise_walk(ctype, box, monkeypatch):
    # the check reads its gaps off one scan of a box that holds every
    # image; against the point-by-point solves it replaced, with the gap at
    # the box's top corner raised by one, so that witnesses appear
    A = coxeter_arrangement(ctype)
    gens = standard_generators(A, ctype)
    real = dermod.delta
    monkeypatch.setattr(dermod, "delta", lambda A, mu: real(A, mu) + (tuple(mu) == box))
    witnesses, checked = [], 0
    for mu in lattice.box_points(box):
        for g in gens:
            nu = act(g, mu)
            checked += 1
            d_mu, d_nu = dermod.delta(A, mu), dermod.delta(A, nu)
            if d_mu != d_nu:
                witnesses.append({"mu": mu, "image": nu, "delta_mu": d_mu, "delta_image": d_nu})
    assert any(act(g, box) != box for g in gens) and witnesses
    v = check_delta_invariance(A, gens, box)
    assert (v.status, v.witnesses, v.details) == ("fail", witnesses, {"checked": checked})


def test_delta_invariant_under_full_group(G2):
    group = group_closure(G2, standard_generators(G2, "G2"))
    mu = (2, 0, 1, 1, 0, 2)
    vals = {delta(G2, act(g, mu)) for g in group}
    assert len(vals) == 1


# -- symmetric-peak certificate -----------------------------------------------


def test_peak_certificate_b2(B2):
    group = group_closure(B2, standard_generators(B2, "B2"))
    v = symmetric_peak_certificate(B2, group, (1, 1, 1, 1), (2, 2, 2, 2),
                                   (0, 0, 0, 0))
    assert v.passed
    assert v.details["center"] == (1, 1, 1, 1) and v.details["radius"] == 2


def test_peak_certificate_hypothesis_failures(B2):
    group = group_closure(B2, standard_generators(B2, "B2"))
    with pytest.raises(HypothesisViolated):  # mu not invariant
        symmetric_peak_certificate(B2, group, (1, 2, 1, 1), (2, 2, 2, 2),
                                   (0, 0, 0, 0))
    with pytest.raises(HypothesisViolated):  # nu misses a cover of mu
        symmetric_peak_certificate(B2, group, (1, 1, 1, 1), (2, 2, 2, 0),
                                   (0, 0, 0, 0))
    with pytest.raises(HypothesisViolated):  # kappa above a co-cover
        symmetric_peak_certificate(B2, group, (1, 1, 1, 1), (2, 2, 2, 2),
                                   (1, 1, 1, 0))
    with pytest.raises(HypothesisViolated):  # mu outside the support
        symmetric_peak_certificate(B2, group, (2, 2, 2, 2), (3, 3, 3, 3),
                                   (1, 1, 1, 1))
    with pytest.raises(HypothesisViolated, match="gap drop towards nu is too small"):
        # the gap is 2 at both points, 8 apart
        symmetric_peak_certificate(B2, group, (1, 1, 1, 1), (3, 3, 3, 3),
                                   (0, 0, 0, 0))
    # fixing a line: a sub-group generated by one reflection fixes its mirror
    sub = [standard_generators(B2, "B2")[0]]
    with pytest.raises(HypothesisViolated):
        symmetric_peak_certificate(B2, sub, (1, 1, 1, 1), (2, 2, 2, 2),
                                   (0, 0, 0, 0))


def test_peak_certificate_cross_verification_witness(B2, monkeypatch):
    # a gap one too high at one point of the certified ball is its witness
    group = group_closure(B2, standard_generators(B2, "B2"))
    bumped = (1, 1, 1, 2)
    real = coxeter.delta
    monkeypatch.setattr(coxeter, "delta", lambda A, mu: real(A, mu) + (tuple(mu) == bumped))
    v = symmetric_peak_certificate(B2, group, (1, 1, 1, 1), (2, 2, 2, 2),
                                   (0, 0, 0, 0))
    assert v.status == "fail"
    assert v.witnesses == [{"point": bumped, "delta": 2, "want": 1}]


def test_peak_certificate_printed_variant_rejects(B2):
    # the alternative second hypothesis measures the gap drop from kappa
    # instead of from mu; on this example it genuinely fails even though
    # the symmetric default certifies the peak
    group = group_closure(B2, standard_generators(B2, "B2"))
    with pytest.raises(HypothesisViolated):
        symmetric_peak_certificate(B2, group, (1, 1, 1, 1), (2, 2, 2, 2),
                                   (0, 0, 0, 0),
                                   printed_second_hypothesis=True)


# -- near-constant exponent formulas ------------------------------------------


def test_near_constant_center_values():
    r = near_constant_exponents("B2", 1, (0, 0, 0, 0))
    assert r.computed == (5, 7) and r.verdict == "match"
    r = near_constant_exponents("G2", 0, (0, 0, 0, 0, 0, 0))
    assert r.computed == (1, 5) and r.verdict == "match"


def test_near_constant_offset_weight_limits():
    with pytest.raises(OffsetTooLarge):
        near_constant_exponents("B2", 1, (2, 2, 0, 0))  # weight 4 = |A|
    with pytest.raises(OffsetTooLarge):
        near_constant_exponents("B2", 0, (-2, 0, 0, 0))  # nu below zero
    with pytest.raises(OffsetTooLarge):
        near_constant_exponents("B2", 1, (1, 0, 0))  # wrong length
    with pytest.raises(ValueError):
        near_constant_exponents("A2", 1, (0, 0, 0))


def test_near_constant_signed_offsets(B2):
    # mixed signs: the distance law and the printed closed form disagree,
    # and the solver sides with the distance law
    r = near_constant_exponents("B2", 1, (1, -1, -1, 0), A=B2)
    assert r.verdict == "match"
    assert r.predicted == r.computed


def test_enumerate_offsets_counts():
    assert sum(1 for _ in enumerate_offsets(4, 3)) == 35
    assert sum(1 for _ in enumerate_offsets(6, 5)) == 462
    signed = list(enumerate_offsets(2, 1, signed=True))
    assert sorted(signed) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
