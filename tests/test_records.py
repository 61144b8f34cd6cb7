"""The package's record classes: value semantics, immutability, repr and pickling."""

import pickle
from fractions import Fraction as F

import pytest

from multilattice.coxeter import GroupElement, NearConstantResult, coxeter_arrangement
from multilattice.dermod import ExponentResult, SaitoVerdict, exponents
from multilattice.errors import ProportionalForms
from multilattice.explorer import CenterEntry, Component, ScanResult
from multilattice.field import FieldSpec, ModInt, QuadElem
from multilattice.poly import Arrangement, Derivation, HomogPoly, LinearForm
from multilattice.theorems import CandidateMap, Verdict


def _theta():
    return Derivation(HomogPoly((F(1), F(-1, 2))), HomogPoly((F(0), F(3))))


def _boolean():
    return Arrangement.make(FieldSpec.rational(), [(1, 0), (0, 1)], names=["x", "y"])


def _ball():
    return Component(frozenset({(1, 1)}), "ball", center=(1, 1), radius=1, maximizers=((1, 1),))


_THETA = ("Derivation(P=HomogPoly(coeffs=(Fraction(1, 1), Fraction(-1, 2))), "
          "Q=HomogPoly(coeffs=(Fraction(0, 1), Fraction(3, 1))))")
_BOOLEAN = ("Arrangement(field=FieldSpec(kind='rational', d=0, p=0), "
            "forms=(LinearForm(a=Fraction(1, 1), b=Fraction(0, 1)), "
            "LinearForm(a=Fraction(0, 1), b=Fraction(1, 1))), names=('x', 'y'))")
_BALL = ("Component(members=frozenset({(1, 1)}), kind='ball', center=(1, 1), radius=1, "
         "cone_h=None, maximizers=((1, 1),), notes=())")

# name -> (constructor call, frozen, hashable, the repr the generated classes printed)
RECORDS = {
    "QuadElem": (lambda: QuadElem(F(1, 2), F(-3), 5), True, True, "(1/2 + -3*sqrt(5))"),
    "ModInt": (lambda: ModInt(12, 7), True, True, "5 (mod 7)"),
    "FieldSpec": (lambda: FieldSpec("prime", p=7), True, True,
                  "FieldSpec(kind='prime', d=0, p=7)"),
    "LinearForm": (lambda: LinearForm(F(1), F(-1)), True, True,
                   "LinearForm(a=Fraction(1, 1), b=Fraction(-1, 1))"),
    "Arrangement": (_boolean, True, True, _BOOLEAN),
    "HomogPoly": (lambda: HomogPoly((F(1), F(2))), True, True,
                  "HomogPoly(coeffs=(Fraction(1, 1), Fraction(2, 1)))"),
    "Derivation": (_theta, True, True, _THETA),
    "ExponentResult": (lambda: ExponentResult(1, 1, _theta()), True, True,
                       f"ExponentResult(d1=1, d2=1, theta_min={_THETA})"),
    "SaitoVerdict": (lambda: SaitoVerdict(True, None, F(2)), True, True,
                     "SaitoVerdict(accepted=True, reason=None, scalar=Fraction(2, 1))"),
    "GroupElement": (lambda: GroupElement(((F(0), F(1)), (F(1), F(0))), (1, 0)), True, True,
                     "GroupElement(matrix=((Fraction(0, 1), Fraction(1, 1)), "
                     "(Fraction(1, 1), Fraction(0, 1))), perm=(1, 0))"),
    "NearConstantResult": (
        lambda: NearConstantResult((3, 3, 3, 4), (6, 7), (6, 7), (6, 7), True, "match"),
        True, True,
        "NearConstantResult(nu=(3, 3, 3, 4), predicted=(6, 7), printed_formula=(6, 7), "
        "computed=(6, 7), formulas_agree=True, verdict='match')"),
    "ScanResult": (lambda: ScanResult(_boolean(), (0, 0), {(0, 0): 0}),
                   False, False,
                   f"ScanResult(arrangement={_BOOLEAN}, box=(0, 0), "
                   "table={(0, 0): 0}, timing={})"),
    "Component": (_ball, False, False, _BALL),
    # frozen, but a Component field makes it unhashable, as a CandidateMap's dict does
    "CenterEntry": (lambda: CenterEntry(_ball(), (1, 1), 1), True, False,
                    f"CenterEntry(component={_BALL}, center=(1, 1), delta=1, error=None)"),
    "Verdict": (lambda: Verdict("ball-structure", "fail", [{"point": (1, 1)}], {"checked": 2}),
                False, False,
                "Verdict(name='ball-structure', status='fail', witnesses=[{'point': (1, 1)}], "
                "details={'checked': 2})"),
    "CandidateMap": (lambda: CandidateMap({(1, 1): _theta()}), True, False,
                     f"CandidateMap(assignment={{(1, 1): {_THETA}}})"),
}
# these keep an instance __dict__ for their cached_property values
_CACHED = {"LinearForm", "Arrangement", "Derivation"}


@pytest.mark.parametrize("name", RECORDS)
def test_record_class_semantics(name):
    make, frozen, hashable, text = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert a != (object(),) and (a == object()) is False
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    field = type(a)._fields[0]
    if frozen:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        with pytest.raises(AttributeError):
            a.no_such_field = 1
    else:
        setattr(a, field, getattr(b, field))
    assert hasattr(a, "__dict__") == (name in _CACHED)
    assert repr(a) == text
    c = pickle.loads(pickle.dumps(a))
    assert type(c) is type(a) and c == a and repr(c) == text


def test_pickled_derivation_keeps_its_cached_images():
    theta = _theta()
    _, p, q = theta.values
    _, cp, cq, den = theta.cleared
    back = pickle.loads(pickle.dumps(theta))
    assert {"cleared", "values"} <= set(vars(back))
    assert back.values[1:] == (p, q) and back.cleared[1:] == (cp, cq, den)
    assert back == theta and hash(back) == hash(theta)


@pytest.mark.parametrize("ctype,fs,mu", [
    ("G2", None, (2, 1, 2, 1, 2, 1)),  # QuadElem coefficients
    ("B2", FieldSpec.prime(7), (3, 2, 2, 1)),  # ModInt coefficients
    ("B2", None, (5, 4, 6, 2)),
])
def test_exponent_results_survive_the_pool_transport(ctype, fs, mu):
    A = coxeter_arrangement(ctype, fs)
    res = exponents(A, mu)
    res.theta_min.values  # a pool worker's result may carry filled caches
    back = pickle.loads(pickle.dumps(res))
    assert back == res and hash(back) == hash(res)
    assert back.theta_min.format(A.field) == res.theta_min.format(A.field)


def test_constructors_keep_their_checks_and_canonical_forms():
    assert ModInt(-1, 7).v == 6 and ModInt(13, 7) == ModInt(6, 7)
    q = QuadElem(1, 2, 3)
    assert (type(q.a), type(q.b)) == (F, F) and q == QuadElem(F(1), F(2), 3)
    with pytest.raises(ProportionalForms):
        Arrangement.make(FieldSpec.rational(), [(1, 1), (2, 2)])
    with pytest.raises(ValueError):
        Arrangement(FieldSpec.rational(), ())
    with pytest.raises(ValueError):
        Derivation(HomogPoly((F(1),)), HomogPoly((F(1), F(1))))
    assert Derivation(HomogPoly((F(1),))).Q == HomogPoly() == Derivation().P
    assert FieldSpec("rational") == FieldSpec.rational() and FieldSpec("prime", p=7).d == 0
    assert ScanResult(_boolean(), (0, 0), {}).timing == {}
    assert Verdict("x", "pass").witnesses == [] and Verdict("x", "pass").details == {}
