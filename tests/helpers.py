"""Library code that only the tests call: reference predicates and
enumerations the production paths do not need."""

from itertools import product
from typing import Sequence

from multilattice.errors import LengthMismatch
from multilattice.field import FieldSpec, invert
from multilattice.lattice import Multiplicity, chain_steps
from multilattice.poly import Arrangement, Derivation, HomogPoly


def euler(fs: FieldSpec) -> Derivation:
    """The Euler derivation x*dx + y*dy."""
    one, z = fs.one(), fs.zero()
    return Derivation(HomogPoly((z, one)), HomogPoly((one, z)))


def proportional_derivations(t1: Derivation, t2: Derivation) -> bool:
    """True if one is a scalar multiple of the other (zero counts), in
    field arithmetic: the oracle for poly.proportional."""
    if t1.is_zero or t2.is_zero:
        return True
    if t1.degree != t2.degree:
        return False
    f1, f2 = t1._flat(), t2._flat()
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


def downalpha(A: Arrangement, chain: Sequence[Multiplicity],
              delta_vals: Sequence[int]) -> HomogPoly:
    """Product of the step forms over the steps where delta decreases."""
    if len(delta_vals) != len(chain):
        raise LengthMismatch("one delta value per chain element required")
    out = HomogPoly.one(A.field)
    for idx, h in enumerate(chain_steps(chain)):
        if delta_vals[idx] > delta_vals[idx + 1]:
            out = out * HomogPoly.from_linear_form(A.forms[h])
    return out


def enumerate_offsets(n: int, max_weight: int, signed: bool = False):
    """All offset vectors with L1 weight at most max_weight."""
    rng = range(-max_weight, max_weight + 1) if signed else range(max_weight + 1)
    for combo in product(rng, repeat=n):
        if sum(abs(v) for v in combo) <= max_weight:
            yield combo
