"""Reduction of characteristic-0 scalars mod p, for the modular test oracles."""

from fractions import Fraction

from multilattice.errors import BadReduction, FieldMismatch
from multilattice.field import FieldSpec, ModInt, QuadElem, Scalar, is_prime


def sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks; returns a square root of a mod p or raises ValueError."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class Projection:
    """Map scalars of a characteristic-0 field into F_p.

    For a quadratic field, d must be a quadratic residue mod p; the
    smaller of the two square roots is the canonical image of sqrt(d).
    """

    def __init__(self, source: FieldSpec, p: int):
        if source.kind == "prime":
            raise FieldMismatch("source must be characteristic 0")
        if not is_prime(p) or p <= 2:
            raise FieldMismatch(f"p must be an odd prime, got {p}")
        self.source = source
        self.target = FieldSpec.prime(p)
        self.sqrt_image = 0
        if source.kind == "quadratic":
            r = sqrt_mod(source.d % p, p)
            self.sqrt_image = min(r, p - r)

    def __call__(self, s: Scalar) -> ModInt:
        p = self.target.p
        if isinstance(s, int):
            return ModInt(s, p)
        if isinstance(s, Fraction):
            if s.denominator % p == 0:
                raise BadReduction(f"denominator divisible by {p}")
            return ModInt(s.numerator * pow(s.denominator, -1, p), p)
        if isinstance(s, QuadElem):
            if s.d != self.source.d:
                raise FieldMismatch("wrong quadratic field")
            a = self(s.a)
            b = self(s.b)
            return ModInt(a.v + b.v * self.sqrt_image, p)
        raise FieldMismatch(f"cannot project {s!r}")
