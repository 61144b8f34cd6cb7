"""Exact scalar arithmetic for the supported coefficient domains.

Three domains are available:

* rationals, represented by :class:`fractions.Fraction`;
* real quadratic extensions of the rationals, ``a + b*sqrt(d)`` with
  ``a, b`` rational and ``d`` a squarefree integer > 1, represented by
  :class:`QuadElem`;
* prime fields F_p with p an odd prime, represented by :class:`ModInt`;
  results over F_p describe the arrangement over F_p.

QuadElem and ModInt define only what differs per field: coercion of an
operand, sum, product, negation, inverse, truth, equality, hash and repr.
Their common base derives every arithmetic operator from these once,
subtraction as the sum with the negation and division as the product with
the inverse, the reflected forms included.  FieldSpec.coerce lifts an
operand through the coercion of its field's zero element, so coercion is
written once per element class; only the rationals (Fraction has no
_coerce) and the reduction of a Fraction mod p are its own.  FieldSpec
holds the text of a scalar, both its JSON (format_scalar, parse_scalar)
and its display in a printed polynomial (display_scalar), so no other
module tells the fields apart to print one.

This module holds the scalars only.  The exact kernels work on integer
images of them, one domain per field (see linalg.Domain).  All arithmetic
is exact, and no scalar converts to a float.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Union

from .errors import BadReduction, DivisionByZero, FieldMismatch, ParseError
from .record import Frozen, set_field

Scalar = Union[Fraction, "QuadElem", "ModInt"]


# Miller-Rabin with the prime bases up to 41 is proven correct below psi_13
# (Sorenson and Webster, Math. Comp. 86, 2017); psi_13 itself passes them all
PRIME_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# is_squarefree divides by every i up to sqrt(n): a few ms below this bound
SQUAREFREE_BOUND = 10**9


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, for n below PRIME_BOUND (about 3.3e24)."""
    if n >= PRIME_BOUND:
        raise ValueError(f"primality is decided below {PRIME_BOUND} only, got {n}")
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_squarefree(n: int) -> bool:
    """Whether no square above 1 divides n, by trial division up to sqrt(n)."""
    if n < 1:
        return False
    i = 2
    while i * i <= n:
        if n % (i * i) == 0:
            return False
        i += 1
    return True


def _lifted(op):
    """The binary operator op(self, other) with other coerced into self's
    field first, or NotImplemented, for Python to ask the other operand, if
    other is foreign."""
    def method(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else op(self, other)
    return method


class _Element(Frozen):
    """The operators of a field element, written once from what each field
    defines: _coerce (an operand as an element of this field, or
    NotImplemented), _add, _mul, __neg__ and inverse.  Subtraction adds the
    negation and division multiplies by the inverse, on either side."""

    __slots__ = ()

    __add__ = __radd__ = _lifted(lambda x, y: x._add(y))
    __mul__ = __rmul__ = _lifted(lambda x, y: x._mul(y))
    __sub__ = _lifted(lambda x, y: x._add(-y))
    __rsub__ = _lifted(lambda x, y: y._add(-x))
    __truediv__ = _lifted(lambda x, y: x._mul(y.inverse()))
    __rtruediv__ = _lifted(lambda x, y: y._mul(x.inverse()))


class QuadElem(_Element):
    """``a + b*sqrt(d)`` with rational a, b; always in canonical form."""

    __slots__ = _fields = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        set_field(self, "a", Fraction(a))
        set_field(self, "b", Fraction(b))
        set_field(self, "d", d)

    def _coerce(self, other):
        if isinstance(other, QuadElem):
            if self.d != other.d:
                raise FieldMismatch(f"cannot mix sqrt({self.d}) and sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem(Fraction(other), Fraction(0), self.d)
        return NotImplemented

    def _add(self, other):
        return QuadElem(self.a + other.a, self.b + other.b, self.d)

    def _mul(self, other):
        return QuadElem(self.a * other.a + self.d * self.b * other.b,
                        self.a * other.b + self.b * other.a, self.d)

    def __neg__(self):
        return QuadElem(-self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    def inverse(self) -> "QuadElem":
        n = self.norm()
        if n == 0:
            # d squarefree > 1 makes sqrt(d) irrational, so norm 0 <=> element 0
            raise DivisionByZero("inverse of zero")
        return QuadElem(self.a / n, -self.b / n, self.d)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadElem):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"


class ModInt(_Element):
    """Residue in [0, p), an element of the prime field F_p."""

    __slots__ = _fields = ("v", "p")

    def __init__(self, v: int, p: int):
        set_field(self, "v", v % p)
        set_field(self, "p", p)

    def _coerce(self, other):
        if isinstance(other, ModInt):
            if self.p != other.p:
                raise FieldMismatch("mixed moduli")
            return other
        if isinstance(other, int):
            return ModInt(other, self.p)
        return NotImplemented

    def _add(self, other):
        return ModInt(self.v + other.v, self.p)

    def _mul(self, other):
        return ModInt(self.v * other.v, self.p)

    def __neg__(self):
        return ModInt(-self.v, self.p)

    def inverse(self) -> "ModInt":
        if self.v == 0:
            raise DivisionByZero("inverse of zero")
        return ModInt(pow(self.v, -1, self.p), self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.p
        if isinstance(other, ModInt):
            return self.p == other.p and self.v == other.v
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v} (mod {self.p})"


class FieldSpec(Frozen):
    """Which coefficient domain an arrangement lives over.

    kind is one of "rational", "quadratic" (with squarefree 1 < d <
    SQUAREFREE_BOUND) or "prime" (with an odd prime p < PRIME_BOUND); the
    bounds keep the checks of d and p fast and proven.  Every domain is
    exact; results over a prime field are those of the arrangement over F_p.
    """

    _fields = ("kind", "d", "p")
    __slots__ = _fields + ("_zero",)  # the field's zero, through which coerce lifts

    def __init__(self, kind: str, d: int = 0, p: int = 0):
        if kind == "rational":
            zero = Fraction(0)
        elif kind == "quadratic":
            if not 1 < d < SQUAREFREE_BOUND or not is_squarefree(d):
                raise FieldMismatch(f"quadratic d must be squarefree, > 1 and below"
                                    f" {SQUAREFREE_BOUND}, got {d}")
            zero = QuadElem(Fraction(0), Fraction(0), d)
        elif kind == "prime":
            if not 2 < p < PRIME_BOUND or not is_prime(p):
                raise FieldMismatch(f"p must be an odd prime below {PRIME_BOUND}, got {p}")
            zero = ModInt(0, p)
        else:
            raise FieldMismatch(f"unknown field kind {kind!r}")
        set_field(self, "kind", kind)
        set_field(self, "d", d)
        set_field(self, "p", p)
        set_field(self, "_zero", zero)

    @classmethod
    def rational(cls) -> "FieldSpec":
        return cls("rational")

    @classmethod
    def quadratic(cls, d: int) -> "FieldSpec":
        return cls("quadratic", d=d)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls("prime", p=p)

    # -- element construction ------------------------------------------------

    def zero(self) -> Scalar:
        return self._zero

    def one(self) -> Scalar:
        return self.coerce(1)

    def coerce(self, x) -> Scalar:
        """x, an int, a Fraction or an element of this field, in this field.

        The rationals take ints and Fractions, and a Fraction reduces mod p
        here (BadReduction if p divides its denominator); the field's zero
        element lifts everything else (its _coerce), and an operand it
        refuses raises FieldMismatch.
        """
        if self.kind == "rational":
            y = Fraction(x) if isinstance(x, (int, Fraction)) else NotImplemented
        elif self.kind == "prime" and isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise BadReduction(f"denominator divisible by {self.p}")
            y = ModInt(x.numerator * pow(x.denominator, -1, self.p), self.p)
        else:
            y = self._zero._coerce(x)
        if y is NotImplemented:
            raise FieldMismatch(f"cannot coerce {x!r} into {self}")
        return y

    def sqrt_element(self) -> Scalar:
        """The canonical square root of d (quadratic fields only)."""
        if self.kind != "quadratic":
            raise FieldMismatch("sqrt element only exists in quadratic fields")
        return QuadElem(Fraction(0), Fraction(1), self.d)

    # -- textual form --------------------------------------------------------

    def format_scalar(self, x: Scalar):
        x = self.coerce(x)
        if self.kind == "rational":
            return _format_fraction(x)
        if self.kind == "quadratic":
            return {"a": _format_fraction(x.a), "b": _format_fraction(x.b)}
        return str(x.v)

    def display_scalar(self, x: Scalar) -> str:
        """The text of x in a printed polynomial: format_scalar's, with a
        quadratic a + b*sqrt(d) as a, b*sqrt(d) or (a+b*sqrt(d)), its zero
        parts left out."""
        text = self.format_scalar(x)
        if self.kind != "quadratic":
            return text
        a, b = text["a"], text["b"]
        if b == "0":
            return a
        root = {"1": "", "-1": "-"}.get(b, b + "*") + f"sqrt({self.d})"
        if a == "0":
            return root
        return f"({a}{'' if root.startswith('-') else '+'}{root})"

    def parse_scalar(self, obj) -> Scalar:
        try:
            if self.kind == "rational":
                return _parse_fraction(obj)
            if self.kind == "quadratic":
                if isinstance(obj, dict):
                    return QuadElem(_parse_fraction(obj.get("a", "0")),
                                    _parse_fraction(obj.get("b", "0")), self.d)
                return QuadElem(_parse_fraction(obj), Fraction(0), self.d)
            if isinstance(obj, bool) or not isinstance(obj, (int, str)):
                raise TypeError("a residue is an integer or its decimal string")
            return ModInt(int(obj), self.p)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar {obj!r}: {exc}") from exc

    def to_json(self):
        if self.kind == "rational":
            return {"type": "rational"}
        if self.kind == "quadratic":
            return {"type": "quadratic", "d": self.d}
        return {"type": "prime", "p": self.p}

    @classmethod
    def from_json(cls, obj) -> "FieldSpec":
        if not isinstance(obj, dict) or "type" not in obj:
            raise ParseError(f"bad field spec {obj!r}")
        t = obj["type"]
        if t == "rational":
            return cls.rational()
        if t == "quadratic":
            return cls.quadratic(_json_int(obj, "d"))
        if t == "prime":
            return cls.prime(_json_int(obj, "p"))
        raise ParseError(f"unknown field type {t!r}")


def _json_int(obj: dict, key: str) -> int:
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(f"field {key} must be an integer, got {v!r}")
    return v


def _format_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# the exponent of a spelling such as "1e30", for which Fraction builds 10**e
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _parse_fraction(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):  # JSON true is no number
        return Fraction(s)
    if isinstance(s, str):
        # _format_fraction's own spellings "n" and "n/d" (ASCII digits, a
        # nonzero d) are read with int, about twice as fast; Fraction
        # decides everything else but an exponent above the bound below
        num, slash, den = s.partition("/")
        if s.isascii() and num.removeprefix("-").isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isdigit() and den.strip("0"):
                return Fraction(int(num), int(den))
        # a few characters of exponent could ask for a number of any size;
        # |e| is held to the bound Python puts on the digits of an int
        exp = _EXPONENT.search(s)
        limit = sys.get_int_max_str_digits()
        if exp and limit and abs(int(exp[1])) > limit:
            raise ParseError(f"exponent above {limit} in {s!r}")
        return Fraction(s.strip())
    raise ParseError(f"bad rational {s!r}")
