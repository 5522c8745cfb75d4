"""Exact arithmetic in Q(sqrt2, sqrt5) with basis {1, sqrt2, sqrt5, sqrt10}.

An element is stored as four integer numerators over one positive common
denominator, always in lowest terms, so equality and hashing are structural.
All predicates (zero test, sign, comparisons) are decided exactly.

The field is the tower Q ⊂ Q(sqrt5) ⊂ Q(sqrt5)(sqrt2), and field_sqrt is
one square-root rule for a quadratic extension F(r), r*r == s, applied at
both steps: split x = x1 + x2*r with the automorphism negating r, take the
root n of the norm x1*x1 - s*x2*x2 in F, then the roots y1 of (x1 ± n)/2
and y2 of (x1 ∓ n)/(2s) in F, and keep the y1 ± y2*r whose square is x
(Borodin, Fagin, Hopcroft and Tompa, J. Symbolic Computation 1, 1985).  In
Q, a root is the integer root of the numerator over that of the denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt, lcm

from .errors import NotInGoldenSubfield


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@total_ordering
class FieldElement:
    __slots__ = ("_n", "_den", "_hash")

    def __init__(self, a=0, b=0, c=0, d=0):
        fs = [_as_fraction(v) for v in (a, b, c, d)]
        den = lcm(*(f.denominator for f in fs))
        self._init(tuple(f.numerator * (den // f.denominator) for f in fs), den)

    def _init(self, n, den):
        g = gcd(*n, den)
        if g > 1:
            n = (n[0] // g, n[1] // g, n[2] // g, n[3] // g)
            den //= g
        self._n = n
        self._den = den
        self._hash = hash((n, den))

    @classmethod
    def _make(cls, n0, n1, n2, n3, den) -> "FieldElement":
        if den < 0:
            n0, n1, n2, n3, den = -n0, -n1, -n2, -n3, -den
        self = object.__new__(cls)
        self._init((n0, n1, n2, n3), den)
        return self

    @classmethod
    def from_rational(cls, x) -> "FieldElement":
        f = _as_fraction(x)
        return cls._make(f.numerator, 0, 0, 0, f.denominator)

    @property
    def a(self) -> Fraction:
        return Fraction(self._n[0], self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._n[1], self._den)

    @property
    def c(self) -> Fraction:
        return Fraction(self._n[2], self._den)

    @property
    def d(self) -> Fraction:
        return Fraction(self._n[3], self._den)

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    @property
    def raw(self) -> tuple[tuple[int, int, int, int], int]:
        return self._n, self._den

    def is_zero(self) -> bool:
        return self._n == (0, 0, 0, 0)

    def is_rational(self) -> bool:
        return self._n[1] == self._n[2] == self._n[3] == 0

    def in_golden_subfield(self) -> bool:
        return self._n[1] == 0 and self._n[3] == 0

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise NotInGoldenSubfield(f"{self} is irrational")
        return Fraction(self._n[0], self._den)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._n == other._n and self._den == other._den

    def __hash__(self) -> int:
        return self._hash

    def __neg__(self) -> "FieldElement":
        n = self._n
        return FieldElement._make(-n[0], -n[1], -n[2], -n[3], self._den)

    def __add__(self, other) -> "FieldElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, da = self._n, self._den
        b, db = other._n, other._den
        return FieldElement._make(
            a[0] * db + b[0] * da,
            a[1] * db + b[1] * da,
            a[2] * db + b[2] * da,
            a[3] * db + b[3] * da,
            da * db,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "FieldElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "FieldElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        (a0, a1, a2, a3), da = self._n, self._den
        (b0, b1, b2, b3), db = other._n, other._den
        return FieldElement._make(
            a0 * b0 + 2 * a1 * b1 + 5 * a2 * b2 + 10 * a3 * b3,
            a0 * b1 + a1 * b0 + 5 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 + 2 * (a1 * b3 + a3 * b1),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
            da * db,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FieldElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other) -> "FieldElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.invert()

    def __pow__(self, k: int) -> "FieldElement":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.invert() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def galois(self, which: str = "sqrt5") -> "FieldElement":
        """Field automorphism negating the named radical (and sqrt10 with it)."""
        n0, n1, n2, n3 = self._n
        if which == "sqrt5":
            return FieldElement._make(n0, n1, -n2, -n3, self._den)
        if which == "sqrt2":
            return FieldElement._make(n0, -n1, n2, -n3, self._den)
        raise ValueError(f"unknown automorphism {which!r}")

    def invert(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("field element is zero")
        if self.is_rational():
            return FieldElement._make(self._den, 0, 0, 0, self._n[0])
        y = self.galois("sqrt2") * self.galois("sqrt5") * self.galois("sqrt2").galois("sqrt5")
        r = self * y
        assert r.is_rational()
        return y * r.invert()

    def golden_decompose(self) -> tuple[Fraction, Fraction]:
        """Split a + c*sqrt5 as x + sigma*y with rational x, y."""
        if not self.in_golden_subfield():
            raise NotInGoldenSubfield(f"{self} has a sqrt2 part")
        a, c = self.a, self.c
        return (a + c, -2 * c)

    def euclidean_part(self) -> Fraction:
        return self.golden_decompose()[0]

    def _enclosure(self, bits: int) -> tuple[int, int]:
        """Integer bounds lo <= value * 2**bits * den <= hi."""
        n0, n1, n2, n3 = self._n
        shift = 1 << bits
        lo = hi = n0 * shift
        for n, r in ((n1, 2), (n2, 5), (n3, 10)):
            if n == 0:
                continue
            rlo = isqrt(r << (2 * bits))
            rhi = rlo + 1
            if n > 0:
                lo += n * rlo
                hi += n * rhi
            else:
                lo += n * rhi
                hi += n * rlo
        return lo, hi

    def sign(self) -> int:
        if self.is_zero():
            return 0
        if self.is_rational():
            return 1 if self._n[0] > 0 else -1
        bits = 32
        while True:
            lo, hi = self._enclosure(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __abs__(self) -> "FieldElement":
        return -self if self.sign() < 0 else self

    def __float__(self) -> float:
        lo, hi = self._enclosure(80)
        return (lo + hi) / 2 / self._den / (1 << 80)

    def __str__(self) -> str:
        terms = []
        for n, label in zip(self._n, ("", "√2", "√5", "√10")):
            if n == 0:
                continue
            mag = f"{abs(n)}" if self._den == 1 else f"{abs(n)}/{self._den}"
            if label:
                mag = label if abs(n) == 1 and self._den == 1 else f"{mag}{label}"
            terms.append(("-" if n < 0 else "+", mag))
        if not terms:
            return "0"
        first_sign, first = terms[0]
        out = ("-" if first_sign == "-" else "") + first
        for s, t in terms[1:]:
            out += s + t
        return out

    __repr__ = __str__


def _coerce(x):
    if isinstance(x, FieldElement):
        return x
    if isinstance(x, (int, Fraction)):
        return FieldElement.from_rational(x)
    return NotImplemented


ZERO = FieldElement(0)
ONE = FieldElement(1)
HALF = FieldElement(Fraction(1, 2))
SQRT2 = FieldElement(0, 1)
SQRT5 = FieldElement(0, 0, 1)
SQRT10 = FieldElement(0, 0, 0, 1)
TAU = FieldElement(Fraction(1, 2), 0, Fraction(1, 2))
SIGMA = FieldElement(Fraction(1, 2), 0, Fraction(-1, 2))


def _sqrt(x: FieldElement, tower) -> FieldElement | None:
    """|y| for a y with y*y == x in the field the tower generates over Q, or None.

    Each step (which, s, r) of the tower adjoins r, with r*r == s, to the
    field of the steps after it; the module docstring gives the rule.
    """
    if not tower:
        (n, _, _, _), den = x.raw
        rn, rd = isqrt(max(n, 0)), isqrt(den)
        return FieldElement._make(rn, 0, 0, 0, rd) if (rn * rn, rd * rd) == (n, den) else None
    (which, s, r), tower = tower[0], tower[1:]
    conjugate = x.galois(which)
    x1, x2 = (x + conjugate) * HALF, (x - conjugate) * r * Fraction(1, 2 * s)
    n = _sqrt(x1 * x1 - s * x2 * x2, tower)
    if n is None:
        return None
    for m in (n, -n):
        y1, y2 = _sqrt((x1 + m) * HALF, tower), _sqrt((x1 - m) * Fraction(1, 2 * s), tower)
        if y1 is not None and y2 is not None:
            for y in (y1 + y2 * r, y1 - y2 * r):
                if y * y == x:
                    return abs(y)
    return None


def field_sqrt(x: FieldElement) -> FieldElement | None:
    """The non-negative square root of x within the field, or None when absent.

    One quadratic-extension rule (_sqrt), applied at the two steps of the
    tower Q(sqrt5)(sqrt2) over Q(sqrt5) and Q(sqrt5) over Q.
    """
    return _sqrt(x, (("sqrt2", 2, SQRT2), ("sqrt5", 5, SQRT5)))
