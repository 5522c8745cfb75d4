"""Exact arithmetic in Q(sqrt2, sqrt5) with basis {1, sqrt2, sqrt5, sqrt10}.

An element is stored as four integer numerators over one positive common
denominator, always in lowest terms, so equality and hashing are structural.
All predicates (zero test, sign, comparisons) are decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .errors import NotInGoldenSubfield


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class FieldElement:
    __slots__ = ("_n", "_den", "_hash")

    def __init__(self, a=0, b=0, c=0, d=0):
        fa, fb, fc, fd = (_as_fraction(v) for v in (a, b, c, d))
        den = 1
        for f in (fa, fb, fc, fd):
            den = den * f.denominator // gcd(den, f.denominator)
        self._init(
            (
                fa.numerator * (den // fa.denominator),
                fb.numerator * (den // fb.denominator),
                fc.numerator * (den // fc.denominator),
                fd.numerator * (den // fd.denominator),
            ),
            den,
        )

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
        y = self.galois("sqrt2") * self.galois("sqrt5") * self.galois("sqrt2").galois("sqrt5")
        r = self * y
        assert r.is_rational()
        f = r.to_fraction()
        (y0, y1, y2, y3), dy = y._n, y._den
        return FieldElement._make(
            y0 * f.denominator, y1 * f.denominator, y2 * f.denominator, y3 * f.denominator,
            dy * f.numerator,
        )

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

    def __le__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() <= 0

    def __gt__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() > 0

    def __ge__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() >= 0

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


def _sqrt_fraction(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def _sqrt_golden(u: Fraction, v: Fraction) -> tuple[Fraction, Fraction] | None:
    """Square root of u + v*sqrt5 inside Q(sqrt5), if one exists."""
    if v == 0:
        r = _sqrt_fraction(u)
        if r is not None:
            return (r, Fraction(0))
        r = _sqrt_fraction(u / 5)
        if r is not None:
            return (Fraction(0), r)
        return None
    disc = _sqrt_fraction(u * u - 5 * v * v)
    if disc is None:
        return None
    for t in ((u + disc) / 2, (u - disc) / 2):
        g = _sqrt_fraction(t)
        if g is not None and g != 0:
            h = v / (2 * g)
            if g * g + 5 * h * h == u:
                return (g, h)
    return None


def field_sqrt(x: FieldElement) -> FieldElement | None:
    """Positive square root of x within the field, or None when absent."""
    if x.is_zero():
        return ZERO
    if x.sign() < 0:
        return None
    a, b, c, d = x.coefficients()

    def build(y1, y2):
        cand = FieldElement(y1[0], y2[0], y1[1], y2[1])
        if cand * cand == x:
            return abs(cand)
        return None

    zero2 = (Fraction(0), Fraction(0))
    if b == 0 and d == 0:
        r = _sqrt_golden(a, c)
        if r is not None:
            got = build(r, zero2)
            if got is not None:
                return got
        r = _sqrt_golden(a / 2, c / 2)
        if r is not None:
            got = build(zero2, r)
            if got is not None:
                return got
        return None
    # x = x1 + sqrt2 * x2 with x1, x2 in Q(sqrt5); solve (y1 + sqrt2*y2)^2 = x.
    x1 = (a, c)
    x2 = (b, d)
    du = x1[0] * x1[0] + 5 * x1[1] * x1[1] - 2 * (x2[0] * x2[0] + 5 * x2[1] * x2[1])
    dv = 2 * x1[0] * x1[1] - 4 * x2[0] * x2[1]
    s = _sqrt_golden(du, dv)
    if s is None:
        return None
    for su, sv in ((s[0], s[1]), (-s[0], -s[1])):
        tu, tv = (x1[0] + su) / 2, (x1[1] + sv) / 2
        y1 = _sqrt_golden(tu, tv)
        if y1 is None or y1 == (0, 0):
            continue
        # y2 = x2 / (2*y1) in Q(sqrt5)
        norm = 4 * (y1[0] * y1[0] - 5 * y1[1] * y1[1])
        if norm == 0:
            continue
        y2 = (
            (x2[0] * 2 * y1[0] - 10 * x2[1] * y1[1]) / norm,
            (x2[1] * 2 * y1[0] - 2 * x2[0] * y1[1]) / norm,
        )
        got = build(y1, y2)
        if got is not None:
            return got
    return None
