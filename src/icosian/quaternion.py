"""Quaternions over Q(sqrt2, sqrt5).

A quaternion is four field elements; internally each is flattened to a
16-vector of integers over one common denominator, which keeps Hamilton
products and group-sized sweeps cheap while staying exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .field import FieldElement, ONE

# u_i * u_j = sign * u_k for the quaternion units 1, e1, e2, e3
_QTAB = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
    (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
}
# w_a * w_b = mult * w_c for the radicals 1, sqrt2, sqrt5, sqrt10
_FTAB = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, 2), (1, 2): (3, 1), (1, 3): (2, 2),
    (2, 0): (2, 1), (2, 1): (3, 1), (2, 2): (0, 5), (2, 3): (1, 5),
    (3, 0): (3, 1), (3, 1): (2, 2), (3, 2): (1, 5), (3, 3): (0, 10),
}

# Flattened multiplication table: result[t] += m * left[s] * right[r]
_PRODUCT_TABLE: list[tuple[int, int, int, int]] = []
for _i in range(4):
    for _a in range(4):
        for _j in range(4):
            for _b in range(4):
                _k, _s = _QTAB[(_i, _j)]
                _c, _m = _FTAB[(_a, _b)]
                _PRODUCT_TABLE.append((4 * _i + _a, 4 * _j + _b, 4 * _k + _c, _s * _m))


def _qmul_ivec(a, da, b, db):
    out = [0] * 16
    for s, r, t, m in _PRODUCT_TABLE:
        av = a[s]
        if av:
            bv = b[r]
            if bv:
                out[t] += m * av * bv
    return tuple(out), da * db


class Quaternion:
    __slots__ = ("_vec", "_den", "_hash")

    def __init__(self, q0=0, q1=0, q2=0, q3=0):
        comps = [x if isinstance(x, FieldElement) else FieldElement.from_rational(x)
                 for x in (q0, q1, q2, q3)]
        den = 1
        for comp in comps:
            cd = comp.raw[1]
            den = den * cd // gcd(den, cd)
        vec = []
        for comp in comps:
            cn, cd = comp.raw
            scale = den // cd
            vec.extend(v * scale for v in cn)
        self._init(tuple(vec), den)

    def _init(self, vec, den):
        g = gcd(*vec, den)
        if g > 1:
            vec = tuple(v // g for v in vec)
            den //= g
        self._vec = vec
        self._den = den
        self._hash = hash((vec, den))

    @classmethod
    def _from_ivec(cls, vec, den) -> "Quaternion":
        self = object.__new__(cls)
        self._init(tuple(vec), den)
        return self

    @classmethod
    def _reduced(cls, vec: tuple, den: int) -> "Quaternion":
        """The quaternion of a tuple vec over den already in lowest terms."""
        self = object.__new__(cls)
        self._vec, self._den, self._hash = vec, den, hash((vec, den))
        return self

    @property
    def ivec(self) -> tuple[tuple[int, ...], int]:
        return self._vec, self._den

    def component(self, i: int) -> FieldElement:
        v = self._vec
        return FieldElement._make(v[4 * i], v[4 * i + 1], v[4 * i + 2], v[4 * i + 3], self._den)

    @property
    def q0(self) -> FieldElement:
        return self.component(0)

    @property
    def q1(self) -> FieldElement:
        return self.component(1)

    @property
    def q2(self) -> FieldElement:
        return self.component(2)

    @property
    def q3(self) -> FieldElement:
        return self.component(3)

    @property
    def components(self) -> tuple[FieldElement, FieldElement, FieldElement, FieldElement]:
        return tuple(self.component(i) for i in range(4))

    def key(self, den: int) -> tuple[int, ...]:
        """Lexicographic sort key: the 16 rational coefficients times den.

        den must be a common denominator of every quaternion compared, so
        that the integers order exactly as the rationals do.
        """
        scale = den // self._den
        return tuple(v * scale for v in self._vec)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self._vec == other._vec and self._den == other._den

    def __hash__(self) -> int:
        return self._hash

    def __neg__(self) -> "Quaternion":
        return Quaternion._from_ivec(tuple(-v for v in self._vec), self._den)

    def __add__(self, other) -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        a, da = self._vec, self._den
        b, db = other._vec, other._den
        return Quaternion._from_ivec(
            tuple(x * db + y * da for x, y in zip(a, b)), da * db)

    def __sub__(self, other) -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            vec, den = _qmul_ivec(self._vec, self._den, other._vec, other._den)
            return Quaternion._from_ivec(vec, den)
        scalar = other if isinstance(other, FieldElement) else None
        if scalar is None and isinstance(other, (int, Fraction)):
            scalar = FieldElement.from_rational(other)
        if scalar is None:
            return NotImplemented
        return self.scale(scalar)

    def __rmul__(self, other):
        if isinstance(other, (FieldElement, int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def scale(self, s: FieldElement) -> "Quaternion":
        sn, sd = s.raw
        out = [0] * 16
        for i in range(4):
            base = 4 * i
            q = self._vec[base:base + 4]
            for a in range(4):
                if sn[a] == 0:
                    continue
                for b in range(4):
                    if q[b] == 0:
                        continue
                    c, m = _FTAB[(a, b)]
                    out[base + c] += m * sn[a] * q[b]
        return Quaternion._from_ivec(tuple(out), self._den * sd)

    def __pow__(self, k: int) -> "Quaternion":
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = Q_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "Quaternion":
        v = self._vec
        return Quaternion._from_ivec(v[0:4] + tuple(-x for x in v[4:16]), self._den)

    def galois(self, which: str = "sqrt5") -> "Quaternion":
        """Apply the field automorphism to every component."""
        return Quaternion(*(comp.galois(which) for comp in self.components))

    def dot(self, other: "Quaternion") -> FieldElement:
        """Scalar product sum(p_i q_i), equal to (conj(p) q + conj(q) p) / 2."""
        a, da = self._vec, self._den
        b, db = other._vec, other._den
        out = [0, 0, 0, 0]
        for i in range(4):
            base = 4 * i
            for x in range(4):
                av = a[base + x]
                if not av:
                    continue
                for y in range(4):
                    bv = b[base + y]
                    if not bv:
                        continue
                    c, m = _FTAB[(x, y)]
                    out[c] += m * av * bv
        return FieldElement._make(out[0], out[1], out[2], out[3], da * db)

    def euclid_dot(self, other: "Quaternion") -> Fraction:
        """Rational part of the golden split of the scalar product."""
        return self.dot(other).euclidean_part()

    def norm(self) -> FieldElement:
        return self.dot(self)

    def is_unit(self) -> bool:
        return self.norm() == ONE

    @lru_cache(maxsize=1024)  # verify shows the same points on both sides of a check
    def __str__(self) -> str:
        names = ("", "e1", "e2", "e3")
        terms = []
        for comp, name in zip(self.components, names):
            if comp.is_zero():
                continue
            body = str(comp)
            if name:
                body = name if body == "1" else f"-{name}" if body == "-1" else f"({body}){name}"
            terms.append(body)
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out

    __repr__ = __str__


Q_ONE = Quaternion(1)
E1 = Quaternion(0, 1)
E2 = Quaternion(0, 0, 1)
E3 = Quaternion(0, 0, 0, 1)


def canonical_sorted(items, of=lambda q: q) -> tuple:
    """Sort by the 16 rational coefficients, scaled to one common denominator.

    The items are quaternions, or are ordered by the quaternion of(item).
    The sort is stable: sorting by one part, then stably by another, orders
    by the second part first and breaks its ties by the first.
    """
    items = list(items)
    den = lcm(*(of(x).ivec[1] for x in items))
    return tuple(sorted(items, key=lambda x: of(x).key(den)))
