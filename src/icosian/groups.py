"""Finite unit-quaternion groups: binary tetrahedral, octahedral, icosahedral.

The binary tetrahedral group doubles as the 24-cell vertex set; five of its
left cosets tile the binary icosahedral group, which is the 600-cell.
closure makes a group from generators on engine.closure_points, the one
closure routine, as the orbit of 1 under right multiplication.  Closure
checks, conjugacy classes and the 600-cell and 24-cell censuses read a
group's Cayley table, made once per group by engine.left_perms: the left
multiplication of the elements by a few generator rows, composed by index,
with no group-sized product table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

from . import engine
from .errors import NotInvariant, SearchFailed
from .field import FieldElement, HALF, SIGMA, SQRT2, TAU
from .quaternion import E1, E2, E3, Q_ONE, Quaternion, canonical_sorted


class QuaternionSet:
    """An immutable set of quaternions with a canonical element order."""

    def __init__(self, elements, label: str = ""):
        self.elements = canonical_sorted(set(elements))
        self.label = label
        self._index = {q: i for i, q in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, q) -> bool:
        return q in self._index

    def index(self, q: Quaternion) -> int:
        return self._index[q]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuaternionSet):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"<{self.label or 'set'}: {self.order} quaternions>"


class QuaternionGroup(QuaternionSet):
    """A QuaternionSet meant to be a group; is_closed certifies that it is one.

    A finite set of nonzero quaternions closed under products is a group, so
    is_closed checks products only.
    """

    @cached_property
    def cayley_table(self):
        """table[i, j], the index of elements[i] elements[j], or None if some product is
        no element: none not integral over den is found among the rows over den**2."""
        rows, den = engine.common_rows(self.elements)
        return engine.left_perms(rows, rows, engine.RowIndex(engine.rescaled(rows, den, den * den)))

    def is_closed(self) -> bool:
        """Whether every product of two elements is an element: whether the table exists."""
        return self.cayley_table is not None


def closure(generators, cap: int = 200, label: str = "") -> QuaternionGroup:
    """The group the generators make: the orbit of 1 under right multiplication.

    engine.closure_points closes 1 under the generators' right-multiplication
    matrices, so every product of generators is found, 1 included.  Raises
    CapExceeded once more than cap elements are found, or OverflowError if
    the elements' integers would leave int64 first.
    """
    from .coxeter import Transform  # coxeter imports this module
    mats = [engine.transform_matrix(Transform(Q_ONE, g)) for g in list(generators) or [Q_ONE]]
    return QuaternionGroup(engine.quats_of(*engine.closure_points([Q_ONE], mats, cap)), label)


def _halves(signs) -> Quaternion:
    return Quaternion(*(FieldElement(Fraction(s, 2)) for s in signs))


@lru_cache(maxsize=None)
def binary_tetrahedral() -> QuaternionGroup:
    """Order 24; the vertices of the 24-cell."""
    units = [Q_ONE, E1, E2, E3]
    elems = [u for q in units for u in (q, -q)]
    elems += [_halves(s) for s in product((1, -1), repeat=4)]
    return QuaternionGroup(elems, "T")


def _v_orbit(axis: int) -> list[Quaternion]:
    out = []
    other = {1: (2, 3), 2: (3, 1), 3: (1, 2)}[axis]
    for s0, s1 in product((1, -1), repeat=2):
        comps = [0, 0, 0, 0]
        comps[0], comps[axis] = Fraction(s0, 2), Fraction(s1, 2)
        out.append(Quaternion(*(FieldElement(x) for x in comps)))
        comps = [0, 0, 0, 0]
        comps[other[0]], comps[other[1]] = Fraction(s0, 2), Fraction(s1, 2)
        out.append(Quaternion(*(FieldElement(x) for x in comps)))
    return out


@lru_cache(maxsize=None)
def d4_weight_orbits() -> tuple[QuaternionSet, QuaternionSet, QuaternionSet]:
    """The three 8-element orbits V1, V2, V3 swapped cyclically by triality."""
    return tuple(QuaternionSet(_v_orbit(axis), f"V{axis}") for axis in (1, 2, 3))


@lru_cache(maxsize=None)
def t_prime() -> QuaternionSet:
    """The 24 unit quaternions sqrt2*(V1+V2+V3); a nongroup coset of T."""
    elems = [SQRT2 * v for orbit in d4_weight_orbits() for v in orbit]
    return QuaternionSet(elems, "T'")


@lru_cache(maxsize=None)
def binary_octahedral() -> QuaternionGroup:
    return QuaternionGroup(list(binary_tetrahedral()) + list(t_prime()), "O")


def icosian_seed() -> Quaternion:
    """p = (tau + e1 + sigma*e3) / 2, a tenth root of unity generating I over T."""
    return Quaternion(TAU * HALF, HALF, 0, SIGMA * HALF)


@lru_cache(maxsize=None)
def binary_icosahedral() -> QuaternionGroup:
    """Order 120; the vertices of the 600-cell, as the five cosets p^j T, one products table."""
    p = icosian_seed()
    powers = [Q_ONE]
    for _ in range(4):
        powers.append(powers[-1] * p)
    prows, pden = engine.common_rows(powers)
    trows, tden = engine.common_rows(binary_tetrahedral().elements)
    table = engine.products(prows[:, None], trows[None]).reshape(-1, 16)
    return QuaternionGroup(engine.quats_of(table, pden * tden), "I")


def element_order(q: Quaternion) -> int:
    k, acc = 1, q
    while acc != Q_ONE:
        acc = acc * q
        k += 1
        if k > 1000:
            raise SearchFailed("not a finite-order element")
    return k


class ConjugacyClass:
    def __init__(self, members, order: int):
        self.members = canonical_sorted(members)
        self.size = len(self.members)
        self.order = order

    def __repr__(self) -> str:
        return f"<class: size {self.size}, element order {self.order}>"


class ConjugacyClassTable:
    def __init__(self, group: QuaternionGroup, classes):
        self.group = group
        by_first = canonical_sorted(classes, of=lambda c: c.members[0])
        self.classes = tuple(sorted(by_first, key=lambda c: (c.order, c.size)))

    def class_of(self, q: Quaternion) -> ConjugacyClass:
        for c in self.classes:
            if q in c.members:
                return c
        raise KeyError(q)

    def profile(self) -> tuple[tuple[int, int], ...]:
        """Multiset of (element order, class size) pairs."""
        return tuple(sorted((c.order, c.size) for c in self.classes))


@lru_cache(maxsize=None)
def conjugacy_classes(group: QuaternionGroup = None) -> ConjugacyClassTable:
    """The classes of the group: columns of conj[i, x] = L[L[i, x], inv[i]] on
    its Cayley table L, each with its element order read off L.

    Raises NotInvariant if the group has no table, or an element no inverse.
    """
    if group is None:
        group = binary_icosahedral()
    table, one = group.cayley_table, group.index(Q_ONE) if Q_ONE in group else -1
    if table is None or not (table == one).any(axis=1).all():
        raise NotInvariant("a conjugate left the group, or an element has no inverse in it")
    conj = table[table, (table == one).argmax(axis=1)[:, None]]
    seen, classes = set(), []
    for x, column in enumerate(conj.T.tolist()):
        if x not in seen:
            seen.update(column)
            k, y, row = 1, x, table[x].tolist()
            while y != one:
                k, y = k + 1, row[y]
            classes.append(ConjugacyClass({group.elements[i] for i in column}, k))
    return ConjugacyClassTable(group, classes)


def icosa_class_plus() -> ConjugacyClass:
    """The 12-element class with scalar part tau/2: an icosahedron's vertices."""
    return conjugacy_classes(binary_icosahedral()).class_of(icosian_seed())
