"""Finite unit-quaternion groups: binary tetrahedral, octahedral, icosahedral.

The binary tetrahedral group doubles as the 24-cell vertex set; five of its
left cosets tile the binary icosahedral group, which is the 600-cell.
Every point set keeps the int64 rows it is made from (QuaternionSet): T, the
weight orbits V1-V3 and T' = sqrt2 (V1 + V2 + V3) are written down as rows
over 2, and 2I is one engine.products table of five powers of p against T,
so no Quaternion is made until a caller asks for the elements.
closure makes a group from generators on engine.closure_points, the one
closure routine, as the orbit of 1 under right multiplication.  Closure
checks, conjugacy classes and the 600-cell and 24-cell censuses read a
group's Cayley table, made once per group by engine.left_perms: the left
multiplication of the elements by a few generator rows, composed by index,
with no group-sized product table.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from . import engine
from .errors import NotInvariant, SearchFailed
from .field import HALF, SIGMA, TAU
from .quaternion import Q_ONE, Quaternion, canonical_sorted


class QuaternionSet:
    """An immutable set of quaternions, kept as the int64 rows it is made from.

    rows are the distinct points over den, their least common denominator
    (engine.lowest_terms), in lexicographic order: over one denominator, the
    canonical order, so elements, the points as Quaternions in that order,
    are made only on first use.  Made from quaternions, the set keeps them.
    """

    def __init__(self, elements, label: str = ""):
        elements = list(elements)
        rows, den = engine.common_rows(elements)
        order = engine.distinct_order(rows)
        self._keep(rows[order], den, label)
        self.elements = tuple(elements[i] for i in order.tolist())

    @classmethod
    def from_rows(cls, rows: np.ndarray, den: int, label: str = ""):
        """The set of the int64 rows over den."""
        return cls.of_sorted(engine.distinct_rows(rows), den, label)

    @classmethod
    def of_sorted(cls, rows: np.ndarray, den: int, label: str = ""):
        """The set of int64 rows over den that are distinct and in lexicographic order."""
        self = cls.__new__(cls)
        self._keep(*engine.lowest_terms(rows, den), label)
        return self

    def _keep(self, rows: np.ndarray, den: int, label: str) -> None:
        self.rows, self.den, self.label = rows, den, label

    @cached_property
    def elements(self) -> tuple[Quaternion, ...]:
        return engine.quats_of(self.rows, self.den)

    @cached_property
    def row_index(self) -> engine.RowIndex:
        """Where rows over den sit among the set's rows (engine.locate)."""
        return engine.RowIndex(self.rows)

    @cached_property
    def _index(self) -> dict[Quaternion, int]:
        return {q: i for i, q in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, q) -> bool:
        return q in self._index

    def index(self, q: Quaternion) -> int:
        return self._index[q]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuaternionSet):
            return NotImplemented
        return self.den == other.den and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.den, self.rows.tobytes()))

    def __repr__(self) -> str:
        return f"<{self.label or 'set'}: {self.order} quaternions>"


def rows_of(points) -> tuple[np.ndarray, int]:
    """The points' int64 rows over one denominator: those a QuaternionSet keeps,
    or engine.common_rows of quaternions."""
    if isinstance(points, QuaternionSet):
        return points.rows, points.den
    return engine.common_rows(points)


class QuaternionGroup(QuaternionSet):
    """A QuaternionSet meant to be a group; is_closed certifies that it is one.

    A finite set of nonzero quaternions closed under products is a group, so
    is_closed checks products only.
    """

    @cached_property
    def cayley_table(self):
        """table[i, j], the index of elements[i] elements[j], or None if some product is
        no element: none not integral over den is found among the rows over den**2."""
        rows, den = self.rows, self.den
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
    return QuaternionGroup.from_rows(*engine.closure_points([Q_ONE], mats, cap), label)


def _unit_rows(signs, columns) -> np.ndarray:
    """One row for each sign pattern, its signs at the given coefficient columns:
    component i's rational coefficient is column 4 i, its sqrt2 one 4 i + 1."""
    rows = np.zeros((len(signs), 16), dtype=np.int64)
    rows[:, columns] = signs
    return rows


@lru_cache(maxsize=None)
def binary_tetrahedral() -> QuaternionGroup:
    """Order 24; the vertices of the 24-cell: +-1, +-e1, +-e2, +-e3 and (+-1 +-e1 +-e2 +-e3)/2."""
    units = np.concatenate([np.eye(4, dtype=np.int64), -np.eye(4, dtype=np.int64)])
    signs = np.concatenate([2 * units, list(product((1, -1), repeat=4))])
    return QuaternionGroup.from_rows(_unit_rows(signs, [0, 4, 8, 12]), 2, "T")


def _v_orbit(axis: int) -> np.ndarray:
    """V_axis over 2: (+-1 +-e_axis)/2 and (+-e_j +-e_k)/2 for the other two axes j, k."""
    other, pairs = {1: (2, 3), 2: (3, 1), 3: (1, 2)}[axis], list(product((1, -1), repeat=2))
    return np.concatenate([_unit_rows(pairs, [0, 4 * axis]),
                           _unit_rows(pairs, [4 * other[0], 4 * other[1]])])


@lru_cache(maxsize=None)
def d4_weight_orbits() -> tuple[QuaternionSet, QuaternionSet, QuaternionSet]:
    """The three 8-element orbits V1, V2, V3 swapped cyclically by triality."""
    return tuple(QuaternionSet.from_rows(_v_orbit(axis), 2, f"V{axis}") for axis in (1, 2, 3))


@lru_cache(maxsize=None)
def t_prime() -> QuaternionSet:
    """The 24 unit quaternions sqrt2*(V1+V2+V3); a nongroup coset of T: each
    rational coefficient of V's rows over 2 moved to its sqrt2 column."""
    rows = np.concatenate([orbit.rows for orbit in d4_weight_orbits()])
    scaled = np.zeros_like(rows)
    scaled[:, 1::4] = rows[:, 0::4]
    return QuaternionSet.from_rows(scaled, 2, "T'")


@lru_cache(maxsize=None)
def binary_octahedral() -> QuaternionGroup:
    tet, tp = binary_tetrahedral(), t_prime()
    return QuaternionGroup.from_rows(np.concatenate([tet.rows, tp.rows]), tet.den, "O")


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
    tet = binary_tetrahedral()
    table = engine.products(prows[:, None], tet.rows[None]).reshape(-1, 16)
    return QuaternionGroup.from_rows(table, pden * tet.den, "I")


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
