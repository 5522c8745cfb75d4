"""Orthogonal transforms r -> p r q and r -> p conj(r) q from unit quaternion pairs.

A pair and its negation act identically, so representatives are fixed by
making the first nonzero coefficient of p positive.  The groups built here
are the reflection groups acting on the 600-cell and the snub 24-cell, and
their point stabilizers: A4xC2 (of a point of T), S4 (of a point of T') and
S3 (of a snub vertex) are each stabilizer(wd4c3(), v), read off one images
table; W(H3)xC2, the stabilizer of an axis in W(H4), keeps a direct formula.

A TransformGroup holds its elements as int64 rows (star | p | q) over one
denominator; Transform objects are built only when asked for.  W(H4) and
W(D4):C3 are pair groups in the paper's factored form, {[p, q], [p, q]* :
p, q in I} and the same over T: they keep the factors P and Q and make
their rows, already in canonical order, only on first use.  Their images
are the products (P v) Q and (P conj(v)) Q, and a stabilizer makes only
its fixed rows.  W(D4):C3 fixes the 24-cell T, and its 25 cosets H g are the
24-cells g^-1 T in the 600-cell (inscribed_24cells, one table for the coset
action and the snub embeddings); the 25 seed conjugators [p^i, conj(p)^j]
meet each once.  Every other group (stabilizers, conjugates, W(H3)xC2) is
put in canonical order by one engine.distinct_rows, and acts on points by
engine.act.  An orbit is a breadth-first search on engine.closure_points
under the generators' matrices, which are act on the unit rows; the tests
cross-check it by another algorithm, the images of v under every element.
Transform and Quaternion arithmetic stay the scalar operations.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import engine
from .errors import BadParameter, NotInvariant, SearchFailed
from .field import HALF, ONE
from .groups import (QuaternionSet, binary_icosahedral, binary_tetrahedral, icosian_seed,
                     t_prime)
from .quaternion import E2, Q_ONE, Quaternion


class Transform:
    """[p, q] sends r to p r q; starred, it sends r to p conj(r) q."""

    __slots__ = ("p", "q", "star", "_hash")

    def __init__(self, p: Quaternion, q: Quaternion, star: bool = False):
        for v in p.ivec[0]:
            if v:
                if v < 0:
                    p, q = -p, -q
                break
        self.p = p
        self.q = q
        self.star = bool(star)
        self._hash = hash((p, q, self.star))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transform):
            return NotImplemented
        return self.star == other.star and self.p == other.p and self.q == other.q

    def __hash__(self) -> int:
        return self._hash

    def apply(self, r: Quaternion) -> Quaternion:
        if self.star:
            r = r.conjugate()
        return self.p * r * self.q

    def compose(self, other: "Transform") -> "Transform":
        """The transform acting as self after other."""
        p, q, r, s = self.p, self.q, other.p, other.q
        if not self.star:
            return Transform(p * r, s * q, other.star)
        return Transform(p * s.conjugate(), r.conjugate() * q, not other.star)

    def __mul__(self, other):
        if not isinstance(other, Transform):
            return NotImplemented
        return self.compose(other)

    def inverse(self) -> "Transform":
        if self.star:
            return Transform(self.q, self.p, True)
        return Transform(self.p.conjugate(), self.q.conjugate(), False)

    def __repr__(self) -> str:
        return f"[{self.p}, {self.q}]{'*' if self.star else ''}"


IDENTITY = Transform(Q_ONE, Q_ONE)


def reflection(alpha: Quaternion) -> Transform:
    """Reflection in the hyperplane orthogonal to a unit quaternion: r -> -alpha conj(r) alpha."""
    if alpha.norm() != ONE:
        raise BadParameter("reflection axis must be a unit quaternion")
    return Transform(alpha, -alpha, True)


class TransformGroup:
    """A finite group of transforms, as distinct int64 rows (star | p | q) over one denominator.

    Column 0 is 1 for a starred transform, columns 1-16 hold p, whose first
    nonzero coefficient is positive, and columns 17-32 hold q; den is in
    lowest terms.  The rows' lexicographic order is the canonical element
    order: unstarred first, then by p, then by q, each as rationals.

    A pair group, every [p, q] and [p, q]* with p in P and q in Q, keeps
    only its factors P and Q (see _pair_group): its rows, its images and its
    stabilizers are read off them, and the rows are made on first use.
    """

    def __init__(self, elements, label: str = "", generators=()):
        elements = list(elements)
        pq, den = engine.common_rows([t.p for t in elements] + [t.q for t in elements])
        star = np.array([t.star for t in elements], dtype=np.int64)
        self._fill(_transform_rows((star, pq[:len(elements)], pq[len(elements):])), den,
                   label, generators)

    @classmethod
    def from_rows(cls, rows: np.ndarray, den: int, label: str = "",
                  generators=()) -> "TransformGroup":
        """The group of the transforms given as (star | p | q) rows over den.

        The rows may come in any order, with repeats and with either sign of
        a pair.  The group takes the rows over: their signs are normalised in
        place.
        """
        self = cls.__new__(cls)
        self._fill(rows, den, label, generators)
        return self

    def _fill(self, rows, den, label, generators):
        # Negate (p, q) where p's first nonzero coefficient is negative, as Transform does.
        p = rows[:, 1:17]
        first = np.take_along_axis(p, (p != 0).argmax(axis=1)[:, None], axis=1)[:, 0]
        rows[first < 0, 1:] *= -1
        rows = engine.distinct_rows(rows)
        g = int(np.gcd.reduce(rows[:, 1:], axis=None, initial=den))
        rows[:, 1:] //= g
        self._init(rows, den // g, label, generators, None)

    def _init(self, rows, den, label, generators, factors):
        self._rows, self.den, self._factors = rows, den, factors
        self.label = label
        self.generators = tuple(generators)
        self._elements = self._set = self._compiled = None

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            p, q = self._factors
            self._rows = _transform_rows((0, p[:, None], q[None]), (1, p[:, None], q[None]))
        return self._rows

    def _rows_at(self, index: np.ndarray) -> np.ndarray:
        """The rows of the elements at these indices, a pair group's made from its factors."""
        if self._factors is None:
            return self.rows[index]
        p, q = self._factors
        star, i, j = np.unravel_index(index, (2, len(p), len(q)))
        return _transform_rows((star, p[i], q[j]))

    @property
    def elements(self) -> tuple[Transform, ...]:
        if self._elements is None:
            self._elements = tuple(
                Transform(Quaternion._from_ivec(row[1:17], self.den),
                          Quaternion._from_ivec(row[17:], self.den), row[0])
                for row in self.rows.tolist())
        return self._elements

    @property
    def order(self) -> int:
        return len(self)

    def __len__(self) -> int:
        if self._factors is None:
            return len(self._rows)
        p, q = self._factors
        return 2 * len(p) * len(q)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, t) -> bool:
        if self._set is None:
            self._set = frozenset(self.elements)
        return t in self._set

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransformGroup):
            return NotImplemented
        return self.den == other.den and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.den, self.rows.tobytes()))

    def __repr__(self) -> str:
        return f"<{self.label or 'group'}: {self.order} transforms>"

    def compiled(self):
        if self._compiled is None:
            self._compiled = engine.compile_transforms(self.rows, self.den)
        return self._compiled

    def generator_matrices(self):
        gens = self.generators or self.elements
        return [engine.transform_matrix(t) for t in gens]

    def images(self, v: Quaternion) -> tuple[np.ndarray, int]:
        """p v q, or p conj(v) q when starred, for every element in order.

        The images are int64 rows over the one returned denominator.  A pair
        group makes them as the products (P x) Q, for x = v and then conj(v):
        that is its row order.
        """
        row, vden = engine.common_rows([v])
        den = self.den ** 2 * vden
        if self._factors is None:
            return engine.act(self.rows, row)[:, 0], den
        p, q = self._factors
        moved = engine.products(p, np.stack([row, engine.conjugates(row)]))  # [star, i]
        return engine.products(moved.reshape(-1, 1, 16), q[None]).reshape(-1, 16), den


def _quat_rows(*quats) -> tuple[np.ndarray, ...]:
    """Each quaternion as a (1, 16) row, all over one returned denominator."""
    rows, den = engine.common_rows(quats)
    return (*np.split(rows, len(quats)), den)


def _transform_rows(*parts) -> np.ndarray:
    """(star | p | q) rows in one table, a block of rows per (star, p, q) part.

    Within a part, star, p and q rows over one denominator broadcast against
    each other, and each block is filled in place.
    """
    shapes = [np.broadcast_shapes(np.shape(star), p.shape[:-1], q.shape[:-1])
              for star, p, q in parts]
    sizes = [int(np.prod(shape)) for shape in shapes]
    rows = np.empty((sum(sizes), 33), dtype=np.int64)
    for (star, p, q), shape, block in zip(parts, shapes, np.split(rows, np.cumsum(sizes)[:-1])):
        block = block.reshape(shape + (33,))
        block[..., 0], block[..., 1:17], block[..., 17:] = star, p, q
    return rows


def _units(base: QuaternionSet) -> list[Quaternion]:
    """Generators of the unit group T, or of I, which adds the tenth root p."""
    units = [E2, Quaternion(HALF, HALF, HALF, HALF)]
    if base.label == "I":
        units.append(icosian_seed())
    return units


def _pair_group(base: QuaternionSet, label: str) -> TransformGroup:
    """Every [p, q] and [p, q]* over base, generated by [g,1], [1,g] and conjugation.

    The group keeps its factors: P, the half of base whose first nonzero
    coefficient is positive, since [p, q] and [-p, -q] act alike, and Q, all
    of base, both in canonical order and so making the rows in canonical order.
    """
    units = _units(base)
    gens = [t for g in units for t in (Transform(g, Q_ONE), Transform(Q_ONE, g))]
    gens.append(Transform(Q_ONE, Q_ONE, True))
    rows, den = base.rows, base.den  # over the least common denominator
    lead = np.take_along_axis(rows, (rows != 0).argmax(axis=1)[:, None], axis=1)[:, 0]
    group = TransformGroup.__new__(TransformGroup)
    group._init(None, den, label, gens, (rows[lead > 0], rows))
    return group


@lru_cache(maxsize=None)
def wh4() -> TransformGroup:
    """The full symmetry group of the 600-cell, order 14400."""
    return _pair_group(binary_icosahedral(), "W(H4)")


@lru_cache(maxsize=None)
def wd4c3() -> TransformGroup:
    """The snub 24-cell symmetry group W(D4):C3, order 576."""
    return _pair_group(binary_tetrahedral(), "W(D4):C3")


def wh3xc2(q: Quaternion = Q_ONE) -> TransformGroup:
    """Order 240; maps the pair {q, -q} to itself, an icosahedral symmetry.

    The elements are [t, +-conj(q) conj(t) q] and [t, +-q conj(t) q]* for t in
    I, made directly: reading them off the images of q under all of W(H4)
    costs about twenty times as much.  t -> [t, conj(q) conj(t) q] is a
    homomorphism, so the images of I's generators, [1, -1] and [1, q q]*
    generate the group.
    """
    if q not in binary_icosahedral():
        raise BadParameter("conjugating point must lie in the binary icosahedral group")
    gens = [Transform(t, q.conjugate() * t.conjugate() * q) for t in _units(binary_icosahedral())]
    gens += [Transform(Q_ONE, -Q_ONE), Transform(Q_ONE, q * q, True)]
    rows, den = binary_icosahedral().rows, binary_icosahedral().den
    qr, qden = engine.common_rows([q])
    unstarred, starred = engine.act(_transform_rows((1, engine.conjugates(qr), qr), (1, qr, qr)),
                                    rows)
    common = den * qden ** 2
    p = engine.rescaled(rows, den, common)
    rows = _transform_rows(*((star, p, s * x)
                             for star, x in ((0, unstarred), (1, starred)) for s in (1, -1)))
    return TransformGroup.from_rows(rows, common, f"W(H3)xC2^({q})", gens)


def a4xc2(q: Quaternion) -> TransformGroup:
    """Order 24; the stabilizer in W(D4):C3 of q in T, permuting the surrounding icosahedron."""
    if q not in binary_tetrahedral():
        raise BadParameter("center must lie in the binary tetrahedral group")
    return stabilizer(wd4c3(), q)


def s4_of(c: Quaternion) -> TransformGroup:
    """Order 24; the stabilizer in W(D4):C3 of a 24-cell cell center c in T'."""
    if c not in t_prime():
        raise BadParameter("center must lie in T'")
    return stabilizer(wd4c3(), c)


def s3_of(p: Quaternion) -> TransformGroup:
    """Order 6; the stabilizer in W(D4):C3 of a snub vertex p, a point of I outside T.

    It permutes the three tetrahedra at p away from its mirror pair.
    """
    if p not in binary_icosahedral() or p in binary_tetrahedral():
        raise SearchFailed(f"{p} is not a snub 24-cell vertex")
    return stabilizer(wd4c3(), p)


def build_group(name: str, param: Quaternion = None) -> TransformGroup:
    """Dispatch by name: WH4, WD4C3, WH3xC2, A4xC2, S4, S3."""
    table = {
        "WH4": lambda: wh4(),
        "WD4C3": lambda: wd4c3(),
        "WH3xC2": lambda: wh3xc2(param if param is not None else Q_ONE),
        "A4xC2": lambda: a4xc2(param),
        "S4": lambda: s4_of(param),
        "S3": lambda: s3_of(param),
    }
    if name not in table:
        raise BadParameter(f"unknown group name {name!r}")
    return table[name]()


def orbit(group: TransformGroup, v: Quaternion) -> tuple[Quaternion, ...]:
    """Canonically sorted orbit of v, computed by generator closure."""
    return engine.quats_of(*engine.closure_points([v], group.generator_matrices()))


def stabilizer(group: TransformGroup, v: Quaternion) -> TransformGroup:
    """The elements fixing v, read off the images of v; only their rows are made."""
    rows, den = group.images(v)
    row, vden = engine.common_rows([v])
    fixed = np.flatnonzero((rows == engine.rescaled(row, vden, den)).all(axis=1))
    return TransformGroup.from_rows(group._rows_at(fixed), group.den,
                                    f"Stab_{group.label}({v})")


class OrbitPartition:
    def __init__(self, suborbits):
        self.suborbits = tuple(sorted((tuple(part) for part in suborbits), key=len))
        self.sizes = tuple(sorted(len(part) for part in self.suborbits))

    def __repr__(self) -> str:
        return f"<partition: {' + '.join(str(s) for s in self.sizes)}>"


def orbit_decompose(group: TransformGroup, points) -> OrbitPartition:
    """Partition a closed point set into canonically sorted orbits of the group."""
    rows, den = engine.common_rows(points)
    rows = engine.distinct_rows(rows)
    labels = engine.partition_points(rows, group.generator_matrices())
    return OrbitPartition(engine.quats_of(rows[labels == k], den)
                          for k in sorted(set(labels.tolist())))


def _compose(a, b):
    """The transforms a_i after b_i, for (star, p, q) triples of broadcastable rows.

    [p, q] after [r, s] is [p r, s q]; [p, q]* after [r, s] is
    [p conj(s), conj(r) q]*; either way the star of [r, s] flips with a's.
    p and q of a triple share a denominator; the result's is their product.
    """
    star_a, p, q = a
    star_b, r, s = b
    flip = star_a == 1
    right = np.where(flip, engine.conjugates(s), r)
    left = np.where(flip, engine.conjugates(r), s)
    return star_a ^ star_b, engine.products(p, right), engine.products(left, q)


def conjugate_group(group: TransformGroup, h: Transform) -> TransformGroup:
    """h g h^-1 for every g in the group, composed as rows; generated by the
    conjugates of the group's generators."""
    hinv = h.inverse()
    hp, hq, ip, iq, hden = _quat_rows(h.p, h.q, hinv.p, hinv.q)
    g = group.rows[:, :1], group.rows[:, 1:17], group.rows[:, 17:]
    rows = np.hstack(_compose(_compose((h.star, hp, hq), g), (hinv.star, ip, iq)))
    return TransformGroup.from_rows(rows, hden * group.den * hden, f"{group.label}^({h})",
                                    [h * t * hinv for t in group.generators])


def seed_conjugator(i: int, j: int) -> Transform:
    """[p^i, conj(p)^j] for the canonical tenth root of unity p."""
    p = icosian_seed()
    return Transform(p ** i, p.conjugate() ** j)


@lru_cache(maxsize=None)
def seed_conjugators() -> tuple[np.ndarray, int]:
    """The 25 seed conjugators [p^i, conj(p)^j], i, j < 5: row 5i + j as a
    (star | p | q) row, all over one returned denominator."""
    powers, den = engine.common_rows([icosian_seed() ** i for i in range(5)])
    return _transform_rows((0, powers[:, None], engine.conjugates(powers)[None])), den


@lru_cache(maxsize=None)
def inscribed_24cells() -> np.ndarray:
    """Row k: the 24-cell C_k = g_k^-1 T inscribed in the 600-cell, for g_k the
    k-th seed conjugator, as the sorted indices of its points in 2I.

    Each [a, b] and [a, b]* of H = W(D4):C3, a and b in T, maps T onto itself,
    so H g names g^-1 T.  The C_k are one engine.act of the g_k^-1 on T.  25
    distinct C_k put the g_k in 25 cosets of the stabilizer of T, which holds
    H; as |W(H4)| / |H| = 25, it is H, and the g_k meet every coset of H once.
    Raises NotInvariant unless the C_k lie in 2I and are distinct."""
    g, gden = seed_conjugators()
    tet, icos = binary_tetrahedral(), binary_icosahedral()
    inverse = _transform_rows((g[:, 0], engine.conjugates(g[:, 1:17]),
                               engine.conjugates(g[:, 17:])))
    cells = np.sort(engine.locate(icos.row_index, icos.den, engine.act(inverse, tet.rows),
                                  gden * gden * tet.den).reshape(len(g), len(tet)))
    if (cells < 0).any() or len(engine.distinct_rows(cells)) != len(wh4()) // len(wd4c3()):
        raise NotInvariant("the seed conjugators do not meet every coset of W(D4):C3 once")
    return cells


def wd4c3_conjugate(i: int, j: int) -> TransformGroup:
    """One of the 25 conjugate snub symmetry groups inside W(H4)."""
    return conjugate_group(wd4c3(), seed_conjugator(i, j))


def wd4c3_conjugate_pattern(i: int, j: int) -> TransformGroup:
    """Direct construction [p^i T p^-i, p^j T p^-j] + [p^i T conj(p)^j, p^i T conj(p)^j]*."""
    p = icosian_seed()
    pi, pj, den = _quat_rows(p ** i, p ** j)
    rows, tden = binary_tetrahedral().rows, binary_tetrahedral().den
    pic, pjc = engine.conjugates(pi), engine.conjugates(pj)
    a, b, c = engine.act(_transform_rows((0, pi, pic), (0, pj, pjc), (0, pi, pjc)), rows)
    rows = _transform_rows((0, a[:, None], b[None, :]), (1, c[:, None], c[None, :]))
    return TransformGroup.from_rows(rows, den * tden * den, f"W(D4):C3^({i},{j})")
