"""Orthogonal transforms r -> p r q and r -> p conj(r) q from unit quaternion pairs.

A pair and its negation act identically, so representatives are fixed by
making the first nonzero coefficient of p positive.  The groups built here
are the reflection groups acting on the 600-cell and the snub 24-cell.
"""

from __future__ import annotations

from functools import lru_cache

from . import engine
from .errors import BadParameter, SearchFailed
from .field import HALF, ONE
from .groups import (QuaternionSet, binary_icosahedral, binary_tetrahedral,
                     generate, icosian_seed, t_prime)
from .quaternion import E2, Q_ONE, Quaternion, canonical_sorted


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
    def __init__(self, elements, label: str = "", generators=()):
        by_q = canonical_sorted(set(elements), of=lambda t: t.q)
        by_pair = canonical_sorted(by_q, of=lambda t: t.p)
        self.elements = tuple(sorted(by_pair, key=lambda t: t.star))
        self.label = label
        self.generators = tuple(generators)
        self._set = frozenset(self.elements)
        self._compiled = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, t) -> bool:
        return t in self._set

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransformGroup):
            return NotImplemented
        return self._set == other._set

    def __hash__(self) -> int:
        return hash(self._set)

    def __repr__(self) -> str:
        return f"<{self.label or 'group'}: {self.order} transforms>"

    def compiled(self):
        if self._compiled is None:
            self._compiled = engine.compile_transforms(self.elements)
        return self._compiled

    def generator_matrices(self):
        gens = self.generators or self.elements
        return [engine.transform_matrix(t) for t in gens]


def _pair_group(base: QuaternionSet, label: str) -> TransformGroup:
    """Every [p, q] and [p, q]* over base, generated by [g,1], [1,g] and conjugation."""
    units = [E2, Quaternion(HALF, HALF, HALF, HALF)]
    if base.label == "I":
        units.append(icosian_seed())
    gens = [t for g in units for t in (Transform(g, Q_ONE), Transform(Q_ONE, g))]
    gens.append(Transform(Q_ONE, Q_ONE, True))
    elems = [Transform(p, q, star) for p in base for q in base for star in (False, True)]
    return TransformGroup(elems, label, gens)


@lru_cache(maxsize=None)
def wh4() -> TransformGroup:
    """The full symmetry group of the 600-cell, order 14400."""
    return _pair_group(binary_icosahedral(), "W(H4)")


@lru_cache(maxsize=None)
def wd4c3() -> TransformGroup:
    """The snub 24-cell symmetry group W(D4):C3, order 576."""
    return _pair_group(binary_tetrahedral(), "W(D4):C3")


def _axis_group(base: QuaternionSet, q: Quaternion, signs, label: str) -> TransformGroup:
    """[t, s conj(q) conj(t) q] and [t, s q conj(t) q]* for t in base and each sign s."""
    qc = q.conjugate()
    elems = []
    for t in base:
        tc = t.conjugate()
        for s in signs:
            elems.append(Transform(t, s * (qc * tc * q)))
            elems.append(Transform(t, s * (q * tc * q), True))
    return TransformGroup(elems, label)


def wh3xc2(q: Quaternion = Q_ONE) -> TransformGroup:
    """Order 240; maps the pair {q, -q} to itself, an icosahedral symmetry."""
    if q not in binary_icosahedral():
        raise BadParameter("conjugating point must lie in the binary icosahedral group")
    return _axis_group(binary_icosahedral(), q, (1, -1), f"W(H3)xC2^({q})")


def a4xc2(q: Quaternion) -> TransformGroup:
    """Order 24; fixes q in T while permuting the surrounding icosahedron."""
    if q not in binary_tetrahedral():
        raise BadParameter("center must lie in the binary tetrahedral group")
    return _axis_group(binary_tetrahedral(), q, (1,), f"A4xC2({q})")


def s4_of(c: Quaternion) -> TransformGroup:
    """Order 24; the tetrahedral symmetry fixing a 24-cell cell center c in T'."""
    if c not in t_prime():
        raise BadParameter("center must lie in T'")
    return _axis_group(binary_tetrahedral(), c, (1,), f"S4({c})")


def snub_decompose(p: Quaternion) -> tuple[Quaternion, Quaternion]:
    """Write sqrt2 * p as tau*a + sigma*b with a, b in T'."""
    from .field import SIGMA, SQRT2, TAU
    target = SQRT2 * p
    for a in t_prime():
        rest = target - TAU * a
        for b in t_prime():
            if SIGMA * b == rest:
                return a, b
    raise SearchFailed(f"{p} has no tau/sigma split over T'")


def s3_of(p: Quaternion) -> TransformGroup:
    """Order 6; permutes the three tetrahedra at a snub vertex p away from its mirror pair."""
    from .field import SIGMA, TAU
    a, b = snub_decompose(p)
    s1 = b * a.conjugate()
    s2 = b.conjugate() * a
    rot = Transform(s1, s2)
    if rot.apply(p) != p:
        raise SearchFailed("rotation generator does not fix the vertex")
    for t in binary_tetrahedral():
        if t == Q_ONE or t == -Q_ONE:
            continue
        cand = Transform(t, a * t.conjugate() * a, True)
        if cand.apply(p) == p:
            gens = [rot, cand]
            return TransformGroup(generate(gens, cap=24), f"S3({p})", gens)
    raise SearchFailed("no starred generator fixes the vertex")


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


def orbit_by_elements(group: TransformGroup, v: Quaternion) -> tuple[Quaternion, ...]:
    """Same orbit by applying every element; an independent cross-check."""
    rows, den = engine.apply_all(*group.compiled(), v)
    return engine.quats_of(engine.distinct_rows(rows), den)


def stabilizer(group: TransformGroup, v: Quaternion) -> TransformGroup:
    rows, den = engine.apply_all(*group.compiled(), v)
    fixed = (rows == [x * (den // v.ivec[1]) for x in v.ivec[0]]).all(axis=1)
    elems = [t for t, hit in zip(group.elements, fixed.tolist()) if hit]
    return TransformGroup(elems, f"Stab_{group.label}({v})")


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


def conjugate_group(group: TransformGroup, h: Transform) -> TransformGroup:
    hinv = h.inverse()
    return TransformGroup(
        [h * g * hinv for g in group],
        f"{group.label}^({h})")


def seed_conjugator(i: int, j: int) -> Transform:
    """[p^i, conj(p)^j] for the canonical tenth root of unity p."""
    p = icosian_seed()
    return Transform(p ** i, p.conjugate() ** j)


def wd4c3_conjugate(i: int, j: int) -> TransformGroup:
    """One of the 25 conjugate snub symmetry groups inside W(H4)."""
    return conjugate_group(wd4c3(), seed_conjugator(i, j))


def wd4c3_conjugate_pattern(i: int, j: int) -> TransformGroup:
    """Direct construction [p^i T p^-i, p^j T p^-j] + [p^i T conj(p)^j, p^i T conj(p)^j]*."""
    p = icosian_seed()
    pi, pj = p ** i, p ** j
    pic, pjc = pi.conjugate(), pj.conjugate()
    elems = []
    for t in binary_tetrahedral():
        for s in binary_tetrahedral():
            elems.append(Transform(pi * t * pic, pj * s * pjc))
            elems.append(Transform(pi * t * pjc, pi * s * pjc, True))
    return TransformGroup(elems, f"W(D4):C3^({i},{j})")
