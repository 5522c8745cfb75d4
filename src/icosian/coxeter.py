"""Orthogonal transforms r -> p r q and r -> p conj(r) q from unit quaternion pairs.

A pair and its negation act identically, so representatives are fixed by
making the first nonzero coefficient of p positive.  The groups built here
are the reflection groups acting on the 600-cell and the snub 24-cell.
"""

from __future__ import annotations

from functools import lru_cache

from . import engine
from .errors import BadParameter, SearchFailed
from .field import ONE
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


def _group_generators(base: QuaternionSet):
    """Pair generators [g,1], [1,g] plus plain conjugation, for g generating base."""
    gens = [E2, _half_ones()]
    if base.label == "I":
        gens.append(icosian_seed())
    out = []
    for g in gens:
        out.append(Transform(g, Q_ONE))
        out.append(Transform(Q_ONE, g))
    out.append(Transform(Q_ONE, Q_ONE, True))
    return out


def _half_ones() -> Quaternion:
    from .field import HALF
    return Quaternion(HALF, HALF, HALF, HALF)


@lru_cache(maxsize=None)
def wh4() -> TransformGroup:
    """The full symmetry group of the 600-cell, order 14400."""
    icos = binary_icosahedral()
    elems = []
    for p in icos:
        for q in icos:
            elems.append(Transform(p, q))
            elems.append(Transform(p, q, True))
    return TransformGroup(elems, "W(H4)", _group_generators(icos))


@lru_cache(maxsize=None)
def wd4c3() -> TransformGroup:
    """The snub 24-cell symmetry group W(D4):C3, order 576."""
    tet = binary_tetrahedral()
    elems = []
    for p in tet:
        for q in tet:
            elems.append(Transform(p, q))
            elems.append(Transform(p, q, True))
    return TransformGroup(elems, "W(D4):C3", _group_generators(tet))


def wh3xc2(q: Quaternion = Q_ONE) -> TransformGroup:
    """Order 240; maps the pair {q, -q} to itself, an icosahedral symmetry."""
    if q not in binary_icosahedral():
        raise BadParameter("conjugating point must lie in the binary icosahedral group")
    qc = q.conjugate()
    elems = []
    for p in binary_icosahedral():
        pc = p.conjugate()
        for sign in (1, -1):
            elems.append(Transform(p, sign * (qc * pc * q)))
            elems.append(Transform(p, sign * (q * pc * q), True))
    return TransformGroup(elems, f"W(H3)xC2^({q})")


def a4xc2(q: Quaternion) -> TransformGroup:
    """Order 24; fixes q in T while permuting the surrounding icosahedron."""
    if q not in binary_tetrahedral():
        raise BadParameter("center must lie in the binary tetrahedral group")
    qc = q.conjugate()
    elems = []
    for t in binary_tetrahedral():
        tc = t.conjugate()
        elems.append(Transform(t, qc * tc * q))
        elems.append(Transform(t, q * tc * q, True))
    return TransformGroup(elems, f"A4xC2({q})")


def s4_of(c: Quaternion) -> TransformGroup:
    """Order 24; the tetrahedral symmetry fixing a 24-cell cell center c in T'."""
    if c not in t_prime():
        raise BadParameter("center must lie in T'")
    cc = c.conjugate()
    elems = []
    for t in binary_tetrahedral():
        tc = t.conjugate()
        elems.append(Transform(t, cc * tc * c))
        elems.append(Transform(t, c * tc * c, True))
    return TransformGroup(elems, f"S4({c})")


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
    pts = engine.closure_points([v.ivec], group.generator_matrices())
    return canonical_sorted(engine.quat_of(pt) for pt in pts)


def orbit_by_elements(group: TransformGroup, v: Quaternion) -> tuple[Quaternion, ...]:
    """Same orbit by applying every element; an independent cross-check."""
    mats, dens = group.compiled()
    pts = set(engine.apply_all(mats, dens, v))
    return canonical_sorted(engine.quat_of(pt) for pt in pts)


def stabilizer(group: TransformGroup, v: Quaternion) -> TransformGroup:
    mats, dens = group.compiled()
    target = v.ivec
    images = engine.apply_all(mats, dens, v)
    elems = [t for t, img in zip(group.elements, images) if img == target]
    return TransformGroup(elems, f"Stab_{group.label}({v})")


class OrbitPartition:
    def __init__(self, suborbits):
        by_first = canonical_sorted((tuple(part) for part in suborbits),
                                    of=lambda part: part[0])
        self.suborbits = tuple(sorted(by_first, key=len))
        self.sizes = tuple(sorted(len(part) for part in self.suborbits))

    def __repr__(self) -> str:
        return f"<partition: {' + '.join(str(s) for s in self.sizes)}>"


def orbit_decompose(group: TransformGroup, points) -> OrbitPartition:
    """Partition a closed point set into orbits of the group."""
    pts = [q.ivec for q in points]
    parts = engine.partition_points(pts, group.generator_matrices())
    return OrbitPartition(
        [canonical_sorted(engine.quat_of(pt) for pt in part) for part in parts])


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
