"""Root systems assembled from quaternion groups.

D4 and F4 live inside the binary tetrahedral/octahedral setup; E8 appears as
icosians scored with the rational part of the golden split; H4 is the 120
icosians themselves.  The weight orbits of W(H4) and their decomposition
under the snub symmetry group are computed here as well, all from one
table: the images g w_i of the four fundamental weights under every
element g of wh4(), read off its factors (P w) Q without making its rows,
with each g labelled once by its W(D4):C3 coset (coxeter.coset_labels).
The orbit of a weight sum(w_i omega_i) is the table weighted by w, and the
coset labels split it into W(D4):C3 orbits.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from . import engine
from .coxeter import coset_labels, wd4c3, wh4
from .errors import BadParameter, NotInvariant, SearchFailed
from .field import HALF, ONE, SIGMA, TAU, ZERO
from .groups import binary_icosahedral, binary_tetrahedral, d4_weight_orbits
from .quaternion import Quaternion, canonical_sorted


class RootSystemData:
    def __init__(self, label, roots):
        self.label = label
        self.roots = canonical_sorted(roots)
        if len(self.roots) not in (24, 48, 120, 240):
            raise BadParameter(f"unexpected root count {len(self.roots)}")

    def __repr__(self) -> str:
        return f"<{self.label}: {len(self.roots)} roots>"


class D4Data:
    def __init__(self, system, v1, v2, v3, tet):
        self.system = system
        self.V1, self.V2, self.V3, self.T = v1, v2, v3, tet


@lru_cache(maxsize=None)
def d4_data() -> D4Data:
    """The D4 root system (the 24 elements of 2T), 2T, and the weight orbits V1, V2, V3."""
    v1, v2, v3 = d4_weight_orbits()
    tet = binary_tetrahedral()
    return D4Data(RootSystemData("D4", tet.elements), v1, v2, v3, tet)


@lru_cache(maxsize=None)
def f4_roots() -> RootSystemData:
    """48 roots: the 24-cell (long) plus the three 8-orbits (short)."""
    data = d4_data()
    roots = list(data.T) + [v for orbit in (data.V1, data.V2, data.V3) for v in orbit]
    return RootSystemData("F4", roots)


@lru_cache(maxsize=None)
def e8_roots() -> RootSystemData:
    """240 roots (T,0)+(0,T)+(V1,V3)+(V2,V1)+(V3,V2), scored by the golden split."""
    data = d4_data()
    roots = list(data.T)
    roots += [SIGMA * t for t in data.T]
    for left, right in ((data.V1, data.V3), (data.V2, data.V1), (data.V3, data.V2)):
        for a in left:
            for b in right:
                roots.append(a + SIGMA * b)
    return RootSystemData("E8", roots)


def euclid_profile_full(roots) -> set[tuple[tuple[Fraction, int], ...]]:
    """Profile of every root; a one-element set certifies homogeneity."""
    table, den = engine.pairwise_dots(roots)
    values, index = engine.distinct_values(table, den)
    euclid = [x.euclidean_part() for x in values]
    rows = engine.distinct_rows(np.sort(index, axis=1)).tolist()
    return {tuple(sorted(Counter(euclid[j] for j in row).items())) for row in rows}


@lru_cache(maxsize=None)
def e8_minus_24cells() -> tuple[tuple[Quaternion, ...], tuple[Quaternion, ...]]:
    """Remove T and sigma*T from E8: the snub vertices S and sigma*S remain."""
    data = d4_data()
    removed = set(data.T) | {SIGMA * t for t in data.T}
    rest = [r for r in e8_roots().roots if r not in removed]
    unit = tuple(r for r in rest if r.norm() == ONE)
    scaled = tuple(r for r in rest if r.norm() != ONE)
    return unit, scaled


def snub_sum_form() -> tuple[Quaternion, ...]:
    """{tau*V1 + sigma*V2} + {tau*V2 + sigma*V3} + {tau*V3 + sigma*V1}."""
    data = d4_data()
    out = []
    for left, right in ((data.V1, data.V2), (data.V2, data.V3), (data.V3, data.V1)):
        for a in left:
            for b in right:
                out.append(TAU * a + SIGMA * b)
    return canonical_sorted(out)


@lru_cache(maxsize=None)
def h4_simple_roots() -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
    """First icosian quadruple (in canonical order) with the H4 Gram matrix.

    Diagonal 1; consecutive products -1/2, -1/2, -tau/2; all other pairs 0.
    """
    icos = binary_icosahedral().elements
    table, den = engine.pairwise_dots(icos)
    values, index = engine.distinct_values(table, den)

    def neighbors(value):
        return [np.flatnonzero(row).tolist() for row in index == values.get(value, -1)]

    at_obtuse = neighbors(-HALF * ONE)
    at_sharp = neighbors(-TAU * HALF)
    ortho = (index == values.get(ZERO, -1)).tolist()
    for a1 in range(len(icos)):
        for a2 in at_obtuse[a1]:
            for a3 in at_obtuse[a2]:
                if not ortho[a1][a3]:
                    continue
                for a4 in at_sharp[a3]:
                    if ortho[a1][a4] and ortho[a2][a4]:
                        return (icos[a1], icos[a2], icos[a3], icos[a4])
    raise SearchFailed("no icosian quadruple realizes the H4 diagram")


@lru_cache(maxsize=None)
def h4_weights() -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
    """Fundamental weights: (w_i, a_j) = delta_ij * (a_j, a_j) / 2.

    w_i is orthogonal to the other three simple roots, so it is their
    engine.cross_rows normal n_i, scaled by (a_i, a_i) / (2 (n_i, a_i)).
    """
    simple = h4_simple_roots()
    rows, _ = engine.common_rows(simple)
    others = rows[[[j for j in range(4) if j != i] for i in range(4)]]
    normals = engine.quats_of(engine.cross_rows(*others.transpose(1, 0, 2)), 1)
    return tuple(n * (a.norm() * HALF / n.dot(a)) for n, a in zip(normals, simple))


def _mask_tuple(mask) -> tuple[int, int, int, int]:
    if isinstance(mask, str):
        mask = [int(c) for c in mask]
    mask = tuple(int(bool(v)) for v in mask)
    if len(mask) != 4 or not any(mask):
        raise BadParameter("mask must pick at least one of the four weights")
    return mask


@lru_cache(maxsize=None)
def _weight_table() -> tuple[np.ndarray, np.ndarray, int, int, np.ndarray]:
    """The images of the fundamental weights under W(H4), and each element's H-coset.

    table[i, g] is g w_i over den, in lowest terms, for g in the order of
    wh4().rows, on the columns cols that hold the nonzero entries; bound is
    the largest magnitude.  The images are read off W(H4)'s factors
    (TransformGroup.images), so its 14,400 rows are never made.  Each
    weight's int64 images are narrowed to int16 as they come, so one of
    them at a time is live, and brought to the common den there.  cosets[g]
    labels the coset H g of H = W(D4):C3 (coxeter.coset_labels); since
    rho = w_1 + ... + w_4 is moved regularly, the image of H g is the
    W(D4):C3 orbit of g rho.
    """
    group = wh4()
    images = [(_int16(rows), d) for rows, d in map(group.images, h4_weights())]
    den = lcm(*(d for _, d in images))
    table = np.stack([_int16(rows, den // d) for rows, d in images])
    cols = np.flatnonzero(table.any(axis=(0, 1)))
    table = table[:, :, cols]
    g = int(np.gcd.reduce(table, axis=None, initial=den))
    table, den = table // g, den // g
    bound = max(int(table.max()), -int(table.min()))
    rho = _weighted(table, bound, (1, 1, 1, 1))
    if len(engine.distinct_rows(rho)) != len(rho):
        raise NotInvariant("the weight images do not move rho regularly")
    return table, cols, den, bound, coset_labels(group, wd4c3())


def _int16(rows: np.ndarray, scale: int = 1) -> np.ndarray:
    """Integer rows times scale as int16, raising OverflowError rather than wrap."""
    if scale * max(-int(rows.min()), int(rows.max())) > np.iinfo(np.int16).max:
        raise OverflowError("weight images leave the int16 range")
    out = rows.astype(np.int16)
    out *= scale
    return out


def _weighted(table: np.ndarray, bound: int, weights) -> np.ndarray:
    """sum(w_i * table[i]) in int64, raising OverflowError unless it provably fits."""
    if sum(abs(w) for w in weights) * bound >= 1 << 63:
        raise OverflowError("weighted orbit rows could leave the int64 range")
    rows = np.zeros(table.shape[1:], dtype=np.int64)
    for w, omega in zip(weights, table):
        if w:
            rows += omega * np.int64(w)
    return rows


def _on_all_columns(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Rows on the columns cols, as rows on all 16 columns."""
    out = np.zeros((len(rows), 16), dtype=np.int64)
    out[:, cols] = rows
    return out


def _weight_orbit(weights) -> tuple[np.ndarray, int, np.ndarray]:
    """The W(H4) orbit of sum(w_i * omega_i) as canonically ordered rows over den,
    and each point's W(D4):C3 orbit as the least label of a coset that maps the
    weight onto it.

    The point g(sum w_i omega_i) is sum w_i g(omega_i), read off the weight
    table.  The image of a coset H g is one W(D4):C3 orbit, so two images
    are equal or disjoint, and the least label of a coset reaching a point
    labels its orbit.
    """
    table, cols, den, bound, cosets = _weight_table()
    rows, labels = engine.distinct_labelled(_weighted(table, bound, weights), cosets)
    return _on_all_columns(rows, cols), den, labels


def h4_orbit(mask) -> tuple[Quaternion, ...]:
    """Canonically sorted W(H4) orbit of the masked weight sum."""
    rows, den, _ = _weight_orbit(_mask_tuple(mask))
    return engine.quats_of(rows, den)


def weight_decomposition(weights: tuple[int, int, int, int]) -> tuple[int, tuple[int, ...]]:
    """The size of a weight orbit and the sorted sizes of its W(D4):C3 orbits."""
    rows, _, labels = _weight_orbit(weights)
    return len(rows), tuple(sorted(np.unique(labels, return_counts=True)[1].tolist()))


# The published orbit-by-orbit decompositions under W(D4):C3, as
# (total, summands); line 5's summands add to 4176, not its stated 3600.
PUBLISHED_DECOMPOSITIONS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (600, (192, 96, 288, 24)),
    (1200, (144, 576, 288, 96, 96)),
    (720, (288, 288, 144)),
    (120, (24, 96)),
    (3600, (576, 576, 576, 576, 576, 288, 288, 288, 288, 144)),
    (2400, (576, 576, 96, 96, 288, 288, 288, 192)),
    (3600, (144, 576, 576, 576, 576, 288, 288, 288, 288)),
    (1440, (288, 288, 288, 288, 288)),
    (2400, (288, 288, 288, 576, 576, 96, 96, 192)),
    (3600, (288, 288, 288, 288, 576, 576, 576, 576, 144)),
    (7200, (576,) * 10 + (288,) * 5),
    (7200, (576,) * 10 + (288,) * 5),
    (7200, (576,) * 10 + (288,) * 5),
    (7200, (576,) * 10 + (288,) * 5),
    (14400, (576,) * 25),
)

ALL_MASKS = tuple(
    (a, b, c, d)
    for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)
    if a or b or c or d
)


def format_decomposition(total: int, sizes) -> str:
    """'total = a+k(b)+...': each suborbit size once, with its multiplicity."""
    terms = []
    for size, count in sorted(Counter(sizes).items()):
        terms.append(f"{count}({size})" if count > 1 else f"{size}")
    return f"{total} = {'+'.join(terms)}"


class WeightOrbitReport:
    def __init__(self, mask, orbit_size, decomposition, matched_lines, flagged_lines):
        self.mask = mask
        self.orbit_size = orbit_size
        self.decomposition = tuple(sorted(decomposition))
        self.matched_lines = tuple(matched_lines)
        self.flagged_lines = tuple(flagged_lines)

    def format_line(self) -> str:
        return format_decomposition(self.orbit_size, self.decomposition)

    def __repr__(self) -> str:
        return f"<orbit {self.mask}: {self.format_line()}>"


@lru_cache(maxsize=None)
def appendix_decompositions() -> tuple[WeightOrbitReport, ...]:
    """Every weight orbit decomposed under W(D4):C3, matched to the published table."""
    reports = []
    for mask in ALL_MASKS:
        size, decomposition = weight_decomposition(mask)
        matched, flagged = [], []
        for lineno, (total, summands) in enumerate(PUBLISHED_DECOMPOSITIONS, start=1):
            if total != size:
                continue
            if tuple(sorted(summands)) == decomposition:
                if sum(summands) == total:
                    matched.append(lineno)
                else:
                    flagged.append(lineno)
            elif sum(summands) != total:
                # Inconsistent published line: match on total only, flagged.
                flagged.append(lineno)
        reports.append(WeightOrbitReport(mask, size, decomposition, matched, flagged))
    return tuple(reports)


def format_appendix_table() -> str:
    lines = ["mask      orbit decomposition under W(D4):C3"]
    for rep in appendix_decompositions():
        mask = "".join(str(b) for b in rep.mask)
        note = ""
        if rep.flagged_lines:
            note = "   [published line inconsistent]"
        lines.append(f"({mask})    {rep.format_line()}{note}")
    return "\n".join(lines)
