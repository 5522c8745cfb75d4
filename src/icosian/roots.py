"""Root systems assembled from quaternion groups.

D4 and F4 live inside the binary tetrahedral/octahedral setup; E8 appears as
icosians scored with the rational part of the golden split; H4 is the 120
icosians themselves.  A root system is a point set kept as int64 rows
(groups.QuaternionSet), and E8's rows are made from those of T and the Vi.
The weight orbits of W(H4) are computed here as well, with their W(D4):C3
orbits as the double cosets H g W_J, read off the right action of the simple
reflections on the 25 cosets H g, the 24-cells g^-1 T inscribed in the
600-cell (coxeter.inscribed_24cells).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import engine
from .coxeter import _transform_rows, inscribed_24cells, wd4c3, wh4
from .errors import BadParameter, NotInGoldenSubfield, NotInvariant, SearchFailed
from .field import HALF, ONE, SIGMA, TAU, FieldElement
from .groups import (QuaternionSet, binary_icosahedral, binary_tetrahedral, d4_weight_orbits,
                     rows_of)
from .quaternion import Quaternion


class RootSystemData(QuaternionSet):
    """A root system: a QuaternionSet of 24, 48, 120 or 240 roots, kept as rows."""

    def __init__(self, label, roots):
        super().__init__(roots, label)

    def _keep(self, rows: np.ndarray, den: int, label: str) -> None:
        if len(rows) not in (24, 48, 120, 240):
            raise BadParameter(f"unexpected root count {len(rows)}")
        super()._keep(rows, den, label)

    @property
    def roots(self) -> tuple[Quaternion, ...]:
        return self.elements

    def __repr__(self) -> str:
        return f"<{self.label}: {len(self)} roots>"


@lru_cache(maxsize=None)
def f4_roots() -> RootSystemData:
    """48 roots: the 24-cell (long) plus the three 8-orbits (short)."""
    parts = (binary_tetrahedral(), *d4_weight_orbits())  # each over den 2
    return RootSystemData.from_rows(np.concatenate([x.rows for x in parts]), 2, "F4")


@lru_cache(maxsize=None)
def e8_roots() -> RootSystemData:
    """240 roots (T,0)+(0,T)+(V1,V3)+(V2,V1)+(V3,V2), scored by the golden split:
    T, sigma T and v + sigma v' for v in Vi and v' in V(i-1), the sigma multiples
    one engine.products of the scalar sigma with the rows of T and the Vi."""
    tet, orbits = binary_tetrahedral(), d4_weight_orbits()
    sigma, sden = engine.common_rows([Quaternion(SIGMA)])
    v = np.stack([orbit.rows for orbit in orbits])  # [orbit, point], over tet.den as T is
    scaled = engine.products(sigma, np.concatenate([tet.rows, v.reshape(-1, 16)]))
    sums = (engine.rescaled(v, 1, sden)[:, :, None]
            + scaled[len(tet):].reshape(v.shape)[[2, 0, 1], None])  # entries are small halves
    rows = np.concatenate([engine.rescaled(tet.rows, 1, sden), scaled[:len(tet)],
                           sums.reshape(-1, 16)])
    return RootSystemData.from_rows(rows, tet.den * sden, "E8")


def euclid_profile_full(roots) -> set[tuple[tuple[Fraction, int], ...]]:
    """Profile of every root; a one-element set certifies homogeneity.  The
    Euclidean part of a dot n / den is (n_0 + n_2) / den, as golden_decompose.
    The roots are quaternions, or a point set whose kept rows are read."""
    rows, den = rows_of(roots)
    table, den = engine.dot_rows(rows, rows), den * den
    if table[..., 1::2].any():
        raise NotInGoldenSubfield("a scalar product has a sqrt2 part")
    rows = engine.distinct_rows(np.sort(table[..., 0] + table[..., 2], axis=1)).tolist()
    return {tuple((Fraction(v, den), c) for v, c in Counter(row).items()) for row in rows}


@lru_cache(maxsize=None)
def e8_minus_24cells() -> tuple[tuple[Quaternion, ...], tuple[Quaternion, ...]]:
    """Remove T and sigma*T from E8: the snub vertices S and sigma*S remain."""
    tet = binary_tetrahedral()
    removed = set(tet) | {SIGMA * t for t in tet}
    rest = [r for r in e8_roots().roots if r not in removed]
    unit = tuple(r for r in rest if r.norm() == ONE)
    scaled = tuple(r for r in rest if r.norm() != ONE)
    return unit, scaled


def snub_sum_form() -> tuple[Quaternion, ...]:
    """{tau*V1 + sigma*V2} + {tau*V2 + sigma*V3} + {tau*V3 + sigma*V1}, in canonical
    order: the tau and sigma multiples one engine.products of the two scalars
    with the rows of the Vi, and the 192 sums one broadcast."""
    orbits = d4_weight_orbits()
    v = np.stack([orbit.rows for orbit in orbits])  # [orbit, point], over one den
    scalars, sden = engine.common_rows([Quaternion(TAU), Quaternion(SIGMA)])
    tau, sigma = engine.products(scalars[:, None, None], v[None])
    sums = tau[:, :, None] + sigma[[1, 2, 0], None]  # entries are small halves
    return QuaternionSet.from_rows(sums.reshape(-1, 16), orbits[0].den * sden).elements


@lru_cache(maxsize=None)
def h4_simple_roots() -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
    """First icosian quadruple (in canonical order) with the H4 Gram matrix.

    Diagonal 1; consecutive products -1/2, -1/2, -tau/2; all other pairs 0.
    """
    icos = binary_icosahedral()
    rows, den = icos.rows, icos.den ** 2

    @lru_cache(maxsize=None)
    def neighbors(i):
        """The icosians at -1/2, at -tau/2 and at 0 to icos[i], by their dots' numerators."""
        dots = engine.dot_rows(rows[i:i + 1], rows)[0]
        return (np.flatnonzero((2 * dots == (-den, 0, 0, 0)).all(axis=1)).tolist(),
                np.flatnonzero((4 * dots == (-den, 0, -den, 0)).all(axis=1)).tolist(),
                (~dots.any(axis=1)).tolist())

    for a1 in range(len(icos)):
        obtuse1, _, ortho1 = neighbors(a1)
        for a2 in obtuse1:
            obtuse2, _, ortho2 = neighbors(a2)
            for a3 in obtuse2:
                if not ortho1[a3]:
                    continue
                for a4 in neighbors(a3)[1]:
                    if ortho1[a4] and ortho2[a4]:
                        return tuple(icos.elements[a] for a in (a1, a2, a3, a4))
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
    mask = tuple({0: 0, 1: 1, "0": 0, "1": 1}.get(v) for v in mask)
    if None in mask or len(mask) != 4 or not any(mask):
        raise BadParameter("mask must be four entries 0 or 1, picking at least one weight")
    return mask


# Every image g w_i over den 4 has coefficients at most 9 in magnitude, so an
# orbit's points are int64 rows over den 4 while sum |a_i| * 9 < 2**63.
_IMAGE_BOUND = 9


def h4_orbit(mask) -> tuple[Quaternion, ...]:
    """Canonically sorted W(H4) orbit of the masked weight sum: its distinct images under wh4()."""
    weight = sum((w for w, a in zip(h4_weights(), _mask_tuple(mask)) if a), Quaternion(0))
    rows, den = wh4().images(weight)
    return engine.quats_of(engine.distinct_rows(rows), den)


@lru_cache(maxsize=None)
def _reflections() -> tuple[np.ndarray, int, tuple[np.ndarray, np.ndarray]]:
    """The s_j, r -> -a_j conj(r) a_j, as (1 | a_j | -a_j) rows over den, and
    their matrices and dens."""
    a, den = engine.common_rows(h4_simple_roots())
    rows = _transform_rows((1, a, -a))
    return rows, den, engine.compile_transforms(rows, den)


@lru_cache(maxsize=None)
def _coset_action() -> np.ndarray:
    """action[k, j] is the k' with H g_k' = H g_k s_j, for H = W(D4):C3 and g_k
    the k-th seed conjugator: H g names the 24-cell g^-1 T, so H g s_j names
    s_j g^-1 T, read off coxeter.inscribed_24cells() by one engine.act of the
    s_j on 2I's rows, located by the index 2I keeps, and one RowIndex lookup."""
    cells = inscribed_24cells()
    s, den, _ = _reflections()
    icos = binary_icosahedral()
    moves = engine.locate(icos.row_index, icos.den, engine.act(s, icos.rows),
                          den * den * icos.den).reshape(len(s), len(icos))
    moved = np.sort(moves[:, cells]).reshape(-1, cells.shape[1])  # s_j C_k at row 25 j + k
    return engine.RowIndex(cells).find(moved).reshape(len(s), len(cells)).T


@lru_cache(maxsize=None)
def _parabolic_order(fixing: tuple[int, ...]) -> int:
    """|W_J| for J the s_j at these increasing indices.  The H4 diagram is the
    chain a_1 - a_2 - a_3 - a_4, so a gap in J splits W_J into a product; one
    s_j has order 2, and a longer run is the size of its orbit of the regular rho."""
    for k in range(1, len(fixing)):
        if fixing[k] > fixing[k - 1] + 1:
            return _parabolic_order(fixing[:k]) * _parabolic_order(fixing[k:])
    if len(fixing) < 2:
        return 2 ** len(fixing)
    (mats, dens), rho = _reflections()[2], sum(h4_weights(), Quaternion(0))
    return len(engine.closure_points([rho], [(mats[j], dens[j]) for j in fixing])[0])


@lru_cache(maxsize=None)
def _premise_table() -> tuple[list, int]:
    """(w_i, a_j) for the fundamental weights and simple roots, over den, from
    one dot_rows table that also certifies (rho, a_j) > 0 for every j."""
    table, den = engine.pairwise_dots(h4_weights() + (sum(h4_weights(), Quaternion(0)),),
                                      h4_simple_roots())
    if [FieldElement._make(*x, den).sign() for x in table[4].tolist()] != [1] * 4:
        raise NotInvariant("rho is not positive on every simple root")
    return table[:4].tolist(), den


def weight_decomposition(weights: tuple[int, int, int, int]) -> tuple[int, tuple[int, ...]]:
    """The size of the W(H4) orbit of lambda = sum(a_i w_i) and the sorted sizes
    of its W(D4):C3 orbits, the classes of the 25 cosets H g under the s_j with
    a_j = 0: c cosets hold |H| c / |W_J| points (README, "Verification model").
    Raises NotInvariant unless (lambda, a_j) = sum(a_i (w_i, a_j)) is positive
    exactly where a_j != 0, and OverflowError past _IMAGE_BOUND."""
    if sum(abs(a) for a in weights) * _IMAGE_BOUND >= 1 << 63:
        raise OverflowError("weighted orbit rows could leave the int64 range")
    table, den = _premise_table()
    signs = [FieldElement._make(*(sum(a * table[i][j][c] for i, a in enumerate(weights))
                                  for c in range(4)), den).sign() for j in range(4)]
    if signs != [int(a != 0) for a in weights]:
        raise NotInvariant("the weight is not positive exactly on its support's simple roots")
    fixing = tuple(j for j, a in enumerate(weights) if a == 0)
    classes = engine.least_labels(_coset_action()[:, list(fixing)].T)
    order = _parabolic_order(fixing)
    parts = np.unique(classes, return_counts=True)[1] * len(wd4c3()) // order
    return len(wh4()) // order, tuple(sorted(parts.tolist()))


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
            if tuple(sorted(summands)) == decomposition:  # the parts sum to total
                matched.append(lineno)
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
