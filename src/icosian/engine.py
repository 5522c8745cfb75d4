"""Bulk machinery for transform orbits and scalar-product tables.

A quaternion over the field is a 16-vector of integers with a common
denominator; every transform then acts as an integer 16x16 matrix with its
own denominator.  Orbit closures and partitions become batched integer
matrix products, with a gcd pass keeping every point in lowest terms.

Every table of scalar products is made here too: each entry is a field
4-vector of integers over one denominator, and distinct_values lifts the few
distinct entries to field elements, so exact comparisons run once per value
rather than once per pair.  Results are exact: numpy carries the integer
arithmetic only after a bound on the operands proves that no int64 entry
can overflow.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .errors import NotInvariant
from .field import FieldElement
from .quaternion import _FTAB, _QTAB, Quaternion


def _structure_tensors():
    left = np.zeros((16, 16, 16), dtype=np.int64)
    right = np.zeros((16, 16, 16), dtype=np.int64)
    for j in range(4):
        for b in range(4):
            m = 4 * j + b
            for i in range(4):
                for a in range(4):
                    c0, mult = _FTAB[(b, a)]
                    k, s = _QTAB[(j, i)]
                    left[m, 4 * k + c0, 4 * i + a] += s * mult
                    k, s = _QTAB[(i, j)]
                    right[m, 4 * k + c0, 4 * i + a] += s * mult
    return left, right


_LSTRUCT, _RSTRUCT = _structure_tensors()


def _max_abs(arr: np.ndarray) -> int:
    return max(int(arr.max(initial=0)), -int(arr.min(initial=0)))


def _check_bound(terms: int, a: np.ndarray, b: np.ndarray) -> None:
    """Raise OverflowError unless a sum of terms products of a and b entries fits int64."""
    if terms * _max_abs(a) * _max_abs(b) >= 1 << 63:
        raise OverflowError("integer product could leave the int64 range")


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in int64, raising OverflowError unless every entry provably fits.

    Each entry is a sum of a.shape[-1] products, none larger in magnitude
    than max|a| * max|b|.
    """
    _check_bound(a.shape[-1], a, b)
    return a @ b


def quat_of(point) -> Quaternion:
    vec, den = point
    return Quaternion._from_ivec(vec, den)


_BLOCK = 256  # transforms per batched product, bounding the int64 temporaries


def _compile_block(transforms) -> tuple[np.ndarray, np.ndarray]:
    n = len(transforms)
    pvecs = np.array([t.p.ivec[0] for t in transforms], dtype=np.int64).reshape(n, 16)
    qvecs = np.array([t.q.ivec[0] for t in transforms], dtype=np.int64).reshape(n, 16)
    left = _matmul(pvecs, _LSTRUCT.reshape(16, 256)).reshape(n, 16, 16)
    right = _matmul(qvecs, _RSTRUCT.reshape(16, 256)).reshape(n, 16, 16)
    mats = _matmul(left, right)
    mats[np.array([t.star for t in transforms], dtype=bool), :, 4:] *= -1
    dens = np.array([t.p.ivec[1] * t.q.ivec[1] for t in transforms], dtype=np.int64)
    g = np.gcd(np.gcd.reduce(mats.reshape(n, 256), axis=1), dens)
    return mats // g[:, None, None], dens // g


def compile_transforms(transforms) -> tuple[np.ndarray, np.ndarray]:
    """Integer matrices and denominators for r -> p r q (conjugating first if starred)."""
    mats = np.empty((len(transforms), 16, 16), dtype=np.int64)
    dens = np.empty(len(transforms), dtype=np.int64)
    for i in range(0, len(transforms), _BLOCK):
        mats[i:i + _BLOCK], dens[i:i + _BLOCK] = _compile_block(transforms[i:i + _BLOCK])
    return mats, dens


def transform_matrix(t) -> tuple[np.ndarray, int]:
    """The matrix and denominator of one transform, as compile_transforms makes them."""
    mats, dens = _compile_block([t])
    return mats[0], int(dens[0])


def _normalize_columns(block: np.ndarray, dens) -> list[tuple[tuple[int, ...], int]]:
    dens = np.asarray(dens, dtype=np.int64)
    g = np.gcd(np.gcd.reduce(block, axis=1), dens)
    vecs = (block // g[:, None]).tolist()
    return [(tuple(v), d) for v, d in zip(vecs, (dens // g).tolist())]


def _apply_batch(mat: np.ndarray, mden: int, points) -> list[tuple[tuple[int, ...], int]]:
    arr = np.array([p[0] for p in points], dtype=np.int64)
    dens = [mden * p[1] for p in points]
    return _normalize_columns(_matmul(arr, mat.T), dens)


def _apply_generators(gens, frontier):
    return [pt for mat, den in gens for pt in _apply_batch(mat, den, frontier)]


def closure_points(seeds, gen_mats) -> dict[tuple[tuple[int, ...], int], int]:
    """BFS closure of seed points under generator matrices; insertion-indexed."""
    seen: dict[tuple[tuple[int, ...], int], int] = {}
    for s in seeds:
        seen.setdefault(s, len(seen))
    frontier = list(seen)
    while frontier:
        fresh = []
        for pt in _apply_generators(gen_mats, frontier):
            if pt not in seen:
                seen[pt] = len(seen)
                fresh.append(pt)
        frontier = fresh
    return seen


def partition_points(points, gen_mats) -> list[list[tuple[tuple[int, ...], int]]]:
    """Split the point set into connected components under the generators."""
    universe = {pt: False for pt in points}
    parts = []
    for start in points:
        if universe[start]:
            continue
        component = closure_points([start], gen_mats)
        for pt in component:
            if pt not in universe:
                raise NotInvariant("generator image left the decomposed set")
            universe[pt] = True
        parts.append(list(component))
    return parts


def apply_all(mats: np.ndarray, dens: np.ndarray, q: Quaternion):
    """Images of one point under a compiled stack of transforms."""
    vec, den = q.ivec
    arr = np.array(vec, dtype=np.int64)
    images = _matmul(mats, arr)
    return _normalize_columns(images, [int(d) * den for d in dens])


def _dot_forms():
    forms = np.zeros((4, 16, 16), dtype=np.int64)
    for i in range(4):
        for a in range(4):
            for b in range(4):
                c, m = _FTAB[(a, b)]
                forms[c, 4 * i + a, 4 * i + b] += m
    return forms


_DOT_FORMS = _dot_forms()


def _common_ivecs(points) -> tuple[np.ndarray, int]:
    """The 16-vectors of the points as integer rows over their lcm denominator."""
    points = list(points)
    dens = [q.ivec[1] for q in points]
    den = lcm(*dens)
    arr = np.array([q.ivec[0] for q in points], dtype=np.int64).reshape(len(points), 16)
    scale = np.array([den // d for d in dens], dtype=np.int64)[:, None]
    _check_bound(1, arr, scale)
    return arr * scale, den


def pairwise_dots(points, others=None) -> tuple[np.ndarray, int]:
    """Scalar products of every point with every point of others (default: points).

    table[i, j] holds the product of points[i] and others[j] as the integer
    field 4-vector of its numerator over the returned denominator.
    """
    left, lden = _common_ivecs(points)
    right, rden = (left, lden) if others is None else _common_ivecs(others)
    table = np.stack([_matmul(_matmul(left, form), right.T) for form in _DOT_FORMS],
                     axis=-1)
    return table, lden * rden


def distinct_values(table: np.ndarray, den: int) -> tuple[dict[FieldElement, int], np.ndarray]:
    """The distinct entries of a dot table, and where each entry sits among them.

    values maps each distinct entry, as a field element, to its position;
    index holds that position for every entry, so the entries equal to x are
    exactly index == values.get(x, -1).
    """
    rows, index = np.unique(table.reshape(-1, 4), axis=0, return_inverse=True)
    values = {FieldElement._make(*row, den): i for i, row in enumerate(rows.tolist())}
    return values, index.reshape(table.shape[:-1])
