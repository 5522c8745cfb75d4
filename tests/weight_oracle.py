"""The weight-table oracle for roots.weight_decomposition and roots.h4_orbit.

The images g w_i of the four fundamental weights under every element g of
W(H4), read off its factors, with each g labelled by the W(D4):C3 orbit of
g rho (element_coset_labels: engine.partition_points under W(D4):C3's
generators).  rho = w_1 + ... + w_4 is moved regularly, so two elements
share a label exactly when they share a coset H g, H = W(D4):C3, and no
coset rule of the package is called.  The orbit of sum(a_i w_i) is the table
weighted by a, and the least label reaching each point names its W(D4):C3
orbit, since the image of a coset H g is one W(D4):C3 orbit.  It makes
fifteen sorts of 14,400 rows for the appendix; the package reads the same
answers off the double cosets H g W_J.
"""

from functools import lru_cache
from math import lcm

import numpy as np

from icosian import engine
from icosian.coxeter import wd4c3, wh4
from icosian.engine import _sorted_runs
from icosian.errors import NotInvariant
from icosian.roots import h4_weights


def element_coset_labels() -> np.ndarray:
    """Each element g of W(H4), in row order, labelled by its coset H g: the
    least index of an element whose rho image lies in the W(D4):C3 orbit of g rho."""
    return _weight_table()[4]


def distinct_labelled(rows: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows in lexicographic order, each with the least label among its copies."""
    order, fresh = _sorted_runs(rows)
    starts = np.flatnonzero(fresh)
    return rows[order[starts]], np.minimum.reduceat(labels[order], starts)


@lru_cache(maxsize=None)
def _weight_table() -> tuple[np.ndarray, np.ndarray, int, int, np.ndarray]:
    """The images of the fundamental weights under W(H4), and each element's H-coset.

    table[i, g] is g w_i over den, in lowest terms, for g in the order of
    wh4().rows, on the columns cols that hold the nonzero entries; bound is
    the largest magnitude.  The images are read off W(H4)'s factors
    (TransformGroup.images), so its 14,400 rows are never made.  cosets[g]
    labels the coset H g of H = W(D4):C3 by the W(D4):C3 orbit of g rho:
    since rho = w_1 + ... + w_4 is moved regularly, that orbit is the image of H g.
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
    rho = _on_all_columns(_weighted(table, bound, (1, 1, 1, 1)), cols)
    if len(engine.distinct_rows(rho)) != len(rho):
        raise NotInvariant("the weight images do not move rho regularly")
    return table, cols, den, bound, engine.partition_points(rho, wd4c3().generator_matrices())


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
    weight onto it."""
    table, cols, den, bound, cosets = _weight_table()
    rows, labels = distinct_labelled(_weighted(table, bound, weights), cosets)
    return _on_all_columns(rows, cols), den, labels


def table_decomposition(weights) -> tuple[int, tuple[int, ...]]:
    """The orbit size and sorted W(D4):C3 orbit sizes, read off the weight table."""
    rows, _, labels = _weight_orbit(weights)
    return len(rows), tuple(sorted(np.unique(labels, return_counts=True)[1].tolist()))
