"""Bulk machinery for transform orbits, group tables and scalar-product tables.

A quaternion over the field is a 16-vector of integers with a common
denominator; every transform then acts as an integer 16x16 matrix with its
own denominator.  A point set is one int64 array of rows over one
denominator: closures and partitions are batched matrix products, and the
rows' lexicographic order is the canonical order of the points.  RowKey is
the one way rows are keyed: it packs each row into as few int64 words as
the bounds on its columns allow, in that order, so sorting, deduplication
and RowIndex's binary search all run on one int64 per row when it fits one
word.  Orbits and partitions run on the coordinate support that their
generators keep, so columns that stay zero cost no arithmetic.

All multiplication is one 16x16 table, made once by _product_table: the
structure tensors that compile transforms and the bilinear forms of the
scalar product are read off it.  products is the one batched Hamilton
product on it: group closure checks, conjugacy classes and the rows of
every transform group are tables of it, so no group-sized sweep multiplies
Quaternion objects one pair at a time.

Every table of scalar products is made here too: each entry is a field
4-vector of integers over one denominator, and distinct_values lifts the few
distinct entries to field elements, so exact comparisons run once per value
rather than once per pair.  Hyperplane normals are products as well:
cross_rows is the generalised cross product (c b-bar a - a b-bar c) / 2 of
integer rows, so a certificate needs no field solver.  side_signs is the
one place where bulk geometry takes exact signs: which side of each
hyperplane every point lies on, for cell certificates and hull faces alike.
Results are exact: numpy carries the integer arithmetic only after a bound
on the operands proves that no int64 entry can overflow.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .errors import NotInvariant
from .field import FieldElement
from .quaternion import _FTAB, _QTAB, Quaternion


def _product_table() -> tuple[np.ndarray, np.ndarray]:
    """(a b)_t = sum over s of a_s * w[s, t] * b[idx[s, t]], for 16-vectors a and b.

    The one multiplication table: unit signs times radical multipliers.  For
    each coefficient s of a, the product adds a signed, scaled permutation of
    b's coefficients; every other table of this module is read off it.
    """
    idx = np.zeros((16, 16), dtype=np.intp)
    w = np.zeros((16, 16), dtype=np.int64)
    for (i, j), (k, sign) in _QTAB.items():
        for (a, b), (c, mult) in _FTAB.items():
            s, t = 4 * i + a, 4 * k + c
            idx[s, t], w[s, t] = 4 * j + b, sign * mult
    return idx, w


_PIDX, _PW = _product_table()
_S, _T = np.indices((16, 16))
# _LSTRUCT[s] multiplies by basis element s from the left, _RSTRUCT[s] from the right.
_LSTRUCT = np.zeros((16, 16, 16), dtype=np.int64)
_LSTRUCT[_S, _T, _PIDX] = _PW
_RSTRUCT = np.zeros((16, 16, 16), dtype=np.int64)
_RSTRUCT[_PIDX, _T, _S] = _PW


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


# A coefficient of a b sums its terms, none larger than |w| max|a| max|b|.
_PRODUCT_BOUND = int(np.abs(_PW).sum(axis=0).max())
_PRODUCT_BLOCK = 4096  # products per batch, bounding the int64 temporaries


def _product_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b for broadcastable rows, summed over the coefficients of a."""
    out = a[..., :1] * (b[..., _PIDX[0]] * _PW[0])
    for s in range(1, 16):
        out += a[..., s:s + 1] * (b[..., _PIDX[s]] * _PW[s])
    return out


def products(a, b) -> np.ndarray:
    """Hamilton products of broadcastable int64 quaternion rows, shape (..., 16).

    Entry i is the numerator of a[i] b[i] over the product of the two
    denominators; a[:, None] and b[None, :] make the whole product table.
    Raises OverflowError unless every coefficient provably fits int64: the
    arithmetic wraps modulo 2**64, so a result in range is exact.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    _check_bound(_PRODUCT_BOUND, a, b)
    shape = np.broadcast_shapes(a.shape, b.shape)
    # Blocks run along the leading axis of the arrays, made at least 2-D; an
    # operand of length 1 there goes whole to every block, never broadcast.
    out = np.empty(np.broadcast_shapes(shape, (1, 16)), dtype=np.int64)
    a, b = (x.reshape((1,) * (out.ndim - x.ndim) + x.shape) for x in (a, b))
    step = max(1, _PRODUCT_BLOCK * 16 // max(1, int(np.prod(out.shape[1:]))))
    for lo in range(0, len(out), step):
        out[lo:lo + step] = _product_block(*(x if len(x) == 1 else x[lo:lo + step]
                                             for x in (a, b)))
    return out.reshape(shape)


_CONJ = np.repeat([1, -1, -1, -1], 4)


def conjugates(rows: np.ndarray) -> np.ndarray:
    """The quaternion conjugates of int64 rows, over the same denominators."""
    return rows * _CONJ


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


def _scaled(rows: np.ndarray, k) -> np.ndarray:
    _check_bound(1, rows, np.asarray(k))
    return rows * k


def rescaled(rows: np.ndarray, den: int, common: int) -> np.ndarray:
    """Rows over den as rows over common, a multiple of den; OverflowError rather than wrap."""
    return _scaled(rows, common // den)


def common_rows(points) -> tuple[np.ndarray, int]:
    """The 16-vectors of the points as int64 rows over their lcm denominator."""
    ivecs = [q.ivec for q in points]
    den = lcm(*(d for _, d in ivecs))
    arr = np.array([v for v, _ in ivecs], dtype=np.int64).reshape(len(ivecs), 16)
    return _scaled(arr, np.array([den // d for _, d in ivecs], dtype=np.int64)[:, None]), den


_WORD = (1 << 64) - 1  # columns share a word while their radices multiply to at most this


class RowKey:
    """An order-preserving key for int64 rows, packed by a bound on each column.

    Column k holds entries x with |x| <= bounds[k]: a balanced digit in radix
    2 bounds[k] + 1.  Consecutive columns share one int64 word while their
    radices multiply to at most 2**64 - 1, so no word or partial sum leaves
    +-(2**63 - 1).  A column of zeros costs nothing; a column that fits no
    shared word takes a word of its own, raw.  For rows within the bounds,
    equal rows have equal words and comparing the words in order compares
    the rows lexicographically.  The packing is planned on Python ints, so no
    bound raises or wraps.
    """

    def __init__(self, bounds):
        self._lo = np.array([-min(b, 1 << 63) for b in bounds], dtype=np.int64)
        self._hi = np.array([min(b, (1 << 63) - 1) for b in bounds], dtype=np.int64)
        words, size = [[]], 1  # each word's columns, most significant first
        for k, b in enumerate(bounds):
            if b == 0:
                continue
            if size * (2 * b + 1) > _WORD and words[-1]:
                words.append([])
                size = 1
            words[-1].append(k)
            size *= 2 * b + 1
        self._weights = np.zeros((len(bounds), len(words)), dtype=np.int64)
        for w, word in enumerate(words):
            value = 1
            for k in reversed(word):
                self._weights[k, w] = value
                value *= 2 * bounds[k] + 1

    @classmethod
    def of(cls, rows: np.ndarray, spread: int = 1) -> RowKey:
        """The key on spread times the largest magnitude in each column of the rows."""
        lo, hi = rows.min(axis=0, initial=0).tolist(), rows.max(axis=0, initial=0).tolist()
        return cls([spread * max(-a, b) for a, b in zip(lo, hi)])

    def fits(self, rows: np.ndarray) -> np.ndarray:
        """Which rows lie within the bounds: only those have keys."""
        return ((rows >= self._lo) & (rows <= self._hi)).all(axis=1)

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """One key per row within the bounds, in the rows' lexicographic order.

        With one word the key is that int64.  Otherwise it is the bytes of
        the words, big-endian with the sign bit flipped, so that comparing
        bytes compares words.
        """
        words = rows @ self._weights
        if words.shape[1] == 1:
            return words[:, 0]
        return (words ^ (-1 << 63)).astype(">i8").view(f"V{8 * words.shape[1]}").ravel()


def _sorted_runs(rows: np.ndarray):
    """The rows' lexicographic order, the sorted rows, and which differ from their predecessor."""
    keys = RowKey.of(rows).keys(rows)
    order = np.argsort(keys)
    keys = keys[order]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return order, rows[order], fresh


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows in lexicographic order: over one denominator, canonical order."""
    _, rows, fresh = _sorted_runs(rows)
    return rows[fresh]


def _lookup(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each query sits, or would go, in the sorted keys, and whether it is there."""
    at = np.searchsorted(keys, queries)
    hit = at < len(keys)
    hit[hit] = keys[at[hit]] == queries[hit]
    return at, hit


class RowIndex:
    """Where int64 rows sit in a fixed set of rows, by binary search over their row keys.

    The keys are one int64 per row when the rows' column bounds pack into
    one word.  A query outside those bounds is no row of the set.
    """

    def __init__(self, rows: np.ndarray):
        self._key = RowKey.of(rows)
        keys = self._key.keys(rows)
        self._order = np.argsort(keys)
        self._keys = keys[self._order]

    def find(self, queries: np.ndarray) -> np.ndarray:
        """The index of each query row among the rows, or -1 where it is absent."""
        found = np.full(len(queries), -1, dtype=np.intp)
        inside = np.flatnonzero(self._key.fits(queries))
        keys = self._key.keys(queries[inside])
        ordered = np.argsort(keys)  # a sorted batch searches faster
        at, hit = _lookup(self._keys, keys[ordered])
        found[inside[ordered[hit]]] = self._order[at[hit]]
        return found


def differences(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """rows[index[:, k]] - rows[index[:, 0]] for k >= 1, raising OverflowError rather than wrap."""
    _check_bound(2, rows, np.asarray(1))
    return rows[index[:, 1:]] - rows[index[:, :1]]


def quats_of(rows: np.ndarray, den: int) -> tuple[Quaternion, ...]:
    return tuple(Quaternion._from_ivec(row, den) for row in rows.tolist())


def _support(rows: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The fewest columns that hold every row's nonzero entries and that each matrix keeps.

    Column j reaches column i when some matrix has a nonzero entry [i, j];
    an image of a row zero outside the support is then zero outside it too.
    """
    reach = (mats != 0).any(axis=0)
    cols = rows.any(axis=0)
    while True:
        grown = cols | reach[:, cols].any(axis=1)
        if np.array_equal(grown, cols):
            return np.flatnonzero(cols)
        cols = grown


def closure_points(seeds, gen_mats) -> tuple[np.ndarray, int]:
    """The orbit of the seeds under the generators, as canonically ordered rows.

    The search runs on the support of the seeds (see _support) and keeps the
    sorted row keys of the points found; a frontier outside the key's bounds
    re-keys them on twice its largest entries.  An image not integral over
    the rows' denominator multiplies that denominator, and every row, by the
    missing factor.
    """
    m = lcm(*(d for _, d in gen_mats))  # every generator over one denominator, in one stack
    mats = np.stack([_scaled(mat, m // d) for mat, d in gen_mats])
    seeds, den = common_rows(seeds)
    cols = _support(seeds, mats)
    mats = mats[:, cols[:, None], cols].reshape(len(mats) * len(cols), len(cols))
    frontier = seeds[:, cols]
    found, key = [frontier[:0]], None
    while len(frontier):
        if key is None or not key.fits(frontier).all():
            found = [np.concatenate(found)]
            key = RowKey.of(np.concatenate([found[0], frontier]), 2)
            seen = np.sort(key.keys(found[0]))
        keys, first = np.unique(key.keys(frontier), return_index=True)
        at, hit = _lookup(seen, keys)
        seen = np.insert(seen, at[~hit], keys[~hit])
        frontier = frontier[first[~hit]]
        found.append(frontier)
        images = _matmul(frontier, mats.T).reshape(len(frontier) * len(gen_mats), len(cols))
        cut = int(np.gcd.reduce(images.ravel(), initial=m))
        if cut < m:
            den *= m // cut
            found, key = [_scaled(np.concatenate(found), m // cut)], None
        frontier = images // cut
    rows = distinct_rows(np.concatenate(found))
    out = np.zeros((len(rows), 16), dtype=np.int64)
    out[:, cols] = rows
    return out, den


def partition_points(rows: np.ndarray, gen_mats) -> np.ndarray:
    """Label each of the distinct rows with the lowest row index in its orbit.

    The images are taken on the rows' support (see _support), where every
    image of a row lies.
    """
    cols = _support(rows, np.stack([mat for mat, _ in gen_mats]))
    rows = rows[:, cols]
    index = RowIndex(rows)
    perms = []
    for mat, d in gen_mats:
        images = _matmul(rows, mat[cols[:, None], cols].T)
        if (images % d).any():
            raise NotInvariant("generator image is not integral over the set's denominator")
        perm = index.find(images // d)
        if (perm < 0).any():
            raise NotInvariant("generator image left the decomposed set")
        perms.append(perm)
    labels, prev = np.arange(len(rows)), None
    while not np.array_equal(labels, prev):
        prev = labels
        for perm in perms:
            labels = np.minimum(labels, labels[perm])
    return labels


def apply_all(mats: np.ndarray, dens: np.ndarray, q: Quaternion) -> tuple[np.ndarray, int]:
    """Images of one point under a compiled stack of transforms, over one denominator."""
    vec, den = q.ivec
    common = lcm(*dens.tolist())
    images = _matmul(mats, np.array(vec, dtype=np.int64))
    return _scaled(images, (common // dens)[:, None]), common * den


# Form c gives coefficient c of the scalar product (x, y), the real part of
# x y-bar: x @ _DOT_FORMS[c] @ y, read off the table's first four columns.
_DOT_FORMS = np.zeros((4, 16, 16), dtype=np.int64)
_DOT_FORMS[_T[:, :4], _S[:, :4], _PIDX[:, :4]] = _PW[:, :4] * _CONJ[_PIDX[:, :4]]


def dot_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Scalar products of int64 quaternion rows, as field 4-vectors: shape (..., a, b, 4).

    left (..., a, 16) and right (..., b, 16) broadcast over their leading
    axes, so a stack of cells makes one block-diagonal table.  Entry
    [..., i, j] is the numerator of (left[i], right[j]) over the product of
    the two denominators.
    """
    right = np.swapaxes(right, -1, -2)
    return np.stack([_matmul(_matmul(left, form), right) for form in _DOT_FORMS], axis=-1)


def pairwise_dots(points, others=None) -> tuple[np.ndarray, int]:
    """Scalar products of every point with every point of others (default: points).

    table[i, j] holds the product of points[i] and others[j] as the integer
    field 4-vector of its numerator over the returned denominator.
    """
    left, lden = common_rows(points)
    right, rden = (left, lden) if others is None else common_rows(others)
    return dot_rows(left, right), lden * rden


def distinct_values(table: np.ndarray, den: int) -> tuple[dict[FieldElement, int], np.ndarray]:
    """The distinct entries of a dot table, and where each entry sits among them.

    values maps each distinct entry, as a field element, to its position in
    the entries' lexicographic order; index holds that position for every
    entry, so the entries equal to x are exactly index == values.get(x, -1).
    """
    flat = table.reshape(-1, 4)
    order, rows, fresh = _sorted_runs(flat)
    index = np.empty(len(flat), dtype=np.intp)
    index[order] = np.cumsum(fresh) - 1
    values = {FieldElement._make(*row, den): i for i, row in enumerate(rows[fresh].tolist())}
    return values, index.reshape(table.shape[:-1])


def cross_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Generalised cross products n_l = eps_ijkl a_i b_j c_k of int64 quaternion rows.

    Row r is orthogonal to a[r], b[r] and c[r], and is zero exactly when
    they are linearly dependent.  Its entries are the integer numerators of
    n = (c b-bar a - a b-bar c) / 2 over the product of the inputs'
    denominators: only its direction is used.  The two triple products come
    from products, and their difference is bounded before it is taken.
    """
    both = products(np.stack([c, a]), products(conjugates(b), np.stack([a, c])))
    _check_bound(2, both, np.asarray(1))  # a difference of two entries
    return (both[0] - both[1]) // 2


_SIGN_BLOCK = 64  # normals per sign table, bounding its int64 temporaries


def side_signs(normals: np.ndarray, points: np.ndarray, anchors) -> np.ndarray:
    """Exact signs of (n_i, p_j) - (n_i, p_anchors[i]), as an int8 array [i, j].

    normals and points are int64 quaternion rows, each row over any positive
    denominator, since positive scaling changes no sign.  Each block of
    normals makes one dot table, and each distinct difference in it is
    signed once.
    """
    signs = np.empty((len(normals), len(points)), dtype=np.int8)
    for lo in range(0, len(normals), _SIGN_BLOCK):
        table = dot_rows(normals[lo:lo + _SIGN_BLOCK], points)
        _check_bound(2, table, np.asarray(1))  # a difference of two entries
        at = table[np.arange(len(table)), anchors[lo:lo + _SIGN_BLOCK]]
        table -= at[:, None]
        values, index = distinct_values(table, 1)
        signs[lo:lo + _SIGN_BLOCK] = np.array([x.sign() for x in values], dtype=np.int8)[index]
    return signs
