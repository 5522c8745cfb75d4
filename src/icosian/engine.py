"""Bulk machinery for transform orbits, group tables and scalar-product tables.

A quaternion over the field is a 16-vector of integers with a common
denominator; every transform then acts as an integer 16x16 matrix with its
own denominator.  A point set is one int64 array of rows over one
denominator: closures and partitions are batched matrix products, and the
rows' lexicographic order is the canonical order of the points.  RowKey is
the one way rows are keyed: it packs each row into as few int64 words as
the bounds on its columns allow, in that order, so sorting, deduplication
and RowIndex's binary search all run on one int64 per row when it fits one
word.  The key is one-way: no rows are read back from it.  closure_points
is the one closure routine: it closes transform orbits and the binary
polyhedral groups (the orbit of 1 under right multiplication).  It holds
the rows it has found in canonical order and keys them afresh each round,
together with the frontier.

All multiplication is one 16x16 table, made once by _product_table, and
the bilinear forms of the scalar product are read off it.  products is the
one multiplication kernel on it: group closure checks, conjugacy classes
and the rows of every transform group are tables of it, so no group-sized
sweep multiplies Quaternion objects one pair at a time.  act applies
transforms, as (star | p | q) rows, to point rows by two products calls,
and a transform's 16x16 matrix is act on the 16 unit rows.

One rule of coefficient support holds for every bulk kernel: a column that
is zero in every row, and that the arithmetic cannot make nonzero, costs
nothing.  Icosians and the W(H4) rows lie in Q(sqrt5)^4, so 8 of their 16
columns are zero.  closure_points and partition_points act on the columns
that _support finds the generators keep; products multiplies only the table
terms that its operands' nonzero columns reach (_product_plan), and dot_rows
takes only the forms and columns they reach (_dot_plan).  Each plan is made
once per pair of supports, and its int64 bound counts only the kept terms.

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

from functools import lru_cache
from math import lcm

import numpy as np

from .errors import CapExceeded, NotInvariant
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


def _max_abs(arr) -> int:
    """The largest magnitude among the entries of an array; an int is its own."""
    if isinstance(arr, int):
        return abs(arr)
    return max(int(arr.max(initial=0)), -int(arr.min(initial=0)))


def _check_bound(terms: int, a, b) -> None:
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


def _nonzero(rows: np.ndarray) -> tuple[bytes, int]:
    """The coefficient support of (..., 16) rows, as 16 bool bytes, and their largest magnitude."""
    lo, hi = _column_range(rows.reshape(-1, 16))
    return ((lo != 0) | (hi != 0)).tobytes(), max(-int(lo.min()), int(hi.max()))


# (a b)_t = sum over r of b_r * _BW[r, t] * a[_BIDX[r, t]]: the same table, by b's coefficient.
_BIDX = np.zeros((16, 16), dtype=np.intp)
_BIDX[_PIDX, _T] = _S
_BW = np.zeros((16, 16), dtype=np.int64)
_BW[_PIDX, _T] = _PW


@lru_cache(maxsize=None)
def _product_plan(a_support: bytes, b_support: bytes):
    """The terms of a b that two coefficient supports keep, as (flip, terms, out, bound).

    Term (s, t) of the table multiplies a_s into (a b)_t and is kept when a_s
    and b_idx[s, t] both lie in support.  The sum runs over the coefficients
    of a that some kept term reads, or over those of b when flip is set and
    fewer of b's are read; each term of it is one column slice of that
    operand times the other operand's gathered columns and their weights, on
    the output columns out that the kept terms reach: every other one is
    zero.  bound is the largest sum of kept |w| into one output column.
    """
    a, b = (np.frombuffer(x, dtype=bool) for x in (a_support, b_support))
    kept = a[:, None] & b[_PIDX]  # [s, t]
    bound = int((np.abs(_PW) * kept).sum(axis=0).max())
    outs = np.flatnonzero(kept.any(axis=0))
    by_a, by_b = (np.flatnonzero(k.any(axis=1)) for k in (kept, kept[_BIDX, _T]))
    flip = len(by_b) < len(by_a)
    cols, idx, w = (by_b, _BIDX, _BW) if flip else (by_a, _PIDX, _PW)
    terms = tuple((slice(s, s + 1), idx[s, outs], w[s, outs]) for s in cols.tolist())
    return flip, terms, outs, bound


_PRODUCT_BLOCK = 4096  # products per batch, bounding the int64 temporaries


def _product_block(outer: np.ndarray, inner: np.ndarray, terms) -> np.ndarray:
    """The sum of outer[..., col] * inner[..., idx] * w over the plan's terms."""
    (col, idx, w), *rest = terms
    out = outer[..., col] * (inner[..., idx] * w)
    for col, idx, w in rest:
        out += outer[..., col] * (inner[..., idx] * w)
    return out


def products(a, b) -> np.ndarray:
    """Hamilton products of broadcastable int64 quaternion rows, shape (..., 16).

    Entry i is the numerator of a[i] b[i] over the product of the two
    denominators; a[:, None] and b[None, :] make the whole product table.
    Only the terms that the operands' coefficient supports keep are
    multiplied (see _product_plan).  Raises OverflowError unless every
    coefficient provably fits int64: the arithmetic wraps modulo 2**64, so a
    result in range is exact.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    (a_support, a_max), (b_support, b_max) = _nonzero(a), _nonzero(b)
    flip, terms, cols, bound = _product_plan(a_support, b_support)
    _check_bound(bound, a_max, b_max)
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.zeros(np.broadcast_shapes(shape, (1, 16)), dtype=np.int64)
    if not terms:
        return out.reshape(shape)
    # Blocks run along the leading axis of the arrays, made at least 2-D; an
    # operand of length 1 there goes whole to every block, never broadcast.
    a, b = (x.reshape((1,) * (out.ndim - x.ndim) + x.shape) for x in (a, b))
    outer, inner = (b, a) if flip else (a, b)
    step = max(1, _PRODUCT_BLOCK * 16 // max(1, int(np.prod(out.shape[1:]))))
    for lo in range(0, len(out), step):
        out[lo:lo + step, ..., cols] = _product_block(
            *(x if len(x) == 1 else x[lo:lo + step] for x in (outer, inner)), terms)
    return out.reshape(shape)


_CONJ = np.repeat([1, -1, -1, -1], 4)


def conjugates(rows: np.ndarray) -> np.ndarray:
    """The quaternion conjugates of int64 rows, over the same denominators."""
    return rows * _CONJ


def act(transforms: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Every transform, given as (star | p | q) int64 rows, applied to every point row.

    Entry [i, j] is p_i r_j q_i, or p_i conj(r_j) q_i where transform i is
    starred, over the points' denominator times the square of the
    transforms' denominator: shape (len(transforms), len(points), 16).
    """
    moved = np.where(transforms[:, :1, None] == 1, conjugates(points), points)
    return products(products(transforms[:, None, 1:17], moved), transforms[:, None, 17:])


def compile_transforms(rows: np.ndarray, den: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer matrices and denominators of the transforms given as (star | p | q) rows over den.

    Column j of matrix i is transform i applied to unit row j; each matrix
    and den**2 are reduced by the gcd of its entries and den**2.
    """
    mats = act(rows, np.eye(16, dtype=np.int64)).transpose(0, 2, 1)
    dens = np.full(len(rows), den * den, dtype=np.int64)
    g = np.gcd(np.gcd.reduce(mats.reshape(len(rows), 256), axis=1), dens)
    return mats // g[:, None, None], dens // g


def transform_matrix(t) -> tuple[np.ndarray, int]:
    """The matrix and denominator of one transform, as compile_transforms makes them."""
    pq, den = common_rows([t.p, t.q])
    mats, dens = compile_transforms(np.hstack([[int(t.star)], pq.ravel()])[None], den)
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


_FOLD = 64  # rows reduced as one long row by _column_range


def _column_range(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least and the greatest entry of each column, each taken with 0.

    numpy reduces along a column of short rows slowly, so each run of _FOLD
    rows is read as one long row: one reduction over the runs, then one over
    the _FOLD rows of its result, and the rows past the last run.
    """
    n, c = rows.shape
    cut = n - n % _FOLD
    runs, rest = rows[:cut].reshape(cut // _FOLD, _FOLD * c), rows[cut:]
    lo = runs.min(axis=0, initial=0).reshape(_FOLD, c).min(axis=0)
    hi = runs.max(axis=0, initial=0).reshape(_FOLD, c).max(axis=0)
    return np.minimum(lo, rest.min(axis=0, initial=0)), np.maximum(hi, rest.max(axis=0, initial=0))


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
    def of(cls, rows: np.ndarray) -> RowKey:
        """The key on the largest magnitude in each column of the rows."""
        lo, hi = _column_range(rows)
        return cls([max(-a, b) for a, b in zip(lo.tolist(), hi.tolist())])

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
    """The rows' lexicographic order, and which sorted rows differ from their predecessor."""
    keys = RowKey.of(rows).keys(rows)
    order = np.argsort(keys)
    keys = keys[order]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return order, fresh


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows in lexicographic order: over one denominator, canonical order."""
    order, fresh = _sorted_runs(rows)
    return rows[order[fresh]]


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


def locate(points, rows: np.ndarray, den: int) -> np.ndarray:
    """The index of each row over den among the points, or -1 where it is none of them."""
    prows, pden = common_rows(points)
    common = lcm(den, pden)
    index = RowIndex(rescaled(prows, pden, common))
    return index.find(rescaled(rows.reshape(-1, 16), den, common))


def differences(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """rows[index[:, k]] - rows[index[:, 0]] for k >= 1, raising OverflowError rather than wrap."""
    _check_bound(2, rows, 1)
    return rows[index[:, 1:]] - rows[index[:, :1]]


def quats_of(rows: np.ndarray, den: int) -> tuple[Quaternion, ...]:
    """The rows over den as Quaternions, each reduced to lowest terms by one numpy gcd.

    numpy's gcd runs on int64, so a den past int64 takes it on Python ints.
    """
    g = np.gcd.reduce(rows, axis=1, initial=0)
    g = np.gcd(g, den) if den < 1 << 63 else np.gcd(g.astype(object), den)
    return tuple(Quaternion._reduced(tuple(row), d)
                 for row, d in zip((rows // g[:, None]).tolist(), (den // g).tolist()))


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


def closure_points(seeds, gen_mats, cap=None) -> tuple[np.ndarray, int]:
    """The orbit of the seed points under the generators, as canonically ordered
    int64 rows of shape (n, 16).

    The search runs on the support of the seeds (see _support) and keeps the
    rows it has found in lexicographic order.  Each round keys them and the
    frontier on one RowKey, so the held rows' keys come out sorted, and
    inserts the frontier's new rows in place.  An image not integral over
    the rows' denominator multiplies that denominator, and every row, by the
    missing factor.
    Raises CapExceeded as soon as more than cap rows are found, before the
    next round's images are made, so an infinite orbit stops there.
    """
    m = lcm(*(d for _, d in gen_mats))  # every generator over one denominator, in one stack
    mats = np.stack([_scaled(mat, m // d) for mat, d in gen_mats])
    points, den = common_rows(seeds)
    cols = _support(points, mats)
    g, c = len(mats), len(cols)
    mats = mats[:, cols[:, None], cols].reshape(g * c, c)
    held, frontier = points[:0, cols], points[:, cols]
    while len(frontier):
        both = np.concatenate([held, frontier])
        keys = RowKey.of(both).keys(both)
        fresh, first = np.unique(keys[len(held):], return_index=True)
        at, hit = _lookup(keys[:len(held)], fresh)
        frontier = frontier[first[~hit]]
        held = np.insert(held, at[~hit], frontier, axis=0)
        if cap is not None and len(held) > cap:
            raise CapExceeded(f"closure exceeded {cap} points")
        n = len(frontier)
        images = _matmul(frontier, mats.T).reshape(n * g, c)  # each point under each generator
        frontier = images // m
        # A product that wraps (only within m of -2**63) reads as a remainder,
        # which the gcd then settles exactly.
        if (frontier * m != images).any():
            cut = int(np.gcd.reduce(images.ravel(), initial=m))
            frontier = images // cut
            den *= m // cut
            held = _scaled(held, m // cut)
    out = np.zeros((len(held), 16), dtype=np.int64)
    out[:, cols] = held
    return out, den


def distinct_labelled(rows: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows in lexicographic order, each with the least label among its copies."""
    order, fresh = _sorted_runs(rows)
    starts = np.flatnonzero(fresh)
    return rows[order[starts]], np.minimum.reduceat(labels[order], starts)


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


# Form c gives coefficient c of the scalar product (x, y), the real part of
# x y-bar: x @ _DOT_FORMS[c] @ y, read off the table's first four columns.
_DOT_FORMS = np.zeros((4, 16, 16), dtype=np.int64)
_DOT_FORMS[_T[:, :4], _S[:, :4], _PIDX[:, :4]] = _PW[:, :4] * _CONJ[_PIDX[:, :4]]


@lru_cache(maxsize=None)
def _dot_plan(left_support: bytes, right_support: bytes):
    """The forms two coefficient supports reach, as (left cols, right cols, forms, coeffs).

    Coefficient c is reached when _DOT_FORMS[c] has a nonzero entry [s, r]
    with s in the left support and r in the right.  forms holds the reached
    forms on the support columns, as [s, c, r].
    """
    left, right = (np.frombuffer(x, dtype=bool) for x in (left_support, right_support))
    kept = (_DOT_FORMS != 0) & left[:, None] & right
    coeffs, lcols, rcols = (np.flatnonzero(kept.any(axis=axes))
                            for axes in ((1, 2), (0, 2), (0, 1)))
    forms = _DOT_FORMS[coeffs[:, None, None], lcols[:, None], rcols].transpose(1, 0, 2)
    return lcols, rcols, forms, coeffs


def dot_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Scalar products of int64 quaternion rows, as field 4-vectors: shape (..., a, b, 4).

    left (..., a, 16) and right (..., b, 16) broadcast over their leading
    axes, so a stack of cells makes one block-diagonal table.  Entry
    [..., i, j] is the numerator of (left[i], right[j]) over the product of
    the two denominators.  Only the coefficients and columns that the two
    coefficient supports reach are computed (see _dot_plan); the rest are 0.
    """
    lcols, rcols, forms, coeffs = _dot_plan(_nonzero(left)[0], _nonzero(right)[0])
    a, b = left.shape[-2], right.shape[-2]
    out = np.zeros(np.broadcast_shapes(left.shape[:-2], right.shape[:-2]) + (a, b, 4),
                   dtype=np.int64)
    if not len(coeffs):
        return out
    nl, nc, nr = forms.shape
    mid = _matmul(left[..., lcols], forms.reshape(nl, nc * nr))  # [..., i, (c, r)]
    mid = mid.reshape(mid.shape[:-2] + (a * nc, nr))
    table = _matmul(mid, np.swapaxes(right[..., rcols], -1, -2))  # [..., (i, c), j]
    out[..., coeffs] = np.swapaxes(table.reshape(table.shape[:-2] + (a, nc, b)), -1, -2)
    return out


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
    order, fresh = _sorted_runs(flat)
    rows = flat[order[fresh]]
    index = np.empty(len(flat), dtype=np.intp)
    index[order] = np.cumsum(fresh) - 1
    values = {FieldElement._make(*row, den): i for i, row in enumerate(rows.tolist())}
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
    _check_bound(2, both, 1)  # a difference of two entries
    return (both[0] - both[1]) // 2


def side_signs(normals: np.ndarray, points: np.ndarray, anchors) -> np.ndarray:
    """Exact signs of (n_i, p_j) - (n_i, p_anchors[i]), as an int8 array [i, j].

    normals and points are int64 quaternion rows, each row over any positive
    denominator, since positive scaling changes no sign.  One dot table is
    differenced in place, and each distinct difference in it is signed once.
    """
    table = dot_rows(normals, points)
    _check_bound(2, table, 1)  # a difference of two entries
    table -= table[np.arange(len(table)), anchors][:, None]
    values, index = distinct_values(table, 1)
    return np.array([x.sign() for x in values], dtype=np.int8)[index]
