"""Bulk machinery for transform orbits, group tables and scalar-product tables.

A quaternion over the field is a 16-vector of integers with a common
denominator; every transform then acts as an integer 16x16 matrix with its
own denominator.  A point set is one int64 array of rows over one
denominator: closures and partitions are batched matrix products, and the
rows' lexicographic order is the canonical order of the points.  RowKey is
the one way rows are keyed: it packs each row into as few int64 words as
the bounds on its columns allow, in that order, so sorting, deduplication
and RowIndex's binary search all run on one int64 per row when it fits one
word; locate reads a point set's kept RowIndex for rows over any
denominator.  The key is one-way: no rows are read back from it.  closure_points
is the one closure routine: it closes transform orbits and the binary
polyhedral groups (the orbit of 1 under right multiplication).  It holds
the rows it has found in canonical order and keys them afresh each round,
together with the frontier.

All multiplication is quaternion's one product table, scattered once into
16x16 arrays, and one kernel reads them: _bilinear, which makes the first
few columns of a Hamilton product.  products is all 16 of them: the rows of
every transform group are tables of it.  left_perms reads a left action on a
point set off the image rows of a few generators, composed by index (a
Schreier tree): exact, since h b for one nonzero point b fixes h.
dot_rows is the first 4 of left times conj(right), since the scalar product
(x, y) is the real part of x y-bar.  act applies transforms, as
(star | p | q) rows, to point rows by two products calls, and a
transform's 16x16 matrix is act on the 16 unit rows.

One rule of coefficient support holds for every bulk kernel: a column that
is zero in every row, and that the arithmetic cannot make nonzero, costs
nothing.  Icosians and the W(H4) rows lie in Q(sqrt5)^4, so 8 of their 16
columns are zero.  closure_points and partition_points act on the columns
that _support finds the generators keep; _bilinear multiplies only the
table terms that its operands' nonzero columns reach, as planned once per
pair of supports (_plan), and bounds each column by its kept terms alone.
Operands that broadcasting repeats at most twice, such as cross_rows'
stacks, are copied out as same-shape rows first.

Every table of scalar products is made here too: each entry is a field
4-vector of integers over one denominator, and distinct_values lifts the few
distinct entries to field elements, so exact comparisons run once per value
rather than once per pair.  Hyperplane normals are products as well:
cross_rows is the generalised cross product (c b-bar a - a b-bar c) / 2 of
integer rows, so a certificate needs no field solver.  signs is the one
place where bulk geometry takes exact signs: of side_signs' table, which side
of each hyperplane every point lies on, and of census and dual orientations.
Results are exact: numpy carries the integer arithmetic only after a bound
on the operands proves that no int64 entry can overflow.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm, prod

import numpy as np

from .errors import CapExceeded, NotInvariant
from .field import FieldElement
from .quaternion import _PRODUCT_TABLE, Quaternion


def _scatter(table) -> tuple[np.ndarray, np.ndarray]:
    """(a b)_t = sum over s of a_s * w[s, t] * b[idx[s, t]], for 16-vectors a and b.

    The one multiplication table, quaternion's, as arrays: for each
    coefficient s of a, the product adds a signed, scaled permutation of
    b's coefficients; every other table of this module is read off it.
    """
    s, r, t, m = np.array([(s, r, t, m) for s, terms in table for r, t, m in terms]).T
    idx, w = np.zeros((16, 16), dtype=np.intp), np.zeros((16, 16), dtype=np.int64)
    idx[s, t], w[s, t] = r, m
    return idx, w


_PIDX, _PW = _scatter(_PRODUCT_TABLE)


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


def _magnitudes(rows: np.ndarray) -> np.ndarray:
    """The largest magnitude in each of the 16 columns of (..., 16) rows, as uint64."""
    lo, hi = _column_range(rows.reshape(-1, 16))
    return np.maximum((-lo).view(np.uint64), hi.view(np.uint64))


@lru_cache(maxsize=None)
def _plan(a_support: bytes, b_support: bytes, width: int):
    """The table terms two coefficient supports keep, as (outs, s, r, w, bound).

    Term (s, t) adds a_s * w[s, t] * b_r, r = idx[s, t], to column t, and is
    kept when a_s and b_r both lie in support.  outs lists the columns t <
    width that a kept term reaches: every other one is zero.  Column o of s,
    r and w lists the kept terms of column outs[o], padded with zero weights
    to one length.  bound is the largest sum of kept |w| into one column.
    """
    a, b = (np.frombuffer(x, dtype=bool) for x in (a_support, b_support))
    kept = a[:, None] & b[_PIDX[:, :width]]  # [s, t]
    outs = np.flatnonzero(kept.any(axis=0))
    # Each column's kept terms first, in order of s.
    s = np.argsort(~kept[:, outs], axis=0, kind="stable")[:int(kept.sum(axis=0).max(initial=0))]
    r, w = _PIDX[s, outs], _PW[s, outs] * kept[s, outs]
    return outs, s, r, w, int(np.abs(w).sum(axis=0).max(initial=0))


_PRODUCT_BLOCK = 4096  # a block's gathers and slice of out each hold at most 4x this many int64


def _bilinear(a, b, width: int) -> np.ndarray:
    """Columns t < width of the table's products a b, for broadcastable int64 rows (..., 16).

    Column t sums a_s * w[s, t] * b[idx[s, t]] over the terms the operands'
    coefficient supports keep (see _plan): one gather of a against one
    weighted gather of b.  Raises OverflowError unless every column provably
    fits int64 by the sum over its terms of |w| max|a_s| max|b_r|, tried
    after the largest weight sum times max|a| max|b|: the arithmetic wraps
    modulo 2**64, so a result in range is exact.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    if len(shape) > 1 and prod(shape) <= 2 * min(prod(a.shape[:-1]), prod(b.shape[:-1])):
        # Operands that broadcasting repeats at most twice are copied out as
        # same-shape 2-D rows: einsum runs slowly over a broadcast inner axis.
        a, b = (np.broadcast_to(x, shape + (16,)).reshape(-1, 16) for x in (a, b))
    amag, bmag = _magnitudes(a), _magnitudes(b)
    outs, s, r, w, bound = _plan((amag != 0).tobytes(), (bmag != 0).tobytes(), width)
    if bound * int(amag.max()) * int(bmag.max()) >= 1 << 63:
        terms = abs(w).astype(object) * amag.astype(object)[s] * bmag.astype(object)[r]
        if terms.sum(axis=0).max() >= 1 << 63:  # on Python ints
            raise OverflowError("integer product could leave the int64 range")
    blocked = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (width,)
    out = np.zeros((1,) * (2 - len(blocked)) + blocked, dtype=np.int64)
    # Blocks run along the leading axis of the arrays, made at least 2-D; an
    # operand of length 1 there is gathered once, whole, for every block.
    a, b = (x.reshape((1,) * (out.ndim - x.ndim) + x.shape) for x in (a, b))

    def weighted(rows):
        gathered = rows[..., r]
        gathered *= w
        return gathered

    ga = a[..., s] if len(a) == 1 else None
    gb = weighted(b) if len(b) == 1 else None
    sizes = [prod(x.shape[1:-1]) * w.size for x in (a, b) if len(x) > 1]
    step = max(1, 4 * _PRODUCT_BLOCK // max(sizes + [prod(out.shape[1:]), 1]))
    for lo in range(0, len(out), step):
        block = slice(lo, lo + step)
        out[block, ..., outs] = np.einsum("...ko,...ko->...o",
                                          a[block, ..., s] if ga is None else ga,
                                          weighted(b[block]) if gb is None else gb)
    return out.reshape(shape + (width,))


def products(a, b) -> np.ndarray:
    """Hamilton products of broadcastable int64 quaternion rows, shape (..., 16).

    Entry i is the numerator of a[i] b[i] over the product of the two
    denominators; a[:, None] and b[None, :] make the whole product table.
    Raises OverflowError unless every coefficient provably fits int64.
    """
    return _bilinear(a, b, 16)


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


def lowest_terms(rows: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """Rows over den, and den, divided by the gcd of den and every entry: over the
    least denominator that holds every row, as common_rows makes them."""
    g = gcd(int(np.gcd.reduce(rows.ravel(), initial=0)), den)
    return rows // g, den // g


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
    if n < _FOLD:
        return rows.min(axis=0, initial=0), rows.max(axis=0, initial=0)
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


def distinct_order(rows: np.ndarray) -> np.ndarray:
    """The index of one of each distinct row, in the rows' lexicographic order."""
    order, fresh = _sorted_runs(rows)
    return order[fresh]


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows in lexicographic order: over one denominator, canonical order."""
    return rows[distinct_order(rows)]


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


_ONE_TABLE = _PRODUCT_BLOCK  # left_perms makes an action of at most this many products as one table


def left_perms(rows: np.ndarray, points: np.ndarray, index: RowIndex):
    """perm[m, i], the index among the points of rows[m] points[i], or None if some
    row moves some point off them; index finds the points over the products'
    denominator.  An action of at most _ONE_TABLE products (T's, 2O's) is one
    table of them.  Otherwise only a generator (a row moving b, the first
    nonzero point, where no map closed so far does) has its image row made
    and looked up."""
    n = len(points)
    if not n:
        return np.zeros((len(rows), 0), dtype=np.intp)
    if len(rows) * n <= _ONE_TABLE:
        perm = index.find(products(rows[:, None], points[None]).reshape(-1, 16))
        return None if (perm < 0).any() else perm.reshape(len(rows), n)
    b = int(np.argmax(points.any(axis=1)))
    first = index.find(products(rows, points[b]))
    if (first < 0).any():
        return None
    known, reached, gens = np.zeros((n, n), dtype=np.intp), np.zeros(n, dtype=bool), []
    known[b], reached[b] = np.arange(n), True
    for m in range(len(rows)):
        if reached[first[m]]:
            continue
        gens.append(index.find(products(rows[m], points)))
        if (gens[-1] < 0).any():
            return None
        stack, frontier = np.array(gens), np.flatnonzero(reached)
        while len(frontier):
            images = stack[:, known[frontier]].reshape(-1, n)
            images = images[~reached[images[:, b]]]  # maps moving b alike are one map
            known[images[:, b]], reached[images[:, b]] = images, True
            frontier = np.flatnonzero(np.bincount(images[:, b], minlength=n))
    return known[first]


def locate(index: RowIndex, pden: int, rows: np.ndarray, den: int) -> np.ndarray:
    """The index of each row over den among the point rows over pden that index
    holds, or -1 where it is none of them.  Over lcm(den, pden) = k pden, a row
    is a point exactly when it is k times one of the point rows."""
    common = lcm(den, pden)
    rows, k = rescaled(rows.reshape(-1, 16), den, common), common // pden
    if k == 1:
        return index.find(rows)
    found = np.full(len(rows), -1, dtype=np.intp)
    whole = np.flatnonzero(~(rows % k).any(axis=1))
    found[whole] = index.find(rows[whole] // k)
    return found


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
    return least_labels(np.array(perms))


def least_labels(perms: np.ndarray) -> np.ndarray:
    """Label each of n points with the least point of its orbit under
    permutations given as (k, n) rows: row j moves point i onto perms[j, i]."""
    labels, prev = np.arange(perms.shape[1]), None
    while not np.array_equal(labels, prev):
        prev = labels
        for perm in perms:
            labels = np.minimum(labels, labels[perm])
    return labels


def dot_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Scalar products of int64 quaternion rows, as field 4-vectors: shape (..., a, b, 4).

    left (..., a, 16) and right (..., b, 16) broadcast over their leading
    axes, so a stack of cells makes one block-diagonal table.  Entry
    [..., i, j] is the numerator of (left[i], right[j]) over the product of
    the two denominators: the real part of left[i] conj(right[j]), the first
    four columns of their Hamilton product.
    """
    return _bilinear(left[..., :, None, :], conjugates(right)[..., None, :, :], 4)


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
    rows, index = distinct_index(table.reshape(-1, 4))
    values = {FieldElement._make(*row, den): i for i, row in enumerate(rows.tolist())}
    return values, index.reshape(table.shape[:-1])


def distinct_index(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows in lexicographic order, and where each row sits among them."""
    order, fresh = _sorted_runs(rows)
    index = np.empty(len(rows), dtype=np.intp)
    index[order] = np.cumsum(fresh) - 1
    return rows[order[fresh]], index


def cross_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Generalised cross products n_l = eps_ijkl a_i b_j c_k of int64 quaternion rows.

    Row r is orthogonal to a[r], b[r] and c[r], and is zero exactly when
    they are linearly dependent.  Its entries are the integer numerators of
    n = (c b-bar a - a b-bar c) / 2 over the product of the inputs'
    denominators: only its direction is used.  The two triple products come
    from products, and their difference is bounded before it is taken.
    """
    # Each row's two triples side by side, so that products blocks run over the rows.
    both = products(np.stack([c, a], axis=-2),
                    products(conjugates(b)[..., None, :], np.stack([a, c], axis=-2)))
    _check_bound(2, both, 1)  # a difference of two entries
    return (both[..., 0, :] - both[..., 1, :]) // 2


def side_signs(normals: np.ndarray, points: np.ndarray, anchors) -> np.ndarray:
    """Exact signs of (n_i, p_j) - (n_i, p_anchors[i]), as an int8 array [i, j].

    normals and points are int64 quaternion rows, each row over any positive
    denominator, since positive scaling changes no sign.  One dot table is
    differenced in place, and each distinct difference in it is signed once.
    """
    table = dot_rows(normals, points)
    _check_bound(2, table, 1)  # a difference of two entries
    table -= table[np.arange(len(table)), anchors][:, None]
    return signs(table)


def signs(table: np.ndarray) -> np.ndarray:
    """Exact signs of a dot table's entries, as int8: each distinct entry is signed once."""
    values, index = distinct_values(table, 1)
    return np.array([x.sign() for x in values], dtype=np.int8)[index]
