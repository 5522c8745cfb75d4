"""Engine kernels against the pure-Python FieldElement/Quaternion oracle."""

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icosian import (E1, E2, E3, HALF, ONE, Q_ONE, SIGMA, SQRT2, TAU, Quaternion,
                     QuaternionGroup, Transform, binary_icosahedral, binary_octahedral,
                     binary_tetrahedral, canonical_sorted, cell_census, e8_roots, engine,
                     icosian_seed,
                     orbit, polytope, projective_equal, s3_of, s4_of, snub24_vertices,
                     snub_embeddings_in_600cell, t_prime, wd4c3, wh3xc2, wh4)
from icosian.coxeter import reflection, wd4c3_conjugate
from icosian.engine import (_CONJ, _FOLD, _PIDX, _PRODUCT_BLOCK, _PW, RowIndex,
                            _column_range, _matmul, _support, act, closure_points,
                            common_rows, cross_rows, distinct_rows,
                            distinct_values, dot_rows, left_perms, pairwise_dots,
                            partition_points, products, quats_of, rescaled, side_signs,
                            transform_matrix)
from icosian.errors import NotInGoldenSubfield, NotInvariant
from icosian.field import SQRT10, ZERO, FieldElement
from icosian.linalg import nullspace
from icosian.roots import euclid_profile_full, h4_simple_roots
from weight_oracle import distinct_labelled

halves = st.integers(-6, 6).map(lambda n: Fraction(n, 2))
thirds = st.fractions(min_value=-3, max_value=3, max_denominator=3)
coords = st.one_of(halves, thirds)
base = st.builds(Quaternion, coords, coords, coords, coords)
# Mixed denominators and radicals: halves, sqrt2-scaled and sigma-scaled.
points = st.builds(lambda q, s: q * s, base, st.sampled_from([ONE, HALF, SQRT2, SIGMA]))
golden_points = st.builds(lambda q, s: q * s, base, st.sampled_from([ONE, HALF, SIGMA, TAU]))
point_lists = st.lists(points, min_size=1, max_size=6)


def assert_table_is_oracle(rows, cols, table, den):
    """Every entry, lifted through distinct_values, equals Quaternion.dot."""
    values, index = distinct_values(table, den)
    assert index.shape == (len(rows), len(cols))
    assert sorted(values.values()) == list(range(len(values)))
    lifted = {i: x for x, i in values.items()}
    for i, p in enumerate(rows):
        for j, q in enumerate(cols):
            assert lifted[int(index[i, j])] == p.dot(q)
            assert index[i, j] == values.get(p.dot(q), -1)
    absent = sum((abs(x) for x in values), ONE)
    assert not np.any(index == values.get(absent, -1))


@given(point_lists, point_lists)
@settings(max_examples=60, deadline=None)
def test_pairwise_dots_match_quaternion_dot(rows, cols):
    assert_table_is_oracle(rows, cols, *pairwise_dots(rows, cols))
    assert_table_is_oracle(rows, rows, *pairwise_dots(rows))


def assert_signs_are_oracle(normals, pts, anchors):
    # Each normal row over its own denominator: positive scaling keeps every sign.
    normal_rows = np.concatenate([common_rows([n])[0] for n in normals])
    signs = side_signs(normal_rows, common_rows(pts)[0], anchors)
    assert signs.shape == (len(normals), len(pts)) and signs.dtype == np.int8
    for i, (n, a) in enumerate(zip(normals, anchors)):
        assert signs[i].tolist() == [(n.dot(p) - n.dot(pts[a])).sign() for p in pts]


@given(point_lists, point_lists, st.integers(0, 66), st.data())
@settings(max_examples=60, deadline=None)
def test_side_signs_match_quaternion_dot(normals, pts, bits, data):
    anchors = data.draw(st.lists(st.integers(0, len(pts) - 1),
                                 min_size=len(normals), max_size=len(normals)))
    assert_signs_are_oracle(normals, pts, anchors)
    # Copies of the normals over other denominators, in one table.
    many = [n * (1 + k % 3) for k, n in enumerate(normals * 3)]
    assert_signs_are_oracle(many, pts, anchors * 3)
    # Sized toward the int64 limit: raise OverflowError or stay exact.
    scale = 1 << bits
    try:
        assert_signs_are_oracle([n * scale for n in normals], [p * scale for p in pts],
                                anchors)
    except OverflowError:
        pass


coefficients = st.one_of(st.integers(-2, 2), st.integers(-(1 << 62), 1 << 62))
entries = st.lists(st.tuples(*[coefficients] * 4), min_size=1, max_size=12)


@given(entries, st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_distinct_values_match_sorted_oracle(rows, den):
    rows = rows + rows[::2]  # repeated entries, out of order
    table = np.array(rows, dtype=np.int64).reshape(1, len(rows), 4)
    values, index = distinct_values(table, den)
    distinct = sorted(set(rows))
    assert values == {FieldElement._make(*row, den): i for i, row in enumerate(distinct)}
    assert sorted(values.values()) == list(range(len(distinct)))
    assert index.tolist() == [[distinct.index(row) for row in rows]]


def assert_products_are_oracle(xs, ys):
    """The product table and the row-wise products equal Quaternion.__mul__."""
    (left, lden), (right, rden) = common_rows(xs), common_rows(ys)
    table = products(left[:, None], right[None, :])
    assert table.shape == (len(xs), len(ys), 16)
    for row, x in zip(table, xs):
        assert quats_of(row, lden * rden) == tuple(x * y for y in ys)
    k = min(len(xs), len(ys))
    assert quats_of(products(left[:k], right[:k]), lden * rden) == tuple(
        x * y for x, y in zip(xs, ys))


@given(point_lists, point_lists)
@settings(max_examples=60, deadline=None)
def test_products_match_quaternion_mul(xs, ys):
    assert_products_are_oracle(xs, ys)


@given(point_lists, point_lists, st.integers(0, 66))
@settings(max_examples=60, deadline=None)
def test_products_raise_or_match_near_int64_limit(xs, ys, bits):
    try:
        assert_products_are_oracle([x * (1 << bits) for x in xs], ys)
    except OverflowError:
        pass


# The kernels as they were before they read the operands' coefficient
# supports: every term of the product table, and all four scalar-product
# forms on all 16 columns, each under its bound on every term.
_S, _T = np.indices((16, 16))
# Form c gives coefficient c of the scalar product (x, y), the real part of
# x y-bar: x @ _DOT_FORMS[c] @ y, read off the table's first four columns.
_DOT_FORMS = np.zeros((4, 16, 16), dtype=np.int64)
_DOT_FORMS[_T[:, :4], _S[:, :4], _PIDX[:, :4]] = _PW[:, :4] * _CONJ[_PIDX[:, :4]]
ORACLE_PRODUCT_BOUND = int(np.abs(_PW).sum(axis=0).max())  # 72


def oracle_product_block(a, b):
    """a b for broadcastable rows in 16 passes, summed over the coefficients of a."""
    out = a[..., :1] * (b[..., _PIDX[0]] * _PW[0])
    for s in range(1, 16):
        out += a[..., s:s + 1] * (b[..., _PIDX[s]] * _PW[s])
    return out


def oracle_products(a, b):
    """The 16-pass product, refused unless 72 max|a| max|b| < 2**63."""
    if ORACLE_PRODUCT_BOUND * int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0)) \
            >= 1 << 63:
        raise OverflowError("integer product could leave the int64 range")
    return oracle_product_block(*np.broadcast_arrays(a, b))


def oracle_dot_rows(left, right):
    """All four forms on all 16 columns, each a pair of bounded int64 matmuls."""
    right = np.swapaxes(right, -1, -2)
    return np.stack([_matmul(_matmul(left, form), right) for form in _DOT_FORMS], axis=-1)


def exact_products(a, b):
    return oracle_product_block(*np.broadcast_arrays(a.astype(object), b.astype(object)))


def exact_dot_rows(left, right):
    right = np.swapaxes(right.astype(object), -1, -2)
    return np.stack([left.astype(object) @ form.astype(object) @ right for form in _DOT_FORMS],
                    axis=-1)


def test_products_blocks_match_one_batch():
    # A table of more products than one block, taken in several blocks.
    rows, _ = common_rows([icosian_seed() * q for q in (Q_ONE, E1, E2, E3, E1 * SQRT2)])
    rows = np.concatenate([rows * k for k in range(1, 40)])
    assert len(rows) ** 2 > 2 * _PRODUCT_BLOCK
    a, b = np.broadcast_arrays(rows[:, None], rows[None, :])
    assert np.array_equal(products(rows[:, None], rows[None, :]), oracle_product_block(a, b))
    assert np.array_equal(products(a.reshape(-1, 16), rows[3]),
                          oracle_product_block(a.reshape(-1, 16), rows[3]))


def test_products_of_stacks_broadcast_twice_match_one_batch():
    """Operands that broadcasting repeats at most twice are copied out flat
    (cross_rows' (n, 1) by (n, 2) stacks, and stacks of one shape); the
    products keep the broadcast shape, and an outer table stays blocked."""
    rows, _ = common_rows([icosian_seed() * q for q in (Q_ONE, E1, E2, E3, E1 * SQRT2)])
    rows = np.concatenate([rows * k for k in range(1, 60)])
    pairs = np.stack([rows, rows[::-1]], axis=1)
    for a, b in ((rows[:, None], pairs), (pairs, pairs[:, ::-1]), (rows[:40, None], rows[None])):
        got = products(a, b)
        assert got.shape == np.broadcast_shapes(a.shape, b.shape)
        assert np.array_equal(got, oracle_product_block(*np.broadcast_arrays(a, b)))


# Coefficient k of a quaternion component is column 4 i + k, over the radicals
# 1, sqrt2, sqrt5, sqrt10: the golden columns are closed under products, the
# others (sqrt2 alone, say) are not.
COLUMN_MASKS = {
    "empty": 0,
    "all": 0xFFFF,
    "golden": sum(1 << (4 * i + k) for i in range(4) for k in (0, 2)),
    "rational": sum(1 << (4 * i) for i in range(4)),
    "sqrt2": sum(1 << (4 * i + 1) for i in range(4)),
    "sqrt2 coset": sum(1 << (4 * i + k) for i in range(4) for k in (1, 3)),
    "real": 0b1111,
    **{f"column {j}": 1 << j for j in range(16)},
}
masks = st.one_of(st.sampled_from(sorted(COLUMN_MASKS.values())), st.integers(0, 0xFFFF))


def masked_rows(rng, shape, mask, bits):
    """Random int64 rows of the shape, zero outside the mask, entries below 2**bits."""
    high = (1 << bits) - 1
    rows = rng.integers(-high, high, size=shape + (16,), endpoint=True)
    return rows * np.array([(mask >> j) & 1 for j in range(16)], dtype=np.int64)


def kernel_shapes(n, m):
    """(a, b) shapes for products: a table, elementwise rows, and rows against one row."""
    return [((n, 1), (1, m)), ((n,), (n,)), ((n,), ()), ((), (m,)), ((2, n), (1, n))]


def assert_kernel_is_oracle(kernel, oracle, exact, a, b):
    """kernel equals the exact product; it raises only where the oracle's bound does."""
    try:
        expected = oracle(a, b)
    except OverflowError:
        expected = None
    try:
        got = kernel(a, b)
    except OverflowError:
        assert expected is None
        return
    truth = exact(a, b)
    assert got.dtype == np.int64 and got.shape == truth.shape
    assert got.astype(object).tolist() == truth.tolist()
    if expected is not None:
        assert np.array_equal(got, expected)


@given(masks, masks, st.integers(0, 5), st.integers(0, 5), st.integers(1, 63),
       st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_products_on_any_supports_match_the_16_pass_oracle(amask, bmask, n, m, bits, seed):
    rng = np.random.default_rng(seed)
    for ashape, bshape in kernel_shapes(n, m):
        a, b = masked_rows(rng, ashape, amask, bits), masked_rows(rng, bshape, bmask, bits)
        assert_kernel_is_oracle(products, oracle_products, exact_products, a, b)


@given(masks, masks, st.integers(0, 5), st.integers(0, 5), st.integers(1, 63),
       st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_dot_rows_on_any_supports_match_the_four_form_oracle(lmask, rmask, n, m, bits, seed):
    rng = np.random.default_rng(seed)
    # Plain tables, a stack of tables, and a stack against one shared right side.
    for lshape, rshape in (((n,), (m,)), ((2, n), (2, m)), ((3, n), (m,)), ((1, n), (2, m))):
        left, right = masked_rows(rng, lshape, lmask, bits), masked_rows(rng, rshape, rmask, bits)
        assert_kernel_is_oracle(dot_rows, oracle_dot_rows, exact_dot_rows, left, right)


def test_bilinear_bound_reads_each_column():
    # 72 * 2**29 * 2**29 passes 2**63, but every column holds one term of
    # 2**58 and the rest at most 10 * 2**29: each column's own bound fits.
    a = np.array([1 << 29] + [1] * 15, dtype=np.int64)
    b = np.full(16, 1 << 29, dtype=np.int64)
    for x, y in ((a, b), (b, a)):
        for left, right in ((x[None], y[None]), (np.stack([x, x])[:, None],
                                                 np.stack([y, y, y])[None])):
            for kernel, exact in ((products, exact_products), (dot_rows, exact_dot_rows)):
                got = kernel(left, right)
                assert got.astype(object).tolist() == exact(left, right).tolist()


def test_products_and_cross_rows_of_no_rows():
    none = np.zeros((0, 16), dtype=np.int64)
    assert products(np.zeros((2, 0, 16), dtype=np.int64), none).shape == (2, 0, 16)
    assert cross_rows(none, none, none).shape == (0, 16)


scalars = st.sampled_from([ZERO, ONE, -HALF, SQRT2, SIGMA, -TAU])


def cross_oracle(a, b, c):
    """The cross row as a quaternion, checked against Quaternion.dot and nullspace."""
    rows, _ = common_rows([a, b, c])
    (n,) = quats_of(cross_rows(rows[:1], rows[1:2], rows[2:]), 1)
    assert all(n.dot(x) == ZERO for x in (a, b, c))
    basis = nullspace([list(x.components) for x in (a, b, c)])
    assert (n != Quaternion()) == (len(basis) == 1)
    if len(basis) == 1:
        assert projective_equal(n, Quaternion(*basis[0])) or \
            projective_equal(-n, Quaternion(*basis[0]))
    return n


@given(points, points, points, scalars, scalars, st.booleans())
@settings(max_examples=60, deadline=None)
def test_cross_rows_match_nullspace(a, b, c, s, t, dependent):
    # A dependent third row is a field combination of the first two.
    cross_oracle(a, b, a * s + b * t if dependent else c)


def levi_civita_cross(a, b, c):
    """n_l = sum of eps_ijkl a_i b_j c_k, in FieldElement arithmetic."""
    n = [ZERO] * 4
    for perm in permutations(range(4)):
        i, j, k, l = perm
        term = a.component(i) * b.component(j) * c.component(k)
        n[l] += -term if sum(x > y for x, y in combinations(perm, 2)) % 2 else term
    return Quaternion(*n)


@given(st.lists(st.tuples(points, points, points), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_cross_rows_match_levi_civita(triples):
    # Each input over its own denominator: the rows are numerators over their product.
    (ra, da), (rb, db), (rc, dc) = (common_rows(xs) for xs in zip(*triples))
    assert quats_of(cross_rows(ra, rb, rc), da * db * dc) == tuple(
        levi_civita_cross(*t) for t in triples)


@given(st.tuples(coords, coords, coords), st.tuples(coords, coords, coords),
       st.sampled_from([ONE, HALF, SQRT2, SIGMA]))
@settings(max_examples=60, deadline=None)
def test_cross_rows_of_one_is_the_hull_normal(u, v, s):
    u, v = Quaternion(0, *u) * s, Quaternion(0, *v)
    rows, _ = common_rows([Q_ONE, u, v])
    (n,) = quats_of(cross_rows(rows[:1], rows[1:2], rows[2:]), 1)
    w = u * v
    assert projective_equal(n, w - w.conjugate())
    # The hull takes its normals as the vector part of u v: cross_rows(1, u, v).
    one = np.zeros_like(rows[:1])
    one[0, 0] = 1
    vector = products(rows[1:2], rows[2:])
    vector[:, :4] = 0
    assert np.array_equal(vector, cross_rows(one, rows[1:2], rows[2:]))


@given(points, points, points, st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_cross_rows_raise_or_match_near_int64_limit(a, b, c, bits):
    try:
        cross_oracle(*(q * (1 << bits) for q in (a, b, c)))
    except OverflowError:
        pass


@given(st.lists(st.integers(0, 14399), min_size=1, max_size=8), st.integers(7200, 14399),
       points, st.lists(points, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_group_images_match_transform_apply(picks, starred, q, qs):
    group = wh4()
    rows, den = group.images(q)
    assert quats_of(rows[picks], den) == tuple(group.elements[k].apply(q) for k in picks)
    # act applies the picks, one starred at least, to several points at once.
    picks = picks + [starred]
    assert group.rows[starred, 0] == 1
    points_rows, pden = common_rows(qs)
    table = act(group.rows[picks], points_rows)
    assert table.shape == (len(picks), len(qs), 16)
    for k, images in zip(picks, table):
        assert quats_of(images, group.den ** 2 * pden) == tuple(
            group.elements[k].apply(x) for x in qs)


def test_compiled_matrices_match_group_images():
    # compiled() has no caller in src/, but the benchmark's layer map times
    # it: its matrices, applied with a plain @ over their own denominators,
    # give the images of one point, both made by act.
    group = wh4()
    mats, dens = group.compiled()
    q = icosian_seed() + E1 * SQRT2 * HALF
    (vec,), vden = common_rows([q])
    rows, den = group.images(q)
    assert np.array_equal((mats @ vec) * (den // vden), rows * dens[:, None])


# The compiler as it was before every action ran on products: two structure
# tensors off the product table, and three bounded matmuls per transform.
# ORACLE_LSTRUCT[s] multiplies by basis element s from the left, ORACLE_RSTRUCT[s] from the right.
ORACLE_LSTRUCT = np.zeros((16, 16, 16), dtype=np.int64)
ORACLE_LSTRUCT[_S, _T, _PIDX] = _PW
ORACLE_RSTRUCT = np.zeros((16, 16, 16), dtype=np.int64)
ORACLE_RSTRUCT[_PIDX, _T, _S] = _PW


def oracle_compile_block(transforms):
    """Matrices and denominators of Transform objects, each over its own p and q denominators."""
    n = len(transforms)
    pvecs = np.array([t.p.ivec[0] for t in transforms], dtype=np.int64).reshape(n, 16)
    qvecs = np.array([t.q.ivec[0] for t in transforms], dtype=np.int64).reshape(n, 16)
    left = _matmul(pvecs, ORACLE_LSTRUCT.reshape(16, 256)).reshape(n, 16, 16)
    right = _matmul(qvecs, ORACLE_RSTRUCT.reshape(16, 256)).reshape(n, 16, 16)
    mats = _matmul(left, right)
    mats[np.array([t.star for t in transforms], dtype=bool), :, 4:] *= -1
    dens = np.array([t.p.ivec[1] * t.q.ivec[1] for t in transforms], dtype=np.int64)
    g = np.gcd(np.gcd.reduce(mats.reshape(n, 256), axis=1), dens)
    return mats // g[:, None, None], dens // g


COMPILED_GROUPS = {
    "W(H4)": wh4,
    "W(D4):C3": wd4c3,
    "W(D4):C3^(1,1)": lambda: wd4c3_conjugate(1, 1),
    "W(H3)xC2": lambda: wh3xc2(icosian_seed()),
}


@pytest.mark.parametrize("name", sorted(COMPILED_GROUPS))
def test_compile_transforms_matches_the_structure_tensor_oracle(name):
    group = COMPILED_GROUPS[name]()
    # compiled() is compile_transforms(rows, den), cached on the group, so
    # W(H4) is compiled once for this test and the one above.
    mats, dens = group.compiled()
    elements = group.elements
    for lo in range(0, len(elements), 256):
        oracle_mats, oracle_dens = oracle_compile_block(elements[lo:lo + 256])
        assert mats[lo:lo + 256].tobytes() == oracle_mats.tobytes()
        assert dens[lo:lo + 256].tobytes() == oracle_dens.tobytes()
    assert mats.shape == (len(elements), 16, 16) and dens.dtype == np.int64


UNIT_QUATS = quats_of(np.eye(16, dtype=np.int64), 1)


@given(points, points, st.booleans(), st.integers(0, 66), st.integers(0, 66))
@settings(max_examples=80, deadline=None)
def test_compile_transforms_raise_or_match_near_int64_limit(p, q, star, pbits, qbits):
    t = Transform(p * (1 << pbits), q * (1 << qbits), star)
    try:
        expected = oracle_compile_block([t])
    except OverflowError:
        expected = None
    try:
        mat, den = transform_matrix(t)
    except OverflowError:
        return
    assert quats_of(mat.T, den) == tuple(t.apply(u) for u in UNIT_QUATS)
    if expected is not None:
        assert mat.tobytes() == expected[0][0].tobytes() and den == int(expected[1][0])


@pytest.mark.parametrize("group", [lambda: s3_of(icosian_seed()),
                                   lambda: s4_of(t_prime().elements[0])], ids=["S3", "S4"])
def test_generator_matrices_without_generators_compile_every_element(group):
    group = group()
    assert not group.generators
    got = group.generator_matrices()
    expected = [transform_matrix(t) for t in group.elements]
    assert len(got) == len(expected) == group.order
    for (mat, den), (emat, eden) in zip(got, expected):
        assert type(den) is int and den == eden and mat.tobytes() == emat.tobytes()


@given(points, st.integers(0, 66), st.booleans())
@settings(max_examples=60, deadline=None)
def test_group_images_raise_or_match_near_int64_limit(q, bits, shrink):
    # The images stabilizer reads, made by products from the group's rows.
    group = wh4()
    picks = [0, 1, 7199, 14399]
    scaled = q * (Fraction(1, 1 << bits) if shrink else 1 << bits)
    try:
        rows, den = group.images(scaled)
    except OverflowError:
        return
    assert quats_of(rows[picks], den) == tuple(group.elements[k].apply(scaled) for k in picks)


PAIR_GROUPS = {"W(H4)": wh4, "W(D4):C3": wd4c3}


@given(points, st.integers(0, 66), st.booleans(), st.sampled_from(sorted(PAIR_GROUPS)))
@settings(max_examples=60, deadline=None)
def test_factored_images_raise_or_match_act_near_int64_limit(q, bits, shrink, name):
    # A pair group's images come from its factors, as (P x) Q; act on every
    # row is the oracle.  act bounds both star halves in one product, so it
    # may refuse a point that the factors, bounded half by half, answer.
    group = PAIR_GROUPS[name]()
    scaled = q * (Fraction(1, 1 << bits) if shrink else 1 << bits)
    try:
        rows, den = group.images(scaled)
    except OverflowError:
        return
    (row,), vden = common_rows([scaled])
    assert den == group.den ** 2 * vden
    try:
        expected = act(group.rows, row[None])[:, 0]
    except OverflowError:
        picks = [0, 1, len(group) // 2, len(group) - 1]
        assert quats_of(rows[picks], den) == tuple(group.elements[k].apply(scaled)
                                                   for k in picks)
        return
    assert rows.tobytes() == expected.tobytes()


@given(st.lists(points, min_size=1, max_size=6), st.integers(0, 70))
@settings(max_examples=60, deadline=None)
def test_quats_of_match_one_python_gcd_per_row(qs, bits):
    rows, den = common_rows(qs)
    rows = np.vstack([rows, np.zeros_like(rows[:1])])
    for d in (den, den << bits):
        got = quats_of(rows, d)
        expected = tuple(Quaternion._from_ivec(row, d) for row in rows.tolist())
        assert got == expected
        assert [q.ivec for q in got] == [q.ivec for q in expected]
        assert all(type(x) is int for q in got for x in (q.ivec[1], *q.ivec[0]))


@given(st.lists(points, min_size=1, max_size=4), st.integers(0, 66))
@settings(max_examples=80, deadline=None)
def test_pairwise_dots_raise_or_match_near_int64_limit(rows, bits):
    scaled = [q * (1 << bits) for q in rows]
    try:
        result = pairwise_dots(scaled)
    except OverflowError:
        return
    assert_table_is_oracle(scaled, scaled, *result)


def real_row(x: int) -> np.ndarray:
    """The one integer row of the real quaternion x over 1."""
    return np.array([[x] + [0] * 15], dtype=np.int64)


def test_int64_limits_sit_at_exactly_2_to_the_63():
    """Each int64 limit check answers a bound of 2^63 - 1 and refuses one of 2^63."""
    top = (1 << 63) - 1
    # _check_bound, through rescaled: (2^63 - 1) * 1 fits, 2^62 * 2 does not.
    assert rescaled(real_row(top), 1, 1)[0, 0] == top
    with pytest.raises(OverflowError):
        rescaled(real_row(1 << 62), 1, 2)
    # _bilinear's exact bound: a real times a real is one term of weight 1.
    assert products(real_row(top), real_row(1))[0, 0] == top
    with pytest.raises(OverflowError):
        products(real_row(1 << 62), real_row(2))
    # quats_of takes the gcd on int64 up to den 2^63 - 1, and on Python ints at 2^63.
    assert quats_of(real_row(top), top) == (Q_ONE,)
    assert quats_of(real_row(1 << 62), 1 << 63) == (Quaternion(HALF),)


def test_int64_limit_raises():
    one = Quaternion(1)
    # Scaling 2^62 to the common denominator 4 would wrap to 0 in int64.
    with pytest.raises(OverflowError):
        pairwise_dots([one * (1 << 62), one * Fraction(1, 4)])
    with pytest.raises(OverflowError):
        pairwise_dots([one * (1 << 64)])
    # Images are rows over one denominator, never reduced: a tiny point is
    # answered exactly, while numerators of 2^62 times a group entry overflow.
    group = wh4()
    tiny = one * Fraction(1, 1 << 62)
    rows, den = group.images(tiny)
    assert quats_of(rows[:2], den) == tuple(t.apply(tiny) for t in group.elements[:2])
    with pytest.raises(OverflowError):
        group.images(one * (1 << 62))
    # The cross product of sqrt10 x e1, e2, e3 is 10 sqrt10 x^3: refused at
    # x = 2^20, where it leaves int64 though x^3 does not, and exact below.
    for bits in (16, 20):
        rows, _ = common_rows([e * SQRT10 * (1 << bits) for e in (E1, E2, E3)])
        try:
            (n,) = quats_of(cross_rows(rows[:1], rows[1:2], rows[2:]), 1)
        except OverflowError:
            assert bits == 20
        else:
            assert bits == 16 and n == -Q_ONE * SQRT10 * 10 * (1 << 48)
    # (sqrt10 x)^2 = 10 x^2: refused at x = 2^30, where it leaves int64 though
    # max|a| max|b| = 2^60 does not, and exact at x = 2^28.
    for bits in (28, 30):
        rows, _ = common_rows([one * SQRT10 * (1 << bits)])
        try:
            (square,) = quats_of(products(rows, rows), 1)
        except OverflowError:
            assert bits == 30
        else:
            assert bits == 28 and square == one * 10 * (1 << 56)


def oracle_euclid_profile_full(roots):
    """The profile through field elements: each distinct dot lifted to a
    FieldElement and split by golden_decompose, each row counted by index."""
    table, den = pairwise_dots(roots)
    values, index = distinct_values(table, den)
    euclid = [x.euclidean_part() for x in values]
    rows = distinct_rows(np.sort(index, axis=1)).tolist()
    return {tuple(sorted(Counter(euclid[j] for j in row).items())) for row in rows}


@given(st.lists(golden_points, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_euclid_profile_full_matches_oracle(roots):
    expected = {tuple(sorted(Counter(r.euclid_dot(s) for s in roots).items()))
                for r in roots}
    assert euclid_profile_full(roots) == expected == oracle_euclid_profile_full(roots)


def test_e8_euclid_profile_matches_field_oracle():
    roots = e8_roots().roots
    assert euclid_profile_full(roots) == oracle_euclid_profile_full(roots)


@given(st.lists(golden_points, max_size=4), golden_points.filter(lambda q: q.norm() != ZERO),
       st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_euclid_profile_full_rejects_sqrt2_parts(roots, g, at):
    # g . (sqrt2 g) = sqrt2 |g|^2 has a sqrt2 part.
    roots = roots[:at] + [g * SQRT2] + roots[at:] + [g]
    for profile in (euclid_profile_full, oracle_euclid_profile_full):
        with pytest.raises(NotInGoldenSubfield):
            profile(roots)


GROUPS = {"W(D4):C3": wd4c3, "W(H3)xC2": wh3xc2, "S3": lambda: s3_of(icosian_seed())}
group_names = st.sampled_from(sorted(GROUPS))


@given(group_names, points)
@settings(max_examples=60, deadline=None)
def test_orbit_matches_orbit_by_elements(orbit_by_elements, name, q):
    group = GROUPS[name]()
    assert orbit(group, q) == orbit_by_elements(group, q)


def test_orbit_grows_its_denominator(orbit_by_elements):
    # The images of -1 + e2 - e3/2 need a larger denominator than the lcm of
    # the seed's and the generators' denominators: the closure must grow it.
    q = Quaternion(-1, 0, 1, Fraction(-1, 2))
    points = orbit(wh4(), q)
    assert len(points) == 7200
    assert points == orbit_by_elements(wh4(), q)


@given(group_names, points, st.integers(40, 66))
@settings(max_examples=40, deadline=None)
def test_orbit_raises_or_matches_near_int64_limit(name, q, bits):
    group = GROUPS[name]()
    scaled = q * (1 << bits)
    try:
        points = orbit(group, scaled)
    except OverflowError:
        return
    assert points == canonical_sorted({t.apply(scaled) for t in group})


# Row keys: int64 rows whose columns each hold zeros, small, mid-sized or any entries.
column_bounds = st.sampled_from([0, 1, 2, 1 << 20, 2**63 - 1])


@st.composite
def row_sets(draw):
    """Distinct rows in drawn order, each column within a drawn bound, and one row more."""
    bounds = draw(st.lists(column_bounds, min_size=1, max_size=7))
    row = st.tuples(*[st.integers(-b, b) for b in bounds])
    rows = draw(st.lists(row, min_size=2, max_size=14, unique=True))
    return rows[:-1], rows[-1], bounds


@given(row_sets())
@settings(max_examples=150, deadline=None)
def test_distinct_rows_match_sorted_set(drawn):
    rows, extra, _ = drawn
    repeated = rows + [extra] + rows[::2]  # repeated rows, out of order
    arr = np.array(repeated, dtype=np.int64)
    assert list(map(tuple, distinct_rows(arr).tolist())) == sorted(set(repeated))


@given(st.integers(0, 3 * _FOLD), st.integers(0, 5), st.sampled_from([1, 1 << 40, 2**63 - 1]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_column_range_matches_column_reductions(n, width, bound, seed):
    rows = np.random.default_rng(seed).integers(-bound, bound, size=(n, width), endpoint=True)
    lo, hi = _column_range(rows)
    assert lo.tolist() == [min([0, *column]) for column in rows.T.tolist()]
    assert hi.tolist() == [max([0, *column]) for column in rows.T.tolist()]


@given(row_sets(), st.data())
@settings(max_examples=100, deadline=None)
def test_distinct_labelled_takes_each_rows_least_label(drawn, data):
    rows, extra, _ = drawn
    repeated = rows + [extra] + rows[::2]
    labels = data.draw(st.lists(st.integers(0, 5), min_size=len(repeated),
                                max_size=len(repeated)))
    least = {}
    for row, label in zip(repeated, labels):
        least[row] = min(label, least.get(row, label))
    out, out_labels = distinct_labelled(np.array(repeated, dtype=np.int64), np.array(labels))
    assert list(map(tuple, out.tolist())) == sorted(least)
    assert out_labels.tolist() == [least[row] for row in sorted(least)]


def non_members(rows, extra, width):
    """Rows absent from rows: past a column's bound, nonzero where all are zero, or extra."""
    out = [extra]
    for k in range(width):
        column = [r[k] for r in rows]
        for beyond in (max(map(abs, column)) + 1, -max(map(abs, column)) - 1):
            if abs(beyond) < 2**63:
                out += [r[:k] + (beyond,) + r[k + 1:] for r in rows[:2]]
    return out


@given(row_sets())
@settings(max_examples=150, deadline=None)
def test_row_index_matches_dict(drawn):
    rows, extra, bounds = drawn
    index = RowIndex(np.array(rows, dtype=np.int64))
    where = {row: i for i, row in enumerate(rows)}
    absent = non_members(rows, extra, len(bounds))
    assert all(q not in where for q in absent)
    queries = rows[::-1] + absent
    found = index.find(np.array(queries, dtype=np.int64).reshape(len(queries), len(bounds)))
    assert found.tolist() == [where.get(q, -1) for q in queries]


def byte_key_closure(seeds, gen_mats):
    """closure_points as a dict BFS over 128-byte row keys, on all 16 columns."""
    def keys(rows):
        return np.ascontiguousarray(rows).view("V128").ravel()
    m = lcm(*(d for _, d in gen_mats))
    mats = np.concatenate([mat * (m // d) for mat, d in gen_mats])
    frontier, den = common_rows(seeds)
    seen, rows = set(), frontier[:0]
    while len(frontier):
        fresh = {key: i for i, key in enumerate(keys(frontier).tolist()) if key not in seen}
        seen.update(fresh)
        frontier = frontier[list(fresh.values())]
        rows = np.concatenate([rows, frontier])
        images = (frontier @ mats.T).reshape(-1, 16)
        cut = int(np.gcd.reduce(images.ravel(), initial=m))
        if cut < m:
            den *= m // cut
            rows = rows * (m // cut)
            seen = set(keys(rows).tolist())
        frontier = images // cut
    return rows[np.lexsort(rows.T[::-1])], den


def byte_key_partition(rows, gen_mats):
    """partition_points by a dict from 128-byte row keys to indices, on all 16 columns."""
    keys = np.ascontiguousarray(rows).view("V128").ravel().tolist()
    where = {key: i for i, key in enumerate(keys)}
    perms = []
    for mat, d in gen_mats:
        images = rows @ mat.T
        if (images % d).any():
            raise NotInvariant("generator image is not integral over the set's denominator")
        keys = np.ascontiguousarray(images // d).view("V128").ravel().tolist()
        if any(key not in where for key in keys):
            raise NotInvariant("generator image left the decomposed set")
        perms.append(np.array([where[key] for key in keys]))
    labels, prev = np.arange(len(rows)), None
    while not np.array_equal(labels, prev):
        prev = labels
        for perm in perms:
            labels = np.minimum(labels, labels[perm])
    return labels


GENERATORS = {
    "H4 reflections": lambda: [transform_matrix(reflection(a)) for a in h4_simple_roots()],
    **{name: lambda make=make: make().generator_matrices() for name, make in GROUPS.items()},
}


def assert_orbits_are_oracle(seeds, closing, parting):
    rows, den = closure_points(seeds, GENERATORS[closing]())
    expected_rows, expected_den = byte_key_closure(seeds, GENERATORS[closing]())
    assert den == expected_den and np.array_equal(rows, expected_rows)
    gens = GENERATORS[parting]()
    try:
        expected = byte_key_partition(rows, gens)
    except NotInvariant:
        with pytest.raises(NotInvariant):
            partition_points(rows, gens)
    else:
        assert np.array_equal(partition_points(rows, gens), expected)


PARTING = ("H4 reflections", "S3", "W(D4):C3", "W(H3)xC2")


@given(st.lists(st.one_of(golden_points, points), min_size=1, max_size=1),
       st.sampled_from(sorted(GENERATORS)), st.sampled_from(PARTING), st.booleans())
@settings(max_examples=20, deadline=None)
def test_closure_and_partition_match_byte_key_oracles(seeds, closing, parting, own):
    assert_orbits_are_oracle(seeds, closing, closing if own else parting)


@pytest.mark.parametrize("closing", sorted(GENERATORS))
def test_closure_and_partition_of_sqrt2_and_golden_seeds(closing):
    # The images of 1 leave its own column bounds in the first round.
    seeds = [icosian_seed() * SQRT2, Quaternion(TAU, 0, SIGMA, HALF), Q_ONE]
    for parting in sorted({closing, *PARTING}):
        assert_orbits_are_oracle(seeds, closing, parting)


def test_closure_fixes_a_round_whose_every_image_leaves_the_denominator():
    # 1 h = h is (1, 1, 1, 1) over 2: no entry of the first round is integral
    # over 1's denominator, so the fix must still run.
    h = Quaternion(HALF, HALF, HALF, HALF)
    rows, den = closure_points([Q_ONE], [transform_matrix(Transform(Q_ONE, h))])
    assert den == 2
    assert quats_of(rows, den) == canonical_sorted(h ** k for k in range(6))


def test_support_is_the_columns_the_generators_reach_from_the_seeds():
    # Right multiplication by e2, h and p keeps Q(sqrt5)^4: from 1 it reaches the
    # rational and sqrt5 column of each coefficient, and no sqrt2 or sqrt10 one.
    gens = [E2, Quaternion(HALF, HALF, HALF, HALF), icosian_seed()]
    mats = np.stack([transform_matrix(Transform(Q_ONE, g))[0] for g in gens])
    assert _support(common_rows([Q_ONE])[0], mats).tolist() == list(range(0, 16, 2))


def test_partition_raises_where_an_image_leaves_bounds_or_support():
    # W(D4):C3 maps 1 to e2, which is nonzero where the set {1} is all zero;
    # it maps 2 to 2 e2, past the bound 1 that {2, e2} puts on that column.
    cases = [(common_rows(points)[0], wd4c3().generator_matrices())
             for points in ([Q_ONE], [Q_ONE * 2, E2])]
    # A shear adds column 0 to column 1: the image of the set's one row
    # agrees with that row on the row's own support.
    shear = np.eye(16, dtype=np.int64)
    shear[1, 0] = 1
    cases.append((np.eye(16, dtype=np.int64)[:1], [(shear, 1)]))
    for rows, gens in cases:
        for partition in (partition_points, byte_key_partition):
            with pytest.raises(NotInvariant):
                partition(rows, gens)


def left_perms_of(rows_q, points_q):
    """left_perms of the multiplier quaternions on the points, as the callers index them."""
    rows, den = common_rows(rows_q)
    prows, pden = common_rows(points_q)
    return left_perms(rows, prows, RowIndex(rescaled(prows, pden, den * pden)))


def conjugate_24cell(i):
    """p^i T p^-i, the 24-cell that snub embedding i leaves out of the 600-cell."""
    pi = icosian_seed() ** i
    return [pi * t * pi.conjugate() for t in binary_tetrahedral()]


LEFT_ACTIONS = {
    "2T": lambda: 2 * [binary_tetrahedral().elements],
    "2O": lambda: 2 * [binary_octahedral().elements],
    "2I": lambda: 2 * [binary_icosahedral().elements],
    # T, and each conjugate 24-cell, permutes its snub complement.
    "snub census": lambda: [binary_tetrahedral().elements, snub24_vertices()],
    # The groups on their censuses' vertices, as cell_census transports with them.
    "600-cell census": lambda: [binary_icosahedral().elements,
                                cell_census(binary_icosahedral().elements).vertices],
    "24-cell census": lambda: [binary_tetrahedral().elements,
                               cell_census(binary_tetrahedral().elements).vertices],
    **{f"snub embedding {i}": (lambda i=i: [conjugate_24cell(i), snub_embeddings_in_600cell()[i]])
       for i in range(5)},
    # No group: products of two T' elements land in T.
    "T' and 1": lambda: 2 * [t_prime().elements + (Q_ONE,)],
    # (e1/2)^2 = -1/4 is not integral over the set's denominator 2.
    "1, e1/2": lambda: 2 * [(Q_ONE, E1 * HALF)],
    # b = 1 stays on the set under both rows, but e1 e1 = -1 leaves it.
    "1, e1 keeping b": lambda: 2 * [(Q_ONE, E1)],
    # -1 has reached every point when 2, which moves b off them, is read.
    "2 after -1": lambda: [(-Q_ONE, Quaternion(2)), (Q_ONE, -Q_ONE)],
    # The zero point is fixed by every row, so b is the next point.
    "zero first": lambda: [(Q_ONE, -Q_ONE, E1, -E1), (Quaternion(0), Q_ONE, -Q_ONE, E1, -E1)],
}


@pytest.mark.parametrize("name", list(LEFT_ACTIONS))
def test_left_perms_match_scalar_products(name):
    """Each row's permutation is where h q lands for every point q, or None
    where some h q is no point."""
    rows_q, points_q = LEFT_ACTIONS[name]()
    at = {q: i for i, q in enumerate(points_q)}
    oracle = np.array([[at.get(h * q, -1) for q in points_q] for h in rows_q])
    perm = left_perms_of(rows_q, points_q)
    if (oracle < 0).any():
        assert perm is None
    else:
        np.testing.assert_array_equal(perm, oracle)


@pytest.mark.parametrize("name", list(LEFT_ACTIONS))
@pytest.mark.parametrize("one_table", [0, 10**6], ids=["generators", "one table"])
def test_left_perms_take_either_path(monkeypatch, name, one_table):
    """Every action, by generators alone and as one table of all its products,
    gives the scalar oracle's permutations or None, as the default does."""
    monkeypatch.setattr(engine, "_ONE_TABLE", one_table)
    test_left_perms_match_scalar_products(name)


def test_left_perms_make_a_few_generator_rows(monkeypatch):
    """The Cayley table of 2I comes from at most four rows of 120 products
    each, besides the one column where every row moves b; no product table
    pairs every element.  The 600-cell census permutes its vertices by 2I's
    own table, so it makes no left action of its own."""
    made = Counter()

    def counted(a, b):
        out = products(a, b)
        made[sys._getframe(1).f_code.co_name] += prod(out.shape[:-1])
        return out

    elements = binary_icosahedral().elements
    monkeypatch.setattr(engine, "products", counted)
    assert QuaternionGroup(elements).is_closed()  # a new group: no table cached
    assert 0 < made["left_perms"] <= 4 * 120 + 120 and set(made) == {"left_perms"}
    assert binary_icosahedral().cayley_table is not None
    made.clear()
    complex_ = polytope._census.__wrapped__(frozenset(elements))  # not the cached census
    assert made["left_perms"] == 0
    # transport_cells itself only moves each cell's normal.
    assert made["transport_cells"] == len(complex_.cells)


def test_left_perms_of_no_points():
    """With no points to move, every row's permutation is empty."""
    rows, den = common_rows(binary_tetrahedral().elements)
    none = np.zeros((0, 16), dtype=np.int64)
    perm = left_perms(rows, none, RowIndex(none))
    assert perm.shape == (24, 0) and perm.dtype == np.intp
