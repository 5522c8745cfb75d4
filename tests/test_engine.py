"""Engine kernels against the pure-Python FieldElement/Quaternion oracle."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icosian import (E1, E2, E3, HALF, ONE, Q_ONE, SIGMA, SQRT2, TAU, Quaternion,
                     canonical_sorted, icosian_seed, orbit, projective_equal, s3_of, wd4c3,
                     wh3xc2, wh4)
from icosian.coxeter import orbit_by_elements, reflection
from icosian.engine import (_PRODUCT_BLOCK, _SIGN_BLOCK, RowIndex, _product_block, apply_all,
                            closure_points, common_rows, cross_rows, distinct_rows,
                            distinct_values, pairwise_dots, partition_points, products,
                            quats_of, side_signs, transform_matrix)
from icosian.errors import NotInGoldenSubfield, NotInvariant
from icosian.field import SQRT10, ZERO, FieldElement
from icosian.linalg import nullspace
from icosian.roots import euclid_profile_full, h4_simple_roots

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
    # More normals than one block: the second block has other denominators.
    many = [n * (1 + k % 3) for k, n in enumerate(normals * _SIGN_BLOCK)][:_SIGN_BLOCK + 5]
    assert_signs_are_oracle(many, pts, (anchors * _SIGN_BLOCK)[:len(many)])
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


def test_products_blocks_match_one_batch():
    # A table of more products than one block, taken in several blocks.
    rows, _ = common_rows([icosian_seed() * q for q in (Q_ONE, E1, E2, E3, E1 * SQRT2)])
    rows = np.concatenate([rows * k for k in range(1, 40)])
    assert len(rows) ** 2 > 2 * _PRODUCT_BLOCK
    a, b = np.broadcast_arrays(rows[:, None], rows[None, :])
    assert np.array_equal(products(rows[:, None], rows[None, :]), _product_block(a, b))
    assert np.array_equal(products(a.reshape(-1, 16), rows[3]),
                          _product_block(a.reshape(-1, 16), rows[3]))


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


@given(st.lists(st.integers(0, 14399), min_size=1, max_size=8), points)
@settings(max_examples=40, deadline=None)
def test_apply_all_matches_transform_apply(picks, q):
    group = wh4()
    mats, dens = group.compiled()
    images = quats_of(*apply_all(mats[picks], dens[picks], q))
    assert images == tuple(group.elements[k].apply(q) for k in picks)


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


@given(st.lists(points, min_size=1, max_size=4), st.integers(0, 66))
@settings(max_examples=80, deadline=None)
def test_pairwise_dots_raise_or_match_near_int64_limit(rows, bits):
    scaled = [q * (1 << bits) for q in rows]
    try:
        result = pairwise_dots(scaled)
    except OverflowError:
        return
    assert_table_is_oracle(scaled, scaled, *result)


@given(points, st.integers(0, 66), st.booleans())
@settings(max_examples=60, deadline=None)
def test_apply_all_raises_or_matches_near_int64_limit(q, bits, shrink):
    group = wh4()
    mats, dens = group.compiled()
    picks = [0, 1, 7199, 14399]
    scaled = q * (Fraction(1, 1 << bits) if shrink else 1 << bits)
    try:
        images = quats_of(*apply_all(mats[picks], dens[picks], scaled))
    except OverflowError:
        return
    assert images == tuple(group.elements[k].apply(scaled) for k in picks)


def test_int64_limit_raises():
    one = Quaternion(1)
    # Scaling 2^62 to the common denominator 4 would wrap to 0 in int64.
    with pytest.raises(OverflowError):
        pairwise_dots([one * (1 << 62), one * Fraction(1, 4)])
    with pytest.raises(OverflowError):
        pairwise_dots([one * (1 << 64)])
    # Images are rows over one denominator, never reduced: a tiny point is
    # answered exactly, while numerators of 2^62 times a matrix entry overflow.
    group = wh4()
    mats, dens = group.compiled()
    tiny = one * Fraction(1, 1 << 62)
    assert quats_of(*apply_all(mats[:2], dens[:2], tiny)) == tuple(
        t.apply(tiny) for t in group.elements[:2])
    with pytest.raises(OverflowError):
        apply_all(mats[:2], dens[:2], one * (1 << 62))
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


@given(st.lists(golden_points, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_euclid_profile_full_matches_oracle(roots):
    expected = {tuple(sorted(Counter(r.euclid_dot(s) for s in roots).items()))
                for r in roots}
    assert euclid_profile_full(roots) == expected


@given(st.lists(golden_points, max_size=4), golden_points.filter(lambda q: q.norm() != ZERO),
       st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_euclid_profile_full_rejects_sqrt2_parts(roots, g, at):
    # g . (sqrt2 g) = sqrt2 |g|^2 has a sqrt2 part.
    roots = roots[:at] + [g * SQRT2] + roots[at:] + [g]
    with pytest.raises(NotInGoldenSubfield):
        euclid_profile_full(roots)


GROUPS = {"W(D4):C3": wd4c3, "W(H3)xC2": wh3xc2, "S3": lambda: s3_of(icosian_seed())}
group_names = st.sampled_from(sorted(GROUPS))


@given(group_names, points)
@settings(max_examples=60, deadline=None)
def test_orbit_matches_orbit_by_elements(name, q):
    group = GROUPS[name]()
    assert orbit(group, q) == orbit_by_elements(group, q)


def test_orbit_grows_its_denominator():
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


# W(H3)xC2 lists no generators, so its 240 elements part only its own orbits.
PARTING = ("H4 reflections", "S3", "W(D4):C3")


@given(st.lists(st.one_of(golden_points, points), min_size=1, max_size=1),
       st.sampled_from(sorted(GENERATORS)), st.sampled_from(PARTING), st.booleans())
@settings(max_examples=20, deadline=None)
def test_closure_and_partition_match_byte_key_oracles(seeds, closing, parting, own):
    assert_orbits_are_oracle(seeds, closing, closing if own else parting)


@pytest.mark.parametrize("closing", sorted(GENERATORS))
def test_closure_and_partition_of_sqrt2_and_golden_seeds(closing):
    seeds = [icosian_seed() * SQRT2, Quaternion(TAU, 0, SIGMA, HALF)]
    for parting in sorted({closing, *PARTING}):
        assert_orbits_are_oracle(seeds, closing, parting)


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
