"""Root systems as icosians: E8, F4, D4, and the H4 weight orbits."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icosian import (HALF, Quaternion, appendix_decompositions, coxeter,
                     binary_icosahedral, binary_octahedral,
                     binary_tetrahedral, build_120cell, canonical_sorted,
                     e8_roots, f4_roots, field_sqrt, format_appendix_table,
                     h4_orbit, h4_simple_roots, h4_weights, icosian_seed, orbit_decompose,
                     roots, snub24_vertices, snub_sum_form, stabilizer, wd4c3, wh4)
from icosian.coxeter import (Transform, _pair_group, reflection, seed_conjugator,
                             seed_conjugators)
from icosian.errors import BadParameter, NotInvariant, SearchFailed
from icosian.field import ONE, SIGMA, SQRT2, TAU, ZERO
from icosian.engine import (act, closure_points, common_rows, distinct_rows, distinct_values,
                            pairwise_dots, partition_points, quats_of, transform_matrix)
from icosian.groups import d4_weight_orbits
from icosian.roots import (ALL_MASKS, RootSystemData, e8_minus_24cells, euclid_profile_full,
                           weight_decomposition)
from weight_oracle import (_int16, _on_all_columns, _weight_orbit, _weight_table, _weighted,
                           element_coset_labels, table_decomposition)


def test_e8_is_two_icosian_shells():
    system = e8_roots()
    assert len(system.roots) == 240
    icosa = set(binary_icosahedral().elements)
    sigma_shell = {q.scale(SIGMA) for q in icosa}
    assert set(system.roots) == icosa | sigma_shell
    norms = Counter(q.norm() for q in system.roots)
    assert norms == {ONE: 120, SIGMA * SIGMA: 120}


def test_e8_euclidean_projection_profile():
    """Against each root, the other 239 split 1/56/126/56/1 by rational part."""
    system = e8_roots()
    profiles = euclid_profile_full(system.roots)
    assert profiles == {(
        (Fraction(-1), 1),
        (Fraction(-1, 2), 56),
        (Fraction(0), 126),
        (Fraction(1, 2), 56),
        (Fraction(1), 1),
    )}


def test_e8_minus_24cells():
    inner, outer = e8_minus_24cells()
    snub = snub24_vertices()
    assert inner == snub
    assert outer == tuple(canonical_sorted(q.scale(SIGMA) for q in snub))
    assert (inner, outer) == (canonical_sorted(inner), canonical_sorted(outer))


def test_f4_and_d4():
    roots = f4_roots().roots
    assert Counter(q.norm() for q in roots) == {ONE: 24, HALF: 24}
    long = {q for q in roots if q.norm() == ONE}
    short = {q.scale(SQRT2) for q in roots if q.norm() == HALF}
    assert long == set(binary_tetrahedral().elements)
    assert long | short == set(binary_octahedral().elements)
    system = RootSystemData("D4", binary_tetrahedral().elements)
    assert len(system.roots) == 24
    assert set(system.roots) == set(binary_tetrahedral().elements)
    assert tuple(len(v) for v in d4_weight_orbits()) == (8, 8, 8)


def test_snub_sum_form():
    """tau V_i + sigma V_j over cyclic pairs: the snub plus sqrt2 times its partner."""
    sums = snub_sum_form()
    assert len(sums) == 192
    snub = set(snub24_vertices())
    partner = {q.scale(SQRT2) for q in build_120cell().s_prime}
    assert set(sums) == snub | partner
    norms = Counter(q.norm() for q in sums)
    assert norms == {ONE: 96, ONE + ONE: 96}


def test_h4_simple_roots_gram():
    alphas = h4_simple_roots()
    assert len(alphas) == 4
    for a in alphas:
        assert a.norm() == 1
        assert a in binary_icosahedral()
    gram = [[a.dot(b) for b in alphas] for a in alphas]
    minus_half = -HALF
    chain = {(0, 1): minus_half, (1, 2): minus_half, (2, 3): -TAU * HALF}
    for i in range(4):
        for j in range(4):
            if i == j:
                assert gram[i][j] == 1
            else:
                expected = chain.get((min(i, j), max(i, j)), 0)
                assert gram[i][j] == expected


def oracle_h4_simple_roots(icos):
    """The same search over the whole table of dots of the points icos, its
    entries lifted to field elements."""
    table, den = pairwise_dots(icos)
    values, index = distinct_values(table, den)

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


def test_h4_simple_roots_match_full_table_search(monkeypatch):
    """Rows of dots made as the search reaches them give the full table's first
    quadruple; over the 24-cell both searches fail."""
    assert h4_simple_roots() == oracle_h4_simple_roots(binary_icosahedral().elements)
    monkeypatch.setattr(roots, "binary_icosahedral", binary_tetrahedral)
    with pytest.raises(SearchFailed):
        roots.h4_simple_roots.__wrapped__()
    with pytest.raises(SearchFailed):
        oracle_h4_simple_roots(binary_tetrahedral().elements)


def test_h4_weights_are_dual_basis():
    alphas = h4_simple_roots()
    omegas = h4_weights()
    for i, omega in enumerate(omegas):
        for j, alpha in enumerate(alphas):
            expected = HALF if i == j else 0
            assert omega.dot(alpha) == expected


ORBIT_SIZES = {
    (1, 0, 0, 0): 120, (0, 1, 0, 0): 720, (0, 0, 1, 0): 1200,
    (0, 0, 0, 1): 600, (1, 1, 0, 0): 1440, (1, 0, 1, 0): 3600,
    (1, 0, 0, 1): 2400, (0, 1, 1, 0): 3600, (0, 1, 0, 1): 3600,
    (0, 0, 1, 1): 2400, (1, 1, 1, 0): 7200, (1, 1, 0, 1): 7200,
    (1, 0, 1, 1): 7200, (0, 1, 1, 1): 7200, (1, 1, 1, 1): 14400,
}


def test_h4_orbit_sizes():
    assert set(ALL_MASKS) == set(ORBIT_SIZES)
    for mask, size in ORBIT_SIZES.items():
        assert len(h4_orbit(mask)) == size


def test_first_weight_orbit_is_scaled_600cell():
    """The 120-point orbit is tau times the icosians, shown without square roots."""
    pts = h4_orbit((1, 0, 0, 0))
    v0 = pts[0]
    mu = v0.norm()
    translated = {v0.conjugate() * a for a in pts}
    icosa = {q.scale(mu) for q in binary_icosahedral()}
    assert translated == icosa
    assert {q.scale(TAU.invert()) for q in pts} == set(binary_icosahedral().elements)


def test_last_weight_orbit_is_scaled_120cell():
    pts = h4_orbit((0, 0, 0, 1))
    lam = field_sqrt(pts[0].norm())
    assert lam == SQRT2 * TAU * TAU
    inv = lam.invert()
    assert {q.scale(inv) for q in pts} == set(build_120cell().vertices)


def test_orbit_accepts_mask_spellings():
    assert h4_orbit("1000") == h4_orbit((1, 0, 0, 0))
    assert h4_orbit([0, 0, 0, 1]) == h4_orbit((0, 0, 0, 1))


@pytest.mark.parametrize("mask", ["0000", (1, 0, 0), "2000", (2, 0, 0, 0), "10a0", (1, -1, 0, 0)])
def test_orbit_refuses_masks_other_than_four_0_or_1_entries(mask):
    """2 w1 is no mask: "2000" must not read as w1's orbit."""
    with pytest.raises(BadParameter, match="mask must be four entries 0 or 1"):
        h4_orbit(mask)


EXPECTED_DECOMPOSITIONS = {
    (1, 0, 0, 0): (24, 96),
    (0, 1, 0, 0): (144, 288, 288),
    (0, 0, 1, 0): (96, 96, 144, 288, 576),
    (0, 0, 0, 1): (24, 96, 192, 288),
    (1, 1, 0, 0): (288,) * 5,
    (1, 0, 0, 1): (96, 96, 192, 288, 288, 288, 576, 576),
    (0, 0, 1, 1): (96, 96, 192, 288, 288, 288, 576, 576),
    (1, 0, 1, 0): (144, 288, 288, 288, 288, 576, 576, 576, 576),
    (0, 1, 1, 0): (144, 288, 288, 288, 288, 576, 576, 576, 576),
    (0, 1, 0, 1): (144, 288, 288, 288, 288, 576, 576, 576, 576),
    (1, 1, 1, 0): (288,) * 5 + (576,) * 10,
    (1, 1, 0, 1): (288,) * 5 + (576,) * 10,
    (1, 0, 1, 1): (288,) * 5 + (576,) * 10,
    (0, 1, 1, 1): (288,) * 5 + (576,) * 10,
    (1, 1, 1, 1): (576,) * 25,
}


def test_weight_orbit_decompositions():
    reports = {r.mask: r for r in appendix_decompositions()}
    assert set(reports) == set(EXPECTED_DECOMPOSITIONS)
    for mask, expected in EXPECTED_DECOMPOSITIONS.items():
        assert reports[mask].decomposition == tuple(sorted(expected)), mask


def test_decomposition_sizes_obey_orbit_stabilizer():
    for report in appendix_decompositions():
        for part in report.decomposition:
            assert 576 % part == 0


def test_published_line_five_flag():
    reports = appendix_decompositions()
    flagged = [r for r in reports if r.flagged_lines]
    assert len(flagged) == 3
    for r in flagged:
        assert r.flagged_lines == (5,)
        assert r.orbit_size == 3600
        assert sum(r.decomposition) == 3600
    assert all(r.matched_lines for r in reports)


def test_format_lines():
    reports = {r.mask: r for r in appendix_decompositions()}
    assert reports[(1, 1, 1, 1)].format_line() == "14400 = 25(576)"
    assert reports[(1, 0, 0, 0)].format_line() == "120 = 24+96"
    table = format_appendix_table()
    assert "published line inconsistent" in table
    assert table.count("\n") == 15


def test_suborbits_are_wd4c3_orbits():
    pts = h4_orbit((0, 0, 0, 1))
    partition = orbit_decompose(wd4c3(), pts)
    assert partition.sizes == (24, 96, 192, 288)
    total = [q for part in partition.suborbits for q in part]
    assert len(total) == 600
    assert set(total) == set(pts)


@given(st.integers(0, 14399))
@settings(max_examples=40, deadline=None)
def test_weight_table_is_the_elements_images(g):
    table, cols, den, bound, _ = _weight_table()
    # orbit --weights refuses exactly the weights whose sums could leave
    # int64 by this den and bound (test_orbit_weights_past_int64_exit_2).
    assert (den, bound) == (4, 9)
    element = wh4().elements[g]
    for omega, images in zip(h4_weights(), table):
        row = np.zeros((1, 16), dtype=np.int64)
        row[0, cols] = images[g]
        assert quats_of(row, den)[0] == element.apply(omega)


def act_weight_table():
    """The weight table as it was made before W(H4) kept its factors: act on
    every row of wh4(), and each element labelled by the partition_points
    orbit of its rho image under W(D4):C3's generators."""
    group = wh4()
    omegas, wden = common_rows(h4_weights())
    table = np.stack([_int16(act(group.rows, omega[None])[:, 0]) for omega in omegas])
    den = group.den ** 2 * wden
    g = int(np.gcd.reduce(table, axis=None, initial=den))
    cols = np.flatnonzero(table.any(axis=(0, 1)))
    table, den = table[:, :, cols] // g, den // g
    bound = max(int(table.max()), -int(table.min()))
    rho = _weighted(table, bound, (1, 1, 1, 1))
    assert len(distinct_rows(rho)) == len(rho)
    labels = partition_points(_on_all_columns(rho, cols), wd4c3().generator_matrices())
    return table, cols, den, bound, labels


def test_factored_weight_table_matches_the_all_rows_oracle():
    table, cols, den, bound, cosets = _weight_table()
    oracle_table, oracle_cols, oracle_den, oracle_bound, labels = act_weight_table()
    assert table.dtype == oracle_table.dtype and table.shape == oracle_table.shape
    assert table.tobytes() == oracle_table.tobytes()
    assert cols.tolist() == oracle_cols.tolist()
    assert (den, bound) == (oracle_den, oracle_bound) == (4, 9)
    # The rho partitions of the two tables name the same 25 classes.
    assert cosets.tolist() == labels.tolist() and len(set(labels.tolist())) == 25


def test_weight_orbits_and_stabilizers_never_build_the_rows_of_wh4(monkeypatch):
    # A W(H4) of its own, whose rows no other test has made: the coset action,
    # the weight orbits and a stabilizer must come from its factors alone.
    group = _pair_group(binary_icosahedral(), "W(H4)")
    monkeypatch.setattr(roots, "wh4", lambda: group)
    roots._coset_action.cache_clear()
    try:
        assert weight_decomposition((1, 1, 1, 1)) == (14400, (576,) * 25)
        assert weight_decomposition((0, 0, 0, 1)) == (600, (24, 96, 192, 288))
        assert len(h4_orbit((1, 0, 0, 0))) == 120
        assert len(stabilizer(group, icosian_seed())) == 120
        assert len(group) == 14400
        assert group._rows is None
    finally:
        roots._coset_action.cache_clear()


def test_coset_action_is_right_multiplication_by_the_simple_reflections():
    labels = element_coset_labels()  # the W(D4):C3 orbit of g rho names the coset H g
    position = {t: k for k, t in enumerate(wh4().elements)}
    representatives = [seed_conjugator(*divmod(k, 5)) for k in range(25)]
    action = roots._coset_action()
    assert action.shape == (25, 4)
    for k, g in enumerate(representatives):
        for j, alpha in enumerate(h4_simple_roots()):
            moved = g * reflection(alpha)
            assert labels[position[representatives[action[k, j]]]] == labels[position[moved]]
    # Each s_j permutes the cosets.
    for column in action.T:
        assert sorted(column.tolist()) == list(range(25))


def test_coset_action_refuses_conjugators_that_miss_a_coset(monkeypatch):
    # Row 1 repeated over row 0: 25 rows, but only 24 distinct cosets.
    rows, den = seed_conjugators()
    repeated = rows.copy()
    repeated[1] = repeated[0]
    monkeypatch.setattr(coxeter, "seed_conjugators", lambda: (repeated, den))
    coxeter.inscribed_24cells.cache_clear()
    try:
        with pytest.raises(NotInvariant, match="do not meet every coset of W\\(D4\\):C3 once"):
            coxeter.inscribed_24cells()
    finally:
        coxeter.inscribed_24cells.cache_clear()


def test_coset_action_refuses_a_conjugator_that_moves_t_off_2i(monkeypatch):
    # Row 1 is [u, conj(p)] for a unit u of 2O outside 2I: its inverse moves
    # T onto (2O - T) p, off 2I.
    u = next(q for q in binary_octahedral() if q not in binary_icosahedral())
    conjugators = [seed_conjugator(*divmod(k, 5)) for k in range(25)]
    conjugators[1] = Transform(u, conjugators[1].q)
    pq, den = common_rows([t.p for t in conjugators] + [t.q for t in conjugators])
    rows = np.hstack([np.zeros((25, 1), dtype=np.int64), pq[:25], pq[25:]])
    monkeypatch.setattr(coxeter, "seed_conjugators", lambda: (rows, den))
    coxeter.inscribed_24cells.cache_clear()
    try:
        with pytest.raises(NotInvariant, match="do not meet every coset of W\\(D4\\):C3 once"):
            coxeter.inscribed_24cells()
    finally:
        coxeter.inscribed_24cells.cache_clear()


def test_double_cosets_match_the_weight_table_oracle():
    for mask in ALL_MASKS:
        assert weight_decomposition(mask) == table_decomposition(mask), mask


def test_orbit_rows_bound_is_the_weight_tables():
    # The refusal bound of weight_decomposition is the largest coefficient of
    # any image g w_i over den 4, which the oracle reads off all of them.
    _, _, den, bound, _ = _weight_table()
    assert (den, bound) == (4, roots._IMAGE_BOUND)
    edge = ((1 << 63) - 1) // bound  # the largest sum of weights it answers
    assert weight_decomposition((edge - 1, 0, 0, 1)) == table_decomposition((1, 0, 0, 1))
    with pytest.raises(OverflowError, match="could leave the int64 range"):
        weight_decomposition((edge, 0, 0, 1))


def test_a_weight_off_its_support_fails_the_dominance_premise(monkeypatch):
    # w_1 and w_2 swapped: sum a_i w_i is then positive on a_2 where a_2 = 0.
    w1, w2, w3, w4 = h4_weights()
    monkeypatch.setattr(roots, "h4_weights", lambda: (w2, w1, w3, w4))
    roots._premise_table.cache_clear()
    try:
        with pytest.raises(NotInvariant, match="the weight is not positive exactly"):
            weight_decomposition((1, 0, 0, 0))
        with pytest.raises(NotInvariant, match="the weight is not positive exactly"):
            weight_decomposition((1, 0, 0, 1))
    finally:
        roots._premise_table.cache_clear()


def test_a_wrong_rho_fails_the_dominance_premise(monkeypatch):
    # With -w_1 for w_1, rho = -w_1 + w_2 + w_3 + w_4 is negative on a_1,
    # while the weight w_2 alone still has the right signs.
    w1, w2, w3, w4 = h4_weights()
    monkeypatch.setattr(roots, "h4_weights", lambda: (-w1, w2, w3, w4))
    roots._premise_table.cache_clear()
    try:
        with pytest.raises(NotInvariant, match="rho is not positive on every simple root"):
            weight_decomposition((0, 1, 0, 0))
    finally:
        roots._premise_table.cache_clear()


def test_negative_weights_fail_the_dominance_premise():
    with pytest.raises(NotInvariant, match="the weight is not positive exactly"):
        weight_decomposition((1, -1, 0, 0))


def closure_weight_orbit(weights):
    """A weight orbit by its own closure under the simple reflections and its own
    W(D4):C3 partition: the orbit's points and its sorted part sizes."""
    seed = sum((omega * w for w, omega in zip(weights, h4_weights())), Quaternion(0))
    reflections = [transform_matrix(reflection(a)) for a in h4_simple_roots()]
    rows, den = closure_points([seed], reflections)
    labels = partition_points(rows, wd4c3().generator_matrices())
    return quats_of(rows, den), tuple(sorted(Counter(labels.tolist()).values()))


def test_weight_orbits_match_their_own_closures():
    for mask in ALL_MASKS:
        points, parts = closure_weight_orbit(mask)
        assert h4_orbit(mask) == points
        assert weight_decomposition(mask) == (len(points), parts)


@given(st.tuples(*[st.integers(0, 6)] * 4))
@settings(max_examples=25, deadline=None)
def test_weighted_orbits_match_their_own_closures(weights):
    points, parts = closure_weight_orbit(weights)
    assert quats_of(*_weight_orbit(weights)[:2]) == points
    assert weight_decomposition(weights) == (len(points), parts)


def test_root_system_and_report_reprs():
    assert repr(e8_roots()) == "<E8: 240 roots>"
    assert repr(f4_roots()) == "<F4: 48 roots>"
    report = appendix_decompositions()[0]
    assert repr(report) == "<orbit (0, 0, 0, 1): 600 = 24+96+192+288>"
