"""The binary polyhedral groups and their conjugacy data, pinned exactly."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from icosian import (E1, E2, E3, HALF, Q_ONE, SIGMA, SQRT2, TAU, CapExceeded,
                     NotInvariant, Quaternion, QuaternionGroup, QuaternionSet,
                     SearchFailed, binary_icosahedral, binary_octahedral,
                     binary_tetrahedral, build_120cell, canonical_sorted, closure,
                     conjugacy_classes, d4_weight_orbits, e8_roots, element_order,
                     engine, f4_roots, icosa_class_plus, icosian_seed, t_prime)

HALF_ONES = Quaternion(HALF, HALF, HALF, HALF)


def test_orders():
    assert len(binary_tetrahedral()) == 24
    assert len(binary_octahedral()) == 48
    assert len(binary_icosahedral()) == 120
    assert len(t_prime()) == 24


def test_containments():
    tet = set(binary_tetrahedral().elements)
    assert tet <= set(binary_octahedral().elements)
    assert tet <= set(binary_icosahedral().elements)
    assert set(t_prime().elements).isdisjoint(tet)
    assert tet | set(t_prime().elements) == set(binary_octahedral().elements)


def test_groups_are_closed():
    assert binary_tetrahedral().is_closed()
    assert binary_octahedral().is_closed()
    assert binary_icosahedral().is_closed()


def test_is_closed_finds_products_missing_from_the_set():
    """T' with 1: products of two T' elements land in T, mostly outside the set."""
    assert not QuaternionGroup(list(t_prime()) + [Q_ONE]).is_closed()


def test_is_closed_finds_products_off_the_denominator():
    """{1, e1/2}: (e1/2)^2 = -1/4 is not integral over the set's denominator 2."""
    assert not QuaternionGroup([Q_ONE, E1 * HALF]).is_closed()


def test_t_prime_is_not_a_group():
    """T' is a coset: products of two T' elements land back in T."""
    tp = t_prime()
    tet = binary_tetrahedral()
    sample = tp.elements[0] * tp.elements[1]
    assert sample not in tp
    assert all(a * b in tet for a in tp for b in tp)


def test_weight_orbits():
    v1, v2, v3 = d4_weight_orbits()
    assert (len(v1), len(v2), len(v3)) == (8, 8, 8)
    union = {q for orbit in (v1, v2, v3) for q in orbit}
    assert len(union) == 24
    assert {q.norm() for q in union} == {HALF}
    scaled = canonical_sorted(q * SQRT2 for q in union)
    assert tuple(scaled) == tuple(t_prime().elements)


def test_element_orders():
    assert element_order(Q_ONE) == 1
    assert element_order(-Q_ONE) == 2
    assert element_order(E1) == 4
    assert element_order(HALF_ONES) == 6
    assert element_order(icosian_seed()) == 10


def test_element_order_of_infinite_order_raises():
    with pytest.raises(SearchFailed):
        element_order(Quaternion(2))


def test_icosahedral_cosets():
    """I is tiled by the five left cosets p^j T of the 24-cell."""
    p = icosian_seed()
    tet = binary_tetrahedral()
    cosets = [frozenset((p ** j) * t for t in tet) for j in range(5)]
    assert len(set(cosets)) == 5
    union = set().union(*cosets)
    assert union == set(binary_icosahedral().elements)
    assert sum(len(c) for c in cosets) == 120


def test_closure_from_generators():
    group = closure([E1, HALF_ONES], cap=100)
    assert len(group) == 24
    assert group.is_closed()
    icosa = closure([HALF_ONES, icosian_seed()], cap=500)
    assert len(icosa) == 120
    assert closure([]).elements == (Q_ONE,)


def test_closure_cap():
    doubling = Quaternion(2)
    with pytest.raises(CapExceeded):
        closure([doubling], cap=50)
    # 2^k leaves int64 before the default cap of 200 is reached: refused, not wrapped.
    with pytest.raises(OverflowError):
        closure([doubling])


BINARY_GENERATORS = {
    "2T": (lambda: [E1, HALF_ONES], binary_tetrahedral),
    "2O": (lambda: [HALF_ONES, t_prime().elements[0]], binary_octahedral),
    "2I": (lambda: [HALF_ONES, icosian_seed()], binary_icosahedral),
}


@pytest.mark.parametrize("name", sorted(BINARY_GENERATORS))
def test_closure_cap_boundary_matches_the_oracle(name, generate):
    """A cap equal to the order passes and one below it raises, as in the oracle BFS."""
    make_gens, group = BINARY_GENERATORS[name]
    gens, order = make_gens(), len(group())
    closed = closure(gens, cap=order)
    assert closed == group() == QuaternionGroup(generate(gens, cap=order))
    with pytest.raises(CapExceeded):
        closure(gens, cap=order - 1)
    with pytest.raises(CapExceeded):
        generate(gens, cap=order - 1)


def test_conjugacy_profile():
    table = conjugacy_classes(binary_icosahedral())
    assert table.profile() == (
        (1, 1), (2, 1), (3, 20), (4, 30), (5, 12), (5, 12),
        (6, 20), (10, 12), (10, 12))
    assert sum(c.size for c in table.classes) == 120
    first = [tuple(Fraction(v, c.members[0].ivec[1]) for v in c.members[0].ivec[0])
             for c in table.classes]
    keys = [(c.order, c.size, k) for c, k in zip(table.classes, first)]
    assert keys == sorted(keys)


def test_class_12_plus():
    plus = icosa_class_plus()
    assert plus.size == 12
    assert plus.order == 10
    assert all(q.component(0) == TAU * HALF for q in plus.members)
    assert icosian_seed() in plus.members


def test_conjugacy_class_of():
    table = conjugacy_classes(binary_icosahedral())
    assert table.class_of(Q_ONE).size == 1
    assert table.class_of(-Q_ONE).order == 2
    with pytest.raises(KeyError):
        table.class_of(Quaternion(7))


def test_octahedral_classes():
    table = conjugacy_classes(binary_octahedral())
    assert sum(c.size for c in table.classes) == 48
    assert len(table.classes) == 8


def test_classes_of_a_set_that_is_not_a_group_raise():
    # e1/2 * 1 * conj(e1/2) = 1/4 is not an element.
    with pytest.raises(NotInvariant, match="left the group"):
        conjugacy_classes(QuaternionGroup([Q_ONE, E1 * HALF]))
    # {0, 1} is closed under products, but 0 has no inverse.
    zero_and_one = QuaternionGroup([Quaternion(0), Q_ONE])
    assert zero_and_one.is_closed()
    with pytest.raises(NotInvariant, match="an element has no inverse"):
        conjugacy_classes(zero_and_one)


def test_classes_match_scalar_conjugation():
    for group in (binary_octahedral(), binary_icosahedral()):
        table = conjugacy_classes(group)
        for c in table.classes:
            x = c.members[0]
            assert set(c.members) == {g * x * g.conjugate() for g in group}
            assert c.order == element_order(x)


def test_set_indexing():
    tet = binary_tetrahedral()
    for i, q in enumerate(tet.elements):
        assert tet.index(q) == i
        assert q in tet
    assert Quaternion(5) not in tet


def test_quaternion_set_order_and_repr():
    assert binary_icosahedral().order == len(binary_icosahedral()) == 120
    assert t_prime().order == 24
    assert repr(binary_icosahedral()) == "<I: 120 quaternions>"
    assert repr(t_prime()) == "<T': 24 quaternions>"


def test_conjugacy_classes_default_to_2i():
    """With no argument, the classes of 2I: the same profile as asked by name,
    though a cache entry of its own."""
    table = conjugacy_classes()
    assert table.group is binary_icosahedral()
    assert table.profile() == conjugacy_classes(binary_icosahedral()).profile() == (
        (1, 1), (2, 1), (3, 20), (4, 30), (5, 12), (5, 12), (6, 20), (10, 12), (10, 12))
    assert repr(table.classes[0]) == "<class: size 1, element order 1>"
    assert repr(table.class_of(icosian_seed())) == "<class: size 12, element order 10>"


def _halves(signs):
    return Quaternion(*(Fraction(s, 2) for s in signs))


def scalar_sets():
    """T, V1-V3 and T' from Fraction coefficients and Quaternion arithmetic alone."""
    tet = [u for q in (Q_ONE, E1, E2, E3) for u in (q, -q)]
    tet += [_halves(s) for s in product((1, -1), repeat=4)]
    orbits = []
    for axis, (j, k) in ((1, (2, 3)), (2, (3, 1)), (3, (1, 2))):
        orbit = []
        for s0, s1 in product((1, -1), repeat=2):
            for at in ((0, axis), (j, k)):
                signs = [0, 0, 0, 0]
                signs[at[0]], signs[at[1]] = s0, s1
                orbit.append(_halves(signs))
        orbits.append(orbit)
    tp = [v.scale(SQRT2) for orbit in orbits for v in orbit]
    return {"T": tet, "V1": orbits[0], "V2": orbits[1], "V3": orbits[2], "T'": tp, "2O": tet + tp}


# Every point set the paper builds from integer rows, by name.
KEPT_SETS = {
    "T": binary_tetrahedral, "2O": binary_octahedral, "2I": binary_icosahedral, "T'": t_prime,
    **{f"V{i + 1}": (lambda i=i: d4_weight_orbits()[i]) for i in range(3)},
    "E8": e8_roots, "F4": f4_roots, "120-cell": lambda: build_120cell().points,
    **{f"120-cell {name}": (lambda k=k: build_120cell().parts[k])
       for k, name in enumerate(("T'", "S'", "M", "N"))},
}


@pytest.mark.parametrize("name", list(KEPT_SETS))
def test_point_sets_keep_the_canonical_rows_of_their_points(name):
    """A set keeps the rows engine.common_rows makes of its points, in
    canonical_sorted order; T, V1-V3, T' and 2O hold the scalar sets' points."""
    points = KEPT_SETS[name]()
    rows, den = engine.common_rows(points.elements)
    assert points.den == den and np.array_equal(points.rows, rows)
    assert points.elements == canonical_sorted(points.elements)
    if name in scalar_sets():
        assert points.elements == canonical_sorted(set(scalar_sets()[name]))


def test_point_sets_from_quaternions_and_from_rows_agree():
    """A set made from quaternions keeps them, in canonical order, with their
    rows; made from rows, duplicated and shuffled and over a multiple of their
    denominator, it is the same set, equal and of equal hash."""
    tet = binary_tetrahedral()
    shuffled = [tet.elements[i] for i in (5, 3, 3, 0, 23, 7)]
    made = QuaternionSet(shuffled, "some of T")
    assert made.elements == canonical_sorted(set(shuffled))
    assert made.elements[0] is tet.elements[0] and len(made) == 5
    rows = engine.rescaled(tet.rows[[23, 5, 0, 7, 3, 5]], tet.den, 6 * tet.den)
    again = QuaternionSet.from_rows(rows, 6 * tet.den)
    assert again == made and hash(again) == hash(made) and again.den == tet.den
    assert again != QuaternionSet(shuffled[1:]) and QuaternionSet([]).elements == ()


def test_locate_reads_a_kept_index_over_any_denominator():
    """engine.locate finds rows over another denominator among a set's rows by
    the index the set keeps, and refuses rows that are no point of it."""
    icos, tet = binary_icosahedral(), binary_tetrahedral()
    where = [icos.index(q) for q in tet.elements]
    for den in (tet.den, 3 * tet.den, 4 * icos.den):
        rows = engine.rescaled(tet.rows, tet.den, den)
        assert engine.locate(icos.row_index, icos.den, rows, den).tolist() == where
    for den in (2 * tet.den, 4 * tet.den):  # t / 2 and t / 4: off the unit sphere
        assert (engine.locate(icos.row_index, icos.den, tet.rows, den) == -1).all()
