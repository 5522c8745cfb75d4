"""Quaternions over Q(sqrt2, sqrt5): multiplication table, metric, ordering."""

import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from icosian import (E1, E2, E3, HALF, ONE, Q_ONE, SIGMA, SQRT2, TAU,
                     FieldElement, Quaternion, canonical_sorted, icosian_seed)
from icosian.engine import common_rows, products, quats_of
from icosian.field import SQRT5, SQRT10


def test_hamilton_table():
    assert E1 * E2 == E3
    assert E2 * E3 == E1
    assert E3 * E1 == E2
    assert E2 * E1 == -E3
    assert E1 * E1 == -Q_ONE
    assert E2 * E2 == -Q_ONE
    assert E3 * E3 == -Q_ONE


# Hamilton's rules and the radicals' products, written out: row times column.
UNIT_PRODUCTS = {
    ("1", "1"): (1, 0, 0, 0), ("1", "e1"): (0, 1, 0, 0),
    ("1", "e2"): (0, 0, 1, 0), ("1", "e3"): (0, 0, 0, 1),
    ("e1", "1"): (0, 1, 0, 0), ("e1", "e1"): (-1, 0, 0, 0),
    ("e1", "e2"): (0, 0, 0, 1), ("e1", "e3"): (0, 0, -1, 0),
    ("e2", "1"): (0, 0, 1, 0), ("e2", "e1"): (0, 0, 0, -1),
    ("e2", "e2"): (-1, 0, 0, 0), ("e2", "e3"): (0, 1, 0, 0),
    ("e3", "1"): (0, 0, 0, 1), ("e3", "e1"): (0, 0, 1, 0),
    ("e3", "e2"): (0, -1, 0, 0), ("e3", "e3"): (-1, 0, 0, 0),
}
# As coefficients of 1, sqrt2, sqrt5, sqrt10.
RADICAL_PRODUCTS = {
    ("1", "1"): (1, 0, 0, 0), ("1", "r2"): (0, 1, 0, 0),
    ("1", "r5"): (0, 0, 1, 0), ("1", "r10"): (0, 0, 0, 1),
    ("r2", "1"): (0, 1, 0, 0), ("r2", "r2"): (2, 0, 0, 0),
    ("r2", "r5"): (0, 0, 0, 1), ("r2", "r10"): (0, 0, 2, 0),
    ("r5", "1"): (0, 0, 1, 0), ("r5", "r2"): (0, 0, 0, 1),
    ("r5", "r5"): (5, 0, 0, 0), ("r5", "r10"): (0, 5, 0, 0),
    ("r10", "1"): (0, 0, 0, 1), ("r10", "r2"): (0, 0, 2, 0),
    ("r10", "r5"): (0, 5, 0, 0), ("r10", "r10"): (10, 0, 0, 0),
}


def test_product_tables_written_out():
    """Every product of two basis quaternions u w (a unit u times a radical w),
    by Quaternion arithmetic and by engine.products, against the two tables
    above: this pins all 256 entries of the shared _PRODUCT_TABLE."""
    units = dict(zip(("1", "e1", "e2", "e3"), (Q_ONE, E1, E2, E3)))
    radicals = dict(zip(("1", "r2", "r5", "r10"), (ONE, SQRT2, SQRT5, SQRT10)))
    for (a, b), coefficients in RADICAL_PRODUCTS.items():
        assert radicals[a] * radicals[b] == FieldElement(*coefficients)
    for (a, b), components in UNIT_PRODUCTS.items():
        assert units[a] * units[b] == Quaternion(*components)
    basis = [(u, w) for u in units for w in radicals]
    left = [units[u].scale(radicals[w]) for u, w in basis]
    expected = [Quaternion(*(FieldElement(*RADICAL_PRODUCTS[w, y]) * c
                             for c in UNIT_PRODUCTS[u, x]))
                for u, w in basis for x, y in basis]
    assert [p * q for p in left for q in left] == expected
    rows, den = common_rows(left)
    table = products(np.repeat(rows, len(rows), axis=0), np.tile(rows, (len(rows), 1)))
    assert list(quats_of(table, den * den)) == expected


def test_named_components():
    q = Quaternion(1, HALF, TAU, -SQRT2)
    assert (q.q0, q.q1, q.q2, q.q3) == (ONE, HALF, TAU, -SQRT2)
    assert (E3.q0, E3.q3) == (0, ONE)


def test_components():
    q = Quaternion(1, HALF, TAU, -SQRT2)
    assert q.component(0) == ONE
    assert q.component(2) == TAU
    assert q.components == (ONE, HALF, TAU, -SQRT2)
    assert q.q3 == -SQRT2


def test_seed_is_tenth_root():
    """p = (tau + e1 + sigma e3)/2 satisfies p^5 = -1 and p^10 = 1."""
    p = icosian_seed()
    assert p.norm() == 1
    assert p.is_unit()
    assert p ** 5 == -Q_ONE
    assert p ** 10 == Q_ONE
    assert p.conjugate() == -(p ** 4)


def test_conjugate_and_norm():
    q = Quaternion(TAU, 1, SIGMA, HALF)
    assert q.conjugate().component(0) == TAU
    assert q.conjugate().component(1) == -ONE
    expected = TAU * TAU + 1 + SIGMA * SIGMA + HALF * HALF
    assert q.norm() == expected
    assert (q * q.conjugate()).component(0) == expected


def test_dot_oracle():
    p = icosian_seed()
    assert p.dot(p) == 1
    assert Q_ONE.dot(p) == TAU * HALF
    assert E1.dot(E2) == 0
    assert p.dot(Q_ONE) == p.component(0)


def test_galois_componentwise():
    p = icosian_seed()
    g = p.galois()
    assert g.component(0) == SIGMA * HALF
    assert g.component(3) == TAU * HALF
    assert g.galois() == p


def test_scalar_multiplication():
    q = Quaternion(1, 2, 3, 4)
    assert 2 * q == q + q
    assert q * Fraction(1, 2) == Quaternion(HALF, 1, Fraction(3, 2), 2)
    assert q.scale(SQRT2).scale(SQRT2) == 2 * q


def test_canonical_sorted_is_shuffle_invariant():
    pts = [icosian_seed() ** k for k in range(10)]
    base = canonical_sorted(pts)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert canonical_sorted(shuffled) == base
    assert len(base) == 10


small = st.fractions(min_value=-8, max_value=8, max_denominator=6)
felems = st.builds(FieldElement, small, small)
quaternions = st.builds(Quaternion, felems, felems, felems, felems)


@given(quaternions, quaternions)
@settings(max_examples=50, deadline=None)
def test_norm_is_multiplicative(p, q):
    assert (p * q).norm() == p.norm() * q.norm()


@given(quaternions, quaternions)
@settings(max_examples=50, deadline=None)
def test_conjugate_antihomomorphism(p, q):
    assert (p * q).conjugate() == q.conjugate() * p.conjugate()


@given(quaternions, quaternions)
@settings(max_examples=50, deadline=None)
def test_dot_symmetry_and_formula(p, q):
    assert p.dot(q) == q.dot(p)
    twice = p.conjugate() * q + q.conjugate() * p
    assert twice.component(0) == 2 * p.dot(q)
    assert twice.component(1).is_zero()


@given(quaternions, quaternions)
@settings(max_examples=50, deadline=None)
def test_galois_commutes_with_product(p, q):
    assert (p * q).galois() == p.galois() * q.galois()
    assert (p + q).galois() == p.galois() + q.galois()


@given(quaternions)
@settings(max_examples=50, deadline=None)
def test_norm_against_dot(q):
    assert q.norm() == q.dot(q)
    assert q.norm().sign() >= 0


def fraction_key(q):
    """The reference order: the 16 rational coefficients as fractions."""
    vec, den = q.ivec
    return tuple(Fraction(v, den) for v in vec)


scaled = st.builds(lambda q, s: q * s, quaternions, st.sampled_from([ONE, HALF, SQRT2, SIGMA]))


@given(st.lists(scaled, max_size=12))
@settings(max_examples=50, deadline=None)
def test_canonical_sorted_matches_fraction_order(qs):
    assert canonical_sorted(qs) == tuple(sorted(qs, key=fraction_key))
    pairs = [(q, i) for i, q in enumerate(qs)]
    assert canonical_sorted(pairs, of=lambda pair: pair[0]) == tuple(
        sorted(pairs, key=lambda pair: fraction_key(pair[0])))
