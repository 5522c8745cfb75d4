"""Quaternion-pair transforms and the reflection groups they generate."""

from fractions import Fraction

import numpy as np
import pytest

from icosian import (E1, E2, E3, HALF, IDENTITY, Q_ONE, BadParameter, CapExceeded,
                     NotInvariant, Quaternion, SearchFailed, Transform, TransformGroup, a4xc2,
                     binary_icosahedral, binary_tetrahedral, build_group, canonical_sorted,
                     icosian_seed, orbit, orbit_decompose, reflection, s3_of, s4_of,
                     snub24_vertices, stabilizer, t_prime, wd4c3, wh3xc2, wh4)
from icosian.coxeter import (seed_conjugator, seed_conjugators, wd4c3_conjugate,
                             wd4c3_conjugate_pattern)
from icosian.engine import act, closure_points, common_rows, quats_of, transform_matrix
from icosian.field import SQRT2, TAU
from weight_oracle import element_coset_labels


def test_sign_canonicalization():
    p = icosian_seed()
    assert Transform(-p, p) == Transform(p, -p)
    assert Transform(-p, p, star=True) == Transform(p, -p, star=True)
    assert len({Transform(p, p), Transform(-p, -p)}) == 1


def test_apply_matches_definition():
    p, q, r = icosian_seed(), E2, Quaternion(HALF, HALF, HALF, HALF)
    assert Transform(p, q).apply(r) == p * r * q
    assert Transform(p, q, star=True).apply(r) == p * r.conjugate() * q


SAMPLES = [
    Transform(icosian_seed(), E2),
    Transform(E3, icosian_seed(), star=True),
    Transform(Quaternion(HALF, HALF, HALF, HALF), E1),
    Transform(icosian_seed() ** 3, icosian_seed(), star=True),
    IDENTITY,
]

POINTS = [Q_ONE, E1, icosian_seed(), Quaternion(HALF, -HALF, HALF, HALF)]


def test_composition_is_application_order():
    for a in SAMPLES:
        for b in SAMPLES:
            ab = a * b
            for r in POINTS:
                assert ab.apply(r) == a.apply(b.apply(r))


def test_inverse():
    for t in SAMPLES:
        assert t * t.inverse() == IDENTITY
        assert t.inverse() * t == IDENTITY


def test_transforms_are_isometries():
    for t in SAMPLES:
        for x in POINTS:
            for y in POINTS:
                assert t.apply(x).dot(t.apply(y)) == x.dot(y)


def test_reflection():
    alpha = icosian_seed()
    mirror = reflection(alpha)
    assert mirror.star
    assert mirror.apply(alpha) == -alpha
    assert mirror * mirror == IDENTITY
    # A vector orthogonal to alpha is fixed.
    beta = E2
    assert alpha.dot(beta) == 0
    assert mirror.apply(beta) == beta


def test_group_orders():
    assert len(wh4()) == 14400
    assert len(wd4c3()) == 576


def test_star_split():
    big = wh4()
    starred = sum(1 for t in big if t.star)
    assert starred == 7200
    small = wd4c3()
    assert sum(1 for t in small if t.star) == 288


def test_rotation_part_is_25_cosets():
    """The unstarred half of W(H4) is the 25 blocks [p^i T, T conj(p)^j]."""
    p = icosian_seed()
    pc = p.conjugate()
    tet = binary_tetrahedral()
    blocks = set()
    for i in range(5):
        for j in range(5):
            pi, pj = p ** i, pc ** j
            blocks.update(Transform(pi * t, u * pj)
                          for t in tet for u in tet)
    rotations = {t for t in wh4() if not t.star}
    assert blocks == rotations
    assert len(blocks) == 7200


def test_wd4c3_preserves_24cell():
    tet = set(binary_tetrahedral().elements)
    for t in wd4c3().elements[:40]:
        assert {t.apply(q) for q in tet} == tet


def test_orbit_stabilizer_products():
    seed = icosian_seed()
    for group in (wh4(), wd4c3()):
        pts = orbit(group, seed)
        stab = stabilizer(group, seed)
        assert len(pts) * len(stab) == len(group)


def test_orbit_cross_check(orbit_by_elements):
    seed = icosian_seed()
    assert orbit(wd4c3(), seed) == orbit_by_elements(wd4c3(), seed)


def test_wh4_orbit_of_seed_is_600cell():
    assert set(orbit(wh4(), icosian_seed())) == set(binary_icosahedral().elements)


def test_stabilizer_orders():
    seed = icosian_seed()
    assert len(wh3xc2(seed)) == 240
    assert len(a4xc2(E1)) == 24
    assert len(s4_of(t_prime().elements[0])) == 24
    assert len(s3_of(seed)) == 6


def test_stabilizers_fix_their_point():
    seed = icosian_seed()
    for t in s3_of(seed):
        assert t.apply(seed) == seed
    for t in a4xc2(E1):
        assert t.apply(E1) == E1
    c = t_prime().elements[0]
    for t in s4_of(c):
        assert t.apply(c) == c


def test_wh3xc2_preserves_axis():
    """W(H3) x C2 fixes the axis through its vertex: half fix it, half negate it."""
    seed = icosian_seed()
    images = [t.apply(seed) for t in wh3xc2(seed)]
    assert set(images) == {seed, -seed}
    assert sum(1 for q in images if q == seed) == 120


def test_conjugate_groups_match_pattern():
    for i, j in ((1, 1), (2, 3)):
        conj = wd4c3_conjugate(i, j)
        pattern = wd4c3_conjugate_pattern(i, j)
        assert len(conj) == 576
        assert set(conj.elements) == set(pattern.elements)


def test_conjugate_preserves_conjugated_snub():
    """The (i, i) conjugate of the snub group acts on the i-th snub copy: every
    one of its 576 elements permutes the copy's 96 points."""
    from icosian import snub_embeddings_in_600cell
    copy = snub_embeddings_in_600cell()[1]
    group = wd4c3_conjugate(1, 1)
    assert len(group) == 576 and len(copy) == 96
    where = {q: i for i, q in enumerate(copy)}
    # table[i, g]: where element g sends point i; a KeyError leaves the copy.
    table = np.array([[where[x] for x in quats_of(*group.images(q))] for q in copy])
    assert np.array_equal(np.sort(table, axis=0), np.repeat(np.arange(96)[:, None], 576, axis=1))


@pytest.mark.parametrize("q", [Q_ONE, icosian_seed(), binary_icosahedral().elements[77]])
def test_wh3xc2_generators_make_the_group(q, generate, orbit_by_elements):
    group = wh3xc2(q)
    assert 0 < len(group.generators) < len(group)
    assert TransformGroup(generate(group.generators, cap=240)) == group
    assert orbit(group, E1 + q) == orbit_by_elements(group, E1 + q)


def test_seed_conjugator_lies_in_wh4():
    h = seed_conjugator(1, 1)
    assert h in set(wh4().elements)


@pytest.mark.parametrize("i, j", [(1, 1), (2, 3)])
def test_conjugate_generators_make_the_group(i, j, generate, orbit_by_elements):
    group = wd4c3_conjugate(i, j)
    assert 0 < len(group.generators) < len(group)
    assert TransformGroup(generate(group.generators, cap=576)) == group
    p = icosian_seed()
    assert orbit(group, E1 + p) == orbit_by_elements(group, E1 + p)


def test_transform_closure_cap(generate):
    # r -> p r e2 has order 20, so the orbit of 1 outgrows a cap of 3.
    t = Transform(icosian_seed(), E2)
    with pytest.raises(CapExceeded):
        closure_points([Q_ONE], [transform_matrix(t)], cap=3)
    with pytest.raises(CapExceeded):
        generate([t], cap=3)


def fraction_key(q):
    vec, den = q.ivec
    return tuple(Fraction(v, den) for v in vec)


def test_group_and_partition_order_match_fraction_order():
    elems = wd4c3().elements
    assert list(elems) == sorted(
        elems, key=lambda t: (t.star, fraction_key(t.p), fraction_key(t.q)))
    parts = orbit_decompose(wd4c3(), orbit(wh4(), icosian_seed())).suborbits
    assert list(parts) == sorted(
        parts, key=lambda part: (len(part), fraction_key(part[0])))


def test_orbit_decompose_sizes():
    pts = orbit(wh4(), icosian_seed())
    partition = orbit_decompose(wd4c3(), pts)
    assert partition.sizes == (24, 96)
    assert sum(partition.sizes) == len(pts)


def test_orbit_decompose_rejects_a_set_that_is_not_closed():
    vertices = binary_icosahedral().elements
    with pytest.raises(NotInvariant, match="left the decomposed set"):
        orbit_decompose(wd4c3(), vertices[1:])
    # The 24 roots with two coordinates +-1 are one orbit over the denominator
    # 1.  The generators [e2, 1] and [1, e2] permute +-1, +-e2 too, but
    # [(1+e1+e2+e3)/2, 1] sends 1 to a point that needs the denominator 2.
    roots = orbit(wd4c3(), Q_ONE + E1)
    assert len(roots) == 24 and all(q.ivec[1] == 1 for q in roots)
    with pytest.raises(NotInvariant, match="not integral"):
        orbit_decompose(wd4c3(), roots + (Q_ONE, -Q_ONE, E2, -E2))


def test_build_group_dispatch():
    assert set(build_group("WD4C3").elements) == set(wd4c3().elements)
    assert len(build_group("WH3xC2").elements) == 240
    assert len(build_group("S3", icosian_seed()).elements) == 6
    assert len(build_group("S4", t_prime().elements[0]).elements) == 24
    with pytest.raises(BadParameter):
        build_group("nope")


def scalar_order(transforms):
    """The canonical order as made from Transform objects: by q, then stably by p, then by star."""
    by_q = canonical_sorted(set(transforms), of=lambda t: t.q)
    by_pair = canonical_sorted(by_q, of=lambda t: t.p)
    return tuple(sorted(by_pair, key=lambda t: t.star))


def scalar_axis_group(base, q, signs):
    """[t, s conj(q) conj(t) q] and [t, s q conj(t) q]* for t in base and each sign s."""
    qc = q.conjugate()
    return [Transform(t, s * (qc * t.conjugate() * q), star) if not star else
            Transform(t, s * (q * t.conjugate() * q), star)
            for t in base for s in signs for star in (False, True)]


def scalar_pattern(i, j):
    p = icosian_seed()
    pi, pj = p ** i, p ** j
    tet = binary_tetrahedral()
    a = [pi * t * pi.conjugate() for t in tet]
    b = [pj * t * pj.conjugate() for t in tet]
    c = [pi * t * pj.conjugate() for t in tet]
    return [Transform(x, y) for x in a for y in b] + [Transform(x, y, True) for x in c for y in c]


def scalar_stabilizer(group, v):
    """The elements fixing v, found through the compiled matrices: M v = d v."""
    (vec,), _ = common_rows([v])
    mats, dens = group.compiled()
    fixed = (mats @ vec == dens[:, None] * vec).all(axis=1)
    return [t for t, hit in zip(group.elements, fixed.tolist()) if hit]


def scalar_s3(seed):
    return [t for t in wd4c3().elements if t.apply(seed) == seed]


def scalar_conjugate(i, j):
    h = seed_conjugator(i, j)
    return [h * g * h.inverse() for g in wd4c3().elements]


SEED = icosian_seed()
TET = binary_tetrahedral()
CONSTRUCTORS = {
    "wd4c3": (wd4c3, lambda: [Transform(p, q, star) for p in TET for q in TET
                              for star in (False, True)]),
    "wh3xc2": (lambda: wh3xc2(SEED),
               lambda: scalar_axis_group(binary_icosahedral(), SEED, (1, -1))),
    "a4xc2": (lambda: a4xc2(E1), lambda: scalar_axis_group(TET, E1, (1,))),
    "s4": (lambda: s4_of(t_prime().elements[0]),
           lambda: scalar_axis_group(TET, t_prime().elements[0], (1,))),
    "s3": (lambda: s3_of(SEED), lambda: scalar_s3(SEED)),
    "conjugate": (lambda: wd4c3_conjugate(1, 1), lambda: scalar_conjugate(1, 1)),
    "pattern": (lambda: wd4c3_conjugate_pattern(1, 1), lambda: scalar_pattern(1, 1)),
    "stabilizer": (lambda: stabilizer(wh4(), SEED), lambda: scalar_stabilizer(wh4(), SEED)),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_group_rows_keep_the_scalar_order(name):
    build, scalar = CONSTRUCTORS[name]
    group = build()
    assert group.elements == scalar_order(scalar())
    assert len(group) == len(group.elements) == len(group.rows)
    assert group == TransformGroup(group.elements)


def test_a4xc2_and_s4_match_the_axis_formula_at_every_center():
    for make, centers in ((a4xc2, TET), (s4_of, t_prime())):
        for c in centers:
            assert make(c).elements == scalar_order(scalar_axis_group(TET, c, (1,)))


def test_s3_matches_the_scalar_stabilizer_on_a_sample():
    sample = snub24_vertices()[::12]
    assert len(sample) == 8
    for p in sample:
        assert s3_of(p).elements == scalar_order(scalar_s3(p))


def test_s3_rejects_a_point_that_is_not_a_snub_vertex():
    for point in (TET.elements[0], t_prime().elements[0], Q_ONE + E1):
        with pytest.raises(SearchFailed):
            s3_of(point)


def concatenated_pair_rows(base):
    """Every [p, q] and [p, q]* over base as (star | p | q) rows over one denominator.

    Built as the pair groups once were: two star halves concatenated, the
    signs normalised through a stacked copy, then sorted by np.lexsort and
    reduced by the gcd.
    """
    rows, den = common_rows(base.elements)
    lead = np.take_along_axis(rows, (rows != 0).argmax(axis=1)[:, None], axis=1)[:, 0]
    p, q = (x.reshape(-1, 16) for x in np.broadcast_arrays(rows[lead > 0][:, None], rows[None, :]))
    table = np.concatenate([np.hstack([np.full((len(p), 1), star), p, q]) for star in (0, 1)])
    first = np.take_along_axis(table[:, 1:17], (table[:, 1:17] != 0).argmax(axis=1)[:, None],
                               axis=1)
    table = np.hstack([table[:, :1], table[:, 1:] * np.where(first < 0, -1, 1)])
    table = table[np.lexsort(table.T[::-1])]
    table = table[np.r_[True, (table[1:] != table[:-1]).any(axis=1)]]
    g = int(np.gcd.reduce(table[:, 1:].ravel(), initial=den))
    table[:, 1:] //= g
    return table, den // g


@pytest.mark.parametrize("make, base", [(wh4, binary_icosahedral), (wd4c3, binary_tetrahedral)])
def test_pair_groups_match_the_concatenated_construction(make, base):
    rows, den = concatenated_pair_rows(base())
    group = make()
    assert group.den == den
    assert group.rows.dtype == rows.dtype and group.rows.shape == rows.shape
    assert group.rows.tobytes() == rows.tobytes()


@pytest.mark.parametrize("make, base", [(wh4, binary_icosahedral), (wd4c3, binary_tetrahedral)])
def test_pair_group_rows_are_the_distinct_rows_of_every_pair(make, base):
    # Every [p, q] and [p, q]* with p and q in base, both signs of p included,
    # put in canonical order by from_rows: its sign pass, distinct_rows and gcd.
    rows, den = common_rows(base().elements)
    p, q = (x.reshape(-1, 16) for x in np.broadcast_arrays(rows[:, None], rows[None]))
    oracle = TransformGroup.from_rows(
        np.concatenate([np.hstack([np.full((len(p), 1), star), p, q]) for star in (0, 1)]), den)
    group = make()
    assert len(group) == len(oracle.rows) == len(p)
    assert group.den == oracle.den
    assert group.rows.tobytes() == oracle.rows.tobytes()


IMAGE_POINTS = [Q_ONE, icosian_seed(), E1 + icosian_seed() * SQRT2,
                Quaternion(HALF, -HALF, HALF, HALF) * TAU + E3 * Fraction(1, 3)]


@pytest.mark.parametrize("make", [wh4, wd4c3], ids=["W(H4)", "W(D4):C3"])
def test_factored_images_match_act_on_every_row(make):
    group = make()
    for v in IMAGE_POINTS:
        (row,), vden = common_rows([v])
        rows, den = group.images(v)
        assert den == group.den ** 2 * vden
        assert rows.tobytes() == act(group.rows, row[None])[:, 0].tobytes()


def rows_stabilizer(group, v):
    """stabilizer as it was: the rows whose act image of v is v, out of every row."""
    (row,), vden = common_rows([v])
    images = act(group.rows, row[None])[:, 0]
    fixed = (images == row * group.den ** 2).all(axis=1)
    return TransformGroup.from_rows(group.rows[fixed], group.den)


def test_stabilizer_matches_the_all_rows_oracle_at_every_point_of_I():
    group = wh4()
    for v in binary_icosahedral():
        stab = stabilizer(group, v)
        assert len(stab) == 120
        assert stab == rows_stabilizer(group, v)


def test_coset_labels_of_the_snub_group_in_wh4():
    # The oracle's labels: each g named by the W(D4):C3 orbit of g rho.
    labels = element_coset_labels()
    assert len(labels) == 14400
    _, first, inverse, counts = np.unique(labels, return_index=True, return_inverse=True,
                                          return_counts=True)
    assert len(first) == 25 and set(counts.tolist()) == {576}
    # Elements with one label differ by an element of W(D4):C3 on the left,
    # and so do no two with different labels.
    elements, small = wh4().elements, set(wd4c3().elements)
    for g in (0, 1, 7199, 7200, 9001, 14399):
        assert elements[first[inverse[g]]] * elements[g].inverse() in small
        assert sum(elements[k] * elements[g].inverse() in small for k in first) == 1


def test_seed_conjugators_are_the_seed_conjugator_pairs():
    rows, den = seed_conjugators()
    assert rows.shape == (25, 33)
    for k, row in enumerate(rows.tolist()):
        i, j = divmod(k, 5)
        assert Transform(Quaternion._from_ivec(row[1:17], den),
                         Quaternion._from_ivec(row[17:], den), row[0]) == seed_conjugator(i, j)


def test_transform_groups_hash_by_their_rows_and_hold_their_elements():
    """Two constructions of one group are equal and hash alike; membership is
    of Transforms, by the group's elements."""
    conj, pattern = wd4c3_conjugate(1, 1), wd4c3_conjugate_pattern(1, 1)
    assert conj == pattern and hash(conj) == hash(pattern)
    assert len({conj, pattern, wd4c3()}) == 2
    assert IDENTITY in wd4c3() and reflection(E1) in wd4c3()
    assert seed_conjugator(1, 0) not in wd4c3() and Q_ONE not in wd4c3()
    g = seed_conjugator(1, 1)
    assert all(g * t * g.inverse() in conj for t in wd4c3().generators)


def test_stabilizer_in_a_group_without_factors():
    """W(H3)xC2 keeps its rows, so its stabilizer takes rows by index: the 10
    elements of order 240 that fix the seed, each of them in the group."""
    seed, group = icosian_seed(), wh3xc2()
    stab = stabilizer(group, seed)
    assert len(stab) == 10 and stab.den == group.den
    assert all(t.apply(seed) == seed and t in group for t in stab)
    assert sum(t.apply(seed) == seed for t in group) == 10


def test_group_and_partition_reprs():
    assert repr(wd4c3()) == "<W(D4):C3: 576 transforms>"
    assert repr(wh4()) == "<W(H4): 14400 transforms>"
    assert repr(orbit_decompose(wd4c3(), binary_icosahedral().elements)) == "<partition: 24 + 96>"
