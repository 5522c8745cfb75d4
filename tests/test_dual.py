"""The dual snub 24-cell: 144 vertices, 96 cells of three kites and six triangles."""

from collections import Counter
from fractions import Fraction

import pytest

from icosian import (CELL_ROTATION, E1, E2, E3, Q_ONE, Quaternion, Transform,
                     TransformGroup, binary_icosahedral, binary_tetrahedral,
                     build_120cell, cell_census, cell_rotation_orbit, dual_cell,
                     dual_complex, dual_vertices, icosian_seed, rotate_cell,
                     snub24_vertices, snub_census, t_prime, vertex_surroundings,
                     wd4c3)
from icosian import dual
from icosian.coxeter import s3_of
from icosian.dual import LEVEL, TAU_OVER_SQRT2, _transport
from icosian.errors import BadParameter, CertificationFailed
from icosian.polytope import Cell120, batched_frame_coords, frame_coords
from icosian.field import (HALF, ONE, SIGMA, SQRT2, SQRT5, TAU, ZERO,
                           FieldElement)

TWO_SQRT2 = SQRT2 + SQRT2
SIGMA_SQ = SIGMA * SIGMA
KITE_LONG = SIGMA_SQ * SIGMA_SQ * HALF
TRIANGLE_BASE = TAU * TAU * HALF
C1 = Quaternion(ONE, ONE, ZERO, ZERO).scale(SQRT2 * HALF)


def test_level_constant():
    assert LEVEL == FieldElement(0, Fraction(3, 8), 0, Fraction(1, 8))
    assert TAU_OVER_SQRT2 * TAU_OVER_SQRT2 == TAU * TAU * HALF


def test_vertex_classes():
    verts = dual_vertices()
    assert len(verts) == 144
    tp = set(t_prime().elements)
    sp = set(build_120cell().s_prime)
    scaled = {t.scale(TAU_OVER_SQRT2) for t in binary_tetrahedral()}
    assert set(verts) == tp | sp | scaled
    norms = Counter(q.norm() for q in verts)
    assert norms == {ONE: 120, TAU * TAU * HALF: 24}


def test_cell_lies_in_level_hyperplane():
    p = snub24_vertices()[0]
    cell = dual_cell(p)
    assert len(cell.vertices) == 8
    assert all(p.dot(v) == LEVEL for v in cell.vertices)
    tp = set(t_prime().elements)
    sp = set(build_120cell().s_prime)
    assert cell.vertices[3] in tp
    assert set(cell.vertices[4:]) <= sp
    unscaled = {v.scale(TAU_OVER_SQRT2.invert()) for v in cell.vertices[:3]}
    assert unscaled <= set(binary_tetrahedral().elements)


def test_cell_coordinate_grid():
    """The eight cell corners on a single (1, sigma, tau) grid after scaling by 2*sqrt2."""
    cell = dual_cell(snub24_vertices()[0])
    grid = tuple(tuple(x * TWO_SQRT2 for x in row) for row in cell.coords)
    assert grid == (
        (-ONE, -TAU, ZERO),
        (ZERO, ONE, -TAU),
        (TAU, ZERO, ONE),
        (SIGMA, -SIGMA, -SIGMA),
        (ZERO, ONE, SIGMA_SQ),
        (-SIGMA_SQ, ZERO, ONE),
        (-ONE, SIGMA_SQ, ZERO),
        (-SIGMA, SIGMA, SIGMA),
    )


def test_kite_metrics():
    cell = dual_cell(snub24_vertices()[0])
    assert len(cell.kites) == 3
    for kite in cell.kites:
        assert len(kite) == 4
        assert 3 in kite
        assert sum(i < 3 for i in kite) == 1
        norms = Counter(
            (cell.vertices[kite[i]] - cell.vertices[kite[(i + 1) % 4]]).norm()
            for i in range(4))
        assert norms == {HALF: 2, KITE_LONG: 2}
        k = next(i for i in kite if i < 3)
        pos = kite.index(k)
        for j in (kite[(pos + 1) % 4], kite[(pos - 1) % 4]):
            assert (cell.vertices[k] - cell.vertices[j]).norm() == HALF


def test_triangle_metrics():
    cell = dual_cell(snub24_vertices()[0])
    assert len(cell.triangles) == 6
    for tri in cell.triangles:
        assert sum(i < 3 for i in tri) == 2
        norms = sorted(
            ((cell.vertices[tri[i]] - cell.vertices[tri[(i + 1) % 3]]).norm(), i)
            for i in range(3))
        values = Counter(n for n, _ in norms)
        assert values == {HALF: 2, TRIANGLE_BASE: 1}
        base = next(i for i in range(3)
                    if (cell.vertices[tri[i]] - cell.vertices[tri[(i + 1) % 3]]).norm()
                    == TRIANGLE_BASE)
        assert tri[base] < 3 and tri[(base + 1) % 3] < 3


def test_complex_counts():
    complex_ = dual_complex()
    assert complex_.counts() == (144, 480, 432, 96)
    assert complex_.euler() == 0
    assert complex_.face_census() == {4: 144, 3: 288}
    assert set(complex_.face_incidence.values()) == {2}
    assert len(complex_.face_incidence) == 432


def test_vertex_cell_counts():
    counts = dual_complex().vertex_cell_counts()
    tp = set(t_prime().elements)
    sp = set(build_120cell().s_prime)
    scaled = {t.scale(TAU_OVER_SQRT2) for t in binary_tetrahedral()}
    assert all(counts[q] == 4 for q in tp)
    assert all(counts[q] == 12 for q in scaled)
    assert all(counts[q] == 4 for q in sp)
    assert sum(counts.values()) == 96 * 8


def test_vertex_surroundings_layers():
    layers = vertex_surroundings(C1)
    assert [len(pts) for _, pts in layers] == [4, 6, 4]
    dots = [d for d, _ in layers]
    assert dots == [
        FieldElement(Fraction(1, 8), 0, Fraction(3, 8), 0),
        TAU * HALF,
        FieldElement(Fraction(-1, 8), 0, Fraction(3, 8), 0),
    ]
    middle = layers[1][1]
    unscaled = {q.scale(TAU_OVER_SQRT2.invert()) for q in middle}
    expected = {Q_ONE, Quaternion(0, 1)}
    for s2 in (HALF, -HALF):
        for s3 in (HALF, -HALF):
            expected.add(Quaternion(HALF, HALF, s2, s3))
    assert unscaled == expected
    quarter = SQRT2 * HALF * HALF
    corner = Quaternion(TAU * quarter, SQRT5 * quarter, ZERO, -SIGMA * quarter)
    assert corner in set(layers[0][1])


def test_cell_rotation():
    assert CELL_ROTATION.apply(C1) == C1
    twice = CELL_ROTATION.compose(CELL_ROTATION)
    fourth = twice.compose(twice)
    assert all(fourth.apply(q) == q for q in snub24_vertices()[:6])
    assert any(twice.apply(q) != q for q in snub24_vertices()[:6])
    p = snub24_vertices()[0]
    image, pairs = rotate_cell(p)
    assert image.vertex == CELL_ROTATION.apply(p)
    assert len(pairs) == 8
    assert {b for _, b in pairs} == set(image.vertices)
    assert dict(pairs)[dual_cell(p).vertices[3]] == image.vertices[3]


def test_cell_rotation_orbit():
    cells = cell_rotation_orbit(icosian_seed())
    assert len(cells) == 4
    assert {c.vertices[3] for c in cells} == {C1}
    assert len({c.vertex for c in cells}) == 4
    at_corner = [cell for cell in dual_complex().cells if C1 in cell.vertices]
    assert ({frozenset(c.vertices) for c in cells}
            == {frozenset(c.vertices) for c in at_corner})


def test_bad_parameters():
    with pytest.raises(BadParameter):
        dual_cell(Q_ONE)
    with pytest.raises(BadParameter):
        vertex_surroundings(Q_ONE)


def test_transported_cells_match_direct_hulls():
    """Every cell moved from the seed equals the hull certified at its own vertex."""
    cells = dual_complex().cells
    assert [cell.vertex for cell in cells] == list(snub24_vertices())
    for cell in cells:
        direct = dual_cell(cell.vertex)
        for field in ("vertex", "vertices", "coords", "kites", "triangles"):
            assert getattr(cell, field) == getattr(direct, field), (cell.vertex, field)


def test_transport_rejects_a_transform_outside_the_group():
    seed = dual_cell(icosian_seed())
    outside = TransformGroup([Transform(icosian_seed(), Q_ONE)])
    assert Transform(icosian_seed(), Q_ONE) not in wd4c3()
    with pytest.raises(CertificationFailed):
        _transport(seed, outside.rows, outside.den)


def test_every_group_element_moves_the_seed_cell_onto_a_direct_hull():
    """All 576 elements, starred ones (which reverse the face cycles) included."""
    group = wd4c3()
    cells = _transport(dual_cell(icosian_seed()), group.rows, group.den)
    assert Counter(cell.vertex for cell in cells) == {p: 6 for p in snub24_vertices()}
    for cell in cells:
        direct = dual_cell(cell.vertex)
        assert (cell.vertices, cell.coords, cell.kites, cell.triangles) == (
            direct.vertices, direct.coords, direct.kites, direct.triangles)


def test_dual_vertex_classes_that_overlap_are_refused(monkeypatch):
    # One T' point put among S' keeps 144 entries, 143 of them distinct.
    real = build_120cell()
    s_prime = (t_prime().elements[0],) + tuple(real.s_prime[1:])
    fake = Cell120(real.vertices, real.t_prime, s_prime, real.m, real.n)
    monkeypatch.setattr(dual.polytope, "build_120cell", lambda: fake)
    dual.dual_vertices.cache_clear()
    try:
        with pytest.raises(CertificationFailed, match="overlap"):
            dual.dual_vertices()
    finally:
        dual.dual_vertices.cache_clear()


def test_a_group_that_misses_a_snub_vertex_is_refused(monkeypatch):
    # S3 fixes the seed, so it reaches one snub vertex of 96.
    group = s3_of(icosian_seed())
    monkeypatch.setattr(dual.coxeter, "wd4c3", lambda: group)
    dual.dual_complex.cache_clear()
    try:
        with pytest.raises(CertificationFailed,
                           match="does not move the seed onto every snub vertex"):
            dual.dual_complex()
    finally:
        dual.dual_complex.cache_clear()


def scalar_frame_coords(u, points):
    """The frame coordinates by scalar Quaternion.dot: the oracle of the batched kernel."""
    frame = [unit * u for unit in (E1, E2, E3)]
    return [tuple(f.dot(x) for f in frame) for x in points]


def test_batched_frame_coords_match_scalar_dot():
    snub = snub_census()
    tet = next(c for c in snub.cells if c.kind == "tetrahedron")
    icosa = next(c for c in snub.cells if c.kind == "icosahedron")
    cell600 = cell_census(binary_icosahedral().elements)
    cases = [(c.normal, [complex_.vertices[i] for i in c.vertex_indices])
             for complex_, c in ((snub, tet), (snub, icosa), (cell600, cell600.cells[7]))]
    duals = [dual_cell(p) for p in snub24_vertices()[:5]]
    cases += [(cell.vertex, cell.vertices) for cell in duals]
    for u, points in cases:
        assert frame_coords(u, points) == scalar_frame_coords(u, points)
    assert batched_frame_coords([c.vertex for c in duals], [c.vertices for c in duals]) == [
        scalar_frame_coords(c.vertex, c.vertices) for c in duals]
