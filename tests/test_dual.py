"""The dual snub 24-cell: 144 vertices, 96 cells of three kites and six triangles."""

from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from icosian import (CELL_ROTATION, E1, E2, E3, Q_ONE, Quaternion, Transform,
                     binary_icosahedral, binary_tetrahedral, build_120cell,
                     canonical_sorted, cell_census, cell_rotation_orbit, dual_cell,
                     dual_complex, dual_vertices, embedding_censuses, icosian_seed,
                     rotate_cell, snub24_vertices, snub_census, t_prime,
                     vertex_figure, vertex_surroundings)
from icosian import coxeter, dual, engine, hull, polytope
from icosian.dual import LEVEL, TAU_OVER_SQRT2, DualCell, DualComplex, _around
from icosian.errors import BadParameter, CertificationFailed
from icosian.hull import convex_hull_faces
from icosian.field import (HALF, ONE, SIGMA, SQRT2, SQRT5, TAU, ZERO,
                           FieldElement)
from conftest import census_copy, scalar_frame_coords

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
    """Every cell: eight vertices on its hyperplane, three scaled T, one T', four S'."""
    tp = set(t_prime().elements)
    sp = set(build_120cell().s_prime)
    for p in snub24_vertices():
        cell = dual_cell(p)
        assert len(cell.vertices) == 8
        assert all(p.dot(v) == LEVEL for v in cell.vertices)
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


def test_face_incidence_counts_the_cells_holding_each_face():
    """Dropping one vertex from one of a face's two cells leaves that face in one cell."""
    complex_ = dual_complex()
    face = complex_.faces[0]
    ids = list(complex_.cell_vertex_ids)
    k = next(k for k, cell in enumerate(ids) if set(face) <= set(cell))
    ids[k] = tuple(i for i in ids[k] if i != face[0])
    broken = DualComplex(complex_.vertices, complex_.edges, complex_.faces, complex_.cells, ids)
    counts = broken.face_incidence
    assert counts[tuple(sorted(face))] == 1
    assert set(counts.values()) == {1, 2}
    assert complex_.face_incidence == Counter({tuple(sorted(f)): 2 for f in complex_.faces})


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
    with pytest.raises(BadParameter, match="vertex must lie on the snub 24-cell"):
        dual_cell(Q_ONE)
    with pytest.raises(BadParameter, match="not a dual vertex"):
        vertex_surroundings(Q_ONE)


def hull_dual_cell(p):
    """The dual cell at p as an exact hull: the oracle of the polar construction.

    Its vertices are the three scaled icosahedron centers, the tetrahedron
    center on T' and the four on S', each class in canonical order, and its
    faces those of their hull in the frame (e1 p, e2 p, e3 p).
    """
    at_p = snub_census().cells_at(p)
    tp = set(t_prime().elements)
    tets = [c.normal for c in at_p if c.kind == "tetrahedron"]
    icosa = canonical_sorted(c.normal for c in at_p if c.kind == "icosahedron")
    vertices = ([t.scale(TAU_OVER_SQRT2) for t in icosa] + [c for c in tets if c in tp]
                + list(canonical_sorted(c for c in tets if c not in tp)))
    coords = scalar_frame_coords(p, vertices)
    faces = convex_hull_faces(coords)
    return DualCell(p, vertices, coords, [f for f in faces if len(f) == 4],
                    [f for f in faces if len(f) == 3])


def test_polar_complex_matches_the_hull_construction():
    """Every field of every cell, and the faces, edges and face incidence, equal
    the 96 hulls glued on the numbered dual vertices, each face kept as the
    first cell in snub order has it."""
    complex_ = dual_complex()
    index = {q: i for i, q in enumerate(dual_vertices())}
    faces, incidence = {}, Counter()
    assert [cell.vertex for cell in complex_.cells] == list(snub_census().vertices)
    for cell, ids in zip(complex_.cells, complex_.cell_vertex_ids):
        expected = hull_dual_cell(cell.vertex)
        assert dual_cell(cell.vertex) is cell
        for field in ("vertex", "vertices", "coords", "kites", "triangles"):
            assert getattr(cell, field) == getattr(expected, field), (cell.vertex, field)
        assert ids == tuple(index[v] for v in expected.vertices)
        for face in expected.faces:
            cycle = tuple(ids[i] for i in face)
            faces.setdefault(tuple(sorted(cycle)), cycle)
            incidence[tuple(sorted(cycle))] += 1
    assert complex_.faces == tuple(sorted(faces.values()))
    assert complex_.edges == tuple(sorted(hull.edges_of_faces(faces.values())))
    assert complex_.face_incidence == incidence


def test_vertex_star_matches_a_scan_of_every_cell():
    """The star read off the census is every vertex but v of every cell holding v."""
    cells = dual_complex().cells
    for v in dual_vertices():
        star = {q for cell in cells if v in cell.vertices for q in cell.vertices} - {v}
        layers = {}
        for q in star:
            layers.setdefault(v.dot(q), []).append(q)
        assert vertex_surroundings(v) == [(d, canonical_sorted(layers[d]))
                                          for d in sorted(layers, reverse=True)]


def test_the_dual_makes_no_hull_and_no_w_d4c3(monkeypatch, cold_censuses, fresh_dual):
    """A cold dual cell and complex, on a cold census, read everything off the census."""
    def refuse(*args):
        raise AssertionError("the dual built a hull or W(D4):C3")

    monkeypatch.setattr(hull, "convex_hull_faces", refuse)
    monkeypatch.setattr(coxeter, "wd4c3", refuse)
    cell = dual.dual_cell(icosian_seed())
    assert (len(cell.kites), len(cell.triangles)) == (3, 6)
    assert dual.dual_complex().counts() == (144, 480, 432, 96)


def patched_census(monkeypatch, **arrays):
    """Serve the snub census with other cells or offsets in place of its own."""
    fake = census_copy(snub_census(), **arrays)
    monkeypatch.setattr(dual.polytope, "snub_census", lambda: fake)


def test_a_center_off_the_dual_vertices_is_refused(monkeypatch, fresh_dual):
    # Doubling one offset halves that cell's reciprocated center.
    offsets = list(snub_census().offsets)
    offsets[0] += offsets[0]
    patched_census(monkeypatch, offsets=offsets)
    with pytest.raises(CertificationFailed,
                       match="a reciprocated cell center is not a dual vertex"):
        dual.dual_complex()


def test_a_census_missing_a_cell_leaves_an_edge_without_a_cycle(monkeypatch, fresh_dual):
    patched_census(monkeypatch, cells=range(1, len(snub_census().cell_table)))
    with pytest.raises(CertificationFailed,
                       match="cells around a snub edge do not form one cycle"):
        dual.dual_complex()


@pytest.mark.parametrize("links, count, cycle", [
    ([(0, 1), (1, 2), (2, 0)], 3, True),
    ([(0, 1), (2, 3), (1, 2), (3, 0)], 4, True),
    ([(0, 1), (1, 2)], 3, False),                      # a path: the cells at an open edge
    ([(0, 1), (1, 2), (2, 0)], 4, False),              # a fourth cell shares no triangle
    ([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 6, False),  # two cycles
    ([(0, 1), (1, 0)], 2, False),                      # two cells make no polygon
    ([(0, 1), (1, 2), (2, 0), (0, 2)], 3, False),      # one pair linked twice
    ([], 0, False),
    ([], 3, False),                                    # no links: the walk takes no step
])
def test_the_cycle_walk_accepts_one_cycle_through_every_cell(links, count, cycle):
    if cycle:
        found = _around(links, count)
        assert sorted(found) == list(range(count))
        assert all({a, b} in map(set, links) for a, b in zip(found, found[1:] + found[:1]))
    else:
        with pytest.raises(CertificationFailed, match="do not form one cycle"):
            _around(links, count)


class Swap:
    """A wrong cell rotation: it swaps two snub vertices and fixes every other point."""

    def __init__(self, a, b):
        self.images = {a: b, b: a}

    def apply(self, q):
        return self.images.get(q, q)


def test_a_rotation_off_the_dual_is_refused(monkeypatch):
    p, q = snub24_vertices()[:2]
    monkeypatch.setattr(dual, "CELL_ROTATION", Swap(p, q))
    with pytest.raises(CertificationFailed, match="does not map the dual cell onto a dual cell"):
        rotate_cell(p)


OMEGA = Quaternion(-HALF, HALF, HALF, HALF)  # order 3, in T


@pytest.mark.parametrize("rotation, message", [
    # r -> omega r keeps the snub, but its orbits have three vertices.
    (Transform(OMEGA, Q_ONE), "not of order four"),
    # r -> e1 r has order four, but moves the cell at p onto the one at -p.
    (Transform(E1, Q_ONE), "do not share their T' corner"),
    # The rotation's square fixes the corner, but has order two.
    (CELL_ROTATION.compose(CELL_ROTATION), "revisits a snub vertex early"),
])
def test_a_wrong_rotation_orbit_is_refused(monkeypatch, rotation, message):
    monkeypatch.setattr(dual, "CELL_ROTATION", rotation)
    with pytest.raises(CertificationFailed, match=message):
        cell_rotation_orbit(icosian_seed())


def test_dual_vertex_classes_that_overlap_are_refused(monkeypatch):
    # One T' point put among S' keeps 144 entries, 143 of them distinct.
    real = build_120cell()
    s_prime = (t_prime().elements[0],) + tuple(real.s_prime[1:])
    fake = SimpleNamespace(s_prime=s_prime)  # dual_vertex_set reads only S'
    monkeypatch.setattr(dual.polytope, "build_120cell", lambda: fake)
    dual.dual_vertex_set.cache_clear()
    try:
        with pytest.raises(CertificationFailed, match="overlap"):
            dual.dual_vertices()
    finally:
        dual.dual_vertex_set.cache_clear()


def test_frame_tables_match_scalar_dot():
    """Every cell of the three censuses, of the five snub embeddings and of the
    dual, and the vertex figure, in its own frame, by the scalar oracle."""
    censuses = [cell_census(points) for points in (binary_icosahedral().elements,
                                                   binary_tetrahedral().elements)]
    for complex_ in censuses + list(embedding_censuses()):
        for k, cell in enumerate(complex_.cells):
            points = [complex_.vertices[i] for i in cell.vertex_indices]
            assert complex_.cell_geometry(k)[0] == scalar_frame_coords(cell.normal, points)
    for cell in dual_complex().cells:
        assert list(cell.coords) == scalar_frame_coords(cell.vertex, cell.vertices)
    figure = vertex_figure(icosian_seed())
    assert list(figure.coords) == scalar_frame_coords(figure.vertex, figure.neighbors)
    u = snub_census().cells[0].normal
    rows, den = engine.common_rows([u, *snub24_vertices()])
    coords, _ = polytope.frame_table(rows, rows[:1], den * den, np.arange(1, 97), [96])
    assert list(map(tuple, coords.tolist())) == scalar_frame_coords(u, snub24_vertices())


def test_dual_reprs():
    complex_ = dual_complex()
    assert repr(complex_) == "<dual complex: 144 vertices, 480 edges, 432 faces, 96 cells>"
    cell = dual_cell(icosian_seed())
    assert repr(cell) == f"<dual cell at {icosian_seed()}>"
