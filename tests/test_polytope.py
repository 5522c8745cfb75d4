"""Certified cell structure of the snub 24-cell and its neighbours."""

from collections import Counter
from functools import lru_cache
from itertools import product

import pytest

from icosian import (E1, E3, Q_ONE, binary_icosahedral, binary_tetrahedral,
                     build_120cell, canonical_sorted, cell_census, edge_graph,
                     embedding_censuses, icosa_cell, icosa_class_plus,
                     icosian_seed, projective_equal, snub24_vertices,
                     snub_census, snub_embeddings_in_600cell, t_prime,
                     tetra_cells_at, vertex_figure)
from icosian import cli, engine, hull, polytope
from icosian.errors import BadParameter, CertificationFailed, DegenerateInput
from icosian.field import HALF, ONE, SIGMA, TAU, FieldElement
from icosian.hull import convex_hull_faces
from icosian.polytope import (certify_cells, frame_coords, supporting_hyperplane,
                              transport_cells)
from icosian.quaternion import Quaternion

TAU_HALF = TAU * HALF


def test_snub_vertices():
    snub = snub24_vertices()
    assert len(snub) == 96
    icosa = set(binary_icosahedral().elements)
    tet = set(binary_tetrahedral().elements)
    assert set(snub) == icosa - tet
    assert snub == canonical_sorted(snub)
    assert all(q.norm() == ONE for q in snub)


def test_snub_census_counts():
    complex_ = snub_census()
    assert complex_.counts() == (96, 432, 480, 144)
    assert complex_.euler() == 0
    kinds = Counter(c.kind for c in complex_.cells)
    assert kinds == {"tetrahedron": 120, "icosahedron": 24}


def test_every_face_bounds_two_cells():
    incidence = snub_census().face_cell_incidence()
    assert len(incidence) == 480
    assert set(incidence.values()) == {2}


def test_edge_cell_valences():
    assert snub_census().edge_cell_valences() == {3: 288, 4: 144}


def subset_incidence(complex_):
    """face_cell_incidence and edge_cell_valences by testing every face and edge
    against every cell's vertex set."""
    faces, per_edge = Counter(), Counter()
    for cell in complex_.cells:
        cset = set(cell.vertex_indices)
        faces.update(face for face in complex_.faces if cset.issuperset(face))
        per_edge.update(edge for edge in complex_.edges if cset.issuperset(edge))
    return faces, Counter(per_edge.values())


@pytest.mark.parametrize("group", ["snub", "T", "I"])
def test_incidence_counters_match_subset_tests(group):
    complex_ = snub_census() if group == "snub" else cell_census(
        (binary_tetrahedral() if group == "T" else binary_icosahedral()).elements)
    faces, valences = subset_incidence(complex_)
    assert complex_.face_cell_incidence() == faces
    assert complex_.edge_cell_valences() == valences


def test_cell_hyperplanes_face_outward():
    complex_ = snub_census()
    for cell in complex_.cells:
        assert cell.normal.norm() == ONE
        assert cell.offset.sign() > 0


def test_tetrahedron_centers():
    """120 tetrahedron normals: the 24-cell T' plus the 96-point partner S'."""
    centers = {c.normal for c in snub_census().cells if c.kind == "tetrahedron"}
    assert len(centers) == 120
    tp = set(t_prime().elements)
    sp = set(build_120cell().s_prime)
    assert centers == tp | sp


def test_icosahedron_centers():
    centers = {c.normal for c in snub_census().cells if c.kind == "icosahedron"}
    assert centers == set(binary_tetrahedral().elements)


def test_icosa_cell_around_identity():
    cell = icosa_cell(Q_ONE)
    assert len(cell.vertex_indices) == 12
    vertices = snub_census().vertices
    members = {vertices[i] for i in cell.vertex_indices}
    cls = icosa_class_plus()
    assert members == set(cls.members)
    assert cell.normal == Q_ONE
    assert cell.offset == TAU_HALF
    with pytest.raises(BadParameter):
        icosa_cell(icosian_seed())


def test_each_vertex_in_five_tetrahedra_and_three_icosahedra():
    complex_ = snub_census()
    p = complex_.vertices[0]
    cells = complex_.cells_at(p)
    assert Counter(c.kind for c in cells) == {"tetrahedron": 5, "icosahedron": 3}
    tets, centers = tetra_cells_at(p)
    assert len(tets) == 5
    tp = set(t_prime().elements)
    assert sum(c in tp for c in centers) == 1
    with pytest.raises(BadParameter):
        tetra_cells_at(Q_ONE)


def test_cells_at_reads_the_incidence():
    for complex_ in (snub_census(), cell_census(binary_tetrahedral().elements)):
        for i, q in enumerate(complex_.vertices):
            assert q in complex_
            assert complex_.cells_at(q) == [c for c in complex_.cells if i in c.vertex_indices]
    assert Q_ONE not in snub_census()


def test_vertex_figure():
    p = snub_census().vertices[0]
    figure = vertex_figure(p)
    assert len(figure.neighbors) == 9
    assert all(q.dot(p) == TAU_HALF for q in figure.neighbors)
    assert figure.face_census() == {5: 3, 3: 5}
    assert len(figure.coords) == 9
    assert all(len(c) == 3 and all(isinstance(x, FieldElement) for x in c)
               for c in figure.coords)
    assert vertex_figure(p) is figure
    with pytest.raises(BadParameter):
        vertex_figure(Q_ONE)


def test_600cell_census():
    complex_ = cell_census(binary_icosahedral().elements)
    assert complex_.counts() == (120, 720, 1200, 600)
    assert complex_.euler() == 0
    assert {c.kind for c in complex_.cells} == {"tetrahedron"}


def test_24cell_census():
    complex_ = cell_census(binary_tetrahedral().elements)
    assert complex_.counts() == (24, 96, 96, 24)
    assert complex_.euler() == 0
    assert {c.kind for c in complex_.cells} == {"octahedron"}
    incidence = complex_.face_cell_incidence()
    assert set(incidence.values()) == {2}


def test_cell_census_rejects_unsupported_sets():
    with pytest.raises(BadParameter):
        cell_census(t_prime().elements)
    icosa = binary_icosahedral().elements
    with pytest.raises(BadParameter):
        cell_census(icosa[:100])


def oracle_120cell():
    """The 120-cell's vertices and its four parts, from scalar products and canonical_sorted."""
    p = icosian_seed()
    pd_bar = p.galois().conjugate()
    parts: dict[str, list[Quaternion]] = {"tp": [], "sp": [], "m": [], "n": []}
    everything = []
    for i in range(5):
        for j in range(5):
            coset = [(p ** i) * (pd_bar ** j) * t for t in t_prime()]
            everything.extend(coset)
            if i == 0 and j == 0:
                parts["tp"].extend(coset)
            elif i == j:
                parts["sp"].extend(coset)
            elif i == 0 or j == 0:
                parts["m"].extend(coset)
            else:
                parts["n"].extend(coset)
    return canonical_sorted(everything), *(canonical_sorted(parts[k]) for k in parts)


def test_build_120cell_matches_the_scalar_oracle():
    cell = build_120cell()
    assert (cell.vertices, cell.t_prime, cell.s_prime, cell.m, cell.n) == oracle_120cell()


def test_build_120cell_partition():
    cell = build_120cell()
    assert len(cell.vertices) == 600
    sizes = tuple(len(part) for part in
                  (cell.t_prime, cell.s_prime, cell.m, cell.n))
    assert sizes == (24, 96, 192, 288)
    assert set(cell.t_prime) == set(t_prime().elements)
    combined = set(cell.t_prime) | set(cell.s_prime) | set(cell.m) | set(cell.n)
    assert combined == set(cell.vertices)
    assert all(q.norm() == ONE for q in cell.vertices)


def test_snub_embeddings():
    embeddings = snub_embeddings_in_600cell()
    assert len(embeddings) == 5
    assert len({frozenset(e) for e in embeddings}) == 5
    assert embeddings[0] == snub24_vertices()
    assert embedding_censuses()[0] is snub_census()
    # The scalar oracle: each conjugate 24-cell by Quaternion products.
    p = icosian_seed()
    icosa = set(binary_icosahedral().elements)
    for i, embedding in enumerate(embeddings):
        pi = p ** i
        removed = {pi * t * pi.conjugate() for t in binary_tetrahedral()}
        assert embedding == canonical_sorted(icosa - removed)
    complex_ = cell_census(embeddings[2])
    assert complex_.counts() == (96, 432, 480, 144)
    # Each icosahedron is the twelve vertices nearest its removed center.
    icosa = [c for c in complex_.cells if c.kind == "icosahedron"]
    assert len(icosa) == 24
    for cell in icosa:
        assert len(cell.vertex_indices) == 12
        assert all(cell.normal.dot(complex_.vertices[i]) == TAU_HALF
                   for i in cell.vertex_indices)


def test_edge_graph_rejects_degenerate_input():
    with pytest.raises(DegenerateInput):
        edge_graph([Q_ONE])
    with pytest.raises(DegenerateInput):
        edge_graph([Q_ONE, Quaternion(2)])
    with pytest.raises(DegenerateInput, match="vertices coincide"):
        edge_graph([Q_ONE, Q_ONE])


def test_edge_graph_refuses_int64_overflow():
    icos = binary_icosahedral().elements
    assert len(edge_graph([q * (1 << 20) for q in icos])) == 720
    with pytest.raises(OverflowError):
        edge_graph([q * (1 << 33) for q in icos])


def test_supporting_hyperplane_certificates():
    complex_ = snub_census()
    cell = icosa_cell(Q_ONE)
    normal, offset = supporting_hyperplane(cell.vertex_indices, complex_.vertices)
    assert (normal, offset) == (Q_ONE, TAU_HALF)
    # A cell plus a vertex off its hyperplane no longer spans one.
    tet = next(c for c in complex_.cells if c.kind == "tetrahedron")
    outside = next(i for i in range(96) if i not in tet.vertex_indices)
    with pytest.raises(CertificationFailed, match="does not span"):
        supporting_hyperplane(tet.vertex_indices + (outside,), complex_.vertices)
    # An equatorial slice has the remaining vertices on both sides.
    equator = [i for i, v in enumerate(complex_.vertices)
               if v.component(0).is_zero()]
    assert len(equator) == 24
    with pytest.raises(CertificationFailed, match="both sides"):
        supporting_hyperplane(equator, complex_.vertices)


def test_certify_cells_raises_for_the_first_failing_cell():
    complex_ = snub_census()
    good = [c.vertex_indices for c in complex_.cells[:6]]
    assert certify_cells(good, complex_.vertices) == [
        (c.normal, c.offset) for c in complex_.cells[:6]]
    outside = next(i for i in range(96) if i not in good[0])
    flat = good[0] + (outside,)
    equator = tuple(i for i, v in enumerate(complex_.vertices)
                    if v.component(0).is_zero())
    # A sign failure and a normal failure are both reported in list order.
    with pytest.raises(CertificationFailed, match="both sides"):
        certify_cells(good[:3] + [equator] + good[3:], complex_.vertices)
    with pytest.raises(CertificationFailed, match="both sides"):
        certify_cells(good[:3] + [equator, flat] + good[3:], complex_.vertices)
    with pytest.raises(CertificationFailed, match="does not span"):
        certify_cells(good[:3] + [flat, equator] + good[3:], complex_.vertices)


def test_certify_cells_solves_a_coplanar_prefix(monkeypatch):
    """A cell whose first four vertices are coplanar tries all its edge triples."""
    complex_ = snub_census()
    assert certify_cells([], complex_.vertices) == []
    cell = icosa_cell(Q_ONE)
    members = set(cell.vertex_indices)
    centre = cell.normal.scale(cell.offset)
    vertices = complex_.vertices
    # An edge and its opposite edge, through the centre, form a golden rectangle.
    a, b = next(e for e in complex_.edges if members.issuperset(e))
    opposite = [complex_.index(centre * 2 - vertices[i]) for i in (a, b)]
    rectangle = (a, b, *opposite)
    calls = []
    cross_rows = polytope.engine.cross_rows
    monkeypatch.setattr(polytope.engine, "cross_rows",
                        lambda *rows: calls.append(rows) or cross_rows(*rows))
    reordered = rectangle + tuple(i for i in cell.vertex_indices if i not in rectangle)
    assert certify_cells([reordered], vertices) == [(cell.normal, cell.offset)]
    assert len(calls) == 2
    calls.clear()
    assert certify_cells([cell.vertex_indices], vertices) == [(cell.normal, cell.offset)]
    assert len(calls) == 1
    # The rectangle alone spans a plane: no triple of its edges has a normal.
    with pytest.raises(CertificationFailed, match="does not span a hyperplane"):
        certify_cells([rectangle], vertices)


def test_certify_cells_refuses_a_normal_of_irrational_length():
    """The normal of 1, e1, e2 and 1 + e3 is a multiple of (1, 1, 1, 0), of norm 3:
    no element of Q(sqrt2, sqrt5) squares to 3, so it has no exact unit scaling."""
    points = [Quaternion(1), Quaternion(0, 1), Quaternion(0, 0, 1), Quaternion(1, 0, 0, 1)]
    with pytest.raises(CertificationFailed, match="normal admits no exact unit scaling"):
        certify_cells([(0, 1, 2, 3)], points)


def test_certify_cells_orients_and_rejects_touching_planes():
    tesseract = [Quaternion(*p) for p in product((0, 1), repeat=4)]
    far = [i for i, q in enumerate(tesseract) if q.component(0) == ONE]
    near = [i for i, q in enumerate(tesseract) if q.component(0).is_zero()]
    assert certify_cells([far], tesseract) == [(Q_ONE, ONE)]
    with pytest.raises(CertificationFailed, match="outside vertex touches"):
        certify_cells([far[:-1]], tesseract)
    # The facet through the origin does not face away from it.
    with pytest.raises(CertificationFailed, match="face away from the origin"):
        certify_cells([far, near], tesseract)


def assert_scalar_certificate(complex_, cell):
    """A cell's certificate, checked with Quaternion.dot and exact comparisons alone."""
    assert cell.normal.dot(cell.normal) == ONE
    assert cell.offset > 0
    for i, v in enumerate(complex_.vertices):
        if i in cell.vertex_indices:
            assert cell.normal.dot(v) == cell.offset
        else:
            assert cell.normal.dot(v) < cell.offset


def recorded_census(monkeypatch, vertices):
    """cell_census of the vertices, and the cells certify_cells saw: one per orbit."""
    certified = []
    certify = polytope.certify_cells
    monkeypatch.setattr(polytope, "certify_cells",
                        lambda cells, points: certified.extend(cells) or certify(cells, points))
    try:
        return cell_census(vertices), [tuple(sorted(cell)) for cell in certified]
    finally:
        monkeypatch.undo()


def scalar_orbits(complex_, representatives, multipliers):
    """The cell positions of each representative's orbit under r -> h r, by Quaternion products."""
    where = {cell.vertex_indices: k for k, cell in enumerate(complex_.cells)}
    vertices = complex_.vertices
    return {where[rep]: {where[tuple(sorted(complex_.index(h * vertices[i]) for i in rep))]
                         for h in multipliers}
            for rep in representatives}


def test_certificates_match_scalar_oracle(monkeypatch):
    """Certificates checked with Quaternion.dot and exact comparisons alone.

    The checked cells hold a moved cell, not its orbit's representative, of
    every orbit of the snub, 24-cell and 600-cell censuses.  Every cell of
    one embedding census is checked too, after checking that cell k is the
    image of the snub's cell k.
    """
    snub, tet, icos = (snub24_vertices(), binary_tetrahedral().elements,
                       binary_icosahedral().elements)
    for vertices, multipliers, stride in ((snub, tet, 1), (tet, tet, 1), (icos, icos, 37)):
        complex_, representatives = recorded_census(monkeypatch, vertices)
        orbits = scalar_orbits(complex_, representatives, multipliers)
        assert sorted(k for orbit in orbits.values() for k in orbit) == list(
            range(len(complex_.cells)))
        sample = set(range(0, len(complex_.cells), stride))
        sample |= {max(orbit - {rep}) for rep, orbit in orbits.items()}
        assert all((orbit - {rep}) & sample for rep, orbit in orbits.items())
        for k in sorted(sample):
            assert_scalar_certificate(complex_, complex_.cells[k])
    complex_ = snub_census()
    moved, p = embedding_censuses()[2], icosian_seed() ** 2
    for cell, image in zip(complex_.cells, moved.cells):
        assert {moved.vertices[i] for i in image.vertex_indices} == {
            p * complex_.vertices[i] * p.conjugate() for i in cell.vertex_indices}
        assert_scalar_certificate(moved, image)


def direct_census(vertices):
    """The census from certify_cells on every candidate: the oracle of transport_cells."""
    vertices, edges, faces, candidates, _ = polytope._census_input(vertices)
    certificates = certify_cells([idxs for idxs, _ in candidates], vertices)
    return vertices, edges, faces, [(tuple(sorted(idxs)), kind, normal, offset)
                                    for (idxs, kind), (normal, offset)
                                    in zip(candidates, certificates)]


def census_facts(complex_):
    return complex_.vertices, complex_.edges, complex_.faces, [
        (c.vertex_indices, c.kind, c.normal, c.offset) for c in complex_.cells]


CENSUS_SETS = {
    "snub": snub24_vertices,
    "600cell": lambda: binary_icosahedral().elements,
    "24cell": lambda: binary_tetrahedral().elements,
    # The complement of a coset p T, which is no group: the multipliers are p T conj(p).
    "coset": lambda: canonical_sorted(set(binary_icosahedral().elements)
                                      - {icosian_seed() * t for t in binary_tetrahedral()}),
}


@pytest.mark.parametrize("name", list(CENSUS_SETS))
def test_transported_census_matches_direct(name):
    assert census_facts(cell_census(CENSUS_SETS[name]())) == direct_census(CENSUS_SETS[name]())
    coset = polytope._census_input(CENSUS_SETS[name]())[-1]
    assert coset == canonical_sorted(coset)


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_embedding_censuses_match_direct(i):
    """Equal to cell_census of the embedding, but with the cells in the snub's order."""
    moved = census_facts(embedding_censuses()[i])
    direct = census_facts(cell_census(snub_embeddings_in_600cell()[i]))
    assert moved[:3] == direct[:3]
    assert set(moved[3]) == set(direct[3])
    assert [kind for _, kind, _, _ in moved[3]] == [c.kind for c in snub_census().cells]


def transport_input(vertices):
    """The candidate cells, vertices and multiplier rows that cell_census transports with."""
    vertices, _, _, candidates, coset = polytope._census_input(vertices)
    rows, den = engine.common_rows(coset)
    return [idxs for idxs, _ in candidates], vertices, rows, den


def test_transport_rejects_a_multiplier_off_the_vertex_set():
    cells, vertices, _, _ = transport_input(snub24_vertices())
    outside = binary_tetrahedral().elements + t_prime().elements[:1]
    with pytest.raises(CertificationFailed, match="moves a vertex off the vertex set"):
        transport_cells(cells, vertices, *engine.common_rows(outside))


def test_transport_rejects_a_missing_orbit_image():
    cells, vertices, rows, den = transport_input(binary_icosahedral().elements)
    certificates, *_ = transport_cells(cells, vertices, rows, den)
    assert certificates == [(c.normal, c.offset) for c in cell_census(vertices).cells]
    with pytest.raises(CertificationFailed, match="moves a certified cell off the candidates"):
        transport_cells(cells[:-1], vertices, rows, den)


def test_transport_rejects_a_stray_candidate():
    """A stray triangle at no least vertex of a vertex orbit: no image reaches it."""
    cells, vertices, rows, den = transport_input(binary_icosahedral().elements)
    stray = cells[-1][:3]
    assert 0 not in stray
    with pytest.raises(CertificationFailed, match="no certified cell moves onto a candidate"):
        transport_cells(cells + [stray], vertices, rows, den)


# The representatives transport_cells certifies: one cell per orbit.
REPRESENTATIVES = {"600cell": [0, 1, 2, 3, 4], "snub": [0, 1, 2, 3, 4, 121], "24cell": [0]}


@pytest.mark.parametrize("name", list(REPRESENTATIVES))
def test_census_keeps_its_orbit_data(name):
    """Each cell is its representative moved by its mover, and perm is the
    multipliers' action on the vertices, by Quaternion products."""
    complex_ = cell_census(CENSUS_SETS[name]())
    coset = polytope._census_input(complex_.vertices)[-1]
    multipliers = [c * coset[0].conjugate() for c in coset]
    assert complex_.perm.shape == (len(multipliers), len(complex_.vertices))
    for h, row in list(zip(multipliers, complex_.perm.tolist()))[::7]:
        assert row == [complex_.index(h * q) for q in complex_.vertices]
    assert sorted(set(complex_.representative.tolist())) == REPRESENTATIVES[name]
    for cell, r, m in zip(complex_.cells, complex_.representative, complex_.mover):
        moved = complex_.perm[m, list(complex_.cells[r].vertex_indices)]
        assert tuple(sorted(moved.tolist())) == cell.vertex_indices


@lru_cache(maxsize=None)
def hull_oracle(name):
    """Each cell's frame coordinates and their hull, one convex_hull_faces call per cell."""
    complex_ = cell_census(CENSUS_SETS[name]())
    out = []
    for cell in complex_.cells:
        coords = frame_coords(cell.normal, [complex_.vertices[i] for i in cell.vertex_indices])
        out.append((coords, convex_hull_faces(coords)))
    return out


def counted_hulls(monkeypatch):
    """A list that grows by one for each hull.convex_hull_faces call from now on."""
    calls = []
    monkeypatch.setattr(hull, "convex_hull_faces",
                        lambda points: calls.append(1) or convex_hull_faces(points))
    return calls


@pytest.mark.parametrize("order", ["forward", "reverse"])
@pytest.mark.parametrize("name", list(REPRESENTATIVES))
def test_cell_geometry_matches_its_own_hull(monkeypatch, name, order):
    """Moved faces equal the hull of each cell's own coordinates, whichever
    cell of a fresh complex is asked first, from one hull per orbit."""
    complex_ = cell_census(CENSUS_SETS[name]())
    indices = list(range(len(complex_.cells)))
    if order == "reverse":
        indices.reverse()
    calls = counted_hulls(monkeypatch)
    got = {k: complex_.cell_geometry(k) for k in indices}
    assert len(calls) == len(REPRESENTATIVES[name])
    assert [got[k] for k in sorted(got)] == hull_oracle(name)


def test_embedding_cell_geometry_matches_its_own_hull(monkeypatch):
    """An embedding census moves its faces through the conjugated multipliers."""
    moved = embedding_censuses.__wrapped__()[3]
    calls = counted_hulls(monkeypatch)
    for k in reversed(range(len(moved.cells))):
        coords, faces = moved.cell_geometry(k)
        cell = moved.cells[k]
        assert coords == frame_coords(cell.normal, [moved.vertices[i] for i in cell.vertex_indices])
        assert faces == convex_hull_faces(coords)
    assert len(calls) == len(REPRESENTATIVES["snub"])


def test_census_requests_make_no_hull(monkeypatch, capsys):
    """A census, and the commands that only build or export a whole census,
    make no hull: cell hulls wait for the first cell request."""
    calls = counted_hulls(monkeypatch)
    cell_census(binary_icosahedral().elements)
    monkeypatch.setattr(polytope, "snub_census", polytope.snub_census.__wrapped__)
    monkeypatch.setattr(cli, "_export_complex", cli._export_complex.__wrapped__)
    assert cli.main(["build", "snub24", "--out", "-"]) == 0
    assert cli.main(["export", "600cell", "--format", "off", "--out", "-"]) == 0
    assert calls == []


CUBE = [tuple(map(FieldElement, p)) for p in product((0, 2), repeat=3)]


def test_convex_hull_faces_of_a_cube():
    assert convex_hull_faces(CUBE) == ((0, 1, 3, 2), (0, 2, 6, 4), (0, 4, 5, 1),
                                       (1, 5, 7, 3), (2, 3, 7, 6), (4, 6, 7, 5))
    with pytest.raises(DegenerateInput, match="need at least four points"):
        convex_hull_faces(CUBE[:3])


@pytest.mark.parametrize("extra, message", [
    ((1, 1, 0), "not in convex position"),  # a face centre: on a face, on no edge
    ((1, 0, 0), "not in convex position"),  # an edge midpoint
    ((1, 1, 1), "not a hull vertex"),       # the centre
])
def test_convex_hull_faces_rejects_non_extreme_points(extra, message):
    with pytest.raises(DegenerateInput, match=message):
        convex_hull_faces(CUBE + [tuple(map(FieldElement, extra))])


def test_frame_coords_orthonormal():
    p = icosian_seed()
    points = [E1 * p, E1 * p + E3 * p, p.scale(TAU)]
    assert frame_coords(p, points) == [(1, 0, 0), (1, 0, 1), (0, 0, 0)]


def test_projective_equal():
    p = icosian_seed()
    assert projective_equal(p, p.scale(TAU))
    assert projective_equal(p.scale(HALF), p)
    assert not projective_equal(p, p.scale(SIGMA))
    assert not projective_equal(p, Q_ONE)
