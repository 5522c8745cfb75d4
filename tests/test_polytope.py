"""Certified cell structure of the snub 24-cell and its neighbours."""

from collections import Counter
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest

from icosian import (E1, E3, Q_ONE, binary_icosahedral, binary_tetrahedral,
                     build_120cell, canonical_sorted, cell_census, edge_graph,
                     embedding_censuses, icosa_cell, icosa_class_plus,
                     icosian_seed, projective_equal, snub24_vertices,
                     snub_census, snub_embeddings_in_600cell, t_prime,
                     tetra_cells_at, vertex_figure)
from icosian import QuaternionGroup, QuaternionSet, cli, engine, hull, polytope
from icosian.coxeter import inscribed_24cells
from icosian.errors import (BadParameter, CertificationFailed, CoplanarityFailed,
                            DegenerateInput)
from icosian.field import HALF, ONE, SIGMA, TAU, FieldElement
from icosian.hull import convex_hull_faces
from icosian.polytope import (PolytopeComplex, certify_cells, frame_coords,
                              supporting_hyperplane, transport_cells)
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


def test_cell_census_refuses_a_repeated_vertex():
    """A repeat is refused as input, before any census: a set would drop it."""
    for points in (binary_tetrahedral().elements, snub24_vertices()):
        with pytest.raises(BadParameter, match="vertex set repeats a vertex"):
            cell_census(points + points[:1])
    icos = list(binary_icosahedral().elements)
    assert cell_census(icos) is cell_census(tuple(reversed(icos)))
    assert cell_census(icos).counts() == (120, 720, 1200, 600)


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


def fresh_census(vertices):
    """cell_census of the vertices, made anew, not read off the per-process cache."""
    return polytope._census.__wrapped__(frozenset(vertices))


def recorded_census(monkeypatch, vertices):
    """A fresh cell_census of the vertices, and the cells certify_cells saw: one per orbit."""
    certified = []
    certify = polytope.certify_cells
    monkeypatch.setattr(polytope, "certify_cells",
                        lambda cells, points: certified.extend(cells) or certify(cells, points))
    try:
        return fresh_census(vertices), [tuple(sorted(cell)) for cell in certified]
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
    every orbit of the 600-cell census, and every cell of the 24-cell census,
    whose octahedra are certified off their nearest-point table with no
    group action.  Every cell of the snub census, and of one embedding
    census, whose certificates are the 600-cell's and the icosahedra's, is
    checked too, after checking that conjugation by p^2 moves the snub's
    cells onto that embedding's.
    """
    icos = binary_icosahedral().elements
    complex_, representatives = recorded_census(monkeypatch, icos)
    orbits = scalar_orbits(complex_, representatives, icos)
    assert sorted(k for orbit in orbits.values() for k in orbit) == list(
        range(len(complex_.cells)))
    sample = set(range(0, len(complex_.cells), 37))
    sample |= {max(orbit - {rep}) for rep, orbit in orbits.items()}
    assert all((orbit - {rep}) & sample for rep, orbit in orbits.items())
    for k in sorted(sample):
        assert_scalar_certificate(complex_, complex_.cells[k])
    complex_, representatives = recorded_census(monkeypatch, binary_tetrahedral().elements)
    assert representatives == []
    for cell in complex_.cells:
        assert_scalar_certificate(complex_, cell)
    complex_ = snub_census()
    moved, p = embedding_censuses()[2], icosian_seed() ** 2

    def cells(census, move=lambda q: q):
        return {(frozenset(move(census.vertices[i]) for i in c.vertex_indices), c.kind)
                for c in census.cells}

    assert cells(moved) == cells(complex_, lambda q: p * q * p.conjugate())
    for census in (complex_, moved):
        for cell in census.cells:
            assert_scalar_certificate(census, cell)


def census_candidates(vertices):
    """The canonical vertices, edges, faces and candidate cells, as (vertex
    indices, kind) pairs.  The candidates of T are the octahedra around T',
    and of a subset of I its 4-cliques, then an icosahedron at each point of
    its complement: the vertices nearest it."""
    vertices = canonical_sorted(vertices)
    edges = edge_graph(vertices)
    faces = polytope.triangle_faces(vertices, edges)

    def nearest(centers):
        return polytope._nearest(*engine.common_rows(centers), *engine.common_rows(vertices))[0]

    if set(vertices) == set(binary_tetrahedral().elements):
        candidates = [(c, "octahedron") for c in nearest(t_prime())]
    else:
        complement = [q for q in binary_icosahedral() if q not in set(vertices)]
        candidates = [(c, "tetrahedron")
                      for c in polytope._four_cliques(len(vertices), edges, faces)]
        if complement:
            candidates += [(c, "icosahedron") for c in nearest(complement)]
    return vertices, edges, faces, candidates


def direct_census(vertices):
    """The census from certify_cells on every candidate cell: the oracle of
    transport_cells and of the diminished 600-cell."""
    vertices, edges, faces, candidates = census_candidates(vertices)
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


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_embedding_censuses_match_direct(i):
    """Equal to the direct census of the embedding, as is cell_census of it."""
    direct = direct_census(snub_embeddings_in_600cell()[i])
    assert census_facts(embedding_censuses()[i]) == direct
    assert census_facts(cell_census(snub_embeddings_in_600cell()[i])) == direct


def transport_input(group):
    """The candidate cells that cell_census transports under the group, on its elements."""
    _, _, _, candidates = census_candidates(group.elements)
    return [idxs for idxs, _ in candidates]


def test_transport_rejects_a_multiplier_off_the_vertex_set():
    cells = transport_input(binary_tetrahedral())
    outside = QuaternionGroup(binary_tetrahedral().elements + t_prime().elements[:1])
    with pytest.raises(CertificationFailed, match="moves a vertex off the vertex set"):
        transport_cells(cells, outside)


def test_transport_rejects_a_missing_orbit_image():
    group = binary_icosahedral()
    cells = transport_input(group)
    certificates, (rows, den) = transport_cells(cells, group)
    complex_ = cell_census(group.elements)
    assert certificates == [(c.normal, c.offset) for c in complex_.cells]
    assert engine.quats_of(rows, den) == tuple(c.normal for c in complex_.cells)
    with pytest.raises(CertificationFailed, match="moves a certified cell off the candidates"):
        transport_cells(cells[:-1], group)


def test_transport_rejects_a_stray_candidate():
    """A stray triangle not at vertex 0: no image reaches it."""
    group = binary_icosahedral()
    cells = transport_input(group)
    stray = cells[-1][:3]
    assert 0 not in stray
    with pytest.raises(CertificationFailed, match="no certified cell moves onto a candidate"):
        transport_cells(cells + [stray], group)


def test_24cell_octahedra_carry_the_transported_certificates(monkeypatch):
    """The 24-cell's octahedra, certified off the T' x T table that finds them,
    with no cell transported or certified, carry the certificates that
    transport_cells makes of them under T, the path they replaced: normal t'_k
    for cell k, and T''s rows as the normal rows."""
    group = binary_tetrahedral()

    def refuse(*args):
        raise AssertionError("the 24-cell census transported or certified a cell")

    with monkeypatch.context() as patched:
        for name in ("certify_cells", "transport_cells"):
            patched.setattr(polytope, name, refuse)
        complex_ = fresh_census(group.elements)
    certificates, (rows, den) = transport_cells([c.vertex_indices for c in complex_.cells], group)
    assert [(c.normal, c.offset) for c in complex_.cells] == certificates
    assert [c.normal for c in complex_.cells] == list(t_prime().elements)
    assert engine.quats_of(*complex_.normal_rows) == engine.quats_of(rows, den)


def test_24cell_census_makes_no_cayley_table_until_a_cell_is_oriented(monkeypatch):
    fresh = QuaternionGroup.from_rows(binary_tetrahedral().rows, binary_tetrahedral().den, "T")
    monkeypatch.setattr(polytope, "binary_tetrahedral", lambda: fresh)
    complex_ = fresh_census(fresh.elements)
    assert "cayley_table" not in vars(fresh)
    complex_.cell_geometry(0)
    assert vars(fresh)["cayley_table"] is not None


@pytest.mark.parametrize("case, message", [
    ("doubled center", "cell normal is not a unit"),
    ("center on a vertex", "does not span a hyperplane"),
    ("dropped vertex", "not exactly those nearest its center"),
    ("non-positive level", "does not face away from the origin"),
])
def test_24cell_certificates_refuse_broken_inputs(monkeypatch, case, message):
    """A T' point moved off the unit sphere or onto a vertex, a cell missing a
    vertex at its level, and a center whose nearest vertices lie at a level
    of at most 0, are each refused."""
    tet, tp = binary_tetrahedral(), t_prime().elements
    edges = edge_graph(tet.elements)
    if case == "doubled center":
        monkeypatch.setattr(polytope, "t_prime", lambda: QuaternionSet([tp[0] * 2, *tp[1:]]))
    elif case == "center on a vertex":
        monkeypatch.setattr(polytope, "t_prime", lambda: QuaternionSet([tet.elements[0], *tp[1:]]))
    elif case == "dropped vertex":
        nearest = polytope._nearest

        def dropped(*args):
            cells, rank, levels = nearest(*args)
            return [cells[0][:-1], *cells[1:]], rank, levels

        monkeypatch.setattr(polytope, "_nearest", dropped)
    else:  # only the vertices at or below 0 against t'_0
        tet, edges = QuaternionSet([v for v in tet if v.dot(tp[0]).sign() <= 0]), ()
    with pytest.raises(CertificationFailed, match=message):
        polytope._octahedra(tet, edges)


CELL_CENSUSES = ["600cell", "snub", "24cell"]


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
@pytest.mark.parametrize("name", CELL_CENSUSES)
def test_cell_geometry_matches_its_own_hull(monkeypatch, name, order):
    """The faces read off the census equal the hull of each cell's own
    coordinates, whichever cell of a fresh complex is asked first, and no
    request makes a hull."""
    complex_ = fresh_census(CENSUS_SETS[name]())
    indices = list(range(len(complex_.cells)))
    if order == "reverse":
        indices.reverse()
    calls = counted_hulls(monkeypatch)
    got = {k: complex_.cell_geometry(k) for k in indices}
    assert calls == []
    assert [got[k] for k in sorted(got)] == hull_oracle(name)


def all_faces_oracle(complex_):
    """The all-faces rule: every (cell, face) pair signed, one cross_rows over
    the pairs' faces and one dot_rows against their cells' normals.  Face
    a < b < c runs (a, b, c) seen from outside cell k when det[a, b, c, n_k] < 0,
    else (a, c, b).  Each cell's cycles, sorted."""
    rows, _ = engine.common_rows(complex_.vertices)
    normals, _ = engine.common_rows([cell.normal for cell in complex_.cells])
    cells, at = complex_.face_cells
    faces = np.array(complex_.faces)[at]
    cross = engine.cross_rows(*rows[faces].transpose(1, 0, 2))
    signs = engine.signs(engine.dot_rows(cross[:, None], normals[cells, None]))[:, 0, 0]
    out = [[] for _ in complex_.cells]
    for k, (a, b, c), sign in zip(cells.tolist(), faces.tolist(), signs.tolist()):
        out[k].append((a, b, c) if sign < 0 else (a, c, b))
    return [sorted(cycles) for cycles in out]


def oriented_faces(complex_):
    """Each cell's cycles as the complex orients them, each from its least vertex, sorted."""
    cycles, starts = complex_._cycles
    return [sorted(tuple(c[c.index(min(c)):] + c[:c.index(min(c))])
                   for c in cycles[a:b].tolist())
            for a, b in zip(starts[:-1].tolist(), starts[1:].tolist())]


ORIENTED_CENSUSES = {
    "600cell": lambda: cell_census(binary_icosahedral().elements),
    "24cell": lambda: cell_census(binary_tetrahedral().elements),
    # Embedding 0 is the snub census.
    **{f"embedding {i}": (lambda i=i: embedding_censuses()[i]) for i in range(5)},
}


@pytest.mark.parametrize("name", list(ORIENTED_CENSUSES))
def test_carried_and_inherited_cycles_match_the_all_faces_oracle(cold_censuses, name):
    """The cycles carried from the cells at 1, and those the snub and its
    embeddings inherit from the 600-cell, are the all-faces rule's."""
    complex_ = ORIENTED_CENSUSES[name]()
    assert oriented_faces(complex_) == all_faces_oracle(complex_)


def test_a_complex_without_an_orientation_has_no_cell_faces():
    real = snub_census()
    with pytest.raises(DegenerateInput, match="no face orientation"):
        PolytopeComplex(real.vertices, real.edges, real.faces, real.cells).cell_geometry(0)


# The (cell, face) pairs the first cell request signs: the faces of the 20
# tetrahedra, or of the 6 octahedra, at 1.  The snub signs the 600-cell's.
SIGNED_PAIRS = {"600cell": 80, "snub": 80, "24cell": 48}


@pytest.mark.parametrize("name", CELL_CENSUSES)
def test_cell_faces_are_oriented_in_one_batch(monkeypatch, cold_censuses, name):
    """The first request signs only the faces of the cells at 1 of the
    600-cell or the 24-cell, in one batch: one cross_rows and one dot_rows
    over those pairs.  The snub and its embeddings sign none of their own:
    they read the 600-cell's cycles, signed on the first request of any.
    No request frames a cell by dot_rows: the frames are one products table
    (see the next test)."""
    complex_ = cell_census(CENSUS_SETS[name]())
    group = binary_tetrahedral() if name == "24cell" else binary_icosahedral()
    at_one = cell_census(group.elements).incidence[group.index(Q_ONE)]
    assert len(at_one) == (6 if name == "24cell" else 20)
    made = {"cross_rows": [], "dot_rows": []}
    for kernel, calls in made.items():
        real = getattr(engine, kernel)
        monkeypatch.setattr(engine, kernel, lambda *rows, real=real, calls=calls: (
            calls.append(len(rows[0])) or real(*rows)))
    complex_.cell_geometry(len(complex_.cells) - 1)
    complex_.cell_geometry(0)
    if name != "24cell":
        embedding_censuses()[2].cell_geometry(0)
        cell_census(binary_icosahedral().elements).cell_geometry(5)
    n = SIGNED_PAIRS[name]
    assert made == {"cross_rows": [n], "dot_rows": [n]}


@pytest.mark.parametrize("name", CELL_CENSUSES)
def test_cells_are_framed_by_one_products_call(monkeypatch, cold_censuses, name):
    """Building a census frames no cell.  However many cells are then asked
    for, in any order, the complex makes one frame table: one engine.products
    call over its (vertex, cell normal) pairs, beside the two of the
    orientation batch's cross_rows over the faces of the cells at 1."""
    tables, rows = [], []
    real_table, real_products = polytope.frame_table, engine.products
    monkeypatch.setattr(polytope, "frame_table", lambda *args: (
        tables.append(len(args[-1])) or real_table(*args)))
    complex_ = fresh_census(CENSUS_SETS[name]())
    assert tables == []
    monkeypatch.setattr(engine, "products", lambda a, b: (
        rows.append(len(a)) or real_products(a, b)))
    for k in [3, 0, *range(len(complex_.cells) - 1, -1, -1)]:
        complex_.cell_geometry(k)
    assert tables == [len(complex_.cells)]
    pairs, n = sum(len(cell.vertex_indices) for cell in complex_.cells), SIGNED_PAIRS[name]
    assert sorted(rows) == sorted([pairs, n, n])


def test_snub_censuses_frame_no_cell(monkeypatch, cold_censuses):
    """Neither the snub census nor its five embeddings make a frame table."""
    monkeypatch.setattr(polytope, "frame_table", None)
    assert len(polytope.embedding_censuses()) == 5


def test_snub_censuses_are_read_off_the_600cell_census(monkeypatch, cold_censuses):
    """After the 600-cell census and the table of 24-cells, the snub census and
    its embeddings certify no cell and move no point: their certificates are
    the 600-cell's, and only coxeter.inscribed_24cells locates a 24-cell."""
    expected = [census_facts(census) for census in embedding_censuses()]
    cell_census(binary_icosahedral().elements)
    inscribed_24cells()

    def refuse(*args):
        raise AssertionError("a snub census certified a cell or moved a point")

    for module, name in ((polytope, "certify_cells"), (polytope, "transport_cells"),
                         (engine, "act"), (engine, "locate")):
        monkeypatch.setattr(module, name, refuse)
    assert [census_facts(census) for census in polytope.embedding_censuses()] == expected
    assert polytope.snub_embeddings_in_600cell() == snub_embeddings_in_600cell()
    assert polytope.snub_census() is polytope.embedding_censuses()[0]


def test_face_cell_table_pairs_each_cell_with_the_faces_its_triples_name():
    """Each (cell, face) pair once: 4 faces for a tetrahedron, 20 for an icosahedron."""
    complex_ = snub_census()
    at = {face: f for f, face in enumerate(complex_.faces)}
    pairs = list(zip(*(column.tolist() for column in complex_.face_cells)))
    assert sorted(pairs) == [(k, at[t]) for k, cell in enumerate(complex_.cells)
                             for t in combinations(cell.vertex_indices, 3) if t in at]
    assert Counter(k for k, _ in pairs) == {k: 4 if cell.kind == "tetrahedron" else 20
                                            for k, cell in enumerate(complex_.cells)}


def test_embedding_cell_geometry_matches_its_own_hull(monkeypatch):
    """An embedding census reads its cells' faces off its own triangles."""
    moved = embedding_censuses.__wrapped__()[3]
    calls = counted_hulls(monkeypatch)
    for k in reversed(range(len(moved.cells))):
        coords, faces = moved.cell_geometry(k)
        cell = moved.cells[k]
        assert coords == frame_coords(cell.normal, [moved.vertices[i] for i in cell.vertex_indices])
        assert faces == convex_hull_faces(coords)
    assert calls == []


def patched_snub(monkeypatch, cells=None, edges=()):
    """Serve the snub census with other cells, or with extra edges, in place of its own."""
    real = snub_census()
    fake = PolytopeComplex(real.vertices, real.edges + tuple(edges), real.faces,
                           real.cells if cells is None else cells)
    monkeypatch.setattr(polytope, "snub_census", lambda: fake)
    return real


def icosa_cell_without_icosahedra(monkeypatch):
    real = patched_snub(monkeypatch, [c for c in snub_census().cells if c.kind != "icosahedron"])
    icosa_cell(real.cells[-1].normal)


def tetra_cells_at_with_one_missing(monkeypatch):
    tets, _ = tetra_cells_at(icosian_seed())
    patched_snub(monkeypatch, [c for c in snub_census().cells if c is not tets[0]])
    tetra_cells_at(icosian_seed())


def vertex_figure_with_a_stray_edge(monkeypatch):
    """An edge from p to a vertex off its vertex-figure hyperplane."""
    census, p = snub_census(), icosian_seed()
    far = next(j for j, q in enumerate(census.vertices) if q.dot(p) < 0)
    patched_snub(monkeypatch, edges=[tuple(sorted((census.index(p), far)))])
    polytope.vertex_figure.__wrapped__(p)


def coset_union_with_a_trivial_seed(monkeypatch):
    """With p = 1 the 25 cosets are all T'."""
    monkeypatch.setattr(polytope, "icosian_seed", lambda: Q_ONE)
    build_120cell.__wrapped__()


def diminished_at_t(vertices=None, cells=None):
    """_diminished at T of the 600-cell census, with other vertices or cells."""
    big = cell_census(binary_icosahedral().elements)
    polytope._diminished(PolytopeComplex(vertices or big.vertices, big.edges, big.faces,
                                         cells or big.cells),
                         [k for k, q in enumerate(big.vertices) if q in binary_tetrahedral()])


def diminished_with_a_cell_missing(monkeypatch):
    """The 600-cell census less a tetrahedron that avoids T."""
    big, tet = cell_census(binary_icosahedral().elements), set(binary_tetrahedral().elements)
    k = next(k for k, c in enumerate(big.cells)
             if not any(big.vertices[i] in tet for i in c.vertex_indices))
    diminished_at_t(cells=big.cells[:k] + big.cells[k + 1:])


def diminished_in_a_plane(monkeypatch):
    """Every vertex moved into the plane of 1 and e1: no four span a 3-space."""
    diminished_at_t(vertices=[Quaternion(v.component(0), v.component(1))
                              for v in cell_census(binary_icosahedral().elements).vertices])


def diminished_with_an_edge_through_the_origin(monkeypatch):
    """The far end of the first edge negated: the edge's scalar product turns negative."""
    big = cell_census(binary_icosahedral().elements)
    b = big.edges[0][1]
    diminished_at_t(vertices=big.vertices[:b] + (-big.vertices[b],) + big.vertices[b + 1:])


def complement_of_an_edge(monkeypatch):
    """I less 23 points of T and a neighbour of one of them."""
    tet = binary_tetrahedral().elements
    near = next(q for q in binary_icosahedral() if q.dot(tet[1]) == TAU_HALF)
    cell_census([q for q in binary_icosahedral() if q not in {*tet[1:], near}])


POLYTOPE_CHECKS = {
    icosa_cell_without_icosahedra: (CertificationFailed, "no icosahedral cell at this center"),
    tetra_cells_at_with_one_missing: (CertificationFailed, "expected 5 tetrahedra, found 4"),
    vertex_figure_with_a_stray_edge: (CoplanarityFailed,
                                      "neighbor misses the vertex-figure hyperplane"),
    coset_union_with_a_trivial_seed: (CertificationFailed,
                                      "coset union failed to produce 600 distinct vertices"),
    diminished_with_a_cell_missing: (CertificationFailed,
                                     "a tetrahedron is no cell of the 600-cell"),
    diminished_in_a_plane: (CertificationFailed, "cell does not span a hyperplane"),
    diminished_with_an_edge_through_the_origin: (CertificationFailed,
                                                 "hyperplane does not face away from the origin"),
    complement_of_an_edge: (BadParameter,
                            "vertex set is not a snub complement inside the 600-cell"),
}


@pytest.mark.parametrize("perturbed", list(POLYTOPE_CHECKS), ids=lambda f: f.__name__)
def test_polytope_checks_refuse_perturbed_inputs(monkeypatch, perturbed):
    error, message = POLYTOPE_CHECKS[perturbed]
    with pytest.raises(error, match=message):
        perturbed(monkeypatch)


def test_census_requests_make_no_hull(monkeypatch, capsys, cold_censuses):
    """A census, and the commands that only build or export a whole census,
    make no hull: cell hulls wait for the first cell request."""
    calls = counted_hulls(monkeypatch)
    cell_census(binary_icosahedral().elements)
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
    # 0 = 0 b, but 0 is no positive multiple of b.
    assert not projective_equal(Quaternion(), p)
    assert projective_equal(Quaternion(), Quaternion())


def test_census_reprs():
    complex_ = snub_census()
    assert repr(complex_) == "<complex: 96 vertices, 432 edges, 480 faces, 144 cells>"
    assert repr(complex_.cells[0]) == "<tetrahedron: vertices (0, 1, 12, 13)>"
    assert repr(icosa_cell(Q_ONE)).startswith("<icosahedron: vertices (")
