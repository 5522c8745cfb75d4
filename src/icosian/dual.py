"""The dual snub 24-cell from exact polar reciprocation.

Every snub vertex p carries eight surrounding cells: five tetrahedra and
three icosahedra.  Reciprocating about the sphere of radius tau^2/(2 sqrt2)
sends tetrahedron centers to themselves and icosahedron centers to
(tau/sqrt2) times a 24-cell vertex, so the dual vertex set is
T' + S' + (tau/sqrt2) T, with 144 points on three radii.  The dual cell of p
is the convex hull of its eight reciprocated centers, which all lie on the
hyperplane (p, x) = tau^2/(2 sqrt2): three kites and six triangles.

W(D4):C3 moves the seed vertex onto all 96 snub vertices, so the 96 dual
cells are congruent: dual_complex certifies one hull, at the seed, and
moves it by one group element per snub vertex.  Each image cell is checked
exactly, in one batch: its vertices are dual vertices on the image
vertex's hyperplane, and they are the reciprocated centers of the census
cells there.  Its faces are the seed's, relabelled, and reversed by the
starred elements, which reverse orientation.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np

from . import coxeter, engine, hull, polytope
from .coxeter import Transform
from .errors import BadParameter, CertificationFailed, CoplanarityFailed
from .field import HALF, SQRT2, TAU
from .groups import binary_tetrahedral, icosian_seed, t_prime
from .quaternion import E1, Q_ONE, Quaternion, canonical_sorted

LEVEL = TAU * TAU * SQRT2 * HALF * HALF
"""Radius-squared of the reciprocation sphere: tau^2 / (2 sqrt2)."""

TAU_OVER_SQRT2 = TAU * SQRT2 * HALF


@lru_cache(maxsize=None)
def dual_vertices() -> tuple[Quaternion, ...]:
    """All 144 dual vertices: T', S', and the scaled 24-cell."""
    pts = list(t_prime().elements)
    pts += list(polytope.build_120cell().s_prime)
    pts += [t.scale(TAU_OVER_SQRT2) for t in binary_tetrahedral()]
    out = canonical_sorted(pts)
    if len(out) != 144:
        raise CertificationFailed("dual vertex classes overlap")
    return out


@lru_cache(maxsize=None)
def _vertex_index() -> dict[Quaternion, int]:
    """The one numbering of the dual vertices: where each sits in dual_vertices()."""
    return {q: i for i, q in enumerate(dual_vertices())}


class DualCell:
    """One dual cell: eight vertices in a fixed order, three kites, six triangles.

    ``vertices[0:3]`` are the scaled icosahedron centers, ``vertices[3]`` the
    tetrahedron center on T', ``vertices[4:8]`` the remaining four on S'.
    Faces are index tuples into ``vertices`` in convex cycle order.
    """

    def __init__(self, vertex, vertices, coords, kites, triangles):
        self.vertex = vertex
        self.vertices = tuple(vertices)
        self.coords = tuple(coords)
        self.kites = tuple(kites)
        self.triangles = tuple(triangles)

    @property
    def faces(self):
        return self.kites + self.triangles

    def __repr__(self) -> str:
        return f"<dual cell at {self.vertex}>"


@lru_cache(maxsize=None)
def dual_cell(p: Quaternion) -> DualCell:
    """The dual cell of a snub vertex, certified in its own hyperplane."""
    census = polytope.snub_census()
    if p not in census:
        raise BadParameter("vertex must lie on the snub 24-cell")
    at_p = census.cells_at(p)
    tets = [c.normal for c in at_p if c.kind == "tetrahedron"]
    icosa = [c.normal for c in at_p if c.kind == "icosahedron"]
    if len(tets) != 5 or len(icosa) != 3:
        raise CertificationFailed("snub vertex is not surrounded by 5+3 cells")
    tp = t_prime()
    central = [c for c in tets if c in tp]
    if len(central) != 1:
        raise CertificationFailed("expected exactly one tetrahedron center on T'")
    others = canonical_sorted(c for c in tets if c not in tp)
    scaled = [t.scale(TAU_OVER_SQRT2) for t in canonical_sorted(icosa)]
    vertices = tuple(scaled) + (central[0],) + tuple(others)
    for v in vertices:
        if p.dot(v) != LEVEL:
            raise CoplanarityFailed("reciprocated center misses the cell hyperplane")
    coords = polytope.frame_coords(p, vertices)
    faces = hull.convex_hull_faces(coords)
    kites = tuple(f for f in faces if len(f) == 4)
    triangles = tuple(f for f in faces if len(f) == 3)
    if len(kites) != 3 or len(triangles) != 6:
        raise CertificationFailed("dual cell is not three kites and six triangles")
    return DualCell(p, vertices, coords, kites, triangles)


class DualComplex:
    """The 96 dual cells glued along shared faces, on vertices numbered by index."""

    def __init__(self, index, edges, faces, cells, face_incidence):
        self.vertices = tuple(index)
        self.edges = tuple(edges)
        self.faces = tuple(faces)
        self.cells = tuple(cells)
        self.face_incidence = face_incidence
        self._index = index

    def index(self, q: Quaternion) -> int:
        return self._index[q]

    def counts(self) -> tuple[int, int, int, int]:
        return (len(self.vertices), len(self.edges), len(self.faces), len(self.cells))

    def euler(self) -> int:
        v, e, f, c = self.counts()
        return v - e + f - c

    def face_census(self) -> dict[int, int]:
        return hull.face_census(self.faces)

    def cell_geometry(self, index: int):
        """3D coordinates and faces of one cell in its own frame, moved from the seed's hull."""
        cell = self.cells[index]
        return cell.coords, cell.faces

    def vertex_cell_counts(self) -> Counter:
        out: Counter = Counter()
        for cell in self.cells:
            for q in cell.vertices:
                out[q] += 1
        return out

    def __repr__(self) -> str:
        return "<dual complex: %d vertices, %d edges, %d faces, %d cells>" % self.counts()


# Dual-vertex classes in the order of a cell's vertices: scaled 24-cell, T', S'.
_CELL_CLASSES = (0, 0, 0, 1, 2, 2, 2, 2)


def _transport(cell: DualCell, rows: np.ndarray, den: int) -> list[DualCell]:
    """The images of a dual cell under transforms given as (star | p | q) rows over den.

    All images come from one engine.act call and are checked exactly, in
    batch: each transform moves the cell's vertex p onto a snub vertex p',
    its eight vertices onto dual vertices v' with (p', v') = LEVEL, and
    those onto the reciprocated centers of the five tetrahedra and three
    icosahedra at p'.  Each image is then put in the form dual_cell gives
    it; any failed check raises CertificationFailed.
    """
    census = polytope.snub_census()
    vertices, index = dual_vertices(), _vertex_index()
    seed, sden = engine.common_rows((cell.vertex,) + cell.vertices)
    images = engine.act(rows, seed)
    iden = den * den * sden
    at = engine.locate(census.vertices, images[:, 0], iden)
    if (at < 0).any():
        raise CertificationFailed("transform moves the cell's vertex off the snub 24-cell")
    found = engine.locate(vertices, images[:, 1:], iden).reshape(len(rows), 8)
    if (found < 0).any():
        raise CertificationFailed("transform moves a cell vertex off the dual vertices")
    levels, _ = engine.distinct_values(engine.dot_rows(images[:, :1], images[:, 1:]), iden * iden)
    if set(levels) != {LEVEL}:
        raise CertificationFailed("image vertex misses its cell hyperplane")
    around = [census.incidence[k] for k in at.tolist()]
    if any(len(cells) != 8 for cells in around):
        raise CertificationFailed("snub vertex is not surrounded by 5+3 cells")
    centers = np.array([index.get(c.normal if c.kind == "tetrahedron"
                                  else c.normal.scale(TAU_OVER_SQRT2), -1)
                        for c in census.cells])
    if (centers < 0).any():
        raise CertificationFailed("a reciprocated cell center is not a dual vertex")
    if not np.array_equal(np.sort(centers[np.array(around)], axis=1), np.sort(found, axis=1)):
        raise CertificationFailed("image cell is not the reciprocated cells at its vertex")
    classes = np.full(len(vertices), 2)
    classes[centers[[c.kind == "icosahedron" for c in census.cells]]] = 0
    classes[[index[q] for q in t_prime()]] = 1
    # Within a class, dual-vertex order is canonical order: dual_vertices is sorted.
    order = np.lexsort((found, classes[found]))
    ordered = np.take_along_axis(found, order, axis=1)
    if (classes[ordered] != _CELL_CLASSES).any():
        raise CertificationFailed("image cell is not three scaled, one T' and four S' centers")
    labels = np.argsort(order, axis=1).tolist()
    vertex_sets = [[vertices[i] for i in row] for row in ordered.tolist()]
    points = [census.vertices[k] for k in at.tolist()]
    out = []
    for p, vset, label, reverse, coords in zip(
            points, vertex_sets, labels, (rows[:, 0] == 1).tolist(),
            polytope.batched_frame_coords(points, vertex_sets)):
        faces = hull.relabel(cell.faces, label, reverse)
        out.append(DualCell(p, vset, coords, tuple(f for f in faces if len(f) == 4),
                            tuple(f for f in faces if len(f) == 3)))
    return out


@lru_cache(maxsize=None)
def dual_complex() -> DualComplex:
    """The 96 dual cells: the seed's certified cell moved by W(D4):C3 onto every snub vertex.

    The element moving the seed onto a snub vertex is the first, in
    canonical order, of those that do.
    """
    seed = icosian_seed()
    group = coxeter.wd4c3()
    snub = polytope.snub24_vertices()
    reached, first = np.unique(engine.locate(snub, *group.images(seed)), return_index=True)
    if not np.array_equal(reached, np.arange(len(snub))):
        raise CertificationFailed("W(D4):C3 does not move the seed onto every snub vertex")
    index = _vertex_index()
    cells = _transport(dual_cell(seed), group.rows[first], group.den)
    faces: dict[tuple[int, ...], tuple[int, ...]] = {}
    incidence: Counter = Counter()
    for cell in cells:
        ids = [index[v] for v in cell.vertices]
        for face in cell.faces:
            cycle = tuple(ids[i] for i in face)
            key = tuple(sorted(cycle))
            faces.setdefault(key, cycle)
            incidence[key] += 1
    edges = hull.edges_of_faces(faces.values())
    return DualComplex(index, sorted(edges), sorted(faces.values()), cells, incidence)


def vertex_surroundings(v: Quaternion):
    """The vertex star of a dual vertex, layered by scalar product with it.

    Returns (dot, points) pairs, nearest layer first, covering every vertex
    of every dual cell containing v except v itself.
    """
    if v not in _vertex_index():
        raise BadParameter("not a dual vertex")
    complex_ = dual_complex()
    star = {q for cell in complex_.cells if v in cell.vertices
            for q in cell.vertices} - {v}
    layers: dict = {}
    for q in star:
        layers.setdefault(v.dot(q), []).append(q)
    return [(d, canonical_sorted(layers[d]))
            for d in sorted(layers, reverse=True)]


CELL_ROTATION = Transform(Q_ONE, E1, star=True)
"""An order-4 symmetry r -> conj(r) e1 of the snub pair, fixing (1 + e1)/sqrt2."""


def rotate_cell(p: Quaternion):
    """Image of the dual cell at p under the cell rotation, with vertex images."""
    cell = dual_cell(p)
    image_vertex = CELL_ROTATION.apply(p)
    image = dual_cell(image_vertex)
    mapped = [CELL_ROTATION.apply(v) for v in cell.vertices]
    if set(mapped) != set(image.vertices):
        raise CertificationFailed("rotation does not map the dual cell onto a dual cell")
    return image, tuple(zip(cell.vertices, mapped))


def cell_rotation_orbit(p: Quaternion) -> tuple[DualCell, ...]:
    """The four dual cells sharing one T' corner: the rotation orbit of the cell at p."""
    cells = []
    q = p
    for _ in range(4):
        cells.append(dual_cell(q))
        q = CELL_ROTATION.apply(q)
    if q != p:
        raise CertificationFailed("cell rotation is not of order four on this vertex")
    corner = cells[0].vertices[3]
    if any(cell.vertices[3] != corner for cell in cells):
        raise CertificationFailed("rotated cells do not share their T' corner")
    if len({cell.vertex for cell in cells}) != 4:
        raise CertificationFailed("rotation orbit revisits a snub vertex early")
    return tuple(cells)
