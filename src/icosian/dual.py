"""The dual snub 24-cell: the polar of the certified snub census.

Each snub cell i has a certificate (n_i, c_i) from polytope.certify_cells:
(p, n_i) = c_i on its vertices p and (p, n_i) < c_i on every other snub
vertex ("outside vertex touches the hyperplane"), with c_i > 0 ("hyperplane
does not face away from the origin").  So x_i = L n_i / c_i, L = tau^2/(2 sqrt2),
has (p, x_i) = L exactly when p lies in cell i and (p, x_i) < L otherwise:
the dual's face lattice is the census's, reversed (Ziegler, Lectures on
Polytopes, 2.3).  Its 144 vertices are the x_i, n_i on T' or S' for a
tetrahedron and (tau/sqrt2) n_i for an icosahedron; its cell at a snub vertex
p holds the x_i of the eight cells at p; its edges are the 480 snub
triangles; and its face at a snub edge (p, q) is the cycle of the cells at
the edge, consecutive when they share a triangle.  In the cell at p that face
has outward normal q's part orthogonal to p, so its cycle (a, b, c, ...) runs
counterclockwise seen from outside, in the frame (e1 p, e2 p, e3 p), when
det[p, b - a, c - a, q] > 0.

A cell's vertices are ordered by class (scaled 24-cell, T', S'), then by
dual_vertices() index; its faces are cycles of indices into them, each from
its lowest, the kites and the triangles each sorted.  The complex's face at an
edge is its cycle in the cell at the edge's lower-indexed end, on dual vertex
numbers, and its faces and edges are sorted.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np

from . import engine, hull, polytope
from .coxeter import Transform
from .errors import BadParameter, CertificationFailed
from .field import HALF, SQRT2, TAU
from .groups import QuaternionSet, binary_tetrahedral, t_prime
from .quaternion import E1, Q_ONE, Quaternion, canonical_sorted

LEVEL = TAU * TAU * SQRT2 * HALF * HALF
"""Radius-squared of the reciprocation sphere: tau^2 / (2 sqrt2)."""

TAU_OVER_SQRT2 = TAU * SQRT2 * HALF


@lru_cache(maxsize=None)
def dual_vertices() -> tuple[Quaternion, ...]:
    """All 144 dual vertices: T', S', and the scaled 24-cell, in canonical order."""
    out = QuaternionSet([*t_prime().elements, *polytope.build_120cell().s_prime,
                         *(t.scale(TAU_OVER_SQRT2) for t in binary_tetrahedral())])
    if len(out) != 144:
        raise CertificationFailed("dual vertex classes overlap")
    return out.elements


@lru_cache(maxsize=None)
def _numbering() -> tuple[dict[Quaternion, int], tuple[int, ...]]:
    """Each dual vertex's place in dual_vertices(), and that of each snub cell's center L n / c."""
    index = {q: i for i, q in enumerate(dual_vertices())}
    cells = polytope.snub_census().cells
    factor = {c: LEVEL * c.invert() for c in {cell.offset for cell in cells}}
    centers = tuple(index.get(cell.normal.scale(factor[cell.offset]), -1) for cell in cells)
    if -1 in centers:
        raise CertificationFailed("a reciprocated cell center is not a dual vertex")
    return index, centers


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
    """The dual cell of a snub vertex: its cell of dual_complex()."""
    census = polytope.snub_census()
    if p not in census:
        raise BadParameter("vertex must lie on the snub 24-cell")
    return dual_complex().cells[census.index(p)]


class DualComplex:
    """The 96 dual cells on the numbered dual vertices: cell_vertex_ids[k] numbers cells[k]'s."""

    def __init__(self, vertices, edges, faces, cells, cell_vertex_ids):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.faces = tuple(faces)
        self.cells = tuple(cells)
        self.cell_vertex_ids = tuple(cell_vertex_ids)

    @property
    def face_incidence(self) -> Counter:
        """For each face, by its sorted vertex numbers, how many cells' numbers hold all of it."""
        cells = [set(ids) for ids in self.cell_vertex_ids]
        return Counter({tuple(sorted(face)): sum(map(set(face).issubset, cells))
                        for face in self.faces})

    def counts(self) -> tuple[int, int, int, int]:
        return (len(self.vertices), len(self.edges), len(self.faces), len(self.cells))

    def euler(self) -> int:
        v, e, f, c = self.counts()
        return v - e + f - c

    def face_census(self) -> dict[int, int]:
        return hull.face_census(self.faces)

    def cell_geometry(self, index: int):
        """3D coordinates and faces of one cell in its own frame."""
        return self.cells[index].coords, self.cells[index].faces

    def vertex_cell_counts(self) -> Counter:
        return Counter(q for cell in self.cells for q in cell.vertices)

    def __repr__(self) -> str:
        return "<dual complex: %d vertices, %d edges, %d faces, %d cells>" % self.counts()


def _around(links, count: int) -> list[int]:
    """The count cells at a snub edge, cyclically from the lowest; neighbors share a triangle."""
    links = list(links)
    cycle = list(links.pop()) if links else []
    while len(cycle) < count and (step := [link for link in links if cycle[-1] in link]):
        links.remove(step[0])
        a, b = step[0]
        cycle.append(b if a == cycle[-1] else a)
    if not (count >= 3 and len(cycle) == len(set(cycle)) == count and len(links) == 1
            and set(links[0]) == {cycle[0], cycle[-1]}):
        raise CertificationFailed("cells around a snub edge do not form one cycle")
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


@lru_cache(maxsize=None)
def dual_complex() -> DualComplex:
    """The census's polar, one dual cell per snub vertex: see the module docstring.

    Dual vertices go by rank, their place in a cell's vertex order, so a cycle
    from its lowest rank is one from its lowest index in every cell.
    """
    census = polytope.snub_census()
    (index, centers), vertices = _numbering(), dual_vertices()
    classes = np.full(len(vertices), 2)
    classes[[i for i, c in zip(centers, census.cells) if c.kind == "icosahedron"]] = 0
    classes[[index[q] for q in t_prime()]] = 1
    order = np.argsort(classes, kind="stable")
    rank, ids = np.argsort(order)[list(centers)].tolist(), order.tolist()
    at = [sorted(rank[k] for k in cells) for cells in census.incidence]
    holders = [[] for _ in census.faces]
    for k, f in zip(*(column.tolist() for column in census.face_cells)):
        holders[f].append(rank[k])
    on_edge = {edge: [] for edge in census.edges}
    for (a, b, c), pair in zip(census.faces, holders):
        for edge in ((a, b), (a, c), (b, c)) if len(pair) == 2 else ():
            on_edge[edge].append(pair)
    valences = np.bincount(census.edge_cells[1], minlength=len(census.edges)).tolist()
    cycles = [_around(on_edge[edge], n) for edge, n in zip(census.edges, valences)]
    prows, pden = census.vertex_rows
    ends = prows[np.array(census.edges)]
    xrows, xden = engine.common_rows([vertices[i] for i in ids])
    spans = engine.differences(xrows, np.array([cycle[:3] for cycle in cycles]))
    normals = engine.cross_rows(ends[:, 0], spans[:, 0], spans[:, 1])
    signs = engine.signs(engine.dot_rows(normals[:, None], ends[:, 1:])[:, 0, 0]).tolist()
    oriented = [c if sign > 0 else c[:1] + c[:0:-1] for c, sign in zip(cycles, signs)]
    held = [[] for _ in census.vertices]
    for (p, q), face in zip(census.edges, oriented):
        held[p].append(face)
        held[q].append(face[::-1])
    cell_vertex_ids = [tuple(ids[r] for r in cell) for cell in at]
    coords, starts = polytope.frame_table(xrows, prows, xden * pden, at)
    cells = []
    for p, cell, vids, own, lo, hi in zip(census.vertices, at, cell_vertex_ids, held,
                                          starts, starts[1:]):
        local = hull.relabel(own, cell)
        cells.append(DualCell(p, [vertices[i] for i in vids], map(tuple, coords[lo:hi].tolist()),
                              [f for f in local if len(f) == 4],
                              [f for f in local if len(f) == 3]))
    faces = sorted(tuple(ids[r] for r in face) for face in oriented)
    edges = np.sort(order[[h for h in holders if len(h) == 2]], axis=1)
    return DualComplex(vertices, sorted(map(tuple, edges.tolist())), faces, cells, cell_vertex_ids)


def vertex_surroundings(v: Quaternion):
    """The vertex star of a dual vertex, layered by scalar product with it.

    Returns (dot, points) pairs, nearest layer first, covering every vertex but v
    of the dual cells holding v: those at the vertices of the snub cell v centers.
    """
    index, centers = _numbering()
    if v not in index:
        raise BadParameter("not a dual vertex")
    cell = polytope.snub_census().cells[centers.index(index[v])]
    star = {q for i in cell.vertex_indices for q in dual_complex().cells[i].vertices} - {v}
    layers: dict = {}
    for q in star:
        layers.setdefault(v.dot(q), []).append(q)
    return [(d, canonical_sorted(layers[d])) for d in sorted(layers, reverse=True)]


CELL_ROTATION = Transform(Q_ONE, E1, star=True)
"""An order-4 symmetry r -> conj(r) e1 of the snub pair, fixing (1 + e1)/sqrt2."""


def rotate_cell(p: Quaternion):
    """Image of the dual cell at p under the cell rotation, with vertex images."""
    cell, image = dual_cell(p), dual_cell(CELL_ROTATION.apply(p))
    mapped = [CELL_ROTATION.apply(v) for v in cell.vertices]
    if set(mapped) != set(image.vertices):
        raise CertificationFailed("rotation does not map the dual cell onto a dual cell")
    return image, tuple(zip(cell.vertices, mapped))


def cell_rotation_orbit(p: Quaternion) -> tuple[DualCell, ...]:
    """The four dual cells sharing one T' corner: the rotation orbit of the cell at p."""
    cells = [dual_cell(p)]
    while len(cells) < 4:
        cells.append(dual_cell(CELL_ROTATION.apply(cells[-1].vertex)))
    if CELL_ROTATION.apply(cells[-1].vertex) != p:
        raise CertificationFailed("cell rotation is not of order four on this vertex")
    if len({cell.vertices[3] for cell in cells}) != 1:
        raise CertificationFailed("rotated cells do not share their T' corner")
    if len({cell.vertex for cell in cells}) != 4:
        raise CertificationFailed("rotation orbit revisits a snub vertex early")
    return tuple(cells)
