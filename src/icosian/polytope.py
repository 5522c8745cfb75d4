"""The snub 24-cell and its neighbors inside the 600-cell.

Vertex sets are exact quaternions; edges come from maximal scalar products,
faces from triangles, and every cell is certified by an exact supporting
hyperplane: its vertices reach the plane, all other vertices stay strictly
below.  The normals of a whole census are one engine.cross_rows call over
each cell's first three edges, and one more over all edge triples of a
cell whose first four vertices are coplanar; the signs come from one
engine.side_signs table, the norms and offsets from one engine.dot_rows
table each, and each distinct squared norm takes one exact square root.

A census is certified up to symmetry (transport_cells): left
multiplication by a group that permutes the vertices moves a certified
cell onto its whole orbit, so certify_cells sees one cell per orbit, and
each moved certificate is the unique one of its image cell.  Every move is
checked exactly: the multiplier permutes the vertex rows, the images of a
representative are candidates, and every candidate is reached.  The five
snub embeddings are the snub census conjugated by p^i, checked the same
way.  The 120-cell appears as the coset union hosting the second snub copy.

A census keeps the orbit data that carried its certificates: each cell's
representative and mover, and the multipliers' vertex permutations.  So a
cell's hull faces in its own frame (PolytopeComplex.cell_geometry) are its
representative's, from one exact hull per orbit made on the first request,
relabelled through the permutation of its mover (hull.relabel).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import engine, hull
from .errors import (BadParameter, CertificationFailed, CoplanarityFailed,
                     DegenerateInput)
from .field import HALF, TAU, field_sqrt
from .groups import (binary_icosahedral, binary_tetrahedral, icosian_seed,
                     t_prime)
from .quaternion import E1, E2, E3, Quaternion, canonical_sorted

TAU_HALF = TAU * HALF


@lru_cache(maxsize=None)
def snub24_vertices() -> tuple[Quaternion, ...]:
    """The 96 icosians left after removing the 24-cell: S = I - T."""
    tet = set(binary_tetrahedral().elements)
    return tuple(q for q in binary_icosahedral() if q not in tet)


def edge_graph(vertices) -> tuple[tuple[int, int], ...]:
    """Pairs at the largest scalar product strictly below the common norm."""
    if len(vertices) < 2:
        raise DegenerateInput("need at least two vertices")
    table, den = engine.pairwise_dots(vertices)
    values, index = engine.distinct_values(table, den)
    norm = vertices[0].norm()
    if np.any(np.diagonal(index) != values[norm]):
        raise DegenerateInput("vertices do not share a norm")
    below = [x for x in values if x < norm]
    if not below:  # by Cauchy-Schwarz, only coincident points reach the norm
        raise DegenerateInput("vertices coincide: no scalar product below the norm")
    threshold = max(below)
    mask = np.triu(index == values[threshold], 1)
    return tuple(map(tuple, np.argwhere(mask).tolist()))


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def triangle_faces(vertices, edges) -> tuple[tuple[int, int, int], ...]:
    adj = adjacency(len(vertices), edges)
    out = []
    for i, j in edges:
        for k in adj[i] & adj[j]:
            if k > j:
                out.append((i, j, k))
    return tuple(sorted(out))


def _four_cliques(n: int, edges, triangles) -> list[tuple[int, int, int, int]]:
    adj = adjacency(n, edges)
    out = []
    # The candidates, and so every census's cell numbering (--cell K and the
    # JSON cell lists), come in triangle order, then in CPython's iteration
    # order of the set below, which is not sorted: the 600-cell lists
    # (0, 23, 27, 32) before (0, 23, 27, 29).  The recorded digests pin this
    # order, so it must not be re-sorted.
    for i, j, k in triangles:
        for m in adj[i] & adj[j] & adj[k]:
            if m > k:
                out.append((i, j, k, m))
    return out


def certify_cells(candidates, vertices):
    """Exact certificates (unit normal, offset), one side-of-hyperplane table for all.

    Each cell's vertices lie on its hyperplane, every other vertex and the
    origin strictly below.  The normal is the cross product of the cell's
    first three edges from its first vertex, or, when its first four
    vertices are coplanar, of its first edge triple whose product is nonzero.
    A failing list raises for its first failing cell, with its first failing check.
    """
    rows, den = engine.common_rows(vertices)
    # A cell of fewer than four vertices repeats its first: its cross row is zero.
    firsts = np.array([(tuple(idxs) + (idxs[0],) * 3)[:4] for idxs in candidates],
                      dtype=np.intp).reshape(-1, 4)
    normals = engine.cross_rows(*engine.differences(rows, firsts).transpose(1, 0, 2))
    for t in np.flatnonzero(~normals.any(axis=1)):  # the first four vertices are coplanar
        idxs = tuple(candidates[t])
        triples = np.array([idxs[:1] + e for e in combinations(idxs[1:], 3)], dtype=np.intp)
        edges = engine.differences(rows, triples.reshape(-1, 4)).transpose(1, 0, 2)
        normals[t] = next((row for row in engine.cross_rows(*edges) if row.any()), normals[t])
    # The last column is the origin: its sign is that of -offset.
    points = np.vstack([rows, np.zeros((1, 16), dtype=np.int64)])
    signs = engine.side_signs(normals, points, firsts[:, 0])
    norm_values, norm_at = engine.distinct_values(
        engine.dot_rows(normals[:, None], normals[:, None])[:, 0, 0], 1)
    norms = list(norm_values)
    inverse_roots, scales = {}, []
    for idxs, normal, norm, row in zip(candidates, normals, norm_at.tolist(), signs):
        # A normal is zero iff the cell has rank below 3, and misses a vertex iff rank 4.
        if not normal.any() or np.any(row[list(idxs)]):
            raise CertificationFailed("cell does not span a hyperplane")
        if norm not in inverse_roots:
            root = field_sqrt(norms[norm])
            inverse_roots[norm] = None if root is None else root.invert()
        if inverse_roots[norm] is None:
            raise CertificationFailed("normal admits no exact unit scaling")
        outside = set(np.delete(row[:-1], list(idxs)).tolist())
        if 0 in outside:
            raise CertificationFailed("outside vertex touches the hyperplane")
        if len(outside) > 1:
            raise CertificationFailed("vertices on both sides of the hyperplane")
        side = 1 if 1 in outside else -1
        if row[-1] != side:
            raise CertificationFailed("hyperplane does not face away from the origin")
        scales.append(inverse_roots[norm] if side < 0 else -inverse_roots[norm])
    # Unit normals are products with scalar quaternions, one row per distinct scale.
    distinct = {s: k for k, s in enumerate(dict.fromkeys(scales))}
    scale_rows, sden = engine.common_rows([Quaternion(s) for s in distinct])
    units = engine.products(scale_rows[[distinct[s] for s in scales]], normals)
    offset_values, offset_at = engine.distinct_values(
        engine.dot_rows(units[:, None], rows[firsts[:, :1]])[:, 0, 0], sden * den)
    offsets = list(offset_values)
    return [(normal, offsets[k])
            for normal, k in zip(engine.quats_of(units, sden), offset_at.tolist())]


def supporting_hyperplane(vertex_indices, vertices):
    """Exact certificate (unit normal, offset) of one cell: see certify_cells."""
    return certify_cells([vertex_indices], vertices)[0]


class Cell:
    def __init__(self, vertex_indices, kind, normal, offset):
        self.vertex_indices = tuple(sorted(vertex_indices))
        self.kind = kind
        self.normal = normal
        self.offset = offset

    def __repr__(self) -> str:
        return f"<{self.kind}: vertices {self.vertex_indices}>"


class PolytopeComplex:
    """A certified census, with the symmetry that carried its certificates.

    Cell k is the image of cell representative[k] under multiplier
    mover[k], and perm[m, i] is the vertex that multiplier m moves vertex i
    onto: the orbit data transport_cells certified.
    """

    def __init__(self, vertices, edges, faces, cells, representative, mover, perm):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.faces = tuple(faces)
        self.cells = tuple(cells)
        self.representative = representative
        self.mover = mover
        self.perm = perm
        self._orbit_faces = None  # the hull faces of each representative, made on first use
        self._index = {q: i for i, q in enumerate(self.vertices)}
        # incidence[i]: the indices of the cells holding vertex i, in cell order.
        at = [[] for _ in self.vertices]
        for k, cell in enumerate(self.cells):
            for i in cell.vertex_indices:
                at[i].append(k)
        self.incidence = tuple(map(tuple, at))

    def index(self, q: Quaternion) -> int:
        return self._index[q]

    def __contains__(self, q) -> bool:
        return q in self._index

    def counts(self) -> tuple[int, int, int, int]:
        return (len(self.vertices), len(self.edges), len(self.faces), len(self.cells))

    def euler(self) -> int:
        v, e, f, c = self.counts()
        return v - e + f - c

    def cells_at(self, q: Quaternion) -> list[Cell]:
        return [self.cells[k] for k in self.incidence[self.index(q)]]

    def _cells_holding(self, vertex_indices) -> int:
        """How many cells hold every one of the vertices: their cell lists' intersection."""
        first, *rest = vertex_indices
        return len(set(self.incidence[first]).intersection(*(self.incidence[i] for i in rest)))

    def face_cell_incidence(self) -> Counter:
        """The number of cells holding each face that some cell holds."""
        counts = ((face, self._cells_holding(face)) for face in self.faces)
        return Counter({face: n for face, n in counts if n})

    def edge_cell_valences(self) -> Counter:
        """How many edges lie in each number of cells, over the edges that some cell holds."""
        return Counter(n for n in map(self._cells_holding, self.edges) if n)

    def _cell_coords(self, index: int) -> list[tuple]:
        cell = self.cells[index]
        return frame_coords(cell.normal, [self.vertices[i] for i in cell.vertex_indices])

    def cell_geometry(self, index: int):
        """3D coordinates and hull faces of one cell in its own frame.

        The first call makes one exact hull per orbit, at its
        representative.  A cell's faces are its representative's, relabelled
        through the certified vertex permutation of its mover: see
        hull.relabel for why they keep their order.
        """
        if self._orbit_faces is None:
            self._orbit_faces = {r: hull.convex_hull_faces(self._cell_coords(r))
                                 for r in dict.fromkeys(self.representative.tolist())}
        r = int(self.representative[index])
        moved = self.perm[self.mover[index], list(self.cells[r].vertex_indices)]
        label = np.searchsorted(self.cells[index].vertex_indices, moved).tolist()
        return self._cell_coords(index), hull.relabel(self._orbit_faces[r], label)

    def __repr__(self) -> str:
        return "<complex: %d vertices, %d edges, %d faces, %d cells>" % self.counts()


def _nearest(centers, vertices):
    """For each center, the vertices at the largest exact scalar product with it."""
    table, den = engine.pairwise_dots(centers, vertices)
    values, index = engine.distinct_values(table, den)
    # The exact rank of each entry among the distinct values, smallest first.
    rank = np.argsort([values[x] for x in sorted(values)])[index]
    return [tuple(np.flatnonzero(row == row.max()).tolist()) for row in rank]


_MOVE_BLOCK = 2048  # vertex images per lookup, bounding the product table


def transport_cells(candidates, vertices, rows: np.ndarray, den: int):
    """certify_cells of the candidates, certifying one cell per orbit of the multipliers.

    The multipliers, given as quaternion rows over den, act on the left:
    r -> h r.  engine.products moves every vertex by every multiplier, a
    block of images at a time, and one RowIndex finds each image among the
    vertices; each must be one.  h then permutes the vertices, so it is a
    unit and a rotation about the origin, and it moves a cell's certificate
    (n, c) to (h n, c), the unique certificate of the image cell.  When the
    multipliers form a group, every orbit of cells holds a cell at the least
    vertex of some vertex orbit.  So, in candidate order, each such
    candidate that no image has reached yet is a representative: certify_cells
    certifies the representatives in one call, and each representative's
    images under all the multipliers must be candidates.  A candidate that
    no image reaches raises, as does any other failed check.

    Returns the certificates, in candidate order, with the orbit data that
    carried them: for each candidate, the candidate index of its
    representative and the multiplier row moving that onto it, and the
    table perm[m, i] of the vertex that multiplier m moves vertex i onto.
    """
    vrows, vden = engine.common_rows(vertices)
    at_vertex = engine.RowIndex(engine.rescaled(vrows, vden, den * vden))
    step = max(1, _MOVE_BLOCK // len(vertices))
    perm = np.vstack([at_vertex.find(engine.products(rows[lo:lo + step, None], vrows[None])
                                     .reshape(-1, 16)).reshape(-1, len(vertices))
                      for lo in range(0, len(rows), step)])
    if (perm < 0).any():
        raise CertificationFailed("multiplier moves a vertex off the vertex set")
    # Cells as sorted vertex-index rows, padded with -1 to one width.
    width = max(map(len, candidates), default=0)
    table = np.array([sorted(idxs) + [-1] * (width - len(idxs)) for idxs in candidates],
                     dtype=np.intp).reshape(len(candidates), width)
    at_cell = engine.RowIndex(table)
    # Whether each vertex is the least of its orbit; the last entry answers for the pad -1.
    least = np.append(perm.min(axis=0) == np.arange(len(vertices)), False)
    source = np.full(len(candidates), -1)  # the representative each candidate is an image of
    mover = np.zeros(len(candidates), dtype=np.intp)  # and the multiplier moving it there
    representatives = []
    for k in np.flatnonzero(least[table].any(axis=1)).tolist():
        if source[k] >= 0:
            continue
        idxs = candidates[k]
        images = np.full((len(rows), width), -1, dtype=np.intp)
        images[:, :len(idxs)] = np.sort(perm[:, list(idxs)], axis=1)
        images = at_cell.find(images)
        if (images < 0).any():
            raise CertificationFailed("multiplier moves a certified cell off the candidates")
        fresh = np.flatnonzero(source[images] < 0)
        source[images[fresh]], mover[images[fresh]] = len(representatives), fresh
        representatives.append(k)
    if (source < 0).any():
        raise CertificationFailed("no certified cell moves onto a candidate")
    certificates = certify_cells([candidates[k] for k in representatives], vertices)
    nrows, nden = engine.common_rows([normal for normal, _ in certificates])
    moved = engine.quats_of(engine.products(rows[mover], nrows[source]), den * nden)
    return ([(normal, certificates[k][1]) for normal, k in zip(moved, source.tolist())],
            np.array(representatives, dtype=np.intp)[source], mover, perm)


def _census_input(vertices):
    """The canonical vertices, edges, faces, candidate cells and symmetry coset of a set.

    Candidates are (vertex indices, kind) pairs.  The coset is the set
    itself when it is a group, T or I, and otherwise its 24-point complement
    in I: a conjugate of T, or a coset of one.
    """
    vertices = canonical_sorted(vertices)
    vset = set(vertices)
    icos = binary_icosahedral().elements
    tet = set(binary_tetrahedral().elements)
    edges = edge_graph(vertices)
    faces = triangle_faces(vertices, edges)
    candidates: list[tuple[tuple[int, ...], str]] = []
    coset = vertices
    if vset == tet:
        candidates += [(c, "octahedron") for c in _nearest(t_prime(), vertices)]
    elif vset.issubset(icos):
        complement = tuple(q for q in icos if q not in vset)
        if complement and len(complement) != 24:
            raise BadParameter("vertex set is not a snub complement inside the 600-cell")
        candidates += [(c, "tetrahedron")
                       for c in _four_cliques(len(vertices), edges, faces)]
        if complement:
            candidates += [(c, "icosahedron")
                           for c in _nearest(complement, vertices)]
            coset = complement
    else:
        raise BadParameter("unsupported vertex set")
    return vertices, edges, faces, candidates, coset


def cell_census(vertices) -> PolytopeComplex:
    """Certified cells of the snub 24-cell, the 600-cell, or the 24-cell.

    The cells are certified up to symmetry by transport_cells.  The
    multipliers are c conj(c0) for c in the set's coset (see _census_input),
    c0 its first point: the coset itself when it is a group, and for a
    coset G g of a group G, the group G, whose left multiplication keeps
    G g, and so the vertex set, in place.
    """
    vertices, edges, faces, candidates, coset = _census_input(vertices)
    rows, den = engine.common_rows(coset)
    multipliers = engine.products(rows, engine.conjugates(rows[:1]))
    certificates, *orbits = transport_cells([idxs for idxs, _ in candidates], vertices,
                                            multipliers, den * den)
    cells = [Cell(idxs, kind, normal, offset)
             for (idxs, kind), (normal, offset) in zip(candidates, certificates)]
    return PolytopeComplex(vertices, edges, faces, cells, *orbits)


@lru_cache(maxsize=None)
def snub_census() -> PolytopeComplex:
    return cell_census(snub24_vertices())


def icosa_cell(t: Quaternion) -> Cell:
    """The icosahedral cell of the snub around a removed 24-cell vertex t."""
    if t not in binary_tetrahedral():
        raise BadParameter("center must lie in the removed 24-cell")
    complex_ = snub_census()
    for cell in complex_.cells:
        if cell.kind == "icosahedron" and cell.normal == t:
            return cell
    raise CertificationFailed("no icosahedral cell at this center")


def tetra_cells_at(p: Quaternion):
    """The five tetrahedra holding a snub vertex, with their unit centers."""
    complex_ = snub_census()
    if p not in complex_:
        raise BadParameter("vertex must lie on the snub 24-cell")
    tets = [c for c in complex_.cells_at(p) if c.kind == "tetrahedron"]
    if len(tets) != 5:
        raise CertificationFailed(f"expected 5 tetrahedra, found {len(tets)}")
    return tets, [c.normal for c in tets]


_FRAME_UNITS = engine.common_rows([E1, E2, E3])[0]  # over 1


def batched_frame_coords(bases, point_sets) -> list[list[tuple]]:
    """frame_coords of each point set against its basis vector, from one dot table.

    The point sets must be equally long.  The frames of all bases are one
    engine.products call, their scalar products with the points one
    block-diagonal engine.dot_rows table, and each distinct coordinate is
    lifted to a field element once.
    """
    brows, bden = engine.common_rows(bases)
    prows, pden = engine.common_rows([x for points in point_sets for x in points])
    frames = engine.products(_FRAME_UNITS[None], brows[:, None])
    table = engine.dot_rows(frames, prows.reshape(len(brows), -1, 16))
    values, index = engine.distinct_values(table, bden * pden)
    lifted = list(values)
    return [[tuple(lifted[k] for k in point) for point in axes.T.tolist()]
            for axes in index]


def frame_coords(basis_vector: Quaternion, points) -> list[tuple]:
    """Coordinates of each point against the frame (e1 u, e2 u, e3 u) of a unit u."""
    return batched_frame_coords([basis_vector], [points])[0]


class VertexFigure:
    def __init__(self, vertex, neighbors, coords, faces):
        self.vertex = vertex
        self.neighbors = tuple(neighbors)
        self.coords = tuple(coords)
        self.faces = tuple(faces)

    def face_census(self) -> dict[int, int]:
        return hull.face_census(self.faces)


@lru_cache(maxsize=None)
def vertex_figure(p: Quaternion) -> VertexFigure:
    """The nine snub neighbors of p in the frame (e1 p, e2 p, e3 p)."""
    complex_ = snub_census()
    if p not in complex_:
        raise BadParameter("vertex must lie on the snub 24-cell")
    i = complex_.index(p)
    nbrs = sorted(j for e in complex_.edges for j, k in ((e[1], e[0]), (e[0], e[1]))
                  if k == i)
    neighbors = [complex_.vertices[j] for j in nbrs]
    for q in neighbors:
        if q.dot(p) != TAU_HALF:
            raise CoplanarityFailed("neighbor misses the vertex-figure hyperplane")
    coords = frame_coords(p, neighbors)
    faces = hull.convex_hull_faces(coords)
    return VertexFigure(p, neighbors, coords, faces)


class Cell120:
    def __init__(self, vertices, tp, sp, m, n):
        self.vertices = vertices
        self.t_prime = tp
        self.s_prime = sp
        self.m = m
        self.n = n


@lru_cache(maxsize=None)
def build_120cell() -> Cell120:
    """600 vertices as 25 cosets p^i conj(p+)^j T', partitioned by (i, j) pattern.

    T' is i = j = 0, S' the rest of i = j, M the rest of i = 0 or j = 0,
    and N every other coset.  The cosets are one engine.products table, and
    each part is put in canonical order by one engine.distinct_rows.
    """
    p = icosian_seed()
    pd_bar = p.galois().conjugate()
    i, j = np.divmod(np.arange(25), 5)
    prefixes, pden = engine.common_rows([(p ** a) * (pd_bar ** b)
                                         for a, b in zip(i.tolist(), j.tolist())])
    rows, den = engine.common_rows(t_prime().elements)
    table = engine.products(prefixes[:, None], rows[None, :]).reshape(-1, 16)
    part = np.repeat(np.where(i == j, np.minimum(i, 1), np.where(i * j == 0, 2, 3)), len(rows))
    vertices = engine.distinct_rows(table)
    if len(vertices) != 600:
        raise CertificationFailed("coset union failed to produce 600 distinct vertices")
    return Cell120(engine.quats_of(vertices, pden * den),
                   *(engine.quats_of(engine.distinct_rows(table[part == k]), pden * den)
                     for k in range(4)))


@lru_cache(maxsize=None)
def _conjugations() -> tuple[np.ndarray, int]:
    """The five rotations r -> p^i r conj(p)^i, as (star | p | q) rows over one denominator."""
    p = icosian_seed()
    powers, den = engine.common_rows([p ** i for i in range(5)])
    return np.hstack([np.zeros((5, 1), dtype=np.int64), powers,
                      engine.conjugates(powers)]), den


@lru_cache(maxsize=None)
def snub_embeddings_in_600cell() -> tuple[tuple[Quaternion, ...], ...]:
    """Five snub copies I - p^i T p^-i, one per conjugate 24-cell.

    The five conjugate 24-cells are one engine.act of the conjugations on
    T's rows, and each is looked up among the rows of I.
    """
    rows, cden = _conjugations()
    trows, tden = engine.common_rows(binary_tetrahedral().elements)
    icos = binary_icosahedral().elements
    removed = engine.locate(icos, engine.act(rows, trows), tden * cden * cden)
    out = []
    for found in removed.reshape(len(rows), len(trows)):
        if (found < 0).any():
            raise CertificationFailed("conjugate 24-cell leaves the 600-cell")
        if len(set(found.tolist())) != len(trows):
            raise CertificationFailed("conjugate 24-cell collapsed")
        kept = np.ones(len(icos), dtype=bool)
        kept[found] = False
        out.append(tuple(icos[i] for i in np.flatnonzero(kept).tolist()))
    return tuple(out)


@lru_cache(maxsize=None)
def embedding_censuses() -> tuple[PolytopeComplex, ...]:
    """The census of each snub embedding: the snub census moved by r -> p^i r p^-i.

    Census 0 is snub_census().  One engine.act call moves the snub's
    vertices and cell normals by the other four conjugations.  The image
    vertices must be exactly embedding i: the conjugation is then a
    rotation about the origin, so it moves each certificate (n, c) to
    (p^i n p^-i, c), and the embedding's canonical order relabels the edges,
    faces and cells.  Cell k of census i is the image of the snub's cell k:
    the cells come in the snub's order, not in cell_census's.  So the cells
    keep the snub's representatives and movers, and the conjugated
    multipliers permute the relabelled vertices.
    """
    snub = snub_census()
    rows, cden = _conjugations()
    points, den = engine.common_rows(snub.vertices + tuple(c.normal for c in snub.cells))
    n, mden = len(snub.vertices), den * cden * cden
    edges, faces = np.array(snub.edges), np.array(snub.faces)
    out = [snub]
    for embedding, images in zip(snub_embeddings_in_600cell()[1:], engine.act(rows[1:], points)):
        label = engine.locate(embedding, images[:n], mden)
        if not np.array_equal(np.sort(label), np.arange(len(embedding))):
            raise CertificationFailed("conjugation does not move the snub onto its embedding")
        at = label.tolist()
        cells = [Cell([at[i] for i in c.vertex_indices], c.kind, normal, c.offset)
                 for c, normal in zip(snub.cells, engine.quats_of(images[n:], mden))]
        perm = np.empty_like(snub.perm)
        perm[:, label] = label[snub.perm]
        out.append(PolytopeComplex(
            embedding, sorted(map(tuple, np.sort(label[edges], axis=1).tolist())),
            sorted(map(tuple, np.sort(label[faces], axis=1).tolist())), cells,
            snub.representative, snub.mover, perm))
    return tuple(out)


def projective_equal(a: Quaternion, b: Quaternion) -> bool:
    """True when a = lambda * b for a positive field scalar lambda."""
    for c in range(4):
        if not b.component(c).is_zero():
            lam = a.component(c) * b.component(c).invert()
            return lam.sign() > 0 and a == b.scale(lam)
    return a == b
