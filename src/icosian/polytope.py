"""The snub 24-cell and its neighbors inside the 600-cell.

Vertex sets are exact quaternions; edges come from maximal scalar products,
faces from triangles, and every cell is certified by an exact supporting
hyperplane: its vertices reach the plane, all other vertices stay strictly
below.  The normals of a whole census are one engine.cross_rows call over
each cell's first three edges, and one more over all edge triples of a
cell whose first four vertices are coplanar; the signs come from one
engine.side_signs table, the norms and offsets from one engine.dot_rows
table each, and each distinct squared norm takes one exact square root.

The 600-cell census is certified up to symmetry (transport_cells): left
multiplication by 2I moves a certified cell onto its whole orbit, so
certify_cells sees one cell per orbit.  The 24-cell's octahedra are
certified off the T' x T dot table that finds them, one at each point of
T' (_octahedra), with no group action.  The snub 24-cell, and each of its
five embeddings, is the one 600-cell census diminished at an inscribed
24-cell (_diminished), every certificate inherited.  Each census keeps its
vertex and normal rows, and the snub's are the 600-cell's.  The 120-cell is
the coset union hosting the second snub copy, kept as rows.

Every 2-face of a census cell is one of the census's own triangles, so a
cell's faces in its own frame (PolytopeComplex.cell_geometry) are read off
the census, not off a hull, and their orientation is carried, not
recomputed.  The 600-cell and 24-cell censuses sign only the triangles of
their cells at 1, in one batch of exact signs (_signed_cycles), and the
group's Cayley table moves those cycles onto every other cell: a left
multiplication is a rotation (_carried_cycles).  The snub and its
embeddings relabel the 600-cell's cycles (_inherited_cycles).  In the frame
(e1 n, e2 n, e3 n) of its normal n, a vertex v is the vector part of v conj(n):
one engine.products table (frame_table) frames all cells, one per complex, on first use.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import chain, combinations, compress
from math import lcm

import numpy as np

from . import engine, hull
from .coxeter import inscribed_24cells
from .errors import (BadParameter, CertificationFailed, CoplanarityFailed,
                     DegenerateInput)
from .field import HALF, TAU, field_sqrt
from .groups import (QuaternionSet, binary_icosahedral, binary_tetrahedral, icosian_seed,
                     rows_of, t_prime)
from .quaternion import Q_ONE, Quaternion

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
    return _edge_graph(*engine.common_rows(vertices))


def _edge_graph(rows: np.ndarray, den: int) -> tuple[tuple[int, int], ...]:
    """edge_graph of the points given as int64 rows over den."""
    values, index = engine.distinct_values(engine.dot_rows(rows, rows), den * den)
    if np.any(np.diagonal(index) != index[0, 0]):
        raise DegenerateInput("vertices do not share a norm")
    norm = list(values)[index[0, 0]]
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
    The vertices are quaternions, or a point set whose kept rows are read (rows_of).
    """
    rows, den = rows_of(vertices)
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
    """A certified census: its vertices, edges, triangles and cells.

    orient(complex_), given by the census that makes the complex, orients
    its cells' faces on the first cell request (_cycles).  rows and
    normal_rows, each int64 rows and their denominator, are the vertices and
    the cell normals as the census made them; either is made from the
    quaternions on first use when not given.
    """

    def __init__(self, vertices, edges, faces, cells, orient=None, rows=None, normal_rows=None):
        if rows is not None:
            self.vertex_rows = rows
        if normal_rows is not None:
            self.normal_rows = normal_rows
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.faces = tuple(faces)
        self.cells = tuple(cells)
        self._index = {q: i for i, q in enumerate(self.vertices)}
        # incidence[i]: the indices of the cells holding vertex i, in cell order.
        at = [[] for _ in self.vertices]
        for k, cell in enumerate(self.cells):
            for i in cell.vertex_indices:
                at[i].append(k)
        self.incidence = tuple(map(tuple, at))
        self._orient = orient

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

    def _held(self, items, width: int) -> tuple[np.ndarray, np.ndarray]:
        """(cell, item) index pairs, one for each item (a sorted vertex-index tuple
        of the width) that a cell holds, a cell size at a time and in cell order
        within one: one engine.RowIndex lookup of the cells' vertex subsets of
        that width per cell size."""
        index = engine.RowIndex(_flat(items).reshape(-1, width))
        ks = np.arange(len(self.cells))
        sizes = np.array([len(cell.vertex_indices) for cell in self.cells])
        pairs = []
        for size in sorted(set(sizes.tolist())):
            group = ks[sizes == size]
            subsets = _flat(self.cells[k].vertex_indices for k in group.tolist()).reshape(-1, size)
            combos = list(combinations(range(size), width))
            at = index.find(subsets[:, combos].reshape(-1, width))
            hit = np.flatnonzero(at >= 0)
            pairs.append((group[hit // len(combos)], at[hit]))
        return tuple(map(np.concatenate, zip(*pairs)))

    @cached_property
    def _cell_rows(self) -> np.ndarray:
        """The cells' vertex indices, a row per cell, for a complex of one cell size."""
        return _flat(cell.vertex_indices for cell in self.cells).reshape(len(self.cells), -1)

    @cached_property
    def _cell_index(self) -> engine.RowIndex:
        """Which cell has a given row of vertex indices (_cell_rows)."""
        return engine.RowIndex(self._cell_rows)

    @cached_property
    def face_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(cell, face) index pairs, one for each face a cell holds: the face-cell table."""
        return self._held(self.faces, 3)

    @cached_property
    def edge_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(cell, edge) index pairs, one for each edge a cell holds."""
        return self._held(self.edges, 2)

    def face_cell_incidence(self) -> Counter:
        """The number of cells holding each face that some cell holds."""
        counts = np.bincount(self.face_cells[1], minlength=len(self.faces)).tolist()
        return Counter({face: n for face, n in zip(self.faces, counts) if n})

    def edge_cell_valences(self) -> Counter:
        """How many edges lie in each number of cells, over the edges that some cell holds."""
        return Counter(n for n in np.bincount(self.edge_cells[1]).tolist() if n)

    @cached_property
    def vertex_rows(self) -> tuple[np.ndarray, int]:
        """The vertices as int64 rows over one denominator."""
        return engine.common_rows(self.vertices)

    @cached_property
    def normal_rows(self) -> tuple[np.ndarray, int]:
        """The cell normals as int64 rows over one denominator."""
        return engine.common_rows([cell.normal for cell in self.cells])

    @cached_property
    def _frames(self) -> tuple[np.ndarray, np.ndarray]:
        """Every cell's frame coordinates, one frame_table of the vertices and the cell normals."""
        (rows, den), (normals, nden) = self.vertex_rows, self.normal_rows
        return frame_table(rows, normals, den * nden, [cell.vertex_indices for cell in self.cells])

    @cached_property
    def _cycles(self) -> tuple[np.ndarray, np.ndarray]:
        """(cycles, starts): cycles[starts[k]:starts[k + 1]] are the triangles cell k
        holds, each as a cycle of vertex indices that runs counterclockwise seen
        from outside the cell, in its own frame, as the complex's orient gives them."""
        if self._orient is None:
            raise DegenerateInput("complex has no face orientation")
        return self._orient(self)

    def cell_geometry(self, index: int):
        """3D coordinates of one cell in its own frame (e1 n, e2 n, e3 n), the vector
        parts of v conj(n) for its vertices v, and its faces, the census triangles it
        holds, as hull faces: both sliced out of tables made once per complex, on first use."""
        coords, starts = self._frames
        cycles, at = self._cycles
        return (list(map(tuple, coords[starts[index]:starts[index + 1]].tolist())),
                hull.relabel(cycles[at[index]:at[index + 1]].tolist(),
                             self.cells[index].vertex_indices))

    def __repr__(self) -> str:
        return "<complex: %d vertices, %d edges, %d faces, %d cells>" % self.counts()


def _nearest(centers: np.ndarray, cden: int, rows: np.ndarray, den: int):
    """(cells, rank, levels) of one dot table of the center rows over cden against
    the vertex rows over den: levels are its distinct entries in increasing exact
    order, rank[k, i] is the place of (center k, vertex i) among them, and cells[k]
    lists the vertices at the largest entry of row k."""
    values, index = engine.distinct_values(engine.dot_rows(centers, rows), cden * den)
    levels = sorted(values)
    rank = np.argsort([values[x] for x in levels])[index]
    k, i = np.nonzero(rank == rank.max(axis=1)[:, None])
    ends, at = np.cumsum(np.bincount(k, minlength=len(rank))).tolist(), i.tolist()
    return [tuple(at[a:b]) for a, b in zip([0] + ends, ends)], rank, levels


def _octahedra(tet, edges) -> list[Cell]:
    """The 24-cell's cells: at each point t of T' (groups.t_prime), in order, the
    octahedron of the vertices nearest t, certified off the T' x T dot table
    that finds them (_nearest), with no group action.

    Its certificate is (t, c) for c the largest (t, v) over the vertices v:
    the cell is exactly the vertices at c, so every other vertex lies strictly
    below; c > 0 and (t, t) = 1.  The cell's least vertex a and three of its
    neighbours span a hyperplane, one engine.cross_rows row per cell: in an
    octahedron, a's neighbours are a square, which a lies off.
    """
    tp = t_prime()
    cells, rank, levels = _nearest(tp.rows, tp.den, tet.rows, tet.den)
    held = np.zeros(rank.shape, dtype=bool)
    held[np.repeat(np.arange(len(cells)), [len(c) for c in cells]), _flat(cells)] = True
    top = rank[np.arange(len(cells)), [c[0] for c in cells]]
    if (rank.max(axis=1) != top).any() or (held != (rank == top[:, None])).any():
        raise CertificationFailed("cell vertices are not exactly those nearest its center")
    norms = engine.dot_rows(tp.rows[:, None], tp.rows[:, None])[:, 0, 0]
    if (norms != (tp.den ** 2, 0, 0, 0)).any():
        raise CertificationFailed("cell normal is not a unit")
    if any(levels[m].sign() <= 0 for m in set(top.tolist())):
        raise CertificationFailed("hyperplane does not face away from the origin")
    adj = adjacency(len(tet), edges)
    firsts = [(idxs[0], *[j for j in idxs[1:] if j in adj[idxs[0]]][:3]) for idxs in cells]
    if any(len(f) < 4 for f in firsts) or not engine.cross_rows(*engine.differences(
            tet.rows, np.array(firsts, dtype=np.intp)).transpose(1, 0, 2)).any(axis=1).all():
        raise CertificationFailed("cell does not span a hyperplane")
    return [Cell(idxs, "octahedron", t, levels[m])
            for idxs, t, m in zip(cells, tp.elements, top.tolist())]


def transport_cells(candidates, group):
    """certify_cells of the candidates on the group's elements, certifying one
    cell per orbit of the group acting on the left: r -> h r.

    group.cayley_table says where every h moves every element; it is None when
    some product is no element.  h then permutes the elements, so it is a unit
    and a rotation about the origin, and it moves a cell's certificate (n, c)
    to (h n, c), the unique certificate of the image cell.  The group moves
    every element onto the first, so every orbit of cells holds a cell at
    vertex 0.  In candidate order, each such candidate that no image has
    reached yet is a representative: certify_cells certifies the
    representatives in one call, and each representative's images under the
    whole group must be candidates.  A candidate that no image reaches
    raises, as does any other failed check.  Returns the certificates, in
    candidate order, and their normals as int64 rows and their denominator.
    """
    perm = group.cayley_table
    if perm is None:
        raise CertificationFailed("multiplier moves a vertex off the vertex set")
    rows, den = group.rows, group.den
    # Cells as sorted vertex-index rows, padded with -1 to one width.
    width = max(map(len, candidates), default=0)
    table = np.array([sorted(idxs) + [-1] * (width - len(idxs)) for idxs in candidates],
                     dtype=np.intp).reshape(len(candidates), width)
    at_cell = engine.RowIndex(table)
    source = np.full(len(candidates), -1)  # the representative each candidate is an image of
    mover = np.zeros(len(candidates), dtype=np.intp)  # and the multiplier moving it there
    representatives = []
    for k in np.flatnonzero((table == 0).any(axis=1)).tolist():
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
    certificates = certify_cells([candidates[k] for k in representatives], group)
    nrows, nden = engine.common_rows([normal for normal, _ in certificates])
    moved = engine.products(rows[mover], nrows[source])
    return ([(normal, certificates[k][1])
             for normal, k in zip(engine.quats_of(moved, den * nden), source.tolist())],
            (moved, den * nden))


def _signed_cycles(complex_, ks) -> np.ndarray:
    """The triangles the cells ks hold, cell by cell in the order of ks and each
    cell's in the order of its vertex triples, as cycles signed in one batch:
    one engine.cross_rows over the triangles, and one engine.dot_rows against
    their cells' normals.

    In the basis (n, e1 n, e2 n, e3 n), right multiplication by the unit
    normal n applied to (1, e1, e2, e3), a cell vertex is (c, x) for its
    frame coordinates x, so det[a, b, c, n] = -det[x_a, x_b, x_c].  The
    cell holds the frame's origin, its circumcentre, so face a < b < c
    runs (a, b, c) seen from outside when det[a, b, c, n] < 0, else (a, c, b).
    """
    triangles = set(complex_.faces)
    cells, faces = zip(*[(k, t) for k in ks.tolist()
                         for t in combinations(complex_.cells[k].vertex_indices, 3)
                         if t in triangles])
    faces, normals = np.array(faces, dtype=np.intp), complex_.normal_rows[0][list(cells)]
    cross = engine.cross_rows(*complex_.vertex_rows[0][faces].transpose(1, 0, 2))
    signs = engine.signs(engine.dot_rows(cross[:, None], normals[:, None]))[:, 0, 0]
    return np.where(signs[:, None] < 0, faces, faces[:, [0, 2, 1]])


def _carried_cycles(group, complex_) -> tuple[np.ndarray, np.ndarray]:
    """The orient of a group's census (_cycles): only the cells at 1 are signed
    (_signed_cycles), and the group carries their cycles to every other cell.

    The vertices are the group's elements, and the cells are closed under
    left multiplication (transport_cells).  A cell C with first vertex v is
    v (v^-1 C), and v^-1 C holds 1.  Left multiplication by the unit v is a
    rotation, of determinant +1, and moves the normal n of v^-1 C to v n,
    the normal of C: so det[v a, v b, v c, v n] = det[a, b, c, n], and each
    cycle of v^-1 C, moved by v, runs as C's own.  group.cayley_table L moves
    them: the cycle (a, b, c) of v^-1 C is (L[v, a], L[v, b], L[v, c]) on C.
    """
    table, one = group.cayley_table, group.index(Q_ONE)
    cells = complex_._cell_rows
    at_one = np.array(complex_.incidence[one], dtype=np.intp)
    # One kind of cell: the cycles of each cell at 1 are one block of its face count.
    signed = _signed_cycles(complex_, at_one).reshape(len(at_one), -1, 3)
    first = cells[:, 0]
    inverse = (table == one).argmax(axis=1)
    home = engine.RowIndex(cells[at_one]).find(np.sort(table[inverse[first, None], cells], axis=1))
    cycles = table[first[:, None, None], signed[home]].reshape(-1, 3)
    return cycles, np.arange(0, len(cycles) + 1, signed.shape[1])


def _inherited_cycles(big, sources, removed, label) -> tuple[np.ndarray, np.ndarray]:
    """The orient of big (the 600-cell census) diminished at removed (_diminished):
    every cycle is one of big's, relabelled by label.

    A kept tetrahedron is big's cell sources[k], with its normal and its
    cycles.  The icosahedron at a removed t, of normal t, holds the faces
    opposite t of big's twenty tetrahedra at t.  A regular tetrahedron's
    normal is a positive multiple of the sum of its vertices, the direction
    of its circumcentre, so for the face a, b, c opposite t, det[a, b, c, n]
    is a positive multiple of det[a, b, c, t]: each face runs as it does on
    its tetrahedron.
    """
    tets = big._cycles[0].reshape(len(big.cells), 4, 3)
    around = tets[np.array([big.incidence[t] for t in removed.tolist()], dtype=np.intp)]
    opposite = around[~(around == removed[:, None, None, None]).any(axis=3)]
    cycles = label[np.concatenate([tets[sources].reshape(-1, 3), opposite])]
    return cycles, np.cumsum([0] + [4] * len(sources) + [20] * len(removed))


def _diminished(big: PolytopeComplex, removed) -> PolytopeComplex:
    """The 600-cell census big less the 24 pairwise non-adjacent vertices at
    the indices removed: the snub 24-cell S = I - T, or one of its embeddings.

    Its vertices, edges and triangles are big's that avoid the removed ones,
    relabelled by one monotone map, so their canonical order holds; its
    tetrahedra are _four_cliques of those.  Every certificate is inherited:
    a hyperplane supporting I at a tetrahedron supports S, a subset of I.
    At each removed t, in the order given, an icosahedron: t's twelve
    neighbours.  edge_graph's threshold c gives (q, t) <= c for every q != t
    in I, with equality exactly on an edge, so (t, c) certifies it if c > 0
    and the twelve span a hyperplane.  A kept triangle lies in two cells of
    big, and each that holds a removed t gives way to t's icosahedron: so
    each triangle lies in exactly two cells, and the cells are the boundary.
    The vertex and normal rows are big's, kept and moved alike.
    """
    n, removed = len(big.vertices), np.asarray(removed, dtype=np.intp)
    (rows, den), (normals, nden) = big.vertex_rows, big.normal_rows
    edges, faces = _flat(big.edges).reshape(-1, 2), _flat(big.faces).reshape(-1, 3)
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = adj[edges[:, 1], edges[:, 0]] = True
    keep = ~np.isin(np.arange(n), removed)
    if len(removed) != 24 or keep.sum() != n - 24 or adj[np.ix_(removed, removed)].any():
        raise BadParameter("vertex set is not a snub complement inside the 600-cell")
    label, kept = np.cumsum(keep) - 1, tuple(compress(big.vertices, keep.tolist()))
    edges = tuple(map(tuple, label[edges[keep[edges].all(axis=1)]].tolist()))
    faces = tuple(map(tuple, label[faces[keep[faces].all(axis=1)]].tolist()))
    tets = np.array(_four_cliques(len(kept), edges, faces), dtype=np.intp).reshape(-1, 4)
    at = big._cell_index.find(np.flatnonzero(keep)[tets])
    if (at < 0).any():
        raise CertificationFailed("a tetrahedron is no cell of the 600-cell")
    cells = [Cell(idxs, "tetrahedron", big.cells[k].normal, big.cells[k].offset)
             for idxs, k in zip(tets.tolist(), at.tolist())]
    # Each removed t's icosahedron, in rows.  Its least vertex a and three of
    # the pentagon around the edge (t, a) span a hyperplane, if any four do.
    rings = np.nonzero(adj[removed])[1].reshape(len(removed), -1)
    pentagons = np.nonzero(adj[removed] & adj[rings[:, 0]])[1].reshape(len(removed), -1)
    firsts = np.hstack([rings[:, :1], pentagons[:, :3]])
    edge_rows = engine.differences(rows, firsts)
    if not engine.cross_rows(*edge_rows.transpose(1, 0, 2)).any(axis=1).all():
        raise CertificationFailed("cell does not span a hyperplane")
    c = big.vertices[big.edges[0][0]].dot(big.vertices[big.edges[0][1]])
    if c.sign() <= 0:
        raise CertificationFailed("hyperplane does not face away from the origin")
    cells += [Cell(ring, "icosahedron", big.vertices[t], c)
              for t, ring in zip(removed.tolist(), label[rings].tolist())]
    common = lcm(den, nden)
    normals = np.concatenate([engine.rescaled(normals[at], nden, common),
                              engine.rescaled(rows[removed], den, common)])
    return PolytopeComplex(kept, edges, faces, cells,
                           lambda _: _inherited_cycles(big, at, removed, label),
                           engine.lowest_terms(rows[keep], den),
                           engine.lowest_terms(normals, common))


def cell_census(vertices) -> PolytopeComplex:
    """Certified cells of the snub 24-cell, the 600-cell, or the 24-cell, one
    census per vertex set per process.  The tetrahedra of I are certified up
    to symmetry by transport_cells under I itself, and the octahedra of T
    around the points of T' off the table that finds them (_octahedra); a
    snub complement, 96 points of I, is the 600-cell census diminished at the
    other 24."""
    vertices = tuple(vertices)
    if len(set(vertices)) < len(vertices):
        raise BadParameter("vertex set repeats a vertex")
    return _census(frozenset(vertices))


@lru_cache(maxsize=None)
def _census(points: frozenset) -> PolytopeComplex:
    icos = binary_icosahedral()
    group = next((g for g in (binary_tetrahedral(), icos) if points == frozenset(g.elements)), None)
    if group is None:
        if not points.issubset(icos.elements):
            raise BadParameter("unsupported vertex set")
        return _diminished(_census(frozenset(icos.elements)),
                           [k for k, q in enumerate(icos.elements) if q not in points])
    edges = _edge_graph(group.rows, group.den)
    faces = triangle_faces(group.elements, edges)
    if len(group) == 24:
        cells, normal_rows = _octahedra(group, edges), (t_prime().rows, t_prime().den)
    else:
        candidates = _four_cliques(len(group), edges, faces)
        certificates, normal_rows = transport_cells(candidates, group)
        cells = [Cell(idxs, "tetrahedron", normal, offset)
                 for idxs, (normal, offset) in zip(candidates, certificates)]
    return PolytopeComplex(group.elements, edges, faces, cells,
                           lambda complex_: _carried_cycles(group, complex_),
                           (group.rows, group.den), normal_rows)


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


def _flat(tuples) -> np.ndarray:
    """The entries of integer tuples, one after another, as one intp array."""
    return np.fromiter(chain.from_iterable(tuples), dtype=np.intp)


def frame_table(rows: np.ndarray, bases: np.ndarray, den: int, members):
    """(coords, starts): coords[starts[k]:starts[k + 1]] are the rows members[k] lists, in
    the frame (e1 u, e2 u, e3 u) of the unit u = bases[k], as field-element rows; den is
    the product of the two denominators.  v has coordinates (v, ei u) = (v conj(u), ei),
    the vector part of v conj(u), so frames of every size are one engine.products call
    over the flat (point, basis) pairs, and each distinct coordinate is lifted once.
    """
    sizes = [len(m) for m in members]
    frames = np.repeat(engine.conjugates(bases), sizes, axis=0)
    pairs = engine.products(rows[_flat(members)], frames)
    values, index = engine.distinct_values(pairs[:, 4:].reshape(-1, 3, 4), den)
    return np.array(list(values), dtype=object)[index], np.cumsum([0] + sizes)


def frame_coords(basis_vector: Quaternion, points) -> list[tuple]:
    """Coordinates of each point in the frame (e1 u, e2 u, e3 u) of a unit u: see frame_table."""
    rows, den = engine.common_rows([basis_vector, *points])
    coords, _ = frame_table(rows, rows[:1], den * den, [range(1, len(rows))])
    return list(map(tuple, coords.tolist()))


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
    """The 120-cell as build_120cell hands it over: points, its vertices, and
    parts, T', S', M and N, each a point set (groups.QuaternionSet), and
    places[k], where part k's points sit among the vertices.  vertices,
    t_prime, s_prime, m and n are their points, in canonical order."""

    def __init__(self, points: QuaternionSet, parts, places):
        self.points, self.parts, self.places = points, tuple(parts), tuple(places)

    @property
    def vertices(self) -> tuple[Quaternion, ...]:
        return self.points.elements

    @property
    def t_prime(self) -> tuple[Quaternion, ...]:
        return self.parts[0].elements

    @property
    def s_prime(self) -> tuple[Quaternion, ...]:
        return self.parts[1].elements

    @property
    def m(self) -> tuple[Quaternion, ...]:
        return self.parts[2].elements

    @property
    def n(self) -> tuple[Quaternion, ...]:
        return self.parts[3].elements


@lru_cache(maxsize=None)
def build_120cell() -> Cell120:
    """600 vertices as 25 cosets p^i conj(p+)^j T', partitioned by (i, j) pattern.

    T' is i = j = 0, S' the rest of i = j, M the rest of i = 0 or j = 0,
    and N every other coset.  The powers of p and conj(p+) are one ladder of
    engine.products calls, the prefixes one table of them and the cosets one
    more.  The 600 vertices are one engine.distinct_order of the table, so
    each lies in one coset, and each part, in canonical order, is its
    vertices in theirs.  No quaternion is made.
    """
    p = icosian_seed()
    seeds, sden = engine.common_rows([p, p.galois().conjugate()])
    ladder = [np.zeros_like(seeds)]
    ladder[0][:, 0] = 1  # q^0 = 1, over 1: ladder[k] is q^k over sden^k
    for _ in range(4):
        ladder.append(engine.products(ladder[-1], seeds))
    powers = np.array([engine.rescaled(r, sden ** k, sden ** 4) for k, r in enumerate(ladder)])
    prefixes = engine.products(powers[:, None, 0], powers[None, :, 1]).reshape(-1, 16)
    tp = t_prime()
    table = engine.products(prefixes[:, None], tp.rows[None]).reshape(-1, 16)
    den = tp.den * sden ** 8
    i, j = np.divmod(np.arange(25), 5)
    part = np.repeat(np.where(i == j, np.minimum(i, 1), np.where(i * j == 0, 2, 3)), len(tp))
    order = engine.distinct_order(table)
    if len(order) != 600:
        raise CertificationFailed("coset union failed to produce 600 distinct vertices")
    points, places = QuaternionSet.of_sorted(table[order], den), [
        np.flatnonzero(part[order] == k) for k in range(4)]
    return Cell120(points, [QuaternionSet.of_sorted(points.rows[at], points.den) for at in places],
                   places)


def snub_embeddings_in_600cell() -> tuple[tuple[Quaternion, ...], ...]:
    """Five snub copies I - p^i T p^-i: the vertices of embedding_censuses()."""
    return tuple(census.vertices for census in embedding_censuses())


@lru_cache(maxsize=None)
def embedding_censuses() -> tuple[PolytopeComplex, ...]:
    """The census of each snub embedding I - p^i T p^-i, census 0 snub_census():
    the 600-cell census diminished at row 6 j of coxeter.inscribed_24cells(),
    for j = -i mod 5.  Since p^5 = -1, p^i T p^-i is conj(p)^j T p^j = g^-1 T
    for the seed conjugator g = [p^j, conj(p)^j]."""
    big, cells = cell_census(binary_icosahedral().elements), inscribed_24cells()
    return (snub_census(), *(_diminished(big, cells[6 * (-i % 5)]) for i in range(1, 5)))


def projective_equal(a: Quaternion, b: Quaternion) -> bool:
    """True when a = lambda * b for a positive field scalar lambda."""
    for c in range(4):
        if not b.component(c).is_zero():
            lam = a.component(c) * b.component(c).invert()
            return lam.sign() > 0 and a == b.scale(lam)
    return a == b
