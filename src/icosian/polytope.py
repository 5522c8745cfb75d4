"""The snub 24-cell and its neighbors inside the 600-cell.

Edges come from maximal scalar products, faces from triangles, and every cell
is certified by an exact supporting hyperplane (certify_cells): its vertices
reach the plane, all other vertices and the origin stay strictly below.

A census is a PolytopeComplex, held as its arrays: vertex and normal rows
(int64 rows over one denominator each), edge, triangle and padded cell
tables of vertex indices, and one offset per cell.  Its Quaternions, index
tuples, Cells and incidence are views, made only when a caller asks.  The
600-cell census is certified up to symmetry (transport_cells): left
multiplication by 2I moves a certified cell onto its whole orbit.  The
24-cell's octahedra are certified off the T' x T dot table that finds them
(_octahedra).  The snub 24-cell, and each of its five embeddings, is the
600-cell census diminished at an inscribed 24-cell (_diminished): every
array is sliced from the 600-cell's, every certificate inherited.

A cell's faces are the census triangles it holds, oriented on the first
cell request: the 600-cell and 24-cell sign those of their cells at 1 in
one batch (_signed_cycles) and carry them by the group's Cayley table
(_carried_cycles), and the snub and its embeddings relabel the 600-cell's
(_inherited_cycles).  In the frame (e1 n, e2 n, e3 n) of its normal n, a
vertex v is the vector part of v conj(n): one engine.products table
(frame_table) frames all cells of a complex.  The 120-cell is the coset
union hosting the second snub copy, kept as rows.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import combinations
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
    return tuple(map(tuple, _edge_graph(*engine.common_rows(vertices)).tolist()))


def _edge_graph(rows: np.ndarray, den: int) -> np.ndarray:
    """edge_graph of the points given as int64 rows over den, as an (E, 2) array."""
    values, index = engine.distinct_values(engine.dot_rows(rows, rows), den * den)
    if np.any(np.diagonal(index) != index[0, 0]):
        raise DegenerateInput("vertices do not share a norm")
    norm = list(values)[index[0, 0]]
    below = [x for x in values if x < norm]
    if not below:  # by Cauchy-Schwarz, only coincident points reach the norm
        raise DegenerateInput("vertices coincide: no scalar product below the norm")
    threshold = max(below)
    return np.argwhere(np.triu(index == values[threshold], 1))


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


def _four_cliques(n: int, edges, triangles) -> np.ndarray:
    """The 4-cliques on the triangles, as a table of sorted vertex-index rows."""
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
    return np.array(out, dtype=np.intp).reshape(-1, 4)


def certify_cells(candidates, vertices):
    """Exact certificates (unit normal, offset), one side-of-hyperplane table for all.

    Each cell's vertices lie on its hyperplane, every other vertex and the
    origin strictly below.  The normal is the cross product of the cell's
    first three edges from its first vertex, or, when its first four
    vertices are coplanar, of its first edge triple whose product is nonzero.
    A failing list raises for its first failing cell, with its first failing check.
    The vertices are quaternions, or a point set whose kept rows are read (rows_of).
    """
    units, den, offsets = _certified(candidates, *rows_of(vertices))
    return list(zip(engine.quats_of(units, den), offsets))


def _certified(candidates, rows: np.ndarray, den: int):
    """certify_cells on vertex rows over den: the unit normals as int64 rows over
    their least denominator, that denominator, and the offsets."""
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
    return (*engine.lowest_terms(units, sden), [offsets[k] for k in offset_at.tolist()])


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


_KINDS = {4: "tetrahedron", 6: "octahedron", 12: "icosahedron"}  # a cell's kind by its size


class PolytopeComplex:
    """A certified census, held as its arrays.

    vertex_rows and normal_rows are (int64 rows, den): the vertices, in
    canonical order, and each cell's unit normal.  edge_array (E, 2) and
    face_array (F, 3) hold sorted vertex indices, and cell_table (C, w) each
    cell's, padded with -1; cell k is certified by (normal k, offsets[k]).
    A cell's kind follows from its size: 4 a tetrahedron, 6 an octahedron,
    12 an icosahedron.  orient(complex_), given by the census that makes the
    complex, orients its cells' faces on the first cell request (_cycles).
    vertices, edges, faces, cells, incidence and the vertex index (index,
    `in`) are views, each made on first use.
    """

    def __init__(self, vertex_rows, edges, faces, cells, normal_rows, offsets, orient):
        self.vertex_rows, self.normal_rows = vertex_rows, normal_rows
        self.edge_array, self.face_array, self.cell_table = edges, faces, cells
        self.offsets, self._orient = tuple(offsets), orient

    @cached_property
    def vertices(self) -> tuple[Quaternion, ...]:
        return engine.quats_of(*self.vertex_rows)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def faces(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(map(tuple, self.face_array.tolist()))

    @cached_property
    def cell_sizes(self) -> np.ndarray:
        """The number of vertices of each cell."""
        return (self.cell_table >= 0).sum(axis=1)

    def cell_lists(self) -> list[tuple[list[int], str]]:
        """Each cell's vertex indices, its cell_table row less the padding, and its kind."""
        return [(row[:n], _KINDS[n])
                for row, n in zip(self.cell_table.tolist(), self.cell_sizes.tolist())]

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        normals = engine.quats_of(*self.normal_rows)
        return tuple(Cell(idxs, kind, normal, offset) for (idxs, kind), normal, offset
                     in zip(self.cell_lists(), normals, self.offsets))

    @cached_property
    def vertex_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(cells, starts): cells[starts[i]:starts[i + 1]] are the cells holding vertex i,
        in cell order."""
        k, j = np.nonzero(self.cell_table >= 0)
        at = self.cell_table[k, j]
        counts = np.bincount(at, minlength=len(self.vertex_rows[0]))
        return k[np.argsort(at, kind="stable")], np.concatenate([[0], np.cumsum(counts)])

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """incidence[i]: the indices of the cells holding vertex i, in cell order."""
        cells, starts = (column.tolist() for column in self.vertex_cells)
        return tuple(tuple(cells[a:b]) for a, b in zip(starts, starts[1:]))

    @cached_property
    def _index(self) -> dict[Quaternion, int]:
        return {q: i for i, q in enumerate(self.vertices)}

    def index(self, q: Quaternion) -> int:
        return self._index[q]

    def __contains__(self, q) -> bool:
        return q in self._index

    def counts(self) -> tuple[int, int, int, int]:
        return (len(self.vertex_rows[0]), len(self.edge_array), len(self.face_array),
                len(self.cell_table))

    def euler(self) -> int:
        v, e, f, c = self.counts()
        return v - e + f - c

    def cells_at(self, q: Quaternion) -> list[Cell]:
        return [self.cells[k] for k in self.incidence[self.index(q)]]

    def _held(self, items: np.ndarray, ks=None) -> tuple[np.ndarray, np.ndarray]:
        """(cell, item) index pairs, one for each item (a row of sorted vertex indices)
        that a cell of ks (default: every cell) holds, a cell size at a time and in
        the order of ks within one: one engine.RowIndex lookup of the cells' vertex
        subsets of the items' width per cell size."""
        index, width = engine.RowIndex(items), items.shape[1]
        ks = np.arange(len(self.cell_table)) if ks is None else ks
        sizes = self.cell_sizes[ks]
        pairs = []
        for size in sorted(set(sizes.tolist())):
            group = ks[sizes == size]
            combos = list(combinations(range(size), width))
            at = index.find(self.cell_table[group][:, combos].reshape(-1, width))
            hit = np.flatnonzero(at >= 0)
            pairs.append((group[hit // len(combos)], at[hit]))
        return tuple(map(np.concatenate, zip(*pairs)))

    @cached_property
    def face_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(cell, face) index pairs, one for each face a cell holds: the face-cell table."""
        return self._held(self.face_array)

    @cached_property
    def edge_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(cell, edge) index pairs, one for each edge a cell holds."""
        return self._held(self.edge_array)

    def face_cell_incidence(self) -> Counter:
        """The number of cells holding each face that some cell holds."""
        counts = np.bincount(self.face_cells[1], minlength=len(self.face_array)).tolist()
        return Counter({face: n for face, n in zip(self.faces, counts) if n})

    def edge_cell_valences(self) -> Counter:
        """How many edges lie in each number of cells, over the edges that some cell holds."""
        return Counter(n for n in np.bincount(self.edge_cells[1]).tolist() if n)

    @cached_property
    def _frames(self) -> tuple[np.ndarray, np.ndarray]:
        """Every cell's frame coordinates, one frame_table of the vertices and the cell normals."""
        (rows, den), (normals, nden) = self.vertex_rows, self.normal_rows
        table = self.cell_table
        return frame_table(rows, normals, den * nden, table[table >= 0], self.cell_sizes)

    @cached_property
    def _cycles(self) -> tuple[np.ndarray, np.ndarray]:
        """(cycles, starts): cycles[starts[k]:starts[k + 1]] are the triangles cell k
        holds, each as a cycle of vertex indices that runs counterclockwise seen
        from outside the cell, in its own frame, as the complex's orient gives them."""
        return self._orient(self)

    def cell_geometry(self, index: int):
        """3D coordinates of one cell in its own frame (e1 n, e2 n, e3 n), the vector
        parts of v conj(n) for its vertices v, and its faces, the census triangles it
        holds, as hull faces: both sliced out of tables made once per complex, on first use."""
        coords, starts = self._frames
        cycles, at = self._cycles
        return (list(map(tuple, coords[starts[index]:starts[index + 1]].tolist())),
                hull.relabel(cycles[at[index]:at[index + 1]].tolist(),
                             self.cell_table[index, :self.cell_sizes[index]].tolist()))

    def __repr__(self) -> str:
        return "<complex: %d vertices, %d edges, %d faces, %d cells>" % self.counts()


def _nearest(centers: np.ndarray, cden: int, rows: np.ndarray, den: int):
    """(cells, rank, levels) of one dot table of the center rows over cden against
    the vertex rows over den: levels are its distinct entries in increasing exact
    order, rank[k, i] is the place of (center k, vertex i) among them, and row k
    of the table cells lists the vertices at the largest entry of row k, padded with -1."""
    values, index = engine.distinct_values(engine.dot_rows(centers, rows), cden * den)
    levels = sorted(values)
    rank = np.argsort([values[x] for x in levels])[index]
    k, i = np.nonzero(rank == rank.max(axis=1)[:, None])
    counts = np.bincount(k, minlength=len(rank))
    cells = np.full((len(rank), counts.max(initial=0)), -1, dtype=np.intp)
    cells[k, np.arange(len(k)) - np.repeat(np.cumsum(counts) - counts, counts)] = i
    return cells, rank, levels


def _octahedra(tet, edges) -> tuple[np.ndarray, list]:
    """The 24-cell's cells, as a cell table and their offsets: at each point t
    of T' (groups.t_prime), in order, the octahedron of the vertices nearest t,
    certified off the T' x T dot table that finds them (_nearest), with no
    group action.

    Its certificate is (t, c) for c the largest (t, v) over the vertices v:
    the cell is exactly the vertices at c, so every other vertex lies strictly
    below; c > 0 and (t, t) = 1.  The cell's least vertex a and three of its
    neighbours span a hyperplane, one engine.cross_rows row per cell: in an
    octahedron, a's neighbours are a square, which a lies off.
    """
    tp = t_prime()
    cells, rank, levels = _nearest(tp.rows, tp.den, tet.rows, tet.den)
    held = (cells[:, :, None] == np.arange(rank.shape[1])).any(axis=1)
    top = rank[np.arange(len(cells)), cells[:, 0]]
    if (rank.max(axis=1) != top).any() or (held != (rank == top[:, None])).any():
        raise CertificationFailed("cell vertices are not exactly those nearest its center")
    norms = engine.dot_rows(tp.rows[:, None], tp.rows[:, None])[:, 0, 0]
    if (norms != (tp.den ** 2, 0, 0, 0)).any():
        raise CertificationFailed("cell normal is not a unit")
    if any(levels[m].sign() <= 0 for m in set(top.tolist())):
        raise CertificationFailed("hyperplane does not face away from the origin")
    adj = adjacency(len(tet), edges)
    firsts = [(idxs[0], *[j for j in idxs[1:] if j in adj[idxs[0]]][:3])
              for idxs in cells.tolist()]
    if any(len(f) < 4 for f in firsts) or not engine.cross_rows(*engine.differences(
            tet.rows, np.array(firsts, dtype=np.intp)).transpose(1, 0, 2)).any(axis=1).all():
        raise CertificationFailed("cell does not span a hyperplane")
    return cells, [levels[m] for m in top.tolist()]


def transport_cells(cells: np.ndarray, group):
    """certify_cells of the candidate cells, a table of sorted vertex-index rows
    of one width, on the group's elements, certifying one cell per orbit of the
    group acting on the left: r -> h r.

    group.cayley_table says where every h moves every element; it is None when
    some product is no element.  h then permutes the elements, so it is a unit
    and a rotation about the origin, and it moves a cell's certificate (n, c)
    to (h n, c), the unique certificate of the image cell.  The group moves
    every element onto the first, so every orbit of cells holds a cell at
    vertex 0.  In candidate order, each such candidate that no image has
    reached yet is a representative: certify_cells certifies the
    representatives in one call, and each representative's images under the
    whole group must be candidates.  A candidate that no image reaches
    raises, as does any other failed check.  Returns the unit normals as
    int64 rows and their denominator, and the offsets, in candidate order.
    """
    perm = group.cayley_table
    if perm is None:
        raise CertificationFailed("multiplier moves a vertex off the vertex set")
    rows, den, at_cell = group.rows, group.den, engine.RowIndex(cells)
    source = np.full(len(cells), -1)  # the representative each candidate is an image of
    mover = np.zeros(len(cells), dtype=np.intp)  # and the multiplier moving it there
    representatives = []
    for k in np.flatnonzero((cells == 0).any(axis=1)).tolist():
        if source[k] >= 0:
            continue
        images = at_cell.find(np.sort(perm[:, cells[k]], axis=1))
        if (images < 0).any():
            raise CertificationFailed("multiplier moves a certified cell off the candidates")
        fresh = np.flatnonzero(source[images] < 0)
        source[images[fresh]], mover[images[fresh]] = len(representatives), fresh
        representatives.append(k)
    if (source < 0).any():
        raise CertificationFailed("no certified cell moves onto a candidate")
    units, nden, offsets = _certified(cells[representatives].tolist(), rows, den)
    return ((engine.products(rows[mover], units[source]), den * nden),
            [offsets[k] for k in source.tolist()])


def _signed_cycles(complex_, ks) -> np.ndarray:
    """The triangles the cells ks hold, cell by cell in the order of ks and each
    cell's in the order of its vertex triples, as cycles signed in one batch:
    one engine.cross_rows over the triangles, and one engine.dot_rows against
    their cells' normals.  The cells ks are of one size.

    In the basis (n, e1 n, e2 n, e3 n), right multiplication by the unit
    normal n applied to (1, e1, e2, e3), a cell vertex is (c, x) for its
    frame coordinates x, so det[a, b, c, n] = -det[x_a, x_b, x_c].  The
    cell holds the frame's origin, its circumcentre, so face a < b < c
    runs (a, b, c) seen from outside when det[a, b, c, n] < 0, else (a, c, b).
    """
    cells, at = complex_._held(complex_.face_array, ks)
    faces, normals = complex_.face_array[at], complex_.normal_rows[0][cells]
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
    cells, (holders, starts) = complex_.cell_table, complex_.vertex_cells
    at_one = holders[starts[one]:starts[one + 1]]
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
    tets = big._cycles[0].reshape(len(big.cell_table), 4, 3)
    holders, starts = big.vertex_cells
    around = tets[np.array([holders[starts[t]:starts[t + 1]] for t in removed.tolist()])]
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
    Every array is a slice of big's, the normal rows kept and moved alike.
    """
    (rows, den), (normals, nden) = big.vertex_rows, big.normal_rows
    edges, faces = big.edge_array, big.face_array
    n, removed = len(rows), np.asarray(removed, dtype=np.intp)
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = adj[edges[:, 1], edges[:, 0]] = True
    keep = ~np.isin(np.arange(n), removed)
    if len(removed) != 24 or keep.sum() != n - 24 or adj[np.ix_(removed, removed)].any():
        raise BadParameter("vertex set is not a snub complement inside the 600-cell")
    label = np.cumsum(keep) - 1
    edges = label[edges[keep[edges].all(axis=1)]]
    faces = label[faces[keep[faces].all(axis=1)]]
    tets = _four_cliques(n - 24, edges.tolist(), faces.tolist())
    at = engine.RowIndex(big.cell_table).find(np.flatnonzero(keep)[tets])
    if (at < 0).any():
        raise CertificationFailed("a tetrahedron is no cell of the 600-cell")
    # Each removed t's icosahedron, in rows.  Its least vertex a and three of
    # the pentagon around the edge (t, a) span a hyperplane, if any four do.
    rings = np.nonzero(adj[removed])[1].reshape(len(removed), -1)
    pentagons = np.nonzero(adj[removed] & adj[rings[:, 0]])[1].reshape(len(removed), -1)
    firsts = np.hstack([rings[:, :1], pentagons[:, :3]])
    edge_rows = engine.differences(rows, firsts)
    if not engine.cross_rows(*edge_rows.transpose(1, 0, 2)).any(axis=1).all():
        raise CertificationFailed("cell does not span a hyperplane")
    a, b = big.edge_array[0]
    (c,) = engine.distinct_values(engine.dot_rows(rows[a:a + 1], rows[b:b + 1]), den * den)[0]
    if c.sign() <= 0:
        raise CertificationFailed("hyperplane does not face away from the origin")
    cells = np.full((len(tets) + len(removed), 12), -1, dtype=np.intp)
    cells[:len(tets), :4], cells[len(tets):] = tets, label[rings]
    common = lcm(den, nden)
    normals = np.concatenate([engine.rescaled(normals[at], nden, common),
                              engine.rescaled(rows[removed], den, common)])
    return PolytopeComplex(engine.lowest_terms(rows[keep], den), edges, faces, cells,
                           engine.lowest_terms(normals, common),
                           [big.offsets[k] for k in at.tolist()] + [c] * len(removed),
                           lambda _: _inherited_cycles(big, at, removed, label))


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
    pairs = edges.tolist()
    faces = triangle_faces(group, pairs)
    if len(group) == 24:
        (cells, offsets), normal_rows = _octahedra(group, pairs), (t_prime().rows, t_prime().den)
    else:
        cells = _four_cliques(len(group), pairs, faces)
        normal_rows, offsets = transport_cells(cells, group)
    return PolytopeComplex((group.rows, group.den), edges,
                           np.array(faces, dtype=np.intp).reshape(-1, 3), cells, normal_rows,
                           offsets, lambda complex_: _carried_cycles(group, complex_))


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


def frame_table(rows: np.ndarray, bases: np.ndarray, den: int, members: np.ndarray, sizes):
    """(coords, starts): coords[starts[k]:starts[k + 1]] are the rows that the next sizes[k]
    entries of members index, in the frame (e1 u, e2 u, e3 u) of the unit u = bases[k], as
    field-element rows; den is the product of the two denominators.  v has coordinates
    (v, ei u) = (v conj(u), ei), the vector part of v conj(u), so frames of every size are
    one engine.products call over the flat (point, basis) pairs, and each distinct
    coordinate is lifted once.
    """
    frames = np.repeat(engine.conjugates(bases), sizes, axis=0)
    pairs = engine.products(rows[members], frames)
    values, index = engine.distinct_values(pairs[:, 4:].reshape(-1, 3, 4), den)
    return np.array(list(values), dtype=object)[index], np.concatenate([[0], np.cumsum(sizes)])


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
    i, edges, (rows, den) = complex_.index(p), complex_.edge_array, complex_.vertex_rows
    nbrs = np.sort(np.concatenate([edges[edges[:, 0] == i, 1], edges[edges[:, 1] == i, 0]]))
    neighbors = [complex_.vertices[j] for j in nbrs.tolist()]
    for q in neighbors:
        if q.dot(p) != TAU_HALF:
            raise CoplanarityFailed("neighbor misses the vertex-figure hyperplane")
    coords, _ = frame_table(rows, rows[i:i + 1], den * den, nbrs, [len(nbrs)])
    coords = list(map(tuple, coords.tolist()))
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
