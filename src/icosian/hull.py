"""Exact convex hulls of small 3D point sets: vertex figures, and the tests' cell oracle.

The normal of every triple is the cross product u x v of two of its edges:
for pure quaternions that is the vector part of u v, so the normals of all
triples are one engine.products call over integer rows.  The plane of every
non-degenerate triple is tested against every point in one exact
engine.side_signs table, and a plane with all points on one side is a
face.  Two facets of a 3-polytope meet in an edge or not at all, so two
points of a face are consecutive on its cycle exactly when another face
holds both.  Cycles run counterclockwise seen from outside, from their
lowest index.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np

from . import engine
from .errors import DegenerateInput
from .field import FieldElement
from .quaternion import Quaternion

Point3 = tuple[FieldElement, FieldElement, FieldElement]


def _cycle(face, shared, row_of, signs) -> tuple[int, ...]:
    """The face's points in cycle order, from the pairs it shares with other faces."""
    nbrs = {v: [w for w in face if w != v and shared[min(v, w), max(v, w)] > 1]
            for v in face}
    # Shared pairs lie on hull edges: a point inside a face or an edge breaks
    # this, and with two neighbours each the pairs form the one polygon cycle.
    if any(len(ws) != 2 for ws in nbrs.values()):
        raise DegenerateInput("face points are not in convex position")
    start = face[0]
    x, y = nbrs[start]
    # The triple (start, x, y) faces outward, other points below, iff x follows start.
    cycle = [start, x if (signs[row_of[start, x, y]] < 0).any() else y]
    while len(cycle) < len(face):
        a, b = nbrs[cycle[-1]]
        cycle.append(b if a == cycle[-2] else a)
    return tuple(cycle)


def convex_hull_faces(points: list[Point3]) -> tuple[tuple[int, ...], ...]:
    """Faces of the hull as vertex-index cycles; input points must be extreme."""
    n = len(points)
    if n < 4:
        raise DegenerateInput("need at least four points")
    rows, _ = engine.common_rows([Quaternion(0, *p) for p in points])
    triples = np.array(list(combinations(range(n), 3)))
    edges = engine.differences(rows, triples)
    # For pure quaternions u v = -(u, v) + u x v: the normal is its vector part.
    normals = engine.products(edges[:, 0], edges[:, 1])
    normals[:, :4] = 0
    spanning = normals.any(axis=1)
    triples = triples[spanning]
    row_of = {t: r for r, t in enumerate(map(tuple, triples.tolist()))}
    signs = engine.side_signs(normals[spanning], rows, triples[:, 0])
    one_sided = (signs > 0).any(axis=1) != (signs < 0).any(axis=1)
    faces = {tuple(np.flatnonzero(row == 0).tolist()) for row in signs[one_sided]}
    shared = Counter(pair for face in faces for pair in combinations(face, 2))
    result = tuple(sorted(_cycle(face, shared, row_of, signs) for face in faces))
    if len({v for f in result for v in f}) != n:
        raise DegenerateInput("some input point is not a hull vertex")
    return result


def relabel(faces, vertices) -> tuple[tuple[int, ...], ...]:
    """Face cycles on the sorted vertices, relabelled by position, each from its
    lowest, sorted: the form convex_hull_faces gives."""
    label = {v: i for i, v in enumerate(vertices)}
    out = []
    for face in faces:
        cycle = [label[i] for i in face]
        k = cycle.index(min(cycle))
        out.append(tuple(cycle[k:] + cycle[:k]))
    return tuple(sorted(out))


def face_census(faces) -> dict[int, int]:
    """How many faces have each number of vertices, in order of first appearance."""
    return dict(Counter(map(len, faces)))


def edges_of_faces(faces) -> set[tuple[int, int]]:
    """The faces' boundary edges, each as an (a, b) pair with a < b."""
    return {(min(a, b), max(a, b)) for f in faces for a, b in zip(f, f[1:] + f[:1])}
