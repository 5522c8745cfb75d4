"""Exact convex hulls of small 3D point sets.

Supporting planes are enumerated over all triples with exact sign tests, so
the result is a certificate: every reported face really bounds the hull and
every face cycle is convex in its plane.  Intended for cells and vertex
figures (a dozen points), not bulk geometry.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DegenerateInput
from .field import FieldElement

Point3 = tuple[FieldElement, FieldElement, FieldElement]


def _sub(a: Point3, b: Point3) -> Point3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a: Point3, b: Point3) -> Point3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot3(a: Point3, b: Point3) -> FieldElement:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cycle_order(points, idxs, normal) -> tuple[int, ...]:
    """Arrange coplanar convex-position points into their polygon cycle."""
    rest = list(idxs)
    start = min(rest)
    rest.remove(start)
    cycle = [start]
    current = start
    while rest:
        for cand in rest:
            # cand is next on the cycle iff every other point sits on one side
            base = points[current]
            edge = _sub(points[cand], base)
            ok = True
            side = 0
            for other in rest:
                if other == cand:
                    continue
                s = _dot3(_cross(edge, _sub(points[other], base)), normal).sign()
                if s == 0:
                    ok = False
                    break
                if side == 0:
                    side = s
                elif s != side:
                    ok = False
                    break
            if ok and side >= 0:
                cycle.append(cand)
                rest.remove(cand)
                current = cand
                break
        else:
            raise DegenerateInput("face points are not in convex position")
    return tuple(cycle)


def convex_hull_faces(points: list[Point3]) -> tuple[tuple[int, ...], ...]:
    """Faces of the hull as vertex-index cycles; input points must be extreme."""
    n = len(points)
    if n < 4:
        raise DegenerateInput("need at least four points")
    faces = {}
    for i, j, k in combinations(range(n), 3):
        normal = _cross(_sub(points[j], points[i]), _sub(points[k], points[i]))
        if all(x.is_zero() for x in normal):
            continue
        offset = _dot3(normal, points[i])
        side = 0
        support = []
        for m in range(n):
            s = (_dot3(normal, points[m]) - offset).sign()
            if s == 0:
                support.append(m)
                continue
            if side == 0:
                side = s
            elif s != side:
                side = None
                break
        if side is None or side == 0:
            continue
        key = frozenset(support)
        if key in faces:
            continue
        oriented = normal if side < 0 else tuple(-x for x in normal)
        faces[key] = _cycle_order(points, support, oriented)
    result = tuple(sorted(faces.values()))
    if len({v for f in result for v in f}) != n:
        raise DegenerateInput("some input point is not a hull vertex")
    return result


def face_census(faces) -> dict[int, int]:
    out: dict[int, int] = {}
    for f in faces:
        out[len(f)] = out.get(len(f), 0) + 1
    return out


def edges_of_faces(faces) -> set[tuple[int, int]]:
    out = set()
    for f in faces:
        for a, b in zip(f, f[1:] + f[:1]):
            out.add((min(a, b), max(a, b)))
    return out
