"""Serialization: canonical JSON documents and OFF geometry files.

JSON stores every coordinate as exact rational strings on the basis
(1, sqrt2, sqrt5, sqrt10), so files round-trip bit for bit.  OFF files carry
correctly rounded decimals: each printed value is the true real number
rounded to the requested number of significant digits, established through
interval refinement rather than floating point.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import hull
from .field import FieldElement
from .quaternion import Quaternion

_BASIS = ("1", "sqrt2", "sqrt5", "sqrt10")


def field_to_json(x: FieldElement) -> dict:
    out = {}
    for name, part in zip(_BASIS, (x.a, x.b, x.c, x.d)):
        if part:
            out[name] = str(part)
    return out


def parse_field(doc) -> FieldElement:
    if isinstance(doc, str):
        return FieldElement.from_rational(Fraction(doc))
    vals = [Fraction(doc.get(name, 0)) for name in _BASIS]
    return FieldElement(*vals)


def quaternion_to_json(q: Quaternion) -> list:
    return [field_to_json(q.component(i)) for i in range(4)]


def parse_quaternion(doc) -> Quaternion:
    return Quaternion(*(parse_field(part) for part in doc))


def points_to_json(points) -> list:
    return [quaternion_to_json(q) for q in points]


def parse_points(doc) -> list[Quaternion]:
    return [parse_quaternion(d) for d in doc]


def complex_to_json(complex_) -> dict:
    return {
        "counts": list(complex_.counts()),
        "vertices": points_to_json(complex_.vertices),
        "edges": [list(e) for e in complex_.edges],
        "faces": [list(f) for f in complex_.faces],
        "cells": [
            {
                "kind": c.kind,
                "vertices": list(c.vertex_indices),
                "normal": quaternion_to_json(c.normal),
                "offset": field_to_json(c.offset),
            }
            for c in complex_.cells
        ],
    }


def dual_complex_to_json(complex_) -> dict:
    index = {q: i for i, q in enumerate(complex_.vertices)}
    cells = []
    for cell in complex_.cells:
        ids = [index[v] for v in cell.vertices]
        cells.append({
            "vertex": quaternion_to_json(cell.vertex),
            "vertices": ids,
            "kites": [[ids[i] for i in f] for f in cell.kites],
            "triangles": [[ids[i] for i in f] for f in cell.triangles],
        })
    return {
        "counts": list(complex_.counts()),
        "vertices": points_to_json(complex_.vertices),
        "edges": [list(e) for e in complex_.edges],
        "faces": [list(f) for f in complex_.faces],
        "cells": cells,
    }


def partition_to_json(cell120) -> dict:
    return {
        "count": len(cell120.vertices),
        "vertices": points_to_json(cell120.vertices),
        "partition": {
            "t_prime": points_to_json(cell120.t_prime),
            "s_prime": points_to_json(cell120.s_prime),
            "m": points_to_json(cell120.m),
            "n": points_to_json(cell120.n),
        },
    }


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _round_half_even(f: Fraction) -> int:
    q, r = divmod(f.numerator, f.denominator)
    twice = 2 * r
    if twice > f.denominator or (twice == f.denominator and q % 2):
        q += 1
    return q


def _ilog10(f: Fraction) -> int:
    e = len(str(abs(f.numerator))) - len(str(f.denominator))
    ten = Fraction(10)
    while ten ** e > f:
        e -= 1
    while ten ** (e + 1) <= f:
        e += 1
    return e


def decimal_str(x: FieldElement, digits: int = 17) -> str:
    """x rounded to `digits` significant digits, correctly, via interval refinement."""
    if digits < 1:
        raise ValueError("need at least one significant digit")
    sign = x.sign()
    if sign == 0:
        return "0"
    y = -x if sign < 0 else x
    den = y.raw[1]
    bits = 64
    while True:
        ilo, ihi = y._enclosure(bits)
        scale = den << bits
        lo, hi = Fraction(ilo, scale), Fraction(ihi, scale)
        if lo > 0:
            e_lo, e_hi = _ilog10(lo), _ilog10(hi)
            if e_lo == e_hi:
                shift = Fraction(10) ** (digits - 1 - e_lo)
                m_lo = _round_half_even(lo * shift)
                m_hi = _round_half_even(hi * shift)
                if m_lo == m_hi:
                    m, e = m_lo, e_lo
                    break
        bits *= 2
    ds = str(m)
    if len(ds) > digits:
        ds = ds[:-1]
        e += 1
    if -4 <= e < digits:
        if e >= 0:
            head, tail = ds[: e + 1], ds[e + 1:]
            out = head + ("." + tail if tail else "")
        else:
            out = "0." + "0" * (-e - 1) + ds
    else:
        out = ds[0] + "." + ds[1:] + ("e%+03d" % e)
    return ("-" + out) if sign < 0 else out


def off_text(coords, faces, digits: int = 17, dimension: int = 3) -> str:
    """An OFF document (or nOFF for dimension != 3) with cycle-ordered faces."""
    header = "OFF" if dimension == 3 else f"{dimension}OFF"
    edges = hull.edges_of_faces(faces)
    lines = [header, f"{len(coords)} {len(faces)} {len(edges)}"]
    for row in coords:
        lines.append(" ".join(decimal_str(c, digits) for c in row))
    for face in faces:
        lines.append(" ".join(str(v) for v in (len(face), *face)))
    return "\n".join(lines) + "\n"


def quaternion_coords(points) -> list[tuple[FieldElement, ...]]:
    return [tuple(q.component(i) for i in range(4)) for q in points]
