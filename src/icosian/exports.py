"""Serialization: canonical JSON documents and OFF geometry files.

JSON stores every coordinate as exact rational strings on the basis
(1, sqrt2, sqrt5, sqrt10), so files round-trip bit for bit; each string is
written from the field's integer numerators and denominator with one gcd.
OFF files carry correctly rounded decimals: each printed value is the true
real number rounded to the requested number of significant digits
(1 to MAX_DIGITS), established by integer interval refinement: the
enclosure's integer bounds are compared with integer powers of ten and
rounded half-even with one divmod, with no Fraction and no floating point.
Each distinct (value, digits) pair is rendered once per process.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import hull
from .field import FieldElement
from .quaternion import Quaternion

_BASIS = ("1", "sqrt2", "sqrt5", "sqrt10")
# Fixed well inside Python's default 4300-digit limit on int-to-str
# conversion, which the interpreter and PYTHONINTMAXSTRDIGITS can change,
# so which requests are answered does not depend on the environment.
MAX_DIGITS = 1000


def _coefficients_to_json(nums, den: int) -> dict:
    """Each nonzero n / den as Fraction's string, for integers n and den > 0."""
    out = {}
    for name, n in zip(_BASIS, nums):
        if n:
            g = gcd(n, den)
            out[name] = str(n // g) if g == den else f"{n // g}/{den // g}"
    return out


def field_to_json(x: FieldElement) -> dict:
    return _coefficients_to_json(*x.raw)


def parse_field(doc) -> FieldElement:
    if isinstance(doc, str):
        return FieldElement.from_rational(Fraction(doc))
    vals = [Fraction(doc.get(name, 0)) for name in _BASIS]
    return FieldElement(*vals)


def quaternion_to_json(q: Quaternion) -> list:
    vec, den = q.ivec
    return [_coefficients_to_json(vec[i:i + 4], den) for i in range(0, 16, 4)]


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
    cells = []
    for cell in complex_.cells:
        ids = [complex_.index(v) for v in cell.vertices]
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


def _floor_log10(p: int, q: int) -> int:
    """floor(log10(p / q)) for positive integers p and q."""
    def below(e: int) -> bool:  # p / q < 10**e
        return p < q * 10 ** e if e >= 0 else p * 10 ** -e < q

    e = (p.bit_length() - q.bit_length()) * 30103 // 100000
    while below(e):
        e -= 1
    while not below(e + 1):
        e += 1
    return e


def _round_scaled(p: int, q: int, k: int) -> int:
    """p / q * 10**k rounded half-even to an integer, for q > 0."""
    if k >= 0:
        p *= 10 ** k
    else:
        q *= 10 ** -k
    m, r = divmod(p, q)
    twice = 2 * r
    if twice > q or (twice == q and m % 2):
        m += 1
    return m


@lru_cache(maxsize=None)
def decimal_str(x: FieldElement, digits: int = 17) -> str:
    """x rounded to `digits` significant digits, correctly, via interval refinement."""
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"significant digits must be 1 to {MAX_DIGITS}")
    sign = x.sign()
    if sign == 0:
        return "0"
    y = -x if sign < 0 else x
    den = y.raw[1]
    bits = 64
    while True:
        ilo, ihi = y._enclosure(bits)
        scale = den << bits
        if ilo > 0:
            e_lo, e_hi = _floor_log10(ilo, scale), _floor_log10(ihi, scale)
            if e_lo == e_hi:
                m_lo = _round_scaled(ilo, scale, digits - 1 - e_lo)
                m_hi = _round_scaled(ihi, scale, digits - 1 - e_lo)
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


def off_text(coords, faces, digits: int = 17) -> str:
    """An OFF document (or nOFF for points of n != 3 coordinates) with cycle-ordered faces."""
    header = "OFF" if len(coords[0]) == 3 else f"{len(coords[0])}OFF"
    edges = hull.edges_of_faces(faces)
    lines = [header, f"{len(coords)} {len(faces)} {len(edges)}"]
    for row in coords:
        lines.append(" ".join(decimal_str(c, digits) for c in row))
    for face in faces:
        lines.append(" ".join(str(v) for v in (len(face), *face)))
    return "\n".join(lines) + "\n"


def quaternion_coords(points) -> list[tuple[FieldElement, ...]]:
    return [tuple(q.component(i) for i in range(4)) for q in points]
