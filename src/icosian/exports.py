"""Serialization: canonical JSON documents and OFF geometry files.

JSON stores every coordinate as exact rational strings on the basis
(1, sqrt2, sqrt5, sqrt10), so files round-trip bit for bit; each string is
written from the field's integer numerators and denominator with one gcd.
A writer renders each distinct component once per call: points, normals,
offsets and coordinates are looked up by their exact integers (numerators,
denominator), so equal components share one rendering.  A point list
(vertices, points, the 120-cell's parts) is written as JSON text once, each
distinct point's text once, and dumps splices it in where it stands: the
bytes are json.dumps's of the same list of per-point dicts.  A point set
(groups.QuaternionSet), a census's vertices and the 120-cell are written
from the int64 rows they keep: one engine.distinct_index sorts every
component of every row, and the 120-cell's parts list their vertices' texts.
OFF files carry correctly rounded decimals: each printed value is the true
real number rounded to the requested number of significant digits
(1 to MAX_DIGITS), established by integer interval refinement: the
enclosure's integer bounds are compared with integer powers of ten and
rounded half-even with one divmod, with no Fraction and no floating point.
Each distinct (value, digits) pair is rendered once per process.  The OFF
header's edge count comes from the caller: a complex knows its edges, and
only a small hull's caller counts them from its faces.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from . import engine
from .errors import BadParameter
from .field import FieldElement
from .groups import QuaternionSet
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


class _Once(dict):
    """render(nums, den) by its exact key (nums, den), each distinct key rendered once."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        part = self[key] = self.render(*key)
        return part


def _components(points, once: _Once) -> list[tuple]:
    """Each point's four components as once renders them, keyed by the exact integers of q.ivec."""
    return [(once[v[0:4], d], once[v[4:8], d], once[v[8:12], d], once[v[12:16], d])
            for v, d in [q.ivec for q in points]]


def _json_points(points, once: _Once) -> list:
    return [list(row) for row in _components(points, once)]


class _Text:
    """JSON text that dumps writes as it stands."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


_SORTED_BASIS = sorted(range(4), key=_BASIS.__getitem__)  # the keys' order in dumps
_POINT = "[{},{},{},{}]"  # a point's text from its components'


def _component_text(nums, den: int) -> str:
    """The text dumps writes for _coefficients_to_json(nums, den): keys sorted, no
    spaces, and each value a Fraction string of digits, "-" and "/", written as it stands."""
    out = []
    for k in _SORTED_BASIS:
        n = nums[k]
        if n:
            g = gcd(n, den)
            out.append(f'"{_BASIS[k]}":"{n // g}"' if g == den
                       else f'"{_BASIS[k]}":"{n // g}/{den // g}"')
    return "{" + ",".join(out) + "}"


def _row_tokens(rows: np.ndarray, den: int) -> np.ndarray:
    """Each int64 row's text over den, as dumps writes quaternion_to_json of its
    point, in nine tokens: ",[" a "," b "," c "," d "]" for the texts of its
    components, which one engine.distinct_index sorts, each rendered once."""
    components, at = engine.distinct_index(rows.reshape(-1, 4))
    texts = np.array([_component_text(c, den) for c in components.tolist()], dtype=object)
    tokens = np.full((len(rows), 9), ",", dtype=object)
    tokens[:, 0], tokens[:, 8], tokens[:, 1::2] = ",[", "]", texts[at.reshape(-1, 4)]
    return tokens


def _token_list(tokens: np.ndarray) -> _Text:
    """The points whose _row_tokens these are as one JSON list, in dumps' form."""
    return _Text("[" + "".join(tokens.ravel().tolist())[1:] + "]")


class _PointTexts(dict):
    """Each point's JSON text, keyed by the point: each distinct point rendered
    once, from its components, each distinct component rendered once."""

    def __init__(self):
        super().__init__()
        self.parts = _Once(_component_text)

    def __missing__(self, q):
        (v, d), parts = q.ivec, self.parts
        text = self[q] = _POINT.format(parts[v[0:4], d], parts[v[4:8], d],
                                       parts[v[8:12], d], parts[v[12:16], d])
        return text


def parse_field(doc) -> FieldElement:
    """The element field_to_json wrote: a dict from basis names to Fraction strings."""
    if not (isinstance(doc, dict) and set(doc) <= set(_BASIS)
            and all(isinstance(v, str) for v in doc.values())):
        raise BadParameter(f"field element must map names in {_BASIS} to strings: {doc!r}")
    try:
        return FieldElement(*(Fraction(doc.get(name, "0")) for name in _BASIS))
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParameter(f"bad field coefficient in {doc!r}: {exc}") from exc


def quaternion_to_json(q: Quaternion) -> list:
    vec, den = q.ivec
    return [_coefficients_to_json(vec[i:i + 4], den) for i in range(0, 16, 4)]


def parse_quaternion(doc) -> Quaternion:
    if not isinstance(doc, list) or len(doc) != 4:
        raise BadParameter(f"quaternion must be a list of four field elements: {doc!r}")
    return Quaternion(*(parse_field(part) for part in doc))


def points_to_json(points) -> _Text:
    """The points as one JSON list for dumps: the text of [quaternion_to_json(q) for q in
    points].  A point set (groups.QuaternionSet) is written from the rows it keeps."""
    if isinstance(points, QuaternionSet):
        return _token_list(_row_tokens(points.rows, points.den))
    return _Text("[" + ",".join(map(_PointTexts().__getitem__, points)) + "]")


def coords_to_json(rows) -> list:
    """Rows of field elements as JSON, each distinct element rendered once."""
    once = _Once(_coefficients_to_json)
    return [[once[x.raw] for x in row] for row in rows]


def parse_points(doc) -> list[Quaternion]:
    return [parse_quaternion(d) for d in doc]


def complex_to_json(complex_) -> dict:
    once = _Once(_coefficients_to_json)
    normals = _json_points([c.normal for c in complex_.cells], once)
    return {
        "counts": list(complex_.counts()),
        "vertices": _token_list(_row_tokens(*complex_.vertex_rows)),
        "edges": [list(e) for e in complex_.edges],
        "faces": [list(f) for f in complex_.faces],
        "cells": [
            {
                "kind": c.kind,
                "vertices": list(c.vertex_indices),
                "normal": normal,
                "offset": once[c.offset.raw],
            }
            for c, normal in zip(complex_.cells, normals)
        ],
    }


def dual_complex_to_json(complex_) -> dict:
    once = _Once(_coefficients_to_json)
    tips = _json_points([cell.vertex for cell in complex_.cells], once)
    cells = []
    for cell, tip, ids in zip(complex_.cells, tips, complex_.cell_vertex_ids):
        cells.append({
            "vertex": tip,
            "vertices": list(ids),
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
    """The 120-cell's vertices and its four parts: each vertex's text is made
    once, and each part lists the texts of its places among the vertices."""
    points = cell120.points
    tokens = _row_tokens(points.rows, points.den)
    return {"count": len(tokens), "vertices": _token_list(tokens),
            "partition": {name: _token_list(tokens[at])
                          for name, at in zip(("t_prime", "s_prime", "m", "n"), cell120.places)}}


_MARK = "\0"  # a _Text's stand-in while json.dumps runs
_MARKED = json.dumps(_MARK)  # and the stand-in as json.dumps writes it


def dumps(doc) -> str:
    """doc as canonical JSON: keys sorted, no spaces, one final newline, each
    _Text written as it stands.  The bytes are json.dumps(doc, sort_keys=True,
    separators=(",", ":")) + "\n" of the doc with each _Text's list in its place."""
    texts = []

    def defer(text: _Text) -> str:
        texts.append(text.text)
        return _MARK

    head, *rest = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                             default=defer).split(_MARKED)
    if len(rest) != len(texts):
        raise ValueError("a string of the document reads as a _Text's stand-in")
    return head + "".join(map(str.__add__, texts, rest)) + "\n"


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


def off_text(coords, faces, edges: int, digits: int = 17) -> str:
    """An OFF document (or nOFF for points of n != 3 coordinates) with cycle-ordered faces.

    edges is the edge count the header states: the number of distinct
    edges of the faces.
    """
    header = "OFF" if len(coords[0]) == 3 else f"{len(coords[0])}OFF"
    lines = [header, f"{len(coords)} {len(faces)} {edges}"]
    lines += [" ".join([decimal_str(c, digits) for c in row]) for row in coords]
    line = {n: str(n) + " %d" * n for n in set(map(len, faces))}  # face lines by length
    lines += [line[len(face)] % tuple(face) for face in faces]
    return "\n".join(lines) + "\n"


def quaternion_coords(points) -> list[tuple[FieldElement, ...]]:
    return _components(points, _Once(lambda nums, den: FieldElement._make(*nums, den)))
