"""Exports and the command line: OFF/JSON emission, selectors, exit codes."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import icosian
from icosian import (cli, dual, e8_roots, exports, hull, polytope, snub24_vertices,
                     verify)
from icosian.cli import main
from icosian.engine import quats_of
from icosian.errors import BadParameter, CertificationFailed, CoplanarityFailed
from icosian.exports import (MAX_DIGITS, coords_to_json, decimal_str, dumps, field_to_json,
                             off_text, parse_field, parse_points, parse_quaternion,
                             points_to_json, quaternion_coords, quaternion_to_json)
from icosian.field import HALF, ONE, SIGMA, SQRT2, TAU, ZERO, FieldElement
from icosian.groups import QuaternionSet, binary_icosahedral, binary_tetrahedral
from icosian.quaternion import Quaternion


# The Fraction renderer that the integer-only decimal_str replaced: the
# oracle it must match digit for digit.
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


def oracle_decimal_str(x: FieldElement, digits: int = 17) -> str:
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


digit_counts = st.integers(1, 40)
coefficients = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
# Values with sqrt2, sqrt5 and sqrt10 parts over unrelated denominators.
radicals = st.builds(FieldElement, coefficients, coefficients, coefficients, coefficients)
# Rationals at a power of ten and just either side of it.
near_powers = st.builds(lambda k, off, neg: (-1 if neg else 1) * FieldElement(
                            Fraction(10) ** k + off * Fraction(1, 10**40)),
                        st.integers(-30, 30), st.sampled_from([-1, 0, 1]), st.booleans())
# The engine tests' mixed-denominator quaternions: halves and thirds,
# scaled by 1, 1/2, sqrt2 or sigma; their products add sqrt10 parts.
halves = st.integers(-6, 6).map(lambda n: Fraction(n, 2))
thirds = st.fractions(min_value=-3, max_value=3, max_denominator=3)
coords = st.one_of(halves, thirds)
base = st.builds(Quaternion, coords, coords, coords, coords)
points = st.builds(lambda q, s: q * s, base, st.sampled_from([ONE, HALF, SQRT2, SIGMA]))
quaternions = st.one_of(points, st.builds(lambda p, q: p * q, points, points))


def test_decimal_str_pins():
    assert decimal_str(TAU) == "1.6180339887498948"
    assert decimal_str(-TAU) == "-1.6180339887498948"
    assert decimal_str(SQRT2) == "1.4142135623730950"
    assert decimal_str(HALF) == "0.50000000000000000"
    assert decimal_str(ZERO) == "0"
    assert decimal_str(FieldElement(14400)) == "14400.000000000000"
    assert decimal_str(FieldElement(Fraction(1, 10**7))) == "1.0000000000000000e-07"
    assert decimal_str(FieldElement(10**20)) == "1.0000000000000000e+20"
    assert decimal_str(TAU, digits=5) == "1.6180"
    assert decimal_str(SQRT2 * HALF, digits=4) == "0.7071"


def test_decimal_str_needs_a_digit():
    for digits in (0, -1, MAX_DIGITS + 1):
        with pytest.raises(ValueError):
            decimal_str(TAU, digits=digits)
        with pytest.raises(ValueError):
            decimal_str(ZERO, digits=digits)


def test_decimal_str_tracks_float():
    for x in (TAU, SQRT2, TAU * TAU * HALF, SQRT2 + TAU):
        assert abs(float(decimal_str(x)) - float(x)) < 1e-15


@given(st.one_of(radicals, near_powers), digit_counts)
def test_decimal_str_matches_fraction_oracle(x, digits):
    assert decimal_str(x, digits) == oracle_decimal_str(x, digits)


@given(st.integers(1, 10**12), st.integers(-20, 20), st.booleans(), digit_counts)
def test_decimal_str_ties_match_fraction_oracle(m, j, neg, digits):
    """(10 m + 5) * 10**j is an exact tie at len(str(m)) digits."""
    x = (-1 if neg else 1) * FieldElement((10 * m + 5) * Fraction(10) ** j)
    for d in {len(str(m)), digits}:
        assert decimal_str(x, d) == oracle_decimal_str(x, d)


def test_field_json_round_trip():
    assert field_to_json(TAU) == {"1": "1/2", "sqrt5": "1/2"}
    assert field_to_json(ZERO) == {}
    for x in (TAU, -HALF, SQRT2 + TAU, FieldElement(0, 0, 0, Fraction(7, 3))):
        assert parse_field(field_to_json(x)) == x


@given(quaternions)
def test_json_writers_match_fraction_strings(q):
    for i in range(4):
        x = q.component(i)
        nums, den = x.raw
        assert field_to_json(x) == {name: str(Fraction(n, den)) for name, n in
                                    zip(("1", "sqrt2", "sqrt5", "sqrt10"), nums) if n}
    assert quaternion_to_json(q) == [field_to_json(q.component(i)) for i in range(4)]


@pytest.mark.parametrize("parse, doc, match", [
    (parse_field, {"sqrt3": "1"}, "must map names"),
    (parse_field, {"1": "1/2", "sqrt2 ": "3"}, "must map names"),
    (parse_field, {"1": 0.1}, "must map names"),
    (parse_field, {"sqrt5": 2}, "must map names"),
    (parse_field, "1/2", "must map names"),
    (parse_field, {"1": "1/0"}, "bad field coefficient"),
    (parse_field, {"1": "one"}, "bad field coefficient"),
    (parse_quaternion, [], "list of four"),
    (parse_quaternion, [{"1": "1"}], "list of four"),
    (parse_quaternion, [{}, {}, {}, {}, {}], "list of four"),
    (parse_quaternion, {"1": "1"}, "list of four"),
    (parse_quaternion, [{}, {}, {}, {"sqrt3": "1"}], "must map names"),
])
def test_json_readers_refuse_what_no_writer_writes(parse, doc, match):
    with pytest.raises(BadParameter, match=match):
        parse(doc)


def test_quaternion_json_round_trip():
    q = Quaternion(HALF, TAU * HALF, ZERO, -HALF * TAU.invert())
    doc = quaternion_to_json(q)
    assert parse_quaternion(doc) == q


def test_points_round_trip_bit_exact():
    pts = snub24_vertices()
    text = dumps(points_to_json(pts))
    parsed = parse_points(json.loads(text))
    assert tuple(parsed) == pts
    assert dumps(points_to_json(parsed)) == text == dumps(json.loads(text))


def test_dumps_writes_point_lists_in_place():
    """A point list is written where it sits, keys sorted around it; a
    document string that reads as a point list's stand-in is refused."""
    points = points_to_json([Quaternion(HALF), Quaternion(0, -TAU)])
    oracle = [quaternion_to_json(Quaternion(HALF)), quaternion_to_json(Quaternion(0, -TAU))]
    doc = {"z": points, "a": [points, {"y": points, "b": "x"}], "m": points_to_json([])}
    expected = {"z": oracle, "a": [oracle, {"y": oracle, "b": "x"}], "m": []}
    assert dumps(doc) == dumps(expected)
    with pytest.raises(ValueError, match="stand-in"):
        dumps({"a": "\0", "b": points})


# A few components, each point of them over one of a few denominators: the
# same numerators recur over different denominators, beside zeros,
# negatives and coefficients past 2**63.  The writers' memo keys on them.
wide = st.integers(-2**70, 2**70)
components = st.one_of(
    st.sampled_from([ZERO, ONE, -ONE, TAU, -SIGMA, SQRT2, -SQRT2 * TAU]),
    st.builds(FieldElement, wide, wide, wide, wide),
    radicals)
over = st.sampled_from([1, 2, 3, 2**65 + 1]).map(lambda d: FieldElement(Fraction(1, d)))
point_lists = st.lists(components, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.builds(lambda s, *c: Quaternion(*(x * s for x in c)),
                                    over, *[st.sampled_from(pool)] * 4), max_size=12))


def assert_writers_match_per_point(points):
    points = list(points)
    assert dumps(points_to_json(points)) == dumps([quaternion_to_json(q) for q in points])
    assert quaternion_coords(points) == [q.components for q in points]
    rows = [q.components[1:] for q in points]
    assert coords_to_json(rows) == [[field_to_json(x) for x in row] for row in rows]


@given(point_lists)
def test_writers_match_the_per_point_oracle(points):
    assert_writers_match_per_point(points)


def test_writers_answer_coefficients_past_int64():
    big = FieldElement(2**64 + 1, -(2**70), 0, Fraction(3, 2**65))
    points = [Quaternion(big, ZERO, -big, big), Quaternion(big * HALF, big, ONE, ZERO)]
    assert_writers_match_per_point(points)


# int64 rows over a denominator: small entries, which share factors with it,
# and entries at and near the int64 bound.
entries = st.one_of(st.integers(-6, 6), st.integers(-2**63 + 1, 2**63 - 1),
                    st.sampled_from([2**63 - 1, -(2**63 - 1), 2**62, 0]))
row_lists = st.lists(st.lists(entries, min_size=16, max_size=16), max_size=10)
dens = st.sampled_from([1, 2, 4, 6, 12, 2**62, 2**63 - 1])


def assert_row_writer_matches_per_point(rows, den):
    rows = np.array(rows, dtype=np.int64).reshape(-1, 16)
    oracle = dumps([quaternion_to_json(q) for q in quats_of(rows, den)])
    assert dumps(exports._token_list(exports._row_tokens(rows, den))) == oracle
    points = QuaternionSet.from_rows(rows, den)
    assert dumps(points_to_json(points)) == dumps([quaternion_to_json(q) for q in points])


@given(row_lists, dens)
def test_row_writer_matches_the_per_point_oracle(rows, den):
    assert_row_writer_matches_per_point(rows, den)


@given(st.lists(st.lists(st.integers(-3, 3), min_size=16, max_size=16), max_size=10),
       st.sampled_from([2, 3, 6, 10, 2**40]))
def test_row_writer_reduces_each_coefficient(rows, factor):
    """Rows sharing a factor with their denominator, each coefficient reduced alone."""
    assert_row_writer_matches_per_point(np.array(rows, dtype=np.int64).reshape(-1, 16) * factor,
                                        4 * factor)


def test_row_writer_answers_coefficients_at_the_int64_bound():
    top = 2**63 - 1
    rows = [[top, -top, 0, 1] * 4, [-top, 0, top, 2**62] * 4, [top] * 16]
    for den in (1, 3, top):
        assert_row_writer_matches_per_point(rows, den)


# The child makes engine.quats_of and FieldElement's constructor refuse once
# the package is imported, then serves one build request.
NO_SCALARS_CHILD = """
import contextlib, io, sys
from icosian import engine, field
from icosian.cli import main

def refuse(*args, **kwargs):
    raise AssertionError("a Quaternion row or a Fraction field element was made")

engine.quats_of = refuse
field.FieldElement.__init__ = refuse
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["build", sys.argv[1], "--out", "-"]) == 0
"""


@pytest.mark.parametrize("name", ["e8", "600cell", "24cell", "120cell"])
def test_fresh_point_set_builds_make_no_scalar_points(name):
    """A fresh build of a point set writes the int64 rows it is made from: no
    engine.quats_of and no FieldElement from Fractions."""
    package_root = os.path.dirname(os.path.dirname(icosian.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", NO_SCALARS_CHILD, name],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _120cell_points():
    cell120 = polytope.build_120cell()
    return {("vertices",): cell120.vertices,
            **{("partition", part): getattr(cell120, part)
               for part in ("t_prime", "s_prime", "m", "n")}}


# The point lists each build document writes, by their place in it.
BUILD_POINTS = {
    "e8": lambda: {("points",): e8_roots().roots},
    "600cell": lambda: {("points",): binary_icosahedral().elements},
    "24cell": lambda: {("points",): binary_tetrahedral().elements},
    "120cell": _120cell_points,
    "snub24": lambda: {("vertices",): polytope.snub_census().vertices},
    "dual-snub24": lambda: {("vertices",): dual.dual_complex().vertices},
}


@pytest.mark.parametrize("name", cli.BUILD_OBJECTS)
def test_build_documents_match_the_per_point_oracle(name):
    """Every point list, normal, offset and dual cell vertex a build document
    writes, read back from its bytes, is the per-point oracle's."""
    doc = json.loads(dumps(cli._build_doc(name)))
    for path, points in BUILD_POINTS[name]().items():
        assert_writers_match_per_point(points)
        node = doc
        for key in path:
            node = node[key]
        assert node == [quaternion_to_json(q) for q in points]
    if name == "snub24":
        cells = polytope.snub_census().cells
        assert_writers_match_per_point([c.normal for c in cells])
        assert [c["normal"] for c in doc["cells"]] == [quaternion_to_json(c.normal) for c in cells]
        assert [c["offset"] for c in doc["cells"]] == [field_to_json(c.offset) for c in cells]
    if name == "dual-snub24":
        cells = dual.dual_complex().cells
        assert_writers_match_per_point([c.vertex for c in cells])
        assert [c["vertex"] for c in doc["cells"]] == [quaternion_to_json(c.vertex) for c in cells]


@pytest.mark.parametrize("name", cli.EXPORT_OBJECTS)
def test_export_objects_know_their_face_edges(name):
    """The edges a whole-object OFF header counts are its faces' edges."""
    complex_ = cli._export_complex(name)
    assert set(complex_.edges) == hull.edges_of_faces(complex_.faces)


def test_whole_object_off_counts_no_face_edges(monkeypatch, capsys):
    """A whole-object OFF export takes its edge count from the complex."""
    for name in cli.EXPORT_OBJECTS:
        cli._export_complex(name)
    calls = []
    edges_of_faces = hull.edges_of_faces
    monkeypatch.setattr(hull, "edges_of_faces",
                        lambda faces: calls.append(1) or edges_of_faces(faces))
    for name in cli.EXPORT_OBJECTS:
        assert main(["export", name, "--format", "off", "--out", "-"]) == 0
    assert calls == []
    assert main(["export", "24cell", "--cell", "0", "--format", "off", "--out", "-"]) == 0
    assert calls == [1]


def test_dumps_canonical():
    assert dumps({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}\n'


def test_off_text_triangle():
    coords = [(ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)]
    text = off_text(coords, [(0, 1, 2)], 3, digits=3)
    assert text == (
        "OFF\n3 1 3\n"
        "1.00 0 0\n0 1.00 0\n0 0 1.00\n"
        "3 0 1 2\n"
    )


def test_build_e8(tmp_path):
    out = tmp_path / "e8.json"
    assert main(["build", "e8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["object"] == "e8"
    assert doc["count"] == 240
    assert set(parse_points(doc["points"])) == set(e8_roots().roots)


def test_build_snub24_stdout(capsys):
    assert main(["build", "snub24", "--out", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"] == [96, 432, 480, 144]
    kinds = [c["kind"] for c in doc["cells"]]
    assert kinds.count("tetrahedron") == 120
    assert kinds.count("icosahedron") == 24


def test_build_120cell(tmp_path):
    out = tmp_path / "c.json"
    assert main(["build", "120cell", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 600
    sizes = {k: len(v) for k, v in doc["partition"].items()}
    assert sizes == {"t_prime": 24, "s_prime": 96, "m": 192, "n": 288}


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["verify", "table1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "suite table1: passed" in printed
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


def _raise(exc):
    def fail(*args):
        raise exc
    return fail


@pytest.mark.parametrize("target, exc, argv", [
    ("snub_census", CertificationFailed("no strict supporting hyperplane"), ["build", "snub24"]),
    ("vertex_figure", CoplanarityFailed("the neighbors span no hyperplane"),
     ["export", "snub24", "--vertex-figure", "--format", "json"]),
])
def test_a_failed_certificate_exits_1(monkeypatch, capsys, target, exc, argv):
    monkeypatch.setattr(polytope, target, _raise(exc))
    assert main(argv + ["--out", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"certification failure: {exc}\n"


def test_verify_with_a_failing_check_exits_1(monkeypatch, capsys):
    table1 = verify.SUITES["table1"]

    def failing():
        cert = table1()
        cert.checks.append(verify.Check("table1.planted", False, "1", "0"))
        return cert

    monkeypatch.setitem(verify.SUITES, "table1", failing)
    assert main(["verify", "table1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    n = len(lines) - 2  # the checks, then the suite's tail and the verdict
    assert lines[-3] == "FAIL table1.planted: 0 (expected 1)"
    assert lines[-2] == f"suite table1: FAILED ({n} checks, 1 failing)"
    assert lines[-1] == f"FAIL: {n - 1}/{n} checks passed"


def test_export_snub_off(tmp_path):
    out = tmp_path / "snub.off"
    assert main(["export", "snub24", "--format", "off", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "4OFF"
    assert lines[1] == "96 480 432"
    assert len(lines) == 2 + 96 + 480


def test_export_vertex_figure(tmp_path):
    out = tmp_path / "vf.off"
    argv = ["export", "snub24", "--vertex-figure", "--format", "off",
            "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "9 8 15"
    sizes = sorted(int(line.split()[0]) for line in lines[2 + 9:])
    assert sizes == [3, 3, 3, 3, 3, 5, 5, 5]


def test_export_dual_cell_off(tmp_path):
    for obj in ("snub24", "dual-snub24"):
        out = tmp_path / f"cell-{obj}.off"
        argv = ["export", obj, "--dual-cell", "--format", "off", "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "OFF"
        assert lines[1] == "8 9 15"


def test_export_single_cells(tmp_path):
    out = tmp_path / "c.off"
    argv = ["export", "dual-snub24", "--cell", "0", "--format", "off",
            "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text().splitlines()[1] == "8 9 15"
    out2 = tmp_path / "c.json"
    argv = ["export", "snub24", "--cell", "0", "--format", "json",
            "--out", str(out2)]
    assert main(argv) == 0
    doc = json.loads(out2.read_text())
    assert doc["object"] == "snub24-cell-0"
    assert len(doc["coords"]) in (4, 12)
    out3 = tmp_path / "icosa.off"
    argv = ["export", "snub24", "--cell", "120", "--format", "off",
            "--out", str(out3)]
    assert main(argv) == 0
    assert out3.read_text().splitlines()[1] == "12 20 30"


def test_export_full_dual_off(tmp_path):
    out = tmp_path / "dual.off"
    argv = ["export", "dual-snub24", "--format", "off", "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "4OFF"
    assert lines[1] == "144 432 480"


def test_export_builds_each_census_once(monkeypatch, capsys):
    calls = []
    census = polytope.cell_census
    monkeypatch.setattr(polytope, "cell_census",
                        lambda vertices: calls.append(1) or census(vertices))
    cli._export_complex.cache_clear()
    try:
        for _ in range(2):
            assert main(["export", "24cell", "--cell", "3", "--format", "off",
                         "--out", "-"]) == 0
    finally:
        cli._export_complex.cache_clear()
    assert len(calls) == 1


def _outcome(call, argv, capsys):
    """rc, stdout and stderr of call(argv), whether it returns or exits."""
    try:
        rc = call(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_parser_is_built_once_and_keeps_no_state(capsys, run_cli):
    """A usage error, a cell export and the whole export in one process print
    exactly what each prints run alone."""
    whole = ["export", "24cell", "--format", "off", "--out", "-"]
    runs = [["orbit", "--weights", "1,2,3"], whole[:2] + ["--cell", "3"] + whole[2:], whole]
    together = [_outcome(main, argv, capsys) for argv in runs]
    alone = [run_cli(*argv) for argv in runs]
    assert together == [(r.returncode, r.stdout, r.stderr) for r in alone]
    assert [rc for rc, _, _ in together] == [2, 0, 0]
    assert cli._parser() is cli._parser()


PARSER = cli.make_parser()
GEOMETRY_REFS = json.loads((Path(__file__).resolve().parents[1] / "benchmarks" / "refs.json")
                           .read_text())["geometry"]


def geometry_requests() -> list[list[str]]:
    """Every request the geometry benchmark can send: one per digest it records."""
    reqs = [["build", obj, "--out", "-"] for obj in GEOMETRY_REFS["build"]]
    for d in ("17", "40"):
        off = ["--format", "off", "--digits", d, "--out", "-"]
        reqs += [["export", obj, *off] for obj in GEOMETRY_REFS["export"]]
        reqs += [["export", "snub24", flag, *off] for flag in ("--vertex-figure", "--dual-cell")]
        reqs += [["export", obj, "--cell", str(k), *off]
                 for obj, digests in GEOMETRY_REFS["cell"].items() for k in range(len(digests[d]))]
    return reqs


CI_REQUESTS = ([["verify", suite] for suite in cli.VERIFY_SUITES]
               + [["orbit", "--weights", w, "--decompose"]
                  for w in ("1,1,1,1", "1,0,0,0", "0,0,0,1", "0,1,0,0", "0,0,1,0")])


def test_benchmark_and_ci_requests_take_the_one_pass_reading():
    requests = geometry_requests() + CI_REQUESTS
    assert len(requests) == 1746 + 7 + 5
    for argv in requests:
        matched = cli._match(argv)
        assert matched is not None and matched == PARSER.parse_args(argv), argv


@pytest.mark.parametrize("requests", ["verify all", "geometry"])
def test_one_600cell_census_per_process(monkeypatch, capsys, cold_censuses, requests):
    """verify all, and the geometry requests (each kind: every build, every
    whole export, the vertex figure, the dual cell and cell 0 of each object)
    in one process, transport the cells of I once, and of T never (the
    24-cell's octahedra are certified off their nearest-point table): every
    snub census reads the one 600-cell census."""
    seen = []
    transport = polytope.transport_cells
    monkeypatch.setattr(polytope, "transport_cells", lambda cells, group: (
        seen.append(len(group)) or transport(cells, group)))
    argvs = ([["verify", "all"]] if requests == "verify all" else
             [argv for argv in geometry_requests()
              if "40" not in argv and ("--cell" not in argv or argv[3] == "0")])
    for argv in argvs:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert seen == [120]


def test_first_600cell_cell_request_crosses_only_the_faces_at_1(monkeypatch, capsys,
                                                                 cold_censuses):
    """The first export 600cell --cell K, after its census, passes engine.cross_rows
    the faces of the 20 tetrahedra at 1 and no more; a snub cell request after
    it crosses none: the snub inherits the 600-cell's cycles."""
    cli._export_complex("600cell")
    cli._export_complex("snub24")
    rows = []
    cross_rows = polytope.engine.cross_rows
    monkeypatch.setattr(polytope.engine, "cross_rows",
                        lambda *args: rows.append(len(args[0])) or cross_rows(*args))
    assert main(["export", "600cell", "--cell", "417", "--format", "off", "--out", "-"]) == 0
    assert main(["export", "snub24", "--cell", "130", "--format", "off", "--out", "-"]) == 0
    capsys.readouterr()
    assert rows == [80]


def test_builds_and_verify_all_orient_no_cell(monkeypatch, capsys, cold_censuses):
    """Only a cell request orients a census's faces: verify all and every
    build, cold, leave the cycles of every census unmade."""
    def refuse(complex_):
        raise AssertionError("a census oriented its cells' faces")

    monkeypatch.setattr(polytope.PolytopeComplex, "_cycles", property(refuse))
    for argv in [["verify", "all"]] + [["build", obj, "--out", "-"] for obj in cli.BUILD_OBJECTS]:
        assert main(argv) == 0, argv
    capsys.readouterr()


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_requests_never_build_the_parser(capsys):
    """A seeded geometry pass and verify all, served by main, build no argparse parser."""
    cli._parser.cache_clear()
    for argv in _load_workloads().generate("geometry", 1, 0) + [["verify", "all"]]:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert cli._parser.cache_info().currsize == 0


# Values each option takes, and values every argument refuses or argparse reads
# its own way: the bare "-", a negative number, the empty string, digits out
# of range, three weights and Arabic-Indic digits (int reads them as 17).
GOOD_VALUES = {"--format": ("off", "json"), "--cell": ("0", "3", "143"),
               "--digits": ("1", "17", "40", "1000"), "--weights": ("1,0,0,0", "2,0,1,3"),
               "--out": ("-", "x.json")}
ODD_VALUES = ("-", "-1", "", "0", "1001", "1,2,3", "\u0661\u0667")
ARGUMENTS = [(name, spec) for _, arguments in cli._GRAMMAR.values()
             for name, spec in arguments.items()]
TOKENS = sorted({*cli._GRAMMAR, *(name for name, _ in ARGUMENTS if name[0] == "-"),
                 *(choice for _, spec in ARGUMENTS for choice in spec.get("choices", ())),
                 *(value for values in GOOD_VALUES.values() for value in values), *ODD_VALUES,
                 "-h", "--help", "--", "-x", "--form", "--ce", "--dig", "--vert", "--we", "--dec",
                 "--o", "--format=off", "--out=-", "--cell=3"})


@st.composite
def requests(draw):
    """A request from the grammar, arguments in any order, then a few tokens
    dropped, inserted, replaced or swapped."""
    command = draw(st.sampled_from(sorted(cli._GRAMMAR)))
    groups = []
    for name, spec in cli._GRAMMAR[command][1].items():
        if draw(st.integers(0, 9)) < (9 if name[0] != "-" or spec.get("required") else 5):
            if spec.get("action"):
                groups.append([name])
                continue
            good = spec.get("choices") or GOOD_VALUES[name]
            value = draw(st.sampled_from(list(good) * 4 + list(ODD_VALUES)))
            groups.append([value] if name[0] != "-" else [name, value])
    argv = [command] + [token for group in draw(st.permutations(groups)) for token in group]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("drop", "insert", "replace", "swap")))
        token = draw(st.sampled_from(TOKENS))
        if edit == "insert":
            argv.insert(at, token)
        elif at < len(argv):
            if edit == "drop":
                del argv[at]
            elif edit == "replace":
                argv[at] = token
            else:
                other = draw(st.integers(0, len(argv) - 1))
                argv[at], argv[other] = argv[other], argv[at]
    return argv


@given(st.one_of(requests(), st.lists(st.sampled_from(TOKENS), max_size=8)))
@settings(max_examples=1000, deadline=None)
def test_match_is_argparse_or_defers_to_it(argv):
    """The one-pass reading is argparse's namespace, or None: never another
    namespace, and None wherever argparse prints help or a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = PARSER.parse_args(argv)
        except SystemExit:
            parsed = None
    matched = cli._match(argv)
    assert matched is None or parsed is not None and vars(matched) == vars(parsed)


EXPORT = ["export", "24cell", "--format", "off", "--out", "-"]


@pytest.mark.parametrize("argv", [
    ["bogus"], ["-h"], [*EXPORT, "-h"], [*EXPORT, "--help"],
    ["export", "24cell", "--form", "off", "--out", "-"],
    ["export", "24cell", "--format=off", "--out", "-"], ["export", "--", *EXPORT[1:]],
    [*EXPORT, "--out", "x"], [*EXPORT, "--dual-cell", "--dual-cell"], [*EXPORT, "--cell", "-1"],
    [*EXPORT, "24cell"], [*EXPORT, "--cell", ""], [*EXPORT, "--cell", "x"],
    [*EXPORT, "--digits", "0"], ["export", "4cell", *EXPORT[2:]], EXPORT[:-2],
    EXPORT[:1] + EXPORT[2:], ["orbit", "--weights", "1,0,0,0", "x"],
    ["orbit", "--weights", "1,0,0"],
], ids=" ".join)
def test_match_defers_each_doubt(argv):
    """An unknown command, help, an abbreviation, "--x=y", "--", a repeated
    option, a value starting with "-", a second positional, a value its
    converter or choices refuse, and a missing option or positional."""
    assert cli._match(argv) is None


# Help and usage errors, all printed by argparse; the same table runs in fresh
# processes in CI, against digests of each rc, stdout and stderr.
HELP_AND_USAGE = [
    ["--help"], ["-h"], *([command, flag] for command in cli._GRAMMAR for flag in ("--help", "-h")),
    [], ["verify"], ["build", "bogus", "--out", "-"], ["build", "24cell"],
    ["build", "24cell", "extra", "--out", "-"], ["orbit", "--weights", "1,2,3"],
    *(["export", "24cell", "--format", "off", "--digits", d, "--out", "-"] for d in ("0", "1001")),
]


@pytest.mark.parametrize("argv", HELP_AND_USAGE, ids=" ".join)
def test_help_and_usage_errors_are_argparse_bytes(argv, capsys):
    outcome = _outcome(main, argv, capsys)
    assert outcome == _outcome(cli.make_parser().parse_args, argv, capsys)
    assert outcome[0] == (0 if "-h" in argv or "--help" in argv else 2)


@pytest.mark.parametrize("spelling", [["--form", "off"], ["--format=off"]], ids=" ".join)
def test_other_spellings_print_the_exact_spellings_bytes(spelling, capsys):
    head, out = ["export", "24cell", "--cell", "3"], ["--out", "-"]
    exact = _outcome(main, head + ["--format", "off"] + out, capsys)
    assert cli._match(head + spelling + out) is None
    assert _outcome(main, head + spelling + out, capsys) == exact
    assert exact[0] == 0 and exact[1].startswith("OFF")


def test_selector_errors(capsys):
    assert main(["export", "24cell", "--vertex-figure", "--format", "off",
                 "--out", "-"]) == 2
    assert main(["export", "dual-snub24", "--vertex-figure", "--format", "off",
                 "--out", "-"]) == 2
    assert main(["export", "600cell", "--dual-cell", "--format", "off",
                 "--out", "-"]) == 2
    assert main(["export", "snub24", "--cell", "999", "--format", "off",
                 "--out", "-"]) == 2
    assert main(["export", "snub24", "--cell", "0", "--dual-cell",
                 "--format", "off", "--out", "-"]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_2():
    for argv in (["verify", "bogus"],
                 ["build", "bogus", "--out", "-"],
                 ["orbit", "--weights", "0,0,0,0"],
                 ["orbit", "--weights", "1,2,3"],
                 ["orbit", "--weights", "a,b,c,d"],
                 ["export", "24cell", "--format", "off", "--digits", "0", "--out", "-"],
                 ["export", "24cell", "--format", "off", "--digits", "-2", "--out", "-"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


# The weight table's entries are at most 9 over its denominator, so weights
# summing to 2**63 / 9 or more could leave int64; these sum to 1.1e18 + 1.
PAST_INT64 = "1100000000000000000,0,0,1"


def test_orbit_weights_past_int64_exit_2(capsys):
    assert main(["orbit", "--weights", PAST_INT64]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    # Large weights that keep every sum inside int64 are still answered.
    for weights in ("99999999999,0,0,1", "99999999999999999,0,0,1"):
        assert main(["orbit", "--weights", weights]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "orbit size: 2400"


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["build", "24cell", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
    assert not out.parent.exists()


def test_bad_input_reports_without_traceback(tmp_path, run_cli):
    for args in (("export", "24cell", "--format", "off", "--digits", "0", "--out", "-"),
                 ("orbit", "--weights", PAST_INT64),
                 ("build", "24cell", "--out", str(tmp_path / "missing" / "x.json")),
                 # Past MAX_DIGITS, before Python's int-to-str limit and past it.
                 *(("export", "24cell", "--cell", "0", "--format", "off",
                    "--digits", digits, "--out", "-")
                   for digits in (str(MAX_DIGITS + 1), "4000"))):
        result = run_cli(*args)
        assert result.returncode == 2, result.stderr
        assert "error:" in result.stderr and "Traceback" not in result.stderr


def test_export_at_digit_limit(capsys):
    assert main(["export", "24cell", "--cell", "0", "--format", "off",
                 "--digits", str(MAX_DIGITS), "--out", "-"]) == 0
    first = capsys.readouterr().out.splitlines()[2].split()[0].lstrip("-")
    assert first.startswith("0.7071") and len(first) == len("0.") + MAX_DIGITS


def test_orbit_command(tmp_path, capsys):
    out = tmp_path / "orbit.json"
    argv = ["orbit", "--weights", "1,0,0,0", "--decompose", "--out", str(out)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "weights: 1,0,0,0"
    assert lines[1] == "orbit size: 120"
    assert lines[2] == "decomposition: 120 = 24+96"
    doc = json.loads(out.read_text())
    assert doc == {"weights": [1, 0, 0, 0], "size": 120,
                   "decomposition": [24, 96]}


def test_orbit_regular(capsys):
    assert main(["orbit", "--weights", "1,1,1,1", "--decompose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "orbit size: 14400"
    assert lines[2] == "decomposition: 14400 = 25(576)"


@pytest.mark.parametrize("weights, expected", [
    ("2,0,1,3", "weights: 2,0,1,3\norbit size: 7200\n"
                "decomposition: 7200 = 5(288)+10(576)\n"
                '{"decomposition":[288,288,288,288,288,576,576,576,576,576,576,576,576,576,576],'
                '"size":7200,"weights":[2,0,1,3]}\n'),
    ("0,3,0,1", "weights: 0,3,0,1\norbit size: 3600\n"
                "decomposition: 3600 = 144+4(288)+4(576)\n"
                '{"decomposition":[144,288,288,288,288,576,576,576,576],'
                '"size":3600,"weights":[0,3,0,1]}\n'),
], ids=["2,0,1,3", "0,3,0,1"])
def test_orbit_weights_beyond_masks(capsys, weights, expected):
    assert main(["orbit", "--weights", weights, "--decompose", "--out", "-"]) == 0
    assert capsys.readouterr().out == expected


def test_console_script_and_determinism(tmp_path, run_cli, console_scripts):
    assert console_scripts["icosian"] == "icosian.cli:main"
    texts = []
    for seed in ("1", "2"):
        out = tmp_path / f"snub-{seed}.off"
        result = run_cli("export", "snub24", "--format", "off", "--out", str(out),
                         hashseed=seed)
        assert result.returncode == 0, result.stderr
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    bad = run_cli("verify", "nope")
    assert bad.returncode == 2
