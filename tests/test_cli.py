"""Exports and the command line: OFF/JSON emission, selectors, exit codes."""

import json
from fractions import Fraction

import pytest

from icosian import cli, e8_roots, polytope, snub24_vertices
from icosian.cli import main
from icosian.exports import (decimal_str, dumps, field_to_json, off_text,
                             parse_field, parse_points, parse_quaternion,
                             points_to_json, quaternion_to_json)
from icosian.field import HALF, ONE, SQRT2, TAU, ZERO, FieldElement
from icosian.quaternion import Quaternion


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
    for digits in (0, -1):
        with pytest.raises(ValueError):
            decimal_str(TAU, digits=digits)
        with pytest.raises(ValueError):
            decimal_str(ZERO, digits=digits)


def test_decimal_str_tracks_float():
    for x in (TAU, SQRT2, TAU * TAU * HALF, SQRT2 + TAU):
        assert abs(float(decimal_str(x)) - float(x)) < 1e-15


def test_field_json_round_trip():
    assert field_to_json(TAU) == {"1": "1/2", "sqrt5": "1/2"}
    assert field_to_json(ZERO) == {}
    for x in (TAU, -HALF, SQRT2 + TAU, FieldElement(0, 0, 0, Fraction(7, 3))):
        assert parse_field(field_to_json(x)) == x


def test_quaternion_json_round_trip():
    q = Quaternion(HALF, TAU * HALF, ZERO, -HALF * TAU.invert())
    doc = quaternion_to_json(q)
    assert parse_quaternion(doc) == q


def test_points_round_trip_bit_exact():
    pts = snub24_vertices()
    doc = points_to_json(pts)
    parsed = parse_points(doc)
    assert tuple(parsed) == pts
    assert points_to_json(parsed) == doc
    assert dumps(doc) == dumps(json.loads(dumps(doc)))


def test_dumps_canonical():
    assert dumps({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}\n'


def test_off_text_triangle():
    coords = [(ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)]
    text = off_text(coords, [(0, 1, 2)], digits=3)
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


def test_orbit_weights_past_int64_exit_2(capsys):
    assert main(["orbit", "--weights", "99999999999999999,0,0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    # Large weights that keep every product inside int64 are still answered.
    assert main(["orbit", "--weights", "99999999999,0,0,1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "orbit size: 2400"


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["build", "24cell", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
    assert not out.parent.exists()


def test_bad_input_reports_without_traceback(tmp_path, run_cli):
    for args in (("export", "24cell", "--format", "off", "--digits", "0", "--out", "-"),
                 ("orbit", "--weights", "99999999999999999,0,0,1"),
                 ("build", "24cell", "--out", str(tmp_path / "missing" / "x.json"))):
        result = run_cli(*args)
        assert result.returncode == 2, result.stderr
        assert "error:" in result.stderr and "Traceback" not in result.stderr


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
