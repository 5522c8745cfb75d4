"""Certificate objects: check lines, displayed values, suite selection, and JSON form."""

import pytest

from icosian import Quaternion, run_suite, snub24_vertices
from icosian.errors import InvalidSelector
from icosian.verify import Check, Certificate, _show, format_certificates


def test_check_lines():
    good = Check("orders match", True, "24", "24")
    assert good.passed
    assert good.format_line() == "ok   orders match: 24"
    bad = Check("orders match", False, "24", "25")
    assert not bad.passed
    line = bad.format_line()
    assert "FAIL" in line and "24" in line and "25" in line


def test_certificate_aggregates():
    cert = Certificate("demo", [Check("a", True, "1", "1"),
                                Check("b", True, "2", "2")])
    assert cert.passed
    lines = cert.format_lines()
    assert lines[-1] == "suite demo: passed (2 checks)"
    doc = cert.to_json()
    assert doc["suite"] == "demo"
    assert doc["passed"] is True
    assert len(doc["checks"]) == 2


def test_run_suite_selection():
    certs = run_suite("table1")
    assert len(certs) == 1
    assert certs[0].passed
    text = format_certificates(certs)
    assert "ok   " in text
    assert text.endswith("PASS: %d/%d checks passed" % (
        len(certs[0].checks), len(certs[0].checks)))
    with pytest.raises(InvalidSelector):
        run_suite("nonsense")


def test_show_formats_each_distinct_quaternion_once():
    points = snub24_vertices()
    copies = tuple(q + Quaternion(0) for q in points)  # equal values, other objects
    whole = str(points)
    Quaternion.__str__.cache_clear()
    assert _show(points) == _show(copies) == whole[:80] + f"... ({len(whole)} chars)"
    info = Quaternion.__str__.cache_info()
    assert (info.misses, info.hits) == (96, 96)
