"""Command-line output is byte-identical to the recorded reference digests.

benchmarks/refs.json holds the sha256 of the stdout of every build and
export request of the geometry benchmark; this test only reads it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from icosian import cli

REFS = json.loads((Path(__file__).resolve().parents[1] / "benchmarks" / "refs.json")
                  .read_text())["geometry"]
OFF = ["--format", "off", "--digits", "17", "--out", "-"]

REQUESTS = (
    [(["build", obj, "--out", "-"], ("build", obj)) for obj in REFS["build"]]
    + [(["export", obj, *OFF], ("export", obj, "17")) for obj in REFS["export"]]
    + [(["export", "snub24", flag, *OFF], (flag[2:], "17"))
       for flag in ("--vertex-figure", "--dual-cell")]
    # snub24 lists its 120 tetrahedra first, so cell 130 is an icosahedron.
    + [(["export", obj, "--cell", str(k), *OFF], ("cell", obj, "17", k))
       for obj, k in (("snub24", 7), ("snub24", 130), ("dual-snub24", 50),
                      ("24cell", 11), ("600cell", 321))]
)


@pytest.mark.parametrize("argv, key", REQUESTS,
                         ids=["-".join(map(str, key)) for _, key in REQUESTS])
def test_output_matches_reference_digest(argv, key, capsys):
    assert cli.main(argv) == 0
    expected = REFS
    for part in key:
        expected = expected[part]
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == expected
