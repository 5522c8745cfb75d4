"""Command-line output is byte-identical to the recorded reference digests.

benchmarks/refs.json holds the sha256 of the stdout of every build and
export request of the geometry benchmark; this test only reads it.  The
geometry benchmark exports OFF only, so a sample of ``--format json``
exports is pinned here by digests recorded before the JSON writers were
made Fraction-free, and so are three ``orbit --decompose`` reports, recorded
before orbits were keyed on packed rows, and all fifteen masked ones, recorded
before every weight orbit was read off one table of weight frames.
"""

import hashlib
import json
from pathlib import Path

import pytest

from icosian import cli
from icosian.roots import ALL_MASKS

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


JSON = ["--format", "json", "--out", "-"]
JSON_DIGESTS = {
    ("snub24", "--cell", "7"):
        "31084cd5b2b25ca7a86900ae30cbb5570c95f592bdc49bbec32a58f0cfbbe76d",
    ("snub24", "--cell", "130"):
        "a719e3a4fa404777a8981d00e60efdc875f84940d362ae8f5f696ef1e35bc1c0",
    ("dual-snub24", "--cell", "50"):
        "4ef692616e94da43606e416b6fcff6244aa4999c1362f25df8a15a8a0bd38fff",
    ("600cell", "--cell", "321"):
        "69407389372863a14f5b2c232dd9de82e40ffe73fb1a1476502e7b441aabbd78",
    ("snub24", "--vertex-figure"):
        "46c846499b4288940288ab39b64b44470b7d08d3a73c867a289b9e04e9ae84e0",
    ("snub24", "--dual-cell"):
        "ecd935171c32998363228e332b634a6b7b70045529a6a4cc23737a8feaa38ca4",
    ("24cell",):
        "48f266e889f8d925f05e39fddfea7c5f83408f76c655881f7e96b3f680404e4d",
}


@pytest.mark.parametrize("args", JSON_DIGESTS, ids="-".join)
def test_json_export_matches_pinned_digest(args, capsys):
    assert cli.main(["export", *args, *JSON]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == JSON_DIGESTS[args]


ORBIT_DIGESTS = {
    "1,2,3,4": "73b561593ef739ce56a01f95776b5671b13a2e8c2ecaf013eb97baf26d9a9ac9",
    "2,0,1,0": "e75d4a7fb9d91e34eb24a024673099a32230639126ae0702d99a91f53f6ad55b",
    "0,3,0,1": "8f9c4ef3a36ff535bf13920c974670398ec769e54d4567265dc41b51a2f2486d",
}


@pytest.mark.parametrize("weights", ORBIT_DIGESTS)
def test_orbit_decomposition_matches_pinned_digest(weights, capsys):
    assert cli.main(["orbit", "--weights", weights, "--decompose"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == ORBIT_DIGESTS[weights]


def test_every_masked_orbit_report_matches_pinned_digest(capsys):
    for mask in ALL_MASKS:
        weights = ",".join(map(str, mask))
        assert cli.main(["orbit", "--weights", weights, "--decompose", "--out", "-"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "ab3a925395554d180bde1398a217e7a06bc03261c8eb7015dc966b3377dd3e35"
