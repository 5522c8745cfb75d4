"""Command-line output is byte-identical to the recorded reference digests.

benchmarks/refs.json holds the sha256 of the stdout of every build and
export request of the geometry benchmark; this test only reads it.  The
geometry benchmark exports OFF only, so a sample of ``--format json``
exports is pinned here by digests recorded before the JSON writers were
made Fraction-free, and so are three ``orbit --decompose`` reports, recorded
before orbits were keyed on packed rows, and all fifteen masked ones, recorded
before every weight orbit was read off one table of weight frames.  No
output covers a whole census of the snub's four other embeddings, so each
census is pinned by one digest of its vertices, edges, faces, cells and
incidence, recorded before a complex was held as its arrays.
"""

import hashlib
import json
from pathlib import Path

import pytest

from icosian import binary_icosahedral, binary_tetrahedral, cell_census, cli, embedding_censuses
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


def census_digest(complex_) -> str:
    """The sha256 of a census's vertices, edges, faces, cells (vertex indices,
    kind, normal, offset) and incidence, each number written exactly: a
    quaternion as its integer numerators over its denominator, in lowest terms."""
    doc = {"vertices": [q.ivec for q in complex_.vertices], "edges": complex_.edges,
           "faces": complex_.faces, "cells": [(c.vertex_indices, c.kind, c.normal.ivec,
                                               c.offset.raw) for c in complex_.cells],
           "incidence": complex_.incidence}
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


CENSUSES = {
    "600cell": lambda: cell_census(binary_icosahedral().elements),
    "24cell": lambda: cell_census(binary_tetrahedral().elements),
    # Embedding 0 is the snub census.
    **{f"embedding {i}": (lambda i=i: embedding_censuses()[i]) for i in range(5)},
}
CENSUS_DIGESTS = {
    "600cell": "3eca0fe6eef536f221e97fb755704fb79d6cceb2bcea2112400de883a55c55e8",
    "24cell": "d55e8a6d87e481a36d9f2569a90b61616e37471d04952f520a48a54f846e5f7b",
    "embedding 0": "ba2c4ee5f875d6dbaaaf9cf8ec00f057fc3f4236bcd6b622a107e8496974a15d",
    "embedding 1": "b584c497202e74faf3fa3ee6d8e5bd628f873b8d53dff13d95613ec62985325e",
    "embedding 2": "00f6ec5b7c4b300188f60afb99ecfe6eb1a1e0f065efe2b0e4aacbe30ca073d4",
    "embedding 3": "37f10caf2e3c1620e0d2766d05ed41875cfd39bceda3343219559de58b049446",
    "embedding 4": "84cc62b3ef262c46bb3ac7a1cd33495036e729bb7ec6ba4d2d3740ed91838d1e",
}


@pytest.mark.parametrize("name", CENSUS_DIGESTS)
def test_census_matches_pinned_digest(name):
    assert census_digest(CENSUSES[name]()) == CENSUS_DIGESTS[name]
