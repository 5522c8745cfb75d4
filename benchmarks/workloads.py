"""Seeded request lists for the two workloads, and the output gate.

A pass is the request list one cold interpreter serves, closed loop.  Each
pass holds the same mix of request kinds, in the same order, whatever the
seed, so that the latency distribution and its quantiles do not depend on
which inputs the seed drew.  The seed chooses only the free parameters:
the cell indices and digits of each kind of cell export.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("certify", "geometry")
REFS_PATH = Path(__file__).with_name("refs.json")

BUILD_OBJECTS = ("e8", "600cell", "24cell", "120cell", "snub24", "dual-snub24")
EXPORT_OBJECTS = ("snub24", "dual-snub24", "600cell", "24cell")
CELL_COUNTS = {"snub24": 144, "dual-snub24": 96, "24cell": 24, "600cell": 600}
# Single-cell exports per pass, by object and index range.  Cells of one
# range cost the same; snub24 lists its 120 tetrahedra before its 24
# icosahedra, which cost ten times more.  Every 600cell request rebuilds
# the 600-cell census (about a second each): the tail of this workload.
CELL_STRATA = (("snub24", range(0, 120), 6), ("snub24", range(120, 144), 2),
               ("dual-snub24", range(96), 8), ("24cell", range(24), 6),
               ("600cell", range(600), 4))
DIGITS = (17, 40)


def generate(workload: str, seed: int, pass_index: int) -> list[list[str]]:
    """The argv list of one pass; identical for identical arguments."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "certify":
        return [["verify", "all"]]
    if workload == "geometry":
        reqs = [["build", obj, "--out", "-"] for obj in BUILD_OBJECTS]
        reqs += [["export", obj, "--format", "off", "--digits", str(d), "--out", "-"]
                 for obj in EXPORT_OBJECTS for d in DIGITS]
        reqs += [["export", "snub24", flag, "--format", "off", "--digits", str(d), "--out", "-"]
                 for flag in ("--vertex-figure", "--dual-cell") for d in DIGITS]
        for obj, indices, n in CELL_STRATA:
            digits = list(DIGITS) * (n // 2)
            rng.shuffle(digits)
            for k, d in zip(rng.sample(indices, n), digits):
                reqs.append(["export", obj, "--cell", str(k), "--format", "off",
                             "--digits", str(d), "--out", "-"])
        return reqs
    raise ValueError(f"unknown workload {workload!r}")


def geometry_key(argv) -> tuple:
    """Where a geometry request's digest sits in the reference table."""
    if argv[0] == "build":
        return ("build", argv[1])
    obj, digits = argv[1], argv[argv.index("--digits") + 1]
    if "--cell" in argv:
        return ("cell", obj, digits, int(argv[argv.index("--cell") + 1]))
    for flag in ("--vertex-figure", "--dual-cell"):
        if flag in argv:
            return (flag.lstrip("-"), digits)
    return ("export", obj, digits)


def lookup(refs: dict, key: tuple):
    node = refs["geometry"]
    for part in key:
        node = node[part]
    return node


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def gate(workload: str, refs: dict, argv, rc, text) -> str | None:
    """None when the request's output matches the reference, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    if text is None:
        return "no output"
    if workload == "certify":
        lines = text.splitlines()
        if not lines or lines[-1] != refs["certify"]["last_line"]:
            return "verdict line differs"
        if sha256(text) != refs["certify"]["sha256"]:
            return "stdout digest differs"
        return None
    try:
        expected = lookup(refs, geometry_key(argv))
    except (KeyError, IndexError, ValueError):
        return "no reference for this request"
    if sha256(text) != expected:
        return "output digest differs"
    return None
