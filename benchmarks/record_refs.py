"""Record the reference outputs the benchmark gate compares against.

    python3 benchmarks/record_refs.py

Run from the root of a checkout of the commit whose outputs are the
reference; it rewrites ``benchmarks/refs.json``.  It records:

* ``certify``: the sha256 and verdict line of ``verify all``;
* ``geometry``: the sha256 of every request the geometry workload can draw,
  so the gate is exact for any seed.

The 600cell census is the same object on every ``--cell`` request; it is
built once here and reused, which changes no output byte (spot-checked
against the uncached path).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import icosian.cli as cli  # noqa: E402
import workloads  # noqa: E402


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return out.getvalue()


def off(obj, *extra, digits) -> str:
    return workloads.sha256(run(["export", obj, *extra, "--format", "off",
                                 "--digits", str(digits), "--out", "-"]))


def main() -> None:
    certify = run(["verify", "all"])
    refs = {"certify": {"sha256": workloads.sha256(certify),
                        "last_line": certify.splitlines()[-1]}}

    digits = [str(d) for d in workloads.DIGITS]
    geo = {"build": {obj: workloads.sha256(run(["build", obj, "--out", "-"]))
                     for obj in workloads.BUILD_OBJECTS}}
    geo["export"] = {obj: {d: off(obj, digits=d) for d in digits}
                     for obj in workloads.EXPORT_OBJECTS}
    for flag in ("--vertex-figure", "--dual-cell"):
        geo[flag.lstrip("-")] = {d: off("snub24", flag, digits=d) for d in digits}

    spot = {d: [off("600cell", "--cell", str(k), digits=d) for k in (0, 599)]
            for d in digits}
    census = cli._export_complex("600cell")
    uncached = cli._export_complex
    cli._export_complex = lambda name: census if name == "600cell" else uncached(name)
    geo["cell"] = {}
    for obj, n in workloads.CELL_COUNTS.items():
        geo["cell"][obj] = {d: [off(obj, "--cell", str(k), digits=d) for k in range(n)]
                            for d in digits}
        print(obj, n, "cells", file=sys.stderr)
    cli._export_complex = uncached
    for d in digits:
        if [geo["cell"]["600cell"][d][k] for k in (0, 599)] != spot[d]:
            raise SystemExit("reusing the 600cell census changed an output")
    refs["geometry"] = geo

    (HERE / "refs.json").write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
