"""The icosian benchmark: cold CLI processes, digest-gated, one JSON line out.

    python3 benchmarks/run.py --workload {certify,geometry}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs installing.  Each
pass is a fresh interpreter (``benchmarks/child.py``, ``PYTHONPATH=src``,
``PYTHONHASHSEED=0``, ``OPENBLAS_NUM_THREADS=1``, no ``ICOSIAN_*`` or
other ``PYTHON*`` variables) that imports ``icosian.cli`` and serves the
pass's requests one after another through ``icosian.cli.main``.  With ``--trace 0`` a run makes
``round(--seconds / PASS_S[workload])`` passes, each with new seeded
inputs, with import-only interpreters between them for ``setup_s``, and
the end-to-end metrics of BENCHMARK.json are printed.  With ``--trace 1`` the
first pass runs twice, plainly and under the tracer of ``tracer.py``, and
the per-layer metrics are printed.  Every output is checked against
``refs.json`` (see ``workloads.gate``); a mismatch counts as a failed
request.  A full record of the run, its request lists included, goes to
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# Nominal pass length per workload on the reference machine (2 cores,
# Python 3.11).  The pass count of a run follows from ``--seconds`` and
# these alone, never from the speed being measured, so every run of a
# workload has the same number of latency samples.
PASS_S = {"certify": 17.0, "geometry": 10.0}
SETUP_PROBES = 4      # import-only interpreters before each pass and after the last
BUDGET_S = 170.0      # every child is killed once the run has used this much


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("ICOSIAN_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # The program makes no BLAS call (its matrix products are on int64),
    # but importing numpy starts OpenBLAS's thread pool, which waits for
    # the other core: set-up then varies by 40-60 % with the load there.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(requests, deadline: float, trace: bool = False, spans=None) -> dict:
    """Serve one pass in a fresh interpreter; ``error`` is set if it broke."""
    spec = json.dumps({"requests": requests, "trace": trace,
                       "spans": str(spans) if spans else None})
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")], cwd=ROOT,
                            env=child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(spec, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "pass exceeded the run's time budget", "requests": []}
    try:
        report = json.loads(out.splitlines()[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        report = None
    if report is None:
        return {"error": f"child exited {proc.returncode}: {err[-2000:]}",
                "requests": []}
    report["setup_s"] = report["imported"] - spawned
    report["wall_s"] = report["end"] - report["start"]
    return report


def gate_pass(workload: str, refs: dict, requests, report: dict) -> list[dict]:
    """One row per request sent: argv, latency, exit code and gate verdict."""
    rows = []
    answered = {i: r for i, r in enumerate(report["requests"])}
    for i, argv in enumerate(requests):
        rec = answered.get(i)
        if rec is None:
            rows.append({"argv": argv, "s": None, "rc": None,
                         "fail": report.get("error") or "not answered"})
            continue
        reason = rec["error"] or workloads.gate(workload, refs, argv, rec["rc"], rec["out"])
        rows.append({"argv": argv, "s": rec["s"], "rc": rec["rc"], "fail": reason,
                     "sha256": workloads.sha256(rec["out"])})
    return rows


def tail(values: list[float]) -> float:
    """The highest sample with ten samples beyond it: the (n - 10)th of n.
    With ten samples or fewer (``certify``) there is none; the largest
    is taken."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else ordered[-1]


def end_to_end(setups, passes) -> dict[str, float]:
    walls = [p["wall_s"] for p in passes if "wall_s" in p]
    lat = [r["s"] for p in passes for r in p["rows"] if r["s"] is not None]
    if not walls or not lat:
        return {}
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "req_p50_s": statistics.median(lat),
        "req_p90_s": tail(lat),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in passes
                                         if "maxrss_kb" in p),
    }


def _traced(trace: dict, layer: str, fn: str) -> str:
    """The traced callable a metric names: a function, or a unique method."""
    if f"{layer}.{fn}" in trace["calls"]:
        return f"{layer}.{fn}"
    found = [n for n in trace["calls"]
             if n.startswith(layer + ".") and n.endswith("." + fn) and n.count(".") == 2]
    if len(found) != 1:
        raise KeyError(f"no single traced callable for {layer}.{fn}")
    return found[0]


COUNTERS = ("engine.points_kept", "engine.images", "engine.pairwise_dots.entries",
            "exports.bytes_out")


def per_layer(name: str, trace: dict, overhead: float) -> float:
    """Resolve one per-layer metric name against the tracer's summary."""
    if name in COUNTERS:
        return trace["counters"].get(name, 0)
    if name == "engine.kernel_madds":  # 16x16 integer matrix per image
        return trace["counters"].get("engine.images", 0) * 256
    if name == "trace.overhead_s":
        return overhead
    if name == "trace.spans":
        return trace["spans"]
    parts = name.split(".")
    if parts[0] == "cache":
        hits, misses = trace["cache"][parts[1]]
        return hits if parts[2] == "hits" else misses
    if parts[1] == "self_s":
        return trace["self_s"][parts[0]]
    if parts[:2] == ["verify", "suite"]:
        return trace["total_s"][f"verify.suite_{parts[2][:-2]}"]
    if parts[-1] == "calls":
        return trace["calls"][_traced(trace, parts[0], parts[1])]
    if parts[1].endswith("_s"):
        return trace["total_s"][_traced(trace, parts[0], parts[1][:-2])]
    raise KeyError(name)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def timed_passes(workload: str, seed: int, seconds: float, refs: dict,
                 deadline: float) -> tuple[list[float], list[dict]]:
    """A fixed number of passes for ``seconds``, with set-up probes
    spread between them so that ``setup_s`` samples the whole run."""
    setups, passes = [], []

    def probe() -> None:
        for _ in range(SETUP_PROBES):
            report = run_child([], deadline)
            if "setup_s" in report:
                setups.append(report["setup_s"])

    for index in range(max(1, round(seconds / PASS_S[workload]))):
        probe()
        requests = workloads.generate(workload, seed, index)
        report = run_child(requests, deadline)
        report["rows"] = gate_pass(workload, refs, requests, report)
        passes.append(report)
        if "setup_s" in report:
            setups.append(report["setup_s"])
        if "error" in report:
            return setups, passes
    probe()
    return setups, passes


def traced_pair(workload: str, seed: int, refs: dict, deadline: float,
                spans: Path) -> list[dict]:
    """The first pass twice: plainly, then under the tracer; both gated."""
    requests = workloads.generate(workload, seed, 0)
    passes = [run_child(requests, deadline),
              run_child(requests, deadline, trace=True, spans=spans)]
    for label, report in zip(("plain", "traced"), passes):
        report["label"] = label
        report["rows"] = gate_pass(workload, refs, requests, report)
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "icosian" / "cli.py").is_file():
        print("error: no icosian sources under src/; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = workloads.load_refs()
    RESULTS.mkdir(exist_ok=True)
    began = time.monotonic()
    deadline = began + BUDGET_S
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    overhead, trace, setups = None, None, []
    if args.trace:
        passes = traced_pair(args.workload, args.seed, refs, deadline,
                             RESULTS / f"{stem}.spans.json")
        plain, traced = passes
        if "trace" in traced and "wall_s" in plain:
            overhead = traced["wall_s"] - plain["wall_s"]
            trace = traced["trace"]
        wanted = spec["per_layer"]
        values = {m["name"]: per_layer(m["name"], trace, overhead)
                  for m in wanted} if trace else {}
    else:
        setups, passes = timed_passes(args.workload, args.seed, args.seconds,
                                      refs, deadline)
        wanted = spec["end_to_end"]
        values = end_to_end(setups, passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    rows = [r for p in passes for r in p["rows"]]
    failed = sum(1 for r in rows if r["fail"] is not None)
    correct = failed == 0 and len(metrics) == len(wanted)
    sampled = [r["s"] for r in rows if r["s"] is not None]
    first = next((p for p in passes if "python" in p), {})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": len(rows),
        "failed": failed, "fail_frac": failed / len(rows),
        "latency_samples": len(sampled),
        "samples_beyond_req_p90": (sum(1 for s in sampled if s > values["req_p90_s"])
                                   if "req_p90_s" in values else None),
        "metrics": metrics, "trace_overhead_s": overhead,
        "environment": {
            "python": first.get("python"), "numpy": first.get("numpy"),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "git_revision": git_revision(),
            "source_sha256": source_digest(), "child_env": first.get("env"),
        },
        "setup_s": setups,
        "passes": [{k: v for k, v in p.items() if k not in ("requests", "trace")}
                   for p in passes],
        "layers": trace,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for r in rows:
        if r["fail"] is not None:
            print(f"FAILED {' '.join(r['argv'])}: {r['fail']}")
    env = record["environment"]
    beyond = record["samples_beyond_req_p90"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} pass(es), "
          f"{len(rows)} requests, {failed} failed (fail_frac {record['fail_frac']:.4f}), "
          f"{len(sampled)} latency samples"
          f"{'' if beyond is None else f' ({beyond} beyond req_p90_s)'}, "
          f"{time.monotonic() - began:.1f} s; python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}; record in {RESULTS.relative_to(ROOT)}/{stem}.json")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(rows), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
