"""Show that the benchmark's gate fails a perturbed output.

    python3 benchmarks/gatecheck.py

Serves one short pass per workload in a fresh interpreter, exactly as
``run.py`` does, then gates each answer as it came back and again after
each perturbation below.  Exits 0 only if every real answer passes and
every perturbed one is counted as failed.  Takes about half a minute, most
of it the one ``verify all``.
"""

from __future__ import annotations

import copy
import sys
import time

import run
import workloads

PASSES = {
    "certify": [["verify", "all"]],
    "geometry": [["build", "24cell", "--out", "-"],
                 ["export", "24cell", "--cell", "3", "--format", "off",
                  "--digits", "40", "--out", "-"]],
}


def flip_digit(text: str) -> str:
    """Change one digit in the middle of the text, nothing else."""
    mid = len(text) // 2
    i = next(j for j in list(range(mid, len(text))) + list(range(mid)) if text[j].isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


PERTURBATIONS = {
    "one digit changed": lambda rec: {**rec, "out": flip_digit(rec["out"])},
    "trailing newline dropped": lambda rec: {**rec, "out": rec["out"].rstrip("\n")},
    "exit code 1": lambda rec: {**rec, "rc": 1},
    "raised": lambda rec: {**rec, "error": "RuntimeError: injected"},
}


def failures(workload, refs, requests, report) -> int:
    return sum(1 for row in run.gate_pass(workload, refs, requests, report)
               if row["fail"] is not None)


def main() -> int:
    refs = workloads.load_refs()
    deadline = time.monotonic() + run.BUDGET_S
    ok = True
    for workload, requests in PASSES.items():
        report = run.run_child(requests, deadline)
        clean = failures(workload, refs, requests, report)
        print(f"{workload}: {len(requests)} real answers, {clean} failed the gate")
        ok &= clean == 0
        for label, perturb in PERTURBATIONS.items():
            bad = copy.deepcopy(report)
            bad["requests"][-1] = perturb(bad["requests"][-1])
            caught = failures(workload, refs, requests, bad)
            print(f"  last answer {label}: {caught} failed")
            ok &= caught == 1
    print("gate check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
