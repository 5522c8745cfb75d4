"""One cold pass: import the program, serve a request list, report.

Run by ``run.py`` in a fresh interpreter with ``PYTHONPATH=src``.  Reads
``{"requests": [argv, ...], "trace": bool, "spans": path|null}`` on stdin
and writes one JSON report line on stdout.  Each request goes through
``icosian.cli.main`` with its stdout captured; the next request starts
when the previous one has returned.
"""

import sys
import time

import icosian.cli

IMPORTED = time.monotonic()

import contextlib  # noqa: E402  (after the timed import on purpose)
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402


def serve(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = icosian.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a failed request is counted, the pass goes on
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return {"argv": argv, "rc": rc, "s": seconds, "out": out.getvalue(),
            "err": err.getvalue()[-2000:], "error": error}


def main() -> None:
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.monotonic()
    records = [serve(argv) for argv in spec["requests"]]
    end = time.monotonic()
    report = {
        "imported": IMPORTED, "start": start, "end": end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "env": {k: os.environ.get(k)
                for k in ("PYTHONPATH", "PYTHONHASHSEED", "ICOSIAN_THREADS",
                          "OPENBLAS_NUM_THREADS")},
        "requests": records,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
