"""Every callable that BENCHMARK.json's per-layer metrics name still exists.

benchmarks/run.py reads a per-layer metric off the traced calls: a name
``<layer>.<fn>_s`` or ``<layer>.<fn>.calls`` is the module-level function fn
of icosian.<layer>, or else the one public method fn of a public class
there; ``cache.<fn>.*`` reads the hits and misses of an lru_cache'd
function fn.  A deleted or renamed callable leaves such a metric unresolved,
so these names are checked here without running the benchmark.
"""

import functools
import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
METRICS = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
LAYERS = sorted(name[:-len(".self_s")] for name in METRICS if name.endswith(".self_s"))
# Counters read off a hooked call's arguments and result, not off a callable
# of their own name: each names the callable whose calls it counts.
COUNTED_BY = {
    "engine.points_kept": "engine.closure_points",
    "engine.images": "engine.closure_points",
    "engine.kernel_madds": "engine.closure_points",
    "engine.pairwise_dots.entries": "engine.pairwise_dots",
    "exports.bytes_out": "exports.dumps",
}


def _defined_in(module):
    """The public names bound in the module to objects defined there."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__}


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def resolve(layer: str, fn: str):
    """The module-level function fn of icosian.<layer>, or its one public class method fn."""
    names = _defined_in(importlib.import_module(f"icosian.{layer}"))
    if _is_function(names.get(fn)):
        return names[fn]
    methods = [vars(cls)[fn] for cls in names.values()
               if inspect.isclass(cls) and fn in vars(cls) and not fn.startswith("_")]
    methods = [m.__func__ if isinstance(m, (classmethod, staticmethod)) else m for m in methods]
    methods = [m for m in methods if inspect.isfunction(m)]
    if len(methods) != 1:
        raise LookupError(f"no single callable for {layer}.{fn}")
    return methods[0]


def callable_of(metric: str):
    """The callable a per-layer metric reads, or None for one read off no callable."""
    if metric in COUNTED_BY:
        return resolve(*COUNTED_BY[metric].split("."))
    parts = metric.split(".")
    if parts[0] == "trace":
        return None
    if parts[1] == "self_s":
        importlib.import_module(f"icosian.{parts[0]}")
        return None
    if parts[0] == "cache":
        found = [obj for layer in LAYERS
                 for name, obj in _defined_in(importlib.import_module(f"icosian.{layer}")).items()
                 if name == parts[1] and hasattr(obj, "cache_info")]
        if len(found) != 1:
            raise LookupError(f"no single lru_cache'd function {parts[1]}")
        return found[0]
    if parts[:2] == ["verify", "suite"]:
        return resolve("verify", "suite_" + parts[2][:-len("_s")])
    if parts[-1] == "calls":
        return resolve(parts[0], parts[1])
    if parts[1].endswith("_s"):
        return resolve(parts[0], parts[1][:-len("_s")])
    raise LookupError(f"no rule reads {metric}")


@pytest.mark.parametrize("metric", METRICS)
def test_every_per_layer_metric_names_a_callable(metric):
    fn = callable_of(metric)
    assert fn is None or callable(fn)


@pytest.mark.parametrize("metric", ["engine.apply_all_s", "groups.generate.calls",
                                    "cache.closure.hits", "coxeter.compiled_ms"])
def test_a_missing_callable_is_found(metric):
    with pytest.raises(LookupError):
        callable_of(metric)
