"""Spans around every call into the program's layers, installed from outside.

The layers are the modules of the ``icosian`` package.  ``Tracer.install``
wraps each public module-level function, and the public and operator
methods of each public class, of the modules named in ``LAYERS``.  A
function imported by name into another module (``from .coxeter import
wh4``) is rebound there too, as are references held in module-level
containers, default arguments and closures, so no call goes round the
wrapper.  The program itself is not changed.

Every call is timed and counted.  Calls of module-level functions are also
kept as span records (name, start, end, parent span) and written out at the
end; method calls, which run by the million, are aggregated only.  A
layer's self time is the time of its calls minus the time of the wrapped
calls they make.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

PACKAGE = "icosian"
LAYERS = ("field", "quaternion", "groups", "coxeter", "engine", "roots",
          "polytope", "linalg", "hull", "dual", "exports", "verify", "cli")

# Operator and protocol methods count as public: arithmetic on field
# elements and quaternions is the work of those two layers.
DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
    "__abs__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__",
    "__bool__", "__float__", "__len__", "__contains__", "__iter__"})


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.total: list[float] = []
        self.calls: list[int] = []
        self.self_time = [0.0] * len(LAYERS)
        self.counters: dict[str, int] = {}
        self.originals: dict[str, object] = {}
        self._stack: list[list] = []
        self._span_name = array("l")
        self._span_parent = array("l")
        self._span_start = array("d")
        self._span_end = array("d")
        # Hooks that count the work a call did, from its arguments and result.
        self._post = {
            "engine.closure_points": self._count_closure,
            "engine.pairwise_dots": self._count_dots,
            "exports.off_text": self._count_bytes,
            "exports.dumps": self._count_bytes,
        }

    # -- counters read from arguments and results -------------------------
    def _add(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _count_closure(self, args, kwargs, result) -> None:
        gens = args[1] if len(args) > 1 else kwargs["gen_mats"]
        self._add("engine.points_kept", len(result))
        self._add("engine.images", len(result) * len(gens))

    def _count_dots(self, args, kwargs, result) -> None:
        points = args[0] if args else kwargs["points"]
        self._add("engine.pairwise_dots.entries", len(points) ** 2)

    def _count_bytes(self, args, kwargs, result) -> None:
        self._add("exports.bytes_out", len(result.encode("utf-8")))

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, name: str, layer: int, record: bool):
        idx = len(self.names)
        self.names.append(name)
        self.total.append(0.0)
        self.calls.append(0)
        self.originals[name] = fn
        stack, total, calls, self_time = self._stack, self.total, self.calls, self.self_time
        s_name, s_parent = self._span_name, self._span_parent
        s_start, s_end = self._span_start, self._span_end
        post = self._post.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if record:
                sid = len(s_name)
                s_name.append(idx)
                s_parent.append(parent)
                s_start.append(0.0)
                s_end.append(0.0)
            else:
                sid = parent
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                total[idx] += dur
                calls[idx] += 1
                self_time[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if record:
                    s_start[sid] = t0
                    s_end[sid] = t1
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    def _wrap_class(self, cls, modname: str, layer: int) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{modname}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, layer, False))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, name, layer, False)
            else:
                continue
            setattr(cls, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer's public callables and rebind every reference."""
        replace: dict[int, object] = {}
        for layer, modname in enumerate(LAYERS):
            module = importlib.import_module(f"{PACKAGE}.{modname}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, modname, layer)
                elif _is_function(obj):
                    replace[id(obj)] = self._wrap(obj, f"{modname}.{attr}", layer, True)
        self._rebind(replace)

    def _rebind(self, replace: dict[int, object]) -> None:
        def swap(value):
            return replace.get(id(value), value)

        functions = []
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in replace:
                    namespace[attr] = replace[id(value)]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replace:
                            value[k] = replace[id(v)]
                elif isinstance(value, (list, tuple)) and any(id(v) in replace for v in value):
                    swapped = [swap(v) for v in value]
                    if isinstance(value, list):
                        value[:] = swapped
                    else:
                        namespace[attr] = tuple(swapped)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for cattr, cval in list(vars(value).items()):
                        if id(cval) in replace:
                            setattr(value, cattr, replace[id(cval)])
                        elif inspect.isfunction(cval):
                            functions.append(cval)
                if inspect.isfunction(value):
                    functions.append(value)
        for wrapper in replace.values():
            functions.append(wrapper.__wrapped__)
        for fn in functions:
            fn = inspect.unwrap(fn)
            if fn.__defaults__:
                fn.__defaults__ = tuple(swap(v) for v in fn.__defaults__)
            if fn.__kwdefaults__:
                fn.__kwdefaults__ = {k: swap(v) for k, v in fn.__kwdefaults__.items()}
            for cell in fn.__closure__ or ():
                try:
                    contents = cell.cell_contents
                except ValueError:
                    continue
                if id(contents) in replace:
                    cell.cell_contents = replace[id(contents)]

    # -- results -----------------------------------------------------------
    def summary(self) -> dict:
        return {
            "self_s": dict(zip(LAYERS, self.self_time)),
            "total_s": dict(zip(self.names, self.total)),
            "calls": dict(zip(self.names, self.calls)),
            "counters": dict(self.counters),
            "cache": {name.rsplit(".", 1)[1]: list(fn.cache_info()[:2])
                      for name, fn in self.originals.items()
                      if hasattr(fn, "cache_info")},
            "spans": len(self._span_name),
        }

    def write_spans(self, path) -> None:
        """Span records as columns: name index, parent span (-1 at the root),
        and start and end in microseconds from the first span's start."""
        origin = self._span_start[0] if self._span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "name": self._span_name.tolist(),
                       "parent": self._span_parent.tolist(),
                       "start_us": [round((t - origin) * 1e6) for t in self._span_start],
                       "end_us": [round((t - origin) * 1e6) for t in self._span_end]}, fh)
