"""Span tracing of trishape's public functions, from outside the package.

``Tracer.install`` wraps every public module-level function of the seven
layers.  Modules bind imported names at import time (``from .shape import
class_of``), so each wrapper replaces the original wherever trishape holds
it: every module's globals and the ``checks.ALL_CHECKS`` registry.  The
constructors of ``AngleModPi`` and ``ProjTripleC`` are counted, not spanned.

Spans (name, start, end, parent span, op id, failed, AngleModPi
constructions inside) stay in flat arrays in memory and are written out
once, at the end.  A span's self time is its duration minus the durations
of its child spans.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import time
from array import array
from pathlib import Path

LAYERS = ("angles", "triangle", "shape", "projections", "families", "checks", "cli")
COUNTED = (("angles", "AngleModPi"), ("shape", "ProjTripleC"))


class Tracer:
    """Spans of one traced pass: install, run, uninstall, then analyse."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.angles_built = array("I")
        self._stack: list[int] = []
        self.op_id = -1
        # constructions so far: [AngleModPi, ProjTripleC]
        self.built = [0, 0]
        self._restore: list[tuple[object, str, object]] = []
        self._checks_registry: list | None = None

    def __len__(self) -> int:
        return len(self.name)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        idx = len(self.names)
        self.names.append(qualname)
        clock = time.perf_counter_ns
        built, stack = self.built, self._stack
        names, parents, ops, failed = self.name, self.parent, self.op, self.failed
        starts, ends, angles_built = self.start, self.end, self.angles_built

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            failed.append(0)
            ends.append(0)
            angles_built.append(0)
            stack.append(i)
            before = built[0]
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[i] = 1
                raise
            finally:
                ends[i] = clock()
                angles_built[i] = built[0] - before
                stack.pop()

        return wrapper

    def _counting(self, slot: int, fn):
        built = self.built

        @functools.wraps(fn)
        def post_init(obj):
            built[slot] += 1
            fn(obj)

        return post_init

    def install(self) -> None:
        """Wrap every public function of every layer, everywhere it is bound."""
        modules = [importlib.import_module("trishape")]
        modules += [importlib.import_module(f"trishape.{m}") for m in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._replace(mod, name, wrapped[obj])
        registry = importlib.import_module("trishape.checks").ALL_CHECKS
        self._checks_registry = list(registry)
        registry[:] = [(n, wrapped.get(fn, fn)) for n, fn in registry]
        for slot, (layer, cls_name) in enumerate(COUNTED):
            cls = getattr(importlib.import_module(f"trishape.{layer}"), cls_name)
            self._replace(cls, "__post_init__", self._counting(slot, cls.__post_init__))

    def _replace(self, holder, name: str, new) -> None:
        self._restore.append((holder, name, getattr(holder, name)))
        setattr(holder, name, new)

    def uninstall(self) -> None:
        for holder, name, old in reversed(self._restore):
            setattr(holder, name, old)
        self._restore.clear()
        if self._checks_registry is not None:
            registry = importlib.import_module("trishape.checks").ALL_CHECKS
            registry[:] = self._checks_registry
            self._checks_registry = None

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> array:
        """Self time of each span in ns: duration minus child durations."""
        n = len(self.name)
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        children = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p] += own[i]
        for i in range(n):
            own[i] -= children[i]
        return own

    def summary(self) -> dict:
        """Per function and per layer: calls, self time and failures."""
        self_ns = self.self_times()
        funcs: dict[str, dict] = {}
        for name in self.names:
            funcs[name] = {"calls": 0, "self_ns": 0, "incl_ns": 0, "fail": 0}
        for i in range(len(self.name)):
            f = funcs[self.names[self.name[i]]]
            f["calls"] += 1
            f["self_ns"] += self_ns[i]
            f["incl_ns"] += self.end[i] - self.start[i]
            f["fail"] += self.failed[i]
        layers = {m: {"calls": 0, "self_ns": 0, "fail": 0} for m in LAYERS}
        for name, f in funcs.items():
            layer = layers[name.split(".", 1)[0]]
            for key in layer:
                layer[key] += f[key]
        return {"functions": funcs, "layers": layers}

    def per_enclosing(self, outer: str, inner: str) -> list[int]:
        """For each span named ``outer``, the number of ``inner`` spans whose
        nearest ``outer`` ancestor it is."""
        outer_idx = self.names.index(outer)
        inner_idx = self.names.index(inner)
        counts = {i: 0 for i in range(len(self.name)) if self.name[i] == outer_idx}
        for i in range(len(self.name)):
            if self.name[i] != inner_idx:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != outer_idx:
                p = self.parent[p]
            if p >= 0:
                counts[p] += 1
        return list(counts.values())

    def angles_built_per(self, outer: str) -> list[int]:
        outer_idx = self.names.index(outer)
        return [
            self.angles_built[i]
            for i in range(len(self.name))
            if self.name[i] == outer_idx
        ]

    def count_in_op(self, name: str, op_id: int) -> int:
        idx = self.names.index(name)
        return sum(
            1 for i in range(len(self.name)) if self.name[i] == idx and self.op[i] == op_id
        )

    def dump(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "op", "failed", "angles_built")
        header = {
            "names": self.names,
            "spans": len(self.name),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "clock": "perf_counter_ns",
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                fh.write(getattr(self, f).tobytes())


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0
