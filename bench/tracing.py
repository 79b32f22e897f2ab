"""Outside-in tracing of the bscbounds layers.

`Tracer.install()` wraps, from outside the package, every public function in
`__all__` of the computing layers plus `validate.run_suite` and `cli.main`,
and rebinds each wrapper wherever a bscbounds module holds the original, so
calls between modules and inside one module are both seen. Classes and
constants in `__all__` are left alone: their cost is construction or none.

While `recording` is true each call appends one span (name, start, end,
parent) to flat arrays; the aggregates are computed once at the end. A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = ("scalar", "dist", "bounds", "hmm", "validate", "cli")
_FULL_LAYERS = ("scalar", "dist", "bounds", "hmm")
_ENTRY_POINTS = (("validate", "run_suite"), ("cli", "main"))


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.recording = False
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # (steps simulated, call arguments) of each entropy_rate_mc call that
        # ran the chain; shortcut calls report a zero stderr and no steps
        self.mc_runs: list[tuple[int, tuple, dict]] = []
        self._mc_original = None

    def install(self) -> None:
        """Wrap the public layer functions of the imported bscbounds package."""
        modules = {name: sys.modules[f"bscbounds.{name}"] for name in LAYERS}
        targets = [(layer, name) for layer in _FULL_LAYERS
                   for name in modules[layer].__all__]
        targets.extend(_ENTRY_POINTS)
        swap: dict[int, object] = {}
        for layer, name in targets:
            fn = getattr(modules[layer], name)
            if not inspect.isfunction(fn):
                continue
            inner = fn
            if (layer, name) == ("hmm", "entropy_rate_mc"):
                self._mc_original = fn
                inner = self._count_mc_steps(fn)
            swap[id(fn)] = self._wrap(f"{layer}.{name}", inner)
        for modname, mod in list(sys.modules.items()):
            if modname != "bscbounds" and not modname.startswith("bscbounds."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in swap:
                    setattr(mod, attr, swap[id(value)])

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        start, end, stack, clock = self.start, self.end, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _count_mc_steps(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.recording and result[1] > 0.0:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                steps = int(bound.arguments["samples"]) + int(bound.arguments["burnin"])
                self.mc_runs.append((steps, args, kwargs))
            return result

        return counted

    def mc_peak_bytes_per_step(self) -> float:
        """Rerun the largest recorded Monte Carlo call under tracemalloc and
        return its peak traced allocation per simulated step (0 if none ran).
        Done after the timed region, so allocation tracking slows no span."""
        if not self.mc_runs:
            return 0.0
        steps, args, kwargs = max(self.mc_runs, key=lambda run: run[0])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            self._mc_original(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / steps

    def summary(self, traced_wall: float) -> dict[str, float]:
        """Per-name and per-layer call counts and self times, MC step rate and
        coverage (self-time sum over the traced wall time)."""
        nid = np.array(self.span_name, dtype=np.int32)
        parent = np.array(self.span_parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        child = parent >= 0
        self_t = dur - np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        calls = np.bincount(nid, minlength=len(self.names))
        self_s = np.bincount(nid, weights=self_t, minlength=len(self.names))
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{layer}.calls"] += int(calls[i])
            out[f"{layer}.self_s"] += float(self_s[i])
        mc_self = out.get("hmm.entropy_rate_mc.self_s", 0.0)
        mc_steps = sum(run[0] for run in self.mc_runs)
        out["hmm.mc_steps_per_s"] = mc_steps / mc_self if mc_steps else 0.0
        out["trace.spans"] = int(dur.size)
        out["trace.coverage"] = float(self_t.sum()) / traced_wall if traced_wall > 0 else 0.0
        return out

    def save(self, path) -> None:
        """Write every span to an .npz file: names, name id, parent index,
        start and end (seconds on the tracer's clock)."""
        np.savez(path, names=np.array(self.names),
                 name=np.array(self.span_name, dtype=np.int32),
                 parent=np.array(self.span_parent, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end))
