"""In-memory spans around the public entry points of each ttstar layer.

The tracer replaces each entry point in every loaded ``ttstar`` module that
holds it, so calls the library makes to itself are seen too: for example
``ttstar.enumeration.stokes_from_k`` as well as ``ttstar.stokes.stokes_from_k``,
and ``ttstar.theta.match_ci`` as called by ``verify_corollary``.  Spans stay in
a list until ``summary`` aggregates them when the run ends.

The benchmark's own work (input generation, oracles, speed probes) runs inside
``Tracer.own()``: it is timed as the benchmark's, and calls into ttstar made
there record no span, so an oracle never counts as work of a layer.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# metric prefix -> (defining module, function name)
ENTRY_POINTS = {
    "exact.cos2": ("ttstar.exact", "cos2"),
    "cases.asymptotic_to_k": ("ttstar.cases", "asymptotic_to_k"),
    "cases.k_to_asymptotic": ("ttstar.cases", "k_to_asymptotic"),
    "stokes.from_asymptotic": ("ttstar.stokes", "stokes_from_asymptotic"),
    "stokes.from_k": ("ttstar.stokes", "stokes_from_k"),
    "enumeration.cos_pairs": ("ttstar.enumeration", "enumerate_cos_pairs"),
    "enumeration.integral_solutions": ("ttstar.enumeration", "integral_solutions"),
    "enumeration.brute_force": ("ttstar.enumeration", "brute_force_integral_points"),
    "theta.verify_corollary": ("ttstar.theta", "verify_corollary"),
    "theta.match_ci": ("ttstar.theta", "match_ci"),
    "solver.solve_radial": ("ttstar.solver", "solve_radial"),
    "solver.residual_vector": ("ttstar.solver", "residual_vector"),
}

_STOKES = ("stokes.from_asymptotic", "stokes.from_k")


class Tracer:
    """Records (name, start, end, parent span) for each wrapped call."""

    def __init__(self):
        self.spans: list = []
        self.stokes_integral = 0
        self.cos2_args: list = []  # the argument of every traced cos2 call
        self.own_s = 0.0
        self._paused = False
        self._stack: list[int] = []
        self._patched: list = []
        self._start = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count_integral = name in _STOKES
        cos2_args = self.cos2_args if name == "exact.cos2" else None

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if cos2_args is not None:
                cos2_args.append(args[0])
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if count_integral and result.integral() is not None:
                self.stokes_integral += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every entry point and start the traced window."""
        for name, (module, attr) in ENTRY_POINTS.items():
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("ttstar")
                        and mod.__dict__.get(attr) is original):
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))
        self.own_s = 0.0
        self._start = perf_counter()

    def uninstall(self) -> float:
        """Restore the original functions; return the traced wall time."""
        wall = perf_counter() - self._start
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return wall

    @contextmanager
    def own(self):
        """Time a block as the benchmark's own; ttstar calls in it record no span."""
        self._paused = True
        t0 = perf_counter()
        try:
            yield
        finally:
            self.own_s += perf_counter() - t0
            self._paused = False

    def summary(self, wall: float) -> dict:
        """Calls and self time per entry point, plus the benchmark's own time.

        A span's self time is its duration minus that of its direct children.
        The benchmark's own time is measured apart from the spans, so what
        neither accounts for (``trace.unaccounted_s``: loop bookkeeping, or a
        ttstar call that escaped the wrappers) is left over from the wall time.
        """
        calls = dict.fromkeys(ENTRY_POINTS, 0)
        self_s = dict.fromkeys(ENTRY_POINTS, 0.0)
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        for (name, t0, t1, parent), inner in zip(self.spans, child_s):
            calls[name] += 1
            self_s[name] += (t1 - t0) - inner
        out = {}
        for name in ENTRY_POINTS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        seen: set = set()
        repeats = 0
        for arg in self.cos2_args:
            repeats += arg in seen
            seen.add(arg)
        out["exact.cos2.repeat_share"] = repeats / max(len(self.cos2_args), 1)
        stokes_calls = sum(calls[n] for n in _STOKES)
        out["stokes.integral_share"] = (self.stokes_integral / stokes_calls
                                        if stokes_calls else 0.0)
        out["trace.wall_s"] = wall
        out["trace.bench_self_s"] = self.own_s
        out["trace.unaccounted_s"] = wall - sum(self_s.values()) - self.own_s
        out["trace.spans"] = len(self.spans)
        return out
