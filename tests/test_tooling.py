"""The library names the benchmark tooling reaches by name still exist.

``perfbench/tracing.py`` wraps each ``(module, name)`` of its
``ENTRY_POINTS`` with ``getattr``, and ``benchmarks/bench.py`` wraps some
internals of ``theta`` and ``solver`` by name, so a renamed function would
break every traced run or the per-phase split.
"""

import importlib
import importlib.util
from pathlib import Path

from ttstar import solver, theta

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_entry_points_resolve():
    tracing = _load(ROOT / "perfbench" / "tracing.py")
    assert tracing.ENTRY_POINTS
    for metric, (module, name) in tracing.ENTRY_POINTS.items():
        assert callable(getattr(importlib.import_module(module), name, None)), metric


def test_bench_wrapped_names_exist():
    for name in ("qdo_from_ci", "k_gaps_stokes", "_match_numerators", "_fmt_roots"):
        assert callable(getattr(theta, name, None)), name
    for name in ("_jacobian", "dgbsv", "_fit_slope", "solve_radial"):
        assert callable(getattr(solver, name, None)), name


def test_loc_options_match_the_live_objects():
    """``benchmarks/loc.py`` reads the options from the source: as many
    ``add_argument`` calls as the parser's subcommands hold arguments, and
    the fields of ``SolverConfig``."""
    import argparse

    from ttstar.cli import build_parser
    loc = _load(ROOT / "benchmarks" / "loc.py")
    calls, fields = loc.options(ROOT / "src" / "ttstar")
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert calls == sum(len(p._actions) - 1 for p in sub.choices.values())
    assert tuple(fields) == solver.SolverConfig._fields
