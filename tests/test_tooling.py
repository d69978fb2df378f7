"""The library names the benchmark tooling reaches by name still exist.

``perfbench/tracing.py`` wraps each ``(module, name)`` of its
``ENTRY_POINTS`` with ``getattr``, and ``benchmarks/bench.py`` wraps some
internals of ``theta`` and ``solver`` by name, so a renamed function would
break every traced run or the per-phase split.  The sweep split itself is
run for one round, ``verify_round`` once, ``bench.summary`` on two
synthetic runs, ``bench.py --help``, and ``benchmarks/loc.py`` on the
benchmark scripts.
"""

import importlib
import importlib.util
import math
import subprocess
import sys
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
    for name in ("qdo_from_ci", "k_gaps_stokes", "match_ci"):
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


def test_loc_counts_any_directory(capsys):
    """``benchmarks/loc.py`` counts a directory without ``cli.py`` and
    ``solver.py`` too, and then prints no option counts."""
    loc = _load(ROOT / "benchmarks" / "loc.py")
    assert loc.main([str(ROOT / "benchmarks")]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert names == ["bench.py", "loc.py", "total"]


def test_sweep_split_reports_timer_overhead():
    """One round of ``bench.sweep_split_rounds`` on this checkout gives the
    wrappers' own cost as a positive ``timer_overhead``, kept out of the
    pieces and ``candidates_check_G``."""
    bench = _load(ROOT / "benchmarks" / "bench.py")
    record = bench.run_in(ROOT, "sweep_split_rounds", 12, 1)["ms_per_round"]
    assert record["timer_overhead"] > 0
    parts = ("forward_check", "k_gaps_stokes", "match_ci",
             "candidates_check_G", "timer_overhead")
    assert math.isclose(sum(record[p] for p in parts), record["total"])


def test_summary_of_two_runs():
    """``bench.summary`` keeps every run of a float next to its median and
    quartiles, writes a field the runs agree on once and one they do not as
    its sorted distinct values, key by key and index by index."""
    bench = _load(ROOT / "benchmarks" / "bench.py")
    runs = [{"wall_s": 2.0, "code": 0, "seed": 7, "loaded": ("json",),
             "nested": {"s": 1.5, "n": 3}, "records": [{"t": 0.5}, {"case": "4a"}]},
            {"wall_s": 1.0, "code": 0, "seed": 5, "loaded": ("csv",),
             "nested": {"s": 0.5, "n": 3}, "records": [{"t": 1.5}, {"case": "5a"}]}]
    assert bench.summary(runs) == {
        "wall_s": {"median": 1.5, "quartiles": [0.75, 1.5, 2.25], "runs": [2.0, 1.0]},
        "code": 0, "seed": [5, 7], "loaded": [("csv",), ("json",)],
        "nested": {"s": {"median": 1.0, "quartiles": [0.25, 1.0, 1.75], "runs": [1.5, 0.5]},
                   "n": 3},
        "records": [{"t": {"median": 1.0, "quartiles": [0.25, 1.0, 1.75],
                           "runs": [0.5, 1.5]}},
                    {"case": ["4a", "5a"]}]}


def test_verify_round_split_sums_its_records():
    """``bench.verify_round``'s split is, per half, the sum of its records'
    wall times over the ten cases."""
    bench = _load(ROOT / "benchmarks" / "bench.py")
    result = bench.verify_round([12])
    halves = {}
    for r in result["records"]:
        half = (f"verify_corollary_{r['bound']}" if "bound" in r
                else f"brute_force_60_{r['call']}")
        halves.setdefault(half, []).append(r["wall_s"])
    assert {h: len(v) for h, v in halves.items()} == {
        "brute_force_60_first": 10, "brute_force_60_warm": 10, "verify_corollary_12": 10}
    assert result["round_split_s"].keys() == halves.keys()
    for half, times in halves.items():
        assert math.isclose(result["round_split_s"][half], sum(times))


def test_bench_help_exits_0():
    """``benchmarks/bench.py --help`` imports the script and builds its
    parser without running anything."""
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "bench.py"), "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "--workload" in proc.stdout
