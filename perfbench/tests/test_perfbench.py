"""Smoke tests and negative controls for the ttstar benchmark.

    python3 -m pytest perfbench/tests -q

The tiny runs call the worker in-process with shortened rounds; two
subprocess runs go through perfbench/run.py end to end.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {m["name"] for m in CONFIG["end_to_end"]}
PER_LAYER = {m["name"] for m in CONFIG["per_layer"]}

# workload-specific metric names, printed in the run's text output
NAMED = {
    "exact_stream": {"stokes_ops_per_s", "stokes_op_p50_ms", "stokes_op_p99_ms"},
    "verify_sweep": {"verify_wall_s"},
    "radial_bvp": {"solves_per_s", "solve_p50_ms", "solve_p90_ms"},
    "cli_cold": {"cli_wall_s"},
}


@pytest.fixture(scope="module")
def ready():
    """Set up once (cold tables); later workloads reuse the warm caches."""
    workload, phases = worker.setup("exact_stream", 1)
    return phases


def tiny(name: str, seed: int = 1, keep=None):
    workload = worker.WORKLOADS[name](random.Random(seed))
    if keep is not None:
        workload.orders = [keep(order) for order in workload.orders]
    return workload


def run_tiny(name, workload, seconds=0.0, tracer=None):
    loop = worker.run_loop(workload, seconds, tracer)
    getattr(workload, "close", lambda: None)()
    traced = None
    if tracer is not None:
        traced = tracer.summary(tracer.uninstall())
    return worker.summarize(name, workload, loop, traced)


def first_cases(n):
    return lambda order: order[:n]


def test_benchmark_json_names_workloads():
    assert [w["name"] for w in CONFIG["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"] for m in CONFIG["end_to_end"]} >= {"setup_s"}
    assert max(m["bound"] for m in CONFIG["end_to_end"]) <= next(
        m["bound"] for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    assert set(run.IDLE_ZERO) <= PER_LAYER


def test_exact_stream_tiny_traced(ready):
    workload = tiny("exact_stream")
    workload.points = workload.points[:40]
    tracer = Tracer()
    tracer.install()
    out = run_tiny("exact_stream", workload, seconds=0.3, tracer=tracer)
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["e2e"]) | {"setup_s"} == E2E
    assert set(out["named"]) == NAMED["exact_stream"] | {"fail_ratio"}
    trace = out["trace"]
    assert trace["stokes.from_k.calls"] == out["attempted"]
    assert trace["exact.cos2.calls"] == 4 * out["attempted"]
    # the oracle's k_to_asymptotic is the benchmark's work, not the layer's
    assert trace["cases.k_to_asymptotic.calls"] == 0
    assert 0 < trace["exact.cos2.repeat_share"] < 1
    # layer self times and the benchmark's own time, measured apart, account
    # for the traced window
    assert trace["trace.bench_self_s"] > 0
    assert abs(trace["trace.unaccounted_s"]) < 0.05 * trace["trace.wall_s"]
    # the tracer restored every entry point
    import ttstar.enumeration
    import ttstar.stokes
    assert not hasattr(ttstar.stokes.stokes_from_k, "__wrapped__")
    assert not hasattr(ttstar.enumeration.stokes_from_k, "__wrapped__")


def test_verify_sweep_tiny_counts(ready):
    out = run_tiny("verify_sweep", tiny("verify_sweep", keep=first_cases(2)))
    assert out["failed"] == 0 and out["attempted"] == 2
    assert set(out["named"]) == NAMED["verify_sweep"] | {"fail_ratio"}
    assert set(out["counts"]) == {"theta.converse_checked", "theta.flagged_non_ci"}


def test_radial_bvp_tiny_counts(ready, monkeypatch):
    monkeypatch.setattr(worker, "RADIAL_CASES", ("4a",))
    monkeypatch.setattr(worker, "RADIAL_RANDOM", 1)
    out = run_tiny("radial_bvp", tiny("radial_bvp", keep=first_cases(3)))
    assert out["failed"] == 0 and out["attempted"] == 3
    assert set(out["named"]) == NAMED["radial_bvp"] | {"fail_ratio"}
    assert out["counts"]["solver.iterations_per_solve"] > 0


def test_cli_cold_one_round(ready):
    workload = tiny("cli_cold")
    out = run_tiny("cli_cold", workload)
    assert out["errors"] == [] and out["attempted"] == 8
    assert workload.child_speed  # the last command was probed on its own CPU
    assert set(out["named"]) == NAMED["cli_cold"] | {"fail_ratio"}
    assert {f"cli.cmd.{c}_s" for c in ("convert", "enumerate", "enumerate_all",
                                       "enumerate_raw", "qdo", "verify", "solve")} \
        == set(out["counts"])
    assert out["e2e"]["peak_rss_mb"] > 0


def test_sampling_probes_the_child_cpu():
    before = os.sched_getaffinity(0)
    busy = "import time\nt = time.perf_counter()\nwhile time.perf_counter() - t < 0.3: pass"
    values = []
    with subprocess.Popen([sys.executable, "-c", busy]) as proc, \
            worker.sampling(proc.pid, values):
        proc.wait()
    assert len(values) >= 3 and min(v for _, v in values) > 0
    assert os.sched_getaffinity(0) == before  # only the sampling thread was pinned
    assert worker.process_cpu(os.getpid()) in before


# --- negative controls: a wrong answer or a crash is a failed operation ---


def test_negated_s2_fails(ready, monkeypatch):
    import ttstar.stokes
    original = ttstar.stokes.stokes_from_k

    def negated(k):
        s = original(k)
        return dataclasses.replace(s, s2=-s.s2)

    monkeypatch.setattr(ttstar.stokes, "stokes_from_k", negated)
    workload = tiny("exact_stream")
    workload.points = workload.points[:20]
    out = run_tiny("exact_stream", workload, seconds=0.05)
    # s2 = 0 is its own negation, so a point or two may still pass
    assert out["failed"] >= out["attempted"] - 2 > 0
    assert "s2 differs" in out["errors"][0]


def test_corrupt_catalog_fails(ready, monkeypatch):
    import ttstar.theta
    monkeypatch.setattr(ttstar.theta, "verify_corollary", functools.partial(
        ttstar.theta.verify_corollary, corrupt_catalog=True))
    out = run_tiny("verify_sweep", tiny("verify_sweep", keep=first_cases(1)))
    assert out["failed"] == out["attempted"] == 1
    assert "verify_corollary failed" in out["errors"][0]


def test_solver_crash_is_counted(ready, monkeypatch):
    import ttstar.solver

    def diverge(case_id, a, cfg=None):
        raise ttstar.solver.ConvergenceError("no convergence", 1.0)

    monkeypatch.setattr(ttstar.solver, "solve_radial", diverge)
    out = run_tiny("radial_bvp", tiny("radial_bvp", keep=first_cases(2)))
    assert out["failed"] == out["attempted"] == 2
    assert out["errors"][0].startswith("ConvergenceError")


def test_cli_nonzero_exit_fails(ready):
    workload = tiny("cli_cold")
    verify = next(c for c in workload.orders[0] if c[0] == "verify")
    self_test = ("verify", verify[1] + ["--self-test"], verify[2])
    workload.orders = [[self_test]]
    out = run_tiny("cli_cold", workload)
    assert out["failed"] == 1 and "exit 5" in out["errors"][0]


# --- the command end to end --------------------------------------------


def _run(cwd, *argv, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_command_untraced_and_traced():
    for trace, names in (("0", E2E), ("1", PER_LAYER)):
        proc = _run(ROOT, "--workload", "exact_stream", "--seed", "3", "--seconds", "1",
                    "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names
        printed = {line.split()[0] for line in lines[:-1]}
        assert names | NAMED["exact_stream"] | {"fail_ratio"} <= printed
    record = json.loads((ROOT / "perfbench_out" / "exact_stream-seed3-trace1.json")
                        .read_text(encoding="utf-8"))
    assert record["versions"]["nproc"] >= 1 and record["seed"] == 3
    assert record["all_values"]["trace.overhead_ratio"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "exact_stream", "--seed", "1", "--seconds", "1",
                "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
