"""The ttstar benchmark: one workload per call, in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; ``ttstar`` is taken
from that checkout's ``src/``.  The workload runs in its own fresh worker
process (``perfbench/worker.py``), one process at a time.  Set-up is timed
from interpreter start, ``SETUP_SAMPLES`` times per run, and scaled by the
speed of the CPU the worker sets up on (probed from here while it does;
see ``worker.SAMPLE_EVERY_S``); the median is reported.  With ``--trace 1``
the run also makes a traced pass with the same seed and reports the
per-layer metrics and the tracing overhead.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A record of the run is written under ``perfbench_out/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from worker import PROBE_REF_S, sampling

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"

SETUP_SAMPLES = 4
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60


# per-layer counts that only the workload running the layer produces
IDLE_ZERO = ("theta.converse_checked", "theta.flagged_non_ci", "solver.newton_iterations",
             "solver.iterations_per_solve") + tuple(
    f"cli.cmd.{c}_s" for c in ("convert", "enumerate", "enumerate_all", "enumerate_raw",
                               "qdo", "verify", "solve"))


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, *, trace: bool = False,
               setup_only: bool = False):
    """Run one worker; return (set-up seconds from spawn, the same scaled to
    the reference speed, set-up phases, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    speed = []
    t0 = perf_counter()
    # its own process group, so that a stuck worker is killed with its children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(WORKER_TIMEOUT_S, kill)
    watchdog.start()
    try:
        with sampling(proc.pid, speed):
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not ready.startswith("READY "):
        raise BenchError(f"worker {' '.join(cmd[2:])} exited with {proc.returncode}")
    if not speed:
        raise BenchError("no speed probe ran on the worker's CPU")
    result = None if setup_only else json.loads(rest.strip().splitlines()[-1])
    scaled_s = setup_s * PROBE_REF_S / statistics.fmean(v for _, v in speed)
    return setup_s, scaled_s, json.loads(ready[len("READY "):]), result


def solver_import_s() -> float:
    """Seconds for a fresh ``import ttstar.solver``."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import ttstar.solver; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import ttstar.solver failed: {proc.stderr.strip()[-200:]}")
    return float(proc.stdout)


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                               "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return None  # the checkout is not a git repository of its own


def per_layer(phases: list[dict], untraced: dict, traced: dict) -> dict:
    """Per-layer values; a layer the workload does not run reads 0."""
    layers = dict.fromkeys(IDLE_ZERO, 0)
    layers.update(traced["trace"])
    layers.update(traced["counts"])
    for name, key in (("enumeration.cos_pairs_cold_s", "cos_pairs_cold_s"),
                      ("enumeration.tables_cold_s", "tables_cold_s"),
                      ("cli.import_s", "import_cli_s")):
        layers[name] = statistics.median(p[key] for p in phases)
    layers["cli.import_solver_s"] = statistics.median(
        solver_import_s() for _ in range(SETUP_SAMPLES))
    # both passes see the same inputs in the same order: compare the common prefix
    n = min(len(traced["op_s"]), len(untraced["op_s"]))
    layers["trace.overhead_ratio"] = sum(traced["op_s"][:n]) / sum(untraced["op_s"][:n])
    return layers


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in config["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=config["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ttstar" / "__init__.py").is_file():
        print(f"perfbench: no ttstar sources under {SRC}", file=sys.stderr)
        return 2

    samples, scaled, phases = [], [], []
    for i in range(SETUP_SAMPLES):
        setup_s, scaled_s, phase, result = run_worker(
            args.workload, args.seed, args.seconds, setup_only=i < SETUP_SAMPLES - 1)
        samples.append(setup_s)
        scaled.append(scaled_s)
        phases.append(phase)
    untraced = result
    runs = [untraced]
    named = dict(untraced["named"])
    if args.trace:
        traced = run_worker(args.workload, args.seed, args.seconds, trace=True)[3]
        runs.append(traced)
        values = per_layer(phases, untraced, traced)
        declared = config["per_layer"]
    else:
        values = dict(untraced["e2e"], setup_s=statistics.median(scaled))
        declared = config["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "versions": untraced["versions"],
        "sizes": untraced["sizes"], "setup_samples_s": samples,
        "setup_scaled_s": scaled, "setup_phases": phases,
        "attempted": attempted, "failed": failed,
        "errors": [e for r in runs for e in r["errors"]],
        "metrics": metrics, "named": named, "raw_unscaled": untraced["raw"],
        "all_values": values,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for error in record["errors"]:
        print(f"FAILED {error}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    for name, (value, unit) in named.items():
        print(f"{name} {value} {unit}")
    for name, value in untraced["raw"].items():
        print(f"unscaled {name} {value}")
    print(f"unscaled setup_s {statistics.median(samples)}")
    print(f"speed_scale {untraced['sizes']['speed_scale']}")
    print(f"run record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        sys.exit(1)
