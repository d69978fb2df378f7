"""Parent-against-change record of the corollary verifier's converse sweep.

    python benchmarks/bench_verify.py --parent DIR --out BENCH_6.json \
        [--seed 1] [--bounds 12 24 36 48 96] [--pairs 10] [--pair-seed 4101]

DIR is a clone of the parent commit; the change is the checkout holding
this file.  For each side the script

* runs ``perfbench/run.py --workload verify_sweep --trace 1 --seed SEED`` in
  that checkout and keeps its per-layer metrics (``theta``, ``enumeration``
  and ``stokes`` self times and counts), and the calls and self times per
  round: the traced totals less the set-up calls, over the rounds run;
* times ``verify_corollary(case, bound)`` for every case and bound in a fresh
  interpreter that imports that checkout's ``src/`` (the integral-solution
  tables are built before timing, so each time is the converse sweep);

then, with ``--pairs N``, runs N untraced ``verify_sweep`` pairs with seeds
PAIR_SEED, PAIR_SEED + 1, ..., alternating which side runs first, and keeps
each run's end-to-end metrics.  The JSON written holds the machine, the
Python version and the git SHA of each side.  The runs are sequential; run
nothing else on the machine meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]

LAYERS = ("theta.verify_corollary", "theta.match_ci", "stokes.from_k",
          "enumeration.brute_force", "exact.cos2")
COUNTS = ("theta.converse_checked", "theta.flagged_non_ci")
CASES_PER_ROUND = 10
# calls the traced window sees before the first round: building the
# integral-solution tables makes 19 stokes_from_k calls for each case
SETUP_CALLS = {"stokes.from_k.calls": 19 * CASES_PER_ROUND}

TIMER = r"""
import json, sys, time
from ttstar.cases import CASE_IDS
from ttstar.enumeration import integral_solutions
from ttstar.theta import verify_corollary
for case in CASE_IDS:
    integral_solutions(case)
for bound in map(int, sys.argv[1:]):
    for case in CASE_IDS:
        t0 = time.perf_counter()
        rep = verify_corollary(case, bound)
        print(json.dumps({"case": case, "bound": bound,
                          "wall_s": time.perf_counter() - t0,
                          "converse_checked": rep.converse_checked,
                          "flagged_non_ci": len(rep.flagged_non_ci),
                          "converse_violations": len(rep.converse_violations)}),
              flush=True)
"""


def git_sha(checkout: Path) -> str:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, text=True,
                         capture_output=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=checkout, text=True, capture_output=True,
                           check=True).stdout.strip()
    return sha + (" plus uncommitted changes" if dirty else "")


def perfbench(checkout: Path, seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run of verify_sweep; its record, trimmed."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_sweep",
                    "--seed", str(seed), "--trace", str(trace)],
                   cwd=checkout, check=True, capture_output=True)
    path = checkout / "perfbench_out" / f"verify_sweep-seed{seed}-trace{trace}.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    out = {"seed": seed, "failed": record["failed"], "attempted": record["attempted"]}
    if trace:
        values = record["all_values"]
        # the traced pass runs as many rounds as fit its time; calls and self
        # times are also given per round (ten verify_corollary calls), the
        # set-up calls taken off first so a round counts only its own work
        rounds = values["theta.verify_corollary.calls"] / CASES_PER_ROUND
        out["rounds"] = rounds
        out["per_layer"] = {name: values[name] for name in values
                            if name.startswith(LAYERS) or name in COUNTS}
        out["per_round"] = {name: (value - SETUP_CALLS.get(name, 0)) / rounds
                            for name, value in out["per_layer"].items()
                            if name.endswith((".calls", ".self_s"))}
    else:
        out["end_to_end"] = {name: m["value"] for name, m in record["metrics"].items()}
    return out


def verify_times(checkout: Path, bounds: list[int]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", TIMER, *map(str, bounds)],
                          env=env, text=True, capture_output=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def summarize(pairs: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the change's wins."""
    config = json.loads((CHANGE / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {}
    for metric in config["end_to_end"]:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        runs = {side: [p[side]["end_to_end"][name] for p in pairs]
                for side in ("parent", "change")}
        out[name] = {side: {"median": statistics.median(v),
                            "quartiles": statistics.quantiles(v, n=4)}
                     for side, v in runs.items()}
        out[name]["change_wins"] = sum(sign * (c - p) < 0 for p, c in
                                       zip(runs["parent"], runs["change"]))
        out[name]["pairs"] = len(pairs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--bounds", type=int, nargs="+", default=[12, 24, 36, 48, 96])
    ap.add_argument("--pairs", type=int, default=0)
    ap.add_argument("--pair-seed", type=int, default=4101)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": CHANGE}

    result = {
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "nproc": os.cpu_count()},
        "python": platform.python_version(),
        "git_sha": {name: git_sha(path) for name, path in sides.items()},
        "traced": {name: perfbench(path, args.seed, 1) for name, path in sides.items()},
        "verify_corollary": {name: verify_times(path, args.bounds)
                             for name, path in sides.items()},
        "pairs": [],
    }
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        seed = args.pair_seed + i
        pair = {"seed": seed, "first": order[0]}
        for name in order:
            pair[name] = perfbench(sides[name], seed, 0)
        result["pairs"].append(pair)
    if len(result["pairs"]) >= 2:
        result["pair_summary"] = summarize(result["pairs"])
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
