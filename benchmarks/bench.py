"""Parent-against-change record of one perfbench workload.

    python benchmarks/bench.py --workload W --parent DIR \
        --out BENCH_n.json [--seed 1] [--pairs 10] [--pair-seed 4101] \
        [--bounds 12 24 36 48 96] [--repeats 5]

W is any workload of ``BENCHMARK.json``.  DIR is a clone of the parent
commit; the change is the checkout holding this file.  For ``verify_sweep``
and ``radial_bvp`` the script, for each side,

* runs ``perfbench/run.py --workload W --trace 1 --seed SEED`` in that
  checkout and keeps the per-layer metrics of the layers W exercises, and
  the calls and self times per round: the traced totals less the set-up
  calls, over the rounds run;
* for ``verify_sweep``, times ``verify_corollary(case, bound)`` for every
  case and bound (``--bounds``) in a fresh interpreter that imports that
  checkout's ``src/`` (the integral-solution tables are built before
  timing, so each time is the converse sweep);
* for ``radial_bvp``, splits ``solve_radial`` at the 76 integral points of
  4a, 5a, 5c and 6a into phases, in a fresh interpreter likewise: the warm
  start (relaxing the coarser grids), Jacobian assembly, the banded linear
  solve and the line search on the requested grid, and the rest (initial
  guess, interpolation, first residual, slope fits).  It reports the mean
  per solve of each phase, the median over ``--repeats`` rounds, next to
  the untimed time per solve;

then, for every workload, with ``--pairs N``, runs N untraced pairs with
seeds PAIR_SEED, PAIR_SEED + 1, ..., alternating which side runs first, and
keeps each run's end-to-end metrics.  The JSON written holds the machine, the Python version
and the git SHA of each side.  The runs are sequential; run nothing else on
the machine meanwhile.
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

# per workload: the per-layer metric prefixes kept, the counts kept, the call
# count that marks a round with the ``sizes`` entry giving its calls per
# round, and the calls the traced window sees before the first round
WORKLOADS = {
    "verify_sweep": {
        "layers": ("theta.verify_corollary", "stokes.from_k",
                   "enumeration.brute_force", "exact.cos2"),
        "counts": ("theta.converse_checked", "theta.flagged_non_ci"),
        "round": ("theta.verify_corollary.calls", "cases_per_round"),
        # building the integral-solution tables makes 19 stokes_from_k calls
        # for each of the ten cases
        "setup_calls": {"stokes.from_k.calls": 19 * 10},
    },
    "radial_bvp": {
        "layers": ("solver.",),
        "counts": (),
        "round": ("solver.solve_radial.calls", "solves_per_round"),
        "setup_calls": {},
    },
}

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

# Wraps the solver's internals with timers (whichever of them the checkout
# has: the linear solve is ``dgbsv`` or ``solve_banded``, and ``_relax`` is
# the nested grid relaxation) and classifies the intervals of each solve.
# A ``_relax`` called inside another is the warm start, and so is every call
# inside it; the line search runs from the end of a linear solve on the
# requested grid to its next Jacobian or to the slope fit.
PHASES = r"""
import json, statistics, sys, time
from ttstar import enumeration, solver

repeats = int(sys.argv[1])
points = [(c, r.asymptotic) for c in ("4a", "5a", "5c", "6a")
          for r in enumeration.integral_solutions(c)]
events, depth = [], [0]

def timed(kind, fn):
    def wrapper(*args, **kwargs):
        level = depth[0]  # the number of _relax calls open around this one
        depth[0] += kind == "relax"
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            events.append((kind, level, t0, time.perf_counter()))
            depth[0] -= kind == "relax"
    return wrapper

def round_untimed():
    t0 = time.perf_counter()
    for c, a in points:
        solver.solve_radial(c, a)
    return (time.perf_counter() - t0) / len(points)

def phases(c, a):
    events.clear()
    t0 = time.perf_counter()
    solver.solve_radial(c, a)
    total = time.perf_counter() - t0
    out = dict.fromkeys(("warm_start", "jacobian", "linear_solve", "line_search"), 0.0)
    steps = {"coarse_steps": 0, "fine_steps": 0}
    solve_end = None
    for kind, level, s, e in sorted(events, key=lambda ev: ev[2]):
        if kind == "relax":
            out["warm_start"] += (e - s) * (level == 1)
            continue
        if level > 1:
            steps["coarse_steps"] += kind == "linear_solve"
            continue
        if solve_end is not None and kind in ("jacobian", "fit"):
            out["line_search"] += s - solve_end
            solve_end = None
        if kind == "linear_solve":
            steps["fine_steps"] += 1
            solve_end = e
        if kind != "fit":
            out[kind] += e - s
    out["other"] = total - sum(out.values())
    out["total"] = total
    return out, steps

for _ in range(2):
    round_untimed()
untimed = [round_untimed() for _ in range(repeats)]
for name, kind in (("_relax", "relax"), ("_jacobian", "jacobian"),
                   ("dgbsv", "linear_solve"), ("solve_banded", "linear_solve"),
                   ("_fit_slope", "fit")):
    if hasattr(solver, name):
        setattr(solver, name, timed(kind, getattr(solver, name)))
rounds, steps = [], None
for _ in range(repeats):
    per_point = [phases(c, a) for c, a in points]
    rounds.append({k: statistics.fmean(p[k] for p, _ in per_point) * 1e3
                   for k in per_point[0][0]})
    steps = {k: sum(s[k] for _, s in per_point) for k in per_point[0][1]}
print(json.dumps({
    "points": len(points), "repeats": repeats,
    "untimed_ms_per_solve": statistics.median(untimed) * 1e3,
    "phase_ms_per_solve": {k: statistics.median(r[k] for r in rounds) for k in rounds[0]},
    "newton_steps_over_points": steps,
}))
"""


def git_sha(checkout: Path) -> str:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, text=True,
                         capture_output=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=checkout, text=True, capture_output=True,
                           check=True).stdout.strip()
    return sha + (" plus uncommitted changes" if dirty else "")


def perfbench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run of the workload; its record, trimmed."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--trace", str(trace)],
                   cwd=checkout, check=True, capture_output=True)
    path = checkout / "perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    out = {"seed": seed, "failed": record["failed"], "attempted": record["attempted"]}
    if trace:
        spec = WORKLOADS[workload]
        values = record["all_values"]
        # the traced pass runs as many rounds as fit its time; calls and self
        # times are also given per round, the set-up calls taken off first so
        # a round counts only its own work
        calls, size = spec["round"]
        rounds = values[calls] / record["sizes"][size]
        out["rounds"] = rounds
        out["per_layer"] = {name: values[name] for name in values
                            if name.startswith(spec["layers"]) or name in spec["counts"]}
        out["per_round"] = {name: (value - spec["setup_calls"].get(name, 0)) / rounds
                            for name, value in out["per_layer"].items()
                            if name.endswith((".calls", ".self_s"))}
    else:
        out["end_to_end"] = {name: m["value"] for name, m in record["metrics"].items()}
    return out


def run_script(checkout: Path, script: str, *args) -> list[dict]:
    """Run a script in a fresh interpreter on the checkout's ``src/``; its
    JSON output lines."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, text=True, capture_output=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the change's wins."""
    out = {}
    for metric in metrics:
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
    config = json.loads((CHANGE / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap.add_argument("--workload", required=True,
                    choices=tuple(w["name"] for w in config["workloads"]))
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--bounds", type=int, nargs="+", default=[12, 24, 36, 48, 96],
                    help="verify_sweep: the bounds verify_corollary is timed at")
    ap.add_argument("--repeats", type=int, default=5,
                    help="radial_bvp: rounds of the per-phase split")
    ap.add_argument("--pairs", type=int, default=0)
    ap.add_argument("--pair-seed", type=int, default=4101)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": CHANGE}

    result = {
        "workload": args.workload,
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "nproc": os.cpu_count()},
        "python": platform.python_version(),
        "git_sha": {name: git_sha(path) for name, path in sides.items()},
    }
    if args.workload in WORKLOADS:
        result["traced"] = {name: perfbench(path, args.workload, args.seed, 1)
                            for name, path in sides.items()}
    if args.workload == "verify_sweep":
        result["verify_corollary"] = {name: run_script(path, TIMER, *args.bounds)
                                      for name, path in sides.items()}
    elif args.workload == "radial_bvp":
        result["solve_phases"] = {name: run_script(path, PHASES, args.repeats)[0]
                                  for name, path in sides.items()}
    result["pairs"] = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        seed = args.pair_seed + i
        pair = {"seed": seed, "first": order[0]}
        for name in order:
            pair[name] = perfbench(sides[name], args.workload, seed, 0)
        result["pairs"].append(pair)
    if len(result["pairs"]) >= 2:
        result["pair_summary"] = summarize(result["pairs"], config["end_to_end"])
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
