"""Parent-against-change record of one perfbench workload.

    python benchmarks/bench.py --workload W --parent DIR \
        --out BENCH_n.json [--seed 1] [--pairs 10] [--pair-seed 4101] \
        [--bounds 12 24 36 48 96] [--repeats N]

W is any workload of ``BENCHMARK.json``.  DIR is a clone of the parent
commit; the change is the checkout holding this file.  For
``exact_stream``, ``verify_sweep`` and ``radial_bvp`` the script, for each
side,

* runs ``perfbench/run.py --workload W --trace 1 --seed SEED`` in that
  checkout ``TRACED_REPEATS`` (3) times, alternating which side runs
  first, and keeps the median over the runs (and every run) of the
  per-layer metrics of the layers W exercises, and of the calls and self
  times per round: the traced totals over the rounds run, set-up included
  (building the integral-solution tables on integer gaps calls no traced
  layer); on ``exact_stream``, whose rounds are single operations, these
  are the calls and self times of ``stokes.*`` and
  ``cases.asymptotic_to_k`` per operation, next to the ``exact.add_*_us``
  and ``exact.mul_*_us`` probes of ``AlgReal`` arithmetic;
* for ``verify_sweep``, times the two halves of a round in a fresh
  interpreter that imports that checkout's ``src/``:
  ``brute_force_integral_points(case, 60)`` for every case, then
  ``verify_corollary(case, bound)`` for every case and bound
  (``--bounds``); the integral-solution tables are built, and each
  ``verify_corollary(case, bound)`` called once untimed, before timing, so
  each ``verify_corollary`` time is the forward check and the converse
  sweep without first-use set-up (such as the per-case order tables).  It
  runs ``--repeats`` rounds that alternate which side runs first, and
  keeps, per side, the median and quartiles of each (case,
  bound), of each case's brute force and of the round's split summed over
  the cases; and it splits ``verify_corollary`` at bound 12 over the ten
  cases, in ``--repeats`` fresh interpreters of 20 rounds each, into the
  forward check (``qdo_from_ci``), ``k_gaps_stokes``,
  ``_match_numerators``, the formatting of operator strings
  (``_fmt_roots``) and the rest, candidate generation with check_G (the
  loops, the order-pattern lookup and the roots of non-integral vectors)
  less the timers' own cost that would land in it (``timer_overhead``: the
  round's wrapped calls times a wrapped no-op's cost outside its timer),
  with the median and quartiles of each over the rounds next to the
  untimed round;
* for ``radial_bvp``, splits ``solve_radial`` at the 76 integral points of
  4a, 5a, 5c and 6a into phases: Jacobian assembly, the banded linear
  solve, the line search, and the rest (grid, initial guess, first
  residual, slope fit).  Each of ``--repeats`` rounds (11 by default for
  this workload), alternating which side runs first, is a fresh
  interpreter that reports the mean per solve of each phase next to the
  untimed time per solve, and the Newton steps per grid size, also summed
  over untimed solves of the same points on 2,048 and 4,096 points
  (``FINE_GRIDS``); each side
  keeps the median and quartiles over its rounds and every round's values;

and, for ``cli_cold``, times every ``ttstar`` command of the README and
``import ttstar.solver``, each in a fresh interpreter, in ``--repeats``
rounds that alternate which side runs first; it keeps each side's wall
times, their median and quartiles, the exit code, whether
``scipy.linalg`` was loaded and which of ``dataclasses``, ``json``,
``csv``, ``numpy``, ``ttstar.enumeration``, ``ttstar.theta`` and
``ttstar.solver`` were (``COLD_WATCHED``).  In as many fresh interpreters it times
``convert`` in-process at three common denominators of the gaps
(``CONVERT``), and it runs the Tier-1 tests (``TIER1``) once per side, the
parent first, keeping each side's wall time and passed and failed counts.

Then, for every workload, with ``--pairs N``, runs N untraced pairs with
seeds PAIR_SEED, PAIR_SEED + 1, ..., alternating which side runs first, and
keeps each run's end-to-end metrics and set-up phases (``import_cli_s``,
``cos_pairs_cold_s``, ``tables_cold_s``, ``inputs_s``: the median over the
run's set-up samples), summarized per side over the pairs.  The JSON
written holds the machine, the Python version and the git SHA of each side.
The runs are sequential; run nothing else on the machine meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]

# traced perfbench runs per side; machine drift between runs is of the order
# of the per-layer differences being measured, so one run per side is not
# enough to compare them
TRACED_REPEATS = 3

# per workload: the per-layer metric prefixes kept, the counts kept, and the
# call count that marks a round with the ``sizes`` entry giving its calls per
# round (None: one call per round)
WORKLOADS = {
    # a round of exact_stream is one operation: one point through both routes
    "exact_stream": {
        "layers": ("stokes.", "cases.asymptotic_to_k", "exact.cos2",
                   "exact.add_", "exact.mul_"),
        "counts": (),
        "round": ("stokes.from_asymptotic.calls", None),
    },
    "verify_sweep": {
        "layers": ("theta.verify_corollary", "enumeration.brute_force"),
        "counts": ("theta.converse_checked", "theta.flagged_non_ci"),
        "round": ("theta.verify_corollary.calls", "cases_per_round"),
    },
    "radial_bvp": {
        "layers": ("solver.",),
        "counts": (),
        "round": ("solver.solve_radial.calls", "solves_per_round"),
    },
}

TIMER = r"""
import json, sys, time
from ttstar.cases import CASE_IDS
from ttstar.enumeration import brute_force_integral_points, integral_solutions
from ttstar.theta import verify_corollary
for case in CASE_IDS:
    integral_solutions(case)
for case in CASE_IDS:
    t0 = time.perf_counter()
    points = brute_force_integral_points(case, 60)
    print(json.dumps({"case": case, "brute_force_den": 60,
                      "wall_s": time.perf_counter() - t0, "points": len(points)}),
          flush=True)
for bound in map(int, sys.argv[1:]):
    for case in CASE_IDS:
        verify_corollary(case, bound)  # first-use set-up, untimed
        t0 = time.perf_counter()
        rep = verify_corollary(case, bound)
        print(json.dumps({"case": case, "bound": bound,
                          "wall_s": time.perf_counter() - t0,
                          "converse_checked": rep.converse_checked,
                          "flagged_non_ci": len(rep.flagged_non_ci),
                          "converse_violations": len(rep.converse_violations)}),
              flush=True)
"""

# Splits ``verify_corollary`` at bound 12 over the ten cases, as a
# ``verify_sweep`` round runs it, into pieces: the timed helpers, looked up
# in ``ttstar.theta`` by the call, are wrapped with timers, and the rest of
# the call is candidate generation with check_G: the loops, the order-pattern
# lookup (which holds check_G) and T_k's roots, built for the non-integral
# vectors only.  Each round first runs untimed, then timed.  The wrappers'
# own cost outside their timers, less the bare calls they replace, would
# land in that rest: it is measured on a wrapped no-op after each timed
# round, reported times the round's wrapped calls as ``timer_overhead``,
# and taken out of ``candidates_check_G``.
SWEEP_SPLIT = r"""
import json, sys, time
from ttstar import theta
from ttstar.cases import CASE_IDS
from ttstar.enumeration import integral_solutions

bound, rounds = int(sys.argv[1]), int(sys.argv[2])
for case in CASE_IDS:
    integral_solutions(case)
PIECES = {"forward_check": "qdo_from_ci", "k_gaps_stokes": "k_gaps_stokes",
          "match_numerators": "_match_numerators", "formatting": "_fmt_roots"}
spent = dict.fromkeys([*PIECES, "noop"], 0.0)
calls = dict.fromkeys([*PIECES, "noop"], 0)

def timed(piece, fn):
    def wrapper(*args, **kwargs):
        calls[piece] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[piece] += time.perf_counter() - t0
    return wrapper

def one_round():
    t0 = time.perf_counter()
    for case in CASE_IDS:
        theta.verify_corollary(case, bound)
    return time.perf_counter() - t0

def noop(a, b):
    pass

# per call, the cost of ``timed`` around a no-op of two arguments, as most
# timed calls pass, outside its timer, less the bare no-op call, which the
# timer then holds
def wrapper_overhead(n=10_000):
    wrapped = timed("noop", noop)
    spent["noop"] = 0.0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped(0, 0)
    t1 = time.perf_counter()
    for _ in range(n):
        noop(0, 0)
    t2 = time.perf_counter()
    return (t1 - t0 - spent["noop"] - (t2 - t1)) / n

originals = {piece: getattr(theta, name) for piece, name in PIECES.items()}
for _ in range(3):
    one_round()
for _ in range(rounds):
    for piece, name in PIECES.items():
        setattr(theta, name, originals[piece])
    untimed = one_round()
    for piece, name in PIECES.items():
        setattr(theta, name, timed(piece, originals[piece]))
        spent[piece], calls[piece] = 0.0, 0
    total = one_round()
    pieces = {piece: spent[piece] for piece in PIECES}
    overhead = sum(calls[piece] for piece in PIECES) * wrapper_overhead()
    out = dict(pieces, candidates_check_G=total - sum(pieces.values()) - overhead,
               timer_overhead=overhead, total=total, untimed=untimed)
    print(json.dumps({k: v * 1e3 for k, v in out.items()}), flush=True)
"""

# the requested grids on which PHASES also counts the Newton steps, untimed
FINE_GRIDS = (2048, 4096)

# Wraps the solver's internals with timers (the linear solve is ``dgbsv``)
# and classifies the intervals of each solve; the line search runs from the
# end of a linear solve to the next Jacobian or to the slope fit.  A solve
# that relaxes a nested sequence of grids, each started from the solution
# on a coarser one (the central-difference solver before the Numerov one),
# has the phases of every grid summed, and the interpolation between grids
# counted in the line search; its Newton steps are counted per grid size.
PHASES = r"""
import json, statistics, sys, time
from ttstar import enumeration, solver

points = [(c, r.asymptotic) for c in ("4a", "5a", "5c", "6a")
          for r in enumeration.integral_solutions(c)]
events = []

def timed(kind, fn):
    def wrapper(*args, **kwargs):
        # the grid size of a linear solve: its band has two columns per node
        size = args[2].shape[1] // 2 if kind == "linear_solve" else 0
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            events.append((kind, size, t0, time.perf_counter()))
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
    out = dict.fromkeys(("jacobian", "linear_solve", "line_search"), 0.0)
    steps = {}
    solve_end = None
    for kind, size, s, e in events:
        if solve_end is not None and kind in ("jacobian", "fit"):
            out["line_search"] += s - solve_end
            solve_end = None
        if kind == "linear_solve":
            steps[size] = steps.get(size, 0) + 1
            solve_end = e
        if kind != "fit":
            out[kind] += e - s
    out["other"] = total - sum(out.values())
    out["total"] = total
    return out, steps

for _ in range(2):
    round_untimed()
untimed = round_untimed()
for name, kind in (("_jacobian", "jacobian"), ("dgbsv", "linear_solve"),
                   ("_fit_slope", "fit")):
    setattr(solver, name, timed(kind, getattr(solver, name)))
per_point = [phases(c, a) for c, a in points]
steps = {}
for _, point_steps in per_point:
    for size, count in point_steps.items():
        steps[size] = steps.get(size, 0) + count
# untimed: the Newton steps of the same points on the requested grids above
# the default one, where the stopping rule decides how far a solve goes
fine_steps = {f"{m}_points": sum(solver.solve_radial(c, a, solver.SolverConfig(grid_points=m))
                                 .iterations for c, a in points) for m in FINE_GRIDS}
print(json.dumps({
    "points": len(points),
    "untimed_ms_per_solve": untimed * 1e3,
    "phase_ms_per_solve": {k: statistics.fmean(p[k] for p, _ in per_point) * 1e3
                           for k in per_point[0][0]},
    "newton_steps_over_points": {f"{size}_points": steps[size] for size in sorted(steps)},
    "newton_steps_on_finer_grids": fine_steps,
}))
""".replace("FINE_GRIDS", repr(FINE_GRIDS))


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
        # times are also given per round
        calls, size = spec["round"]
        rounds = values[calls] / (record["sizes"][size] if size else 1)
        out["rounds"] = rounds
        out["per_layer"] = {name: values[name] for name in values
                            if name.startswith(spec["layers"]) or name in spec["counts"]}
        out["per_round"] = {name: value / rounds
                            for name, value in out["per_layer"].items()
                            if name.endswith((".calls", ".self_s"))}
    else:
        out["end_to_end"] = {name: m["value"] for name, m in record["metrics"].items()}
        phases = record["setup_phases"]
        out["setup_phases"] = {name: statistics.median(p[name] for p in phases)
                               for name in phases[0]}
    return out


def traced(sides: dict[str, Path], workload: str, seed: int) -> dict:
    """Per side, ``TRACED_REPEATS`` traced runs, alternating which side runs
    first: each kept number's median over the runs, and every run."""
    runs = alternating(sides, TRACED_REPEATS,
                       lambda path: perfbench(path, workload, seed, 1))
    out = {}
    for name, recs in runs.items():
        out[name] = {"seed": seed, "repeats": len(recs),
                     "failed": max(r["failed"] for r in recs),
                     "rounds": statistics.median(r["rounds"] for r in recs)}
        for key in ("per_layer", "per_round"):
            out[name][key] = {metric: statistics.median(r[key][metric] for r in recs)
                              for metric in recs[0][key]}
        out[name]["runs"] = recs
    return out


def run_script(checkout: Path, script: str, *args) -> list[dict]:
    """Run a script in a fresh interpreter on the checkout's ``src/``; its
    JSON output lines."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, text=True, capture_output=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def alternating(sides: dict[str, Path], repeats: int, run) -> dict[str, list]:
    """``run(checkout)`` for both sides in ``repeats`` rounds, the parent
    first in even rounds and the change first in odd ones."""
    out = {name: [] for name in sides}
    for i in range(repeats):
        for name in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            out[name].append(run(sides[name]))
    return out


def spread(values) -> dict:
    """The median and quartiles of one side's values over its rounds."""
    values = list(values)
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "quartiles": quartiles}


def round_split(records: list[dict], bounds: list[int]) -> dict:
    """The wall time of one ``TIMER`` round, summed over the ten cases: the
    brute force at 60 and ``verify_corollary`` at each bound."""
    split = {"brute_force_60": sum(r["wall_s"] for r in records
                                   if "brute_force_den" in r)}
    for bound in bounds:
        split[f"verify_corollary_{bound}"] = sum(
            r["wall_s"] for r in records if r.get("bound") == bound)
    return split


def verify_times(sides: dict[str, Path], bounds: list[int], repeats: int) -> dict:
    """Per side, the ``TIMER`` records with each one's median and quartiles
    of the wall time over the rounds and every round's time, and the median
    and quartiles over the rounds of ``round_split`` (``verify_sweep`` runs
    ``verify_corollary`` at 12)."""
    runs = alternating(sides, repeats, lambda path: run_script(path, TIMER, *bounds))
    out = {}
    for name, rounds in runs.items():
        records = []
        for j, rec in enumerate(rounds[0]):
            times = spread(r[j]["wall_s"] for r in rounds)
            records.append(dict(rec, wall_s=times["median"],
                                quartiles_s=times["quartiles"],
                                runs_s=[r[j]["wall_s"] for r in rounds]))
        splits = [round_split(r, bounds) for r in rounds]
        out[name] = {"round_split_s": {part: spread(split[part] for split in splits)
                                       for part in splits[0]},
                     "records": records}
    return out


def sweep_split(sides: dict[str, Path], repeats: int, rounds: int = 20) -> dict:
    """Per side, the ``SWEEP_SPLIT`` of ``rounds`` rounds in each of
    ``repeats`` fresh interpreters, alternating which side runs first: the
    median and quartiles over all rounds of each piece, in ms per round."""
    runs = alternating(sides, repeats,
                       lambda path: run_script(path, SWEEP_SPLIT, 12, rounds))
    out = {}
    for name, interpreters in runs.items():
        records = [r for recs in interpreters for r in recs]
        out[name] = {"bound": 12, "rounds": len(records),
                     "ms_per_round": {piece: spread(r[piece] for r in records)
                                      for piece in records[0]}}
    return out


def solve_phases(sides: dict[str, Path], repeats: int) -> dict:
    """Per side, the ``PHASES`` split over ``repeats`` fresh interpreters:
    each time's median and quartiles over the rounds, and every round's
    record."""
    runs = alternating(sides, repeats, lambda path: run_script(path, PHASES)[0])
    out = {}
    for name, rounds in runs.items():
        phases = rounds[0]["phase_ms_per_solve"]
        out[name] = {
            "points": rounds[0]["points"], "repeats": repeats,
            "untimed_ms_per_solve": spread(r["untimed_ms_per_solve"] for r in rounds),
            "phase_ms_per_solve": {k: spread(r["phase_ms_per_solve"][k] for r in rounds)
                                   for k in phases},
            "newton_steps_over_points": rounds[0]["newton_steps_over_points"],
            "newton_steps_on_finer_grids": rounds[0]["newton_steps_on_finer_grids"],
            "rounds": rounds}
    return out


# the modules whose loading by a cold command ``cold_run`` reports
COLD_WATCHED = ("scipy.linalg", "dataclasses", "json", "csv", "numpy",
                "ttstar.enumeration", "ttstar.theta", "ttstar.solver")

# One cold command in a fresh interpreter: ``python -m ttstar.cli ARGS``,
# run by ``runpy`` as ``-m`` does, or ``import ttstar.solver`` when ARGS is
# empty.  At exit it adds a last stderr line "loaded: ..." naming the
# modules of ``COLD_WATCHED`` it loaded.
COLD = r"""
import atexit, runpy, sys
atexit.register(lambda: print("\nloaded:", *[m for m in %r if m in sys.modules],
                              file=sys.stderr))
if len(sys.argv) > 1:
    runpy.run_module("ttstar.cli", run_name="__main__", alter_sys=True)
else:
    import ttstar.solver
""" % (COLD_WATCHED,)


def readme_commands() -> list[list[str]]:
    """The arguments of every ``ttstar`` command line in the README."""
    text = (CHANGE / "README.md").read_text(encoding="utf-8")
    return [shlex.split(m.group(1), comments=True)
            for m in re.finditer(r"^ttstar (.*)$", text, re.MULTILINE)]


def cold_run(checkout: Path, argv: list[str]) -> dict:
    """Wall time, exit code, ``scipy.linalg`` flag and the other modules of
    ``COLD_WATCHED`` loaded by one cold command, run in an empty directory
    (the README's ``--output profile.csv`` lands there)."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as cwd:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", COLD, *argv], cwd=cwd, env=env,
                              text=True, capture_output=True)
        wall = time.perf_counter() - t0
    names = proc.stderr.rstrip().rsplit("\n", 1)[-1].split()
    if names[:1] != ["loaded:"] or not set(names[1:]) <= set(COLD_WATCHED):
        raise RuntimeError(f"{argv}: no loaded: line on stderr: {proc.stderr[-300:]}")
    return {"wall_s": wall, "returncode": proc.returncode,
            "scipy_linalg_loaded": "scipy.linalg" in names,
            "loaded": [m for m in names[1:] if m != "scipy.linalg"]}


def cold_commands(sides: dict[str, Path], repeats: int) -> list[dict]:
    """Per README command and the solver import, each side's cold runs and
    their median and quartiles."""
    commands = readme_commands() + [[]]
    runs = alternating(sides, repeats,
                       lambda path: [cold_run(path, argv) for argv in commands])
    out = []
    for j, argv in enumerate(commands):
        entry = {"command": "ttstar " + shlex.join(argv) if argv
                 else 'python -c "import ttstar.solver"'}
        for name, rounds in runs.items():
            recs = [r[j] for r in rounds]
            times = spread(r["wall_s"] for r in recs)
            entry[name] = {"median_s": times["median"],
                           "quartiles_s": times["quartiles"],
                           "runs_s": [r["wall_s"] for r in recs],
                           "returncode": sorted({r["returncode"] for r in recs}),
                           "scipy_linalg_loaded": sorted({r["scipy_linalg_loaded"]
                                                          for r in recs}),
                           "loaded": sorted({tuple(r["loaded"]) for r in recs})}
        out.append(entry)
    return out


# ``convert`` in-process, after one README conversion has loaded the modules,
# at three common denominators q of the gaps (k_i + 1)/N: q = 480, the
# prime q = 10^16 + 61 (both slot roots of one huge order) and a q of about
# 3,000 digits (k_i = 1/(10^999 + j)).  Each input is timed once per
# interpreter, with its exit code.
CONVERT = r"""
import contextlib, io, json, sys, time
from ttstar.cli import main
X = str(5 * 10**15 + 28)
INPUTS = {"q_480": ["0", "0", "476", "0"], "q_10e16_61": ["0", X, "1", X],
          "q_3000_digits": ["1/" + str(10**999 + j) for j in (1, 3, 7, 3)]}
sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    main(["convert", "4a", "--from", "asymptotic", "3", "1"])
    for name, values in INPUTS.items():
        t0 = time.perf_counter()
        code = main(["convert", "4a", "--from", "k", *values])
        print(json.dumps({"input": name, "wall_s": time.perf_counter() - t0,
                          "returncode": code}), file=sys.__stdout__, flush=True)
"""


def convert_times(sides: dict[str, Path], repeats: int) -> list[dict]:
    """Per ``CONVERT`` input, each side's in-process times over ``repeats``
    fresh interpreters, alternating which side runs first."""
    runs = alternating(sides, repeats, lambda path: run_script(path, CONVERT))
    out = []
    for j, rec in enumerate(runs["parent"][0]):
        entry = {"input": rec["input"]}
        for name, rounds in runs.items():
            times = spread(r[j]["wall_s"] for r in rounds)
            entry[name] = {"median_s": times["median"], "quartiles_s": times["quartiles"],
                           "runs_s": [r[j]["wall_s"] for r in rounds],
                           "returncode": sorted({r[j]["returncode"] for r in rounds})}
        out.append(entry)
    return out


# the Tier-1 command of ROADMAP.md, run in the root of a checkout with its
# src/ in front of PYTHONPATH
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def tier1_run(checkout: Path) -> dict:
    """Wall time, exit code and the passed and failed counts of one Tier-1 run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          text=True, capture_output=True)
    wall = time.perf_counter() - t0
    summary = proc.stdout.rstrip().rsplit("\n", 1)[-1]
    out = {"wall_s": wall, "returncode": proc.returncode, "summary": summary}
    for kind in ("passed", "failed"):
        count = re.search(rf"(\d+) {kind}", summary)
        out[kind] = int(count.group(1)) if count else 0
    return out


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


def summarize_setup(pairs: list[dict]) -> dict:
    """Per set-up phase: each side's median over the pairs, in seconds."""
    return {phase: {side: statistics.median(p[side]["setup_phases"][phase]
                                            for p in pairs)
                    for side in ("parent", "change")}
            for phase in pairs[0]["parent"]["setup_phases"]}


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
    ap.add_argument("--repeats", type=int,
                    help="rounds of the verify_corollary times (verify_sweep, "
                         "default 5), the per-phase split (radial_bvp, default "
                         "11: 5 rounds cannot resolve a 0.1 ms phase) and the "
                         "cold commands (cli_cold, default 5)")
    ap.add_argument("--pairs", type=int, default=0)
    ap.add_argument("--pair-seed", type=int, default=4101)
    args = ap.parse_args(argv)
    if args.repeats is None:
        args.repeats = 11 if args.workload == "radial_bvp" else 5
    sides = {"parent": args.parent.resolve(), "change": CHANGE}

    result = {
        "workload": args.workload,
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "nproc": os.cpu_count()},
        "python": platform.python_version(),
        "git_sha": {name: git_sha(path) for name, path in sides.items()},
    }
    if args.workload in WORKLOADS:
        result["traced"] = traced(sides, args.workload, args.seed)
    if args.workload == "verify_sweep":
        result["verify_corollary"] = verify_times(sides, args.bounds, args.repeats)
        result["verify_corollary_split"] = sweep_split(sides, args.repeats)
    elif args.workload == "radial_bvp":
        result["solve_phases"] = solve_phases(sides, args.repeats)
    elif args.workload == "cli_cold":
        result["cold_commands"] = cold_commands(sides, args.repeats)
        result["convert_times"] = convert_times(sides, args.repeats)
        result["tier1"] = {"command": "python " + shlex.join(TIER1),
                           **{name: runs[0] for name, runs in
                              alternating(sides, 1, tier1_run).items()}}
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
        result["setup_phase_summary"] = summarize_setup(result["pairs"])
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
