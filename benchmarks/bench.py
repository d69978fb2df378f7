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
* for ``verify_sweep``, times the two halves of a round (``verify_round``):
  ``brute_force_integral_points(case, 60)`` twice for every case, the
  ``first`` call with its first-use set-up (the label table and the case's
  label axes, when no earlier case built them) and the ``warm`` one
  without, then ``verify_corollary(case, bound)`` for every case and bound
  (``--bounds``); the integral-solution tables are built, and each
  ``verify_corollary(case, bound)`` called once untimed, before timing, so
  each ``verify_corollary`` time is the forward check and the converse
  sweep without first-use set-up (such as the per-case order tables).  It
  runs ``--repeats`` rounds that alternate which side runs first, and
  keeps, per side, the median and quartiles of each (case,
  bound), of each case's brute force and of the round's split summed over
  the cases; and it splits ``verify_corollary`` at bound 12 over the ten
  cases (``sweep_split_rounds``), in ``--repeats`` fresh interpreters of
  20 rounds each, into the forward check (``qdo_from_ci``),
  ``k_gaps_stokes``, the complete-intersection match (``match_ci``, or
  ``_match_numerators`` on a checkout that still has it) and the rest,
  candidate generation with check_G (the walk, the order-pattern lookup
  and the operators of non-integral vectors), each less the timers' own
  cost that lands in it; the whole of that cost is ``timer_overhead``,
  each piece's calls times a wrapped no-op's cost less the bare no-op's,
  at the piece's own argument count, so the timed round is the untimed
  one plus ``timer_overhead``.  It keeps
  the median and quartiles of each over the rounds next to the untimed
  round;
* for ``radial_bvp``, splits ``solve_radial`` at the 76 integral points of
  4a, 5a, 5c and 6a into phases (``solve_phases_round``): Jacobian
  assembly, the banded linear solve, the line search, and the rest
  (grid, initial guess, first residual, slope fit).  Each of
  ``--repeats`` rounds (11 by default for this workload), alternating
  which side runs first, is a fresh interpreter that reports the mean per
  solve of each phase next to the untimed time per solve, and the Newton
  steps summed over the points on the default grid, and over untimed
  solves of the same points on 2,048 and 4,096 points (``FINE_GRIDS``);
  each side keeps the median and quartiles over its rounds and every
  round's values;

and, for ``cli_cold``, times every ``ttstar`` command of the README and
``import ttstar.solver``, each in a fresh interpreter, in ``--repeats``
rounds that alternate which side runs first; it keeps each side's wall
times, their median and quartiles, the exit code, whether
``scipy.linalg`` was loaded and which of ``dataclasses``, ``json``,
``csv``, ``numpy``, ``ttstar.enumeration``, ``ttstar.theta`` and
``ttstar.solver`` were (``COLD_WATCHED``).  In as many fresh interpreters it times
``convert`` in-process at three common denominators of the gaps
(``CONVERT_INPUTS``), and it runs the Tier-1 tests (``TIER1``) once per
side, the parent first, keeping each side's wall time and passed and
failed counts.

Then, for every workload, with ``--pairs N``, runs N untraced pairs with
seeds PAIR_SEED, PAIR_SEED + 1, ..., alternating which side runs first, and
keeps each run's end-to-end metrics and set-up phases (``import_cli_s``,
``cos_pairs_cold_s``, ``tables_cold_s``, ``inputs_s``: the median over the
run's set-up samples), summarized per side over the pairs.  The JSON
written holds the machine, the Python version and the git SHA of each side.
The runs are sequential; run nothing else on the machine meanwhile.

The timed functions below (``verify_round``, ``sweep_split_rounds``,
``solve_phases_round``, ``convert_round``) run in a fresh interpreter that
imports one side's ``src/`` (``run_in``).
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

HERE = Path(__file__).resolve().parent
CHANGE = HERE.parent

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
        "layers": ("theta.verify_corollary", "theta.match_ci", "enumeration.brute_force"),
        "counts": ("theta.converse_checked", "theta.flagged_non_ci"),
        "round": ("theta.verify_corollary.calls", "cases_per_round"),
    },
    "radial_bvp": {
        "layers": ("solver.",),
        "counts": (),
        "round": ("solver.solve_radial.calls", "solves_per_round"),
    },
}


def verify_round(bounds: list[int]) -> list[dict]:
    """One timed round of ``verify_sweep``'s two halves, a record per call."""
    from ttstar.cases import CASE_IDS
    from ttstar.enumeration import brute_force_integral_points, integral_solutions
    from ttstar.theta import verify_corollary
    for case in CASE_IDS:
        integral_solutions(case)
    out = []
    for case in CASE_IDS:
        for call in ("first", "warm"):
            t0 = time.perf_counter()
            points = brute_force_integral_points(case, 60)
            out.append({"case": case, "brute_force_den": 60, "call": call,
                        "wall_s": time.perf_counter() - t0, "points": len(points)})
    for bound in bounds:
        for case in CASE_IDS:
            verify_corollary(case, bound)  # first-use set-up, untimed
            t0 = time.perf_counter()
            rep = verify_corollary(case, bound)
            out.append({"case": case, "bound": bound,
                        "wall_s": time.perf_counter() - t0,
                        "converse_checked": rep.converse_checked,
                        "flagged_non_ci": len(rep.flagged_non_ci),
                        "converse_violations": len(rep.converse_violations)})
    return out


def sweep_split_rounds(bound: int, rounds: int) -> list[dict]:
    """Per round, in ms: ``verify_corollary(case, bound)`` over the ten cases
    split into the pieces that ``theta`` looks up by name, each wrapped with
    a timer, and the rest of the call, candidate generation with check_G.

    Each round first runs untimed, then timed.  For each piece a wrapped
    no-op of the piece's own argument count is then timed against the bare
    no-op over the same calls: the wrapper costs ``wrapped - bare`` a call
    (``timer_overhead`` is the sum of each piece's calls times that), of
    which ``window - bare`` falls inside its timer and is taken out of the
    piece, per call, and the rest out of ``candidates_check_G``.
    """
    from ttstar import theta
    from ttstar.cases import CASE_IDS
    from ttstar.enumeration import integral_solutions
    for case in CASE_IDS:
        integral_solutions(case)
    # piece -> the function it times and that function's argument count; an
    # older checkout's sweep matches through ``_match_numerators``
    match = (("_match_numerators", 3) if hasattr(theta, "_match_numerators")
             else ("match_ci", 2))
    names = {"forward_check": ("qdo_from_ci", 1), "k_gaps_stokes": ("k_gaps_stokes", 2),
             "match_numerators": match}
    noops = {1: lambda a: None, 2: lambda a, b: None, 3: lambda a, b, c: None}
    originals = {piece: getattr(theta, name) for piece, (name, _) in names.items()}
    spent, calls = {}, {}

    def timed(piece, fn):
        spent[piece], calls[piece] = 0.0, 0

        def wrapper(*args, **kwargs):
            calls[piece] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[piece] += time.perf_counter() - t0
        return wrapper

    def one_round(wrap):
        for piece, (name, _) in names.items():
            setattr(theta, name, wrap(piece, originals[piece]))
        t0 = time.perf_counter()
        for case in CASE_IDS:
            theta.verify_corollary(case, bound)
        return time.perf_counter() - t0

    def noop_costs(k, n=10_000):
        """Per call of a k-argument no-op: wrapped, its timer's window and bare."""
        noop, args = noops[k], (0,) * k
        wrapped = timed("noop", noop)
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped(*args)
        t1 = time.perf_counter()
        for _ in range(n):
            noop(*args)
        return (t1 - t0) / n, spent["noop"] / n, (time.perf_counter() - t1) / n

    def bare(piece, fn):
        return fn

    for _ in range(3):
        one_round(bare)
    out = []
    for _ in range(rounds):
        untimed = one_round(bare)
        total = one_round(timed)
        costs = {k: noop_costs(k) for k in noops}
        split, outside, overhead = {}, 0.0, 0.0
        for piece, (_, k) in names.items():
            wrapped, window, base = costs[k]
            split[piece] = spent[piece] - calls[piece] * (window - base)
            outside += calls[piece] * (wrapped - window)
            overhead += calls[piece] * (wrapped - base)
        split["candidates_check_G"] = total - sum(spent[p] for p in names) - outside
        split.update(timer_overhead=overhead, total=total, untimed=untimed)
        out.append({k: v * 1e3 for k, v in split.items()})
    return out


# the requested grids on which ``solve_phases_round`` also counts the Newton
# steps, untimed
FINE_GRIDS = (2048, 4096)


def solve_phases_round() -> dict:
    """``solve_radial`` at the 76 integral points of 4a, 5a, 5c and 6a, split
    into phases by timers around the solver's internals (the linear solve is
    ``dgbsv``).  A solve on its one grid runs (Jacobian, linear solve) once
    per Newton step, then the slope fit; the line search runs from the end
    of each linear solve to the next Jacobian or to the fit."""
    from ttstar import enumeration, solver
    points = [(c, r.asymptotic) for c in ("4a", "5a", "5c", "6a")
              for r in enumeration.integral_solutions(c)]
    events = []

    def timed(kind, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                events.append((kind, t0, time.perf_counter()))
        return wrapper

    def round_untimed():
        t0 = time.perf_counter()
        for c, a in points:
            solver.solve_radial(c, a)
        return (time.perf_counter() - t0) / len(points)

    def phases(c, a):
        events.clear()
        t0 = time.perf_counter()
        steps = solver.solve_radial(c, a).iterations
        total = time.perf_counter() - t0
        assert [e[0] for e in events] == ["jacobian", "linear_solve"] * steps + ["fit"]
        jac, lin, fit = events[:-1:2], events[1::2], events[-1]
        out = {"jacobian": sum(e - s for _, s, e in jac),
               "linear_solve": sum(e - s for _, s, e in lin),
               "line_search": sum(after[1] - solve[2]
                                  for solve, after in zip(lin, jac[1:] + [fit]))}
        return dict(out, other=total - sum(out.values()), total=total), steps

    for _ in range(2):
        round_untimed()
    untimed = round_untimed()
    for name, kind in (("_jacobian", "jacobian"), ("dgbsv", "linear_solve"),
                       ("_fit_slope", "fit")):
        setattr(solver, name, timed(kind, getattr(solver, name)))
    per_point = [phases(c, a) for c, a in points]
    return {
        "points": len(points),
        "untimed_ms_per_solve": untimed * 1e3,
        "phase_ms_per_solve": {k: statistics.fmean(p[k] for p, _ in per_point) * 1e3
                               for k in per_point[0][0]},
        "newton_steps_over_points": {f"{solver.SolverConfig().grid_points}_points":
                                     sum(steps for _, steps in per_point)},
        # the Newton steps of the same points on the requested grids above
        # the default one, where the stopping rule decides how far a solve goes
        "newton_steps_on_finer_grids": {
            f"{m}_points": sum(solver.solve_radial(c, a, solver.SolverConfig(grid_points=m))
                               .iterations for c, a in points) for m in FINE_GRIDS},
    }


# ``convert`` in-process at three common denominators q of the gaps
# (k_i + 1)/N: q = 480, the prime q = 10^16 + 61 (both slot roots of one huge
# order) and a q of about 3,000 digits (k_i = 1/(10^999 + j))
_X = str(5 * 10**15 + 28)
CONVERT_INPUTS = {"q_480": ["0", "0", "476", "0"], "q_10e16_61": ["0", _X, "1", _X],
                  "q_3000_digits": ["1/" + str(10**999 + j) for j in (1, 3, 7, 3)]}


def convert_round() -> list[dict]:
    """Each ``CONVERT_INPUTS`` entry timed once with its exit code, after one
    README conversion has loaded the modules."""
    import contextlib
    import io
    from ttstar.cli import main
    out = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(["convert", "4a", "--from", "asymptotic", "3", "1"])
        for values in CONVERT_INPUTS.values():
            t0 = time.perf_counter()
            code = main(["convert", "4a", "--from", "k", *values])
            out.append({"wall_s": time.perf_counter() - t0, "returncode": code})
    return out


def run_in(checkout: Path, function: str, *args):
    """``function(*args)`` of this module in a fresh interpreter that imports
    the checkout's ``src/``; what it returns, through JSON."""
    code = f"import json, bench; print(json.dumps(bench.{function}(*{list(args)!r})))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
                          capture_output=True)
    return json.loads(proc.stdout)


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


def alternating(sides: dict[str, Path], repeats: int, run) -> dict[str, list]:
    """``run(checkout)`` for both sides in ``repeats`` rounds, the parent
    first in even rounds and the change first in odd ones."""
    out = {name: [] for name in sides}
    for i in range(repeats):
        for name in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            out[name].append(run(sides[name]))
    return out


def spread(values, unit: str = "") -> dict:
    """One side's median and quartiles over its runs and, given a unit
    (``_s``), every run too, each key ending in the unit."""
    values = list(values)
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    out = {"median": statistics.median(values), "quartiles": quartiles}
    if unit:
        out["runs"] = values
    return {key + unit: value for key, value in out.items()}


def by_item(runs: dict[str, list], label: str, items) -> list[dict]:
    """Per item, the j-th record of every run: its label and, per side, the
    ``spread`` of its wall times and the sorted distinct values of its other
    fields."""
    out = []
    for j, item in enumerate(items):
        entry = {label: item}
        for name, rounds in runs.items():
            recs = [r[j] for r in rounds]
            entry[name] = spread((r["wall_s"] for r in recs), "_s")
            entry[name].update((key, sorted({r[key] for r in recs}))
                               for key in recs[0] if key != "wall_s")
        out.append(entry)
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


def round_split(records: list[dict]) -> dict:
    """The wall time of one ``verify_round`` summed over the ten cases: the
    brute force's first and warm calls at 60 and ``verify_corollary`` at
    each bound."""
    split = {}
    for r in records:
        half = (f"verify_corollary_{r['bound']}" if "bound" in r
                else f"brute_force_60_{r['call']}")
        split[half] = split.get(half, 0.0) + r["wall_s"]
    return split


def verify_times(sides: dict[str, Path], bounds: list[int], repeats: int) -> dict:
    """Per side, the ``verify_round`` records, each with its wall time's
    median, quartiles and every round's time, and the median and quartiles
    over the rounds of ``round_split`` (``verify_sweep`` runs
    ``verify_corollary`` at 12)."""
    runs = alternating(sides, repeats, lambda path: run_in(path, "verify_round", bounds))
    out = {}
    for name, rounds in runs.items():
        records = []
        for j, rec in enumerate(rounds[0]):
            times = spread((r[j]["wall_s"] for r in rounds), "_s")
            records.append(dict(rec, wall_s=times.pop("median_s"), **times))
        splits = [round_split(r) for r in rounds]
        out[name] = {"round_split_s": {half: spread(split[half] for split in splits)
                                       for half in splits[0]},
                     "records": records}
    return out


def sweep_split(sides: dict[str, Path], repeats: int, rounds: int = 20) -> dict:
    """Per side, the ``sweep_split_rounds`` of ``rounds`` rounds in each of
    ``repeats`` fresh interpreters, alternating which side runs first: the
    median and quartiles over all rounds of each piece, in ms per round."""
    runs = alternating(sides, repeats,
                       lambda path: run_in(path, "sweep_split_rounds", 12, rounds))
    out = {}
    for name, interpreters in runs.items():
        records = [r for recs in interpreters for r in recs]
        out[name] = {"bound": 12, "rounds": len(records),
                     "ms_per_round": {piece: spread(r[piece] for r in records)
                                      for piece in records[0]}}
    return out


def solve_phases(sides: dict[str, Path], repeats: int) -> dict:
    """Per side, ``solve_phases_round`` in ``repeats`` fresh interpreters:
    each time's median and quartiles over the rounds, and every round's
    record."""
    runs = alternating(sides, repeats, lambda path: run_in(path, "solve_phases_round"))
    out = {}
    for name, rounds in runs.items():
        first = rounds[0]
        out[name] = {
            "points": first["points"], "repeats": repeats,
            "untimed_ms_per_solve": spread(r["untimed_ms_per_solve"] for r in rounds),
            "phase_ms_per_solve": {k: spread(r["phase_ms_per_solve"][k] for r in rounds)
                                   for k in first["phase_ms_per_solve"]},
            "newton_steps_over_points": first["newton_steps_over_points"],
            "newton_steps_on_finer_grids": first["newton_steps_on_finer_grids"],
            "rounds": rounds}
    return out


# the modules whose loading by a cold command ``cold_run`` reports
COLD_WATCHED = ("scipy.linalg", "dataclasses", "json", "csv", "numpy",
                "ttstar.enumeration", "ttstar.theta", "ttstar.solver")

# One cold command in a fresh interpreter: ``python -m ttstar.cli ARGS``,
# run by ``runpy`` as ``-m`` does, or ``import ttstar.solver`` when ARGS is
# empty.  At exit it adds a last stderr line "loaded: ..." naming the
# modules of ``COLD_WATCHED`` it loaded.  It imports nothing of this module,
# which loads ``json``.
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
            "loaded": tuple(m for m in names[1:] if m != "scipy.linalg")}


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
        out[name] = {side: spread(v) for side, v in runs.items()}
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
        commands = readme_commands() + [[]]
        result["cold_commands"] = by_item(
            alternating(sides, args.repeats,
                        lambda path: [cold_run(path, argv) for argv in commands]),
            "command", ["ttstar " + shlex.join(argv) if argv
                        else 'python -c "import ttstar.solver"' for argv in commands])
        result["convert_times"] = by_item(
            alternating(sides, args.repeats, lambda path: run_in(path, "convert_round")),
            "input", CONVERT_INPUTS)
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
