"""Parent-against-change record of one perfbench workload.

    python benchmarks/bench.py --workload W --parent DIR \
        --out BENCH_n.json [--seed 1] [--pairs 10] [--pair-seed 4101] \
        [--bounds 12 24 36 48 96] [--repeats N]

W is any workload of ``BENCHMARK.json``.  DIR is a clone of the parent
commit; the change is the checkout holding this file.  Every measurement
below is run for both sides in rounds that alternate which side runs
first (``alternating``), and each side's runs are kept as one record,
their ``summary``: a float becomes its median, quartiles and every run
(``{"median", "quartiles", "runs"}``), any other field the one value all
runs agree on or else its sorted distinct values, dicts key by key and
lists index by index.  So each record below is written per side, in the
shape of one run with its floats spread.  The records:

* ``traced`` (``exact_stream``, ``verify_sweep``, ``radial_bvp``):
  ``TRACED_REPEATS`` (3) runs of ``perfbench/run.py --workload W --trace 1
  --seed SEED``, each the per-layer metrics of the layers W exercises and
  their calls and self times per round, the traced totals (set-up
  included: building the integral-solution tables on integer gaps calls
  no traced layer) over the rounds run; on ``exact_stream``, whose rounds
  are single operations, per operation, next to the ``exact.add_*_us``
  and ``exact.mul_*_us`` probes of ``AlgReal`` arithmetic;
* ``verify_corollary`` (``verify_sweep``, ``--repeats`` fresh
  interpreters): ``verify_round``, a record per timed call at each of
  ``--bounds`` and the round's split summed over the ten cases;
* ``verify_corollary_split`` (``verify_sweep``, ``--repeats`` fresh
  interpreters of 20 rounds each): ``sweep_split_rounds`` at bound 12,
  ``verify_corollary`` split into its pieces, in ms per round;
* ``solve_phases`` (``radial_bvp``, ``--repeats`` fresh interpreters, 11
  by default): ``solve_phases_round``, the mean per solve of each phase
  of ``solve_radial`` next to the untimed time per solve, and the Newton
  steps on the default grid and on ``FINE_GRIDS``;
* ``cold_commands``, ``convert_times`` and ``tier1`` (``cli_cold``): in
  ``--repeats`` rounds, every ``ttstar`` command of the README and
  ``import ttstar.solver``, each in a fresh interpreter (``cold_run``:
  wall time, exit code and the modules of ``COLD_WATCHED`` it loaded),
  and ``convert_round`` (``CONVERT_INPUTS``); once per side, the parent
  first, the Tier-1 tests (``tier1_run``);
* ``pair_summary`` (every workload, ``--pairs N``): N untraced perfbench
  runs per side with seeds PAIR_SEED, PAIR_SEED + 1, ..., whose end-to-end
  metrics and set-up phases (``import_cli_s``, ``cos_pairs_cold_s``,
  ``tables_cold_s``, ``inputs_s``: the median over the run's set-up
  samples) are summarised per side, with ``change_wins``: per end-to-end
  metric, the pairs (the i-th run of each side) where the change is better.

The JSON written also holds the machine, the Python version and the git
SHA of each side.  The runs are sequential; run nothing else on the
machine meanwhile.  ``verify_round``, ``sweep_split_rounds``,
``solve_phases_round`` and ``convert_round`` run in a fresh interpreter
that imports one side's ``src/`` (``run_in``).
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


def verify_round(bounds: list[int]) -> dict:
    """One timed round of ``verify_sweep``'s two halves: a record per call,
    and the round's split, their wall times summed over the ten cases.

    ``brute_force_integral_points(case, 60)`` runs twice for every case, the
    ``first`` call with its first-use set-up (the label table and the case's
    label axes, when no earlier case built them) and the ``warm`` one
    without; then ``verify_corollary(case, bound)`` for every case and bound.
    The integral-solution tables are built, and each ``verify_corollary``
    called once untimed, before timing, so each ``verify_corollary`` time is
    the forward check and the converse sweep without first-use set-up (such
    as the per-case order tables)."""
    from ttstar.cases import CASE_IDS
    from ttstar.enumeration import brute_force_integral_points, integral_solutions
    from ttstar.theta import verify_corollary
    for case in CASE_IDS:
        integral_solutions(case)
    records, split = [], {}

    def add(half, record):
        records.append(record)
        split[half] = split.get(half, 0.0) + record["wall_s"]

    for case in CASE_IDS:
        for call in ("first", "warm"):
            t0 = time.perf_counter()
            points = brute_force_integral_points(case, 60)
            add(f"brute_force_60_{call}",
                {"case": case, "brute_force_den": 60, "call": call,
                 "wall_s": time.perf_counter() - t0, "points": len(points)})

    for bound in bounds:
        for case in CASE_IDS:
            verify_corollary(case, bound)  # first-use set-up, untimed
            t0 = time.perf_counter()
            rep = verify_corollary(case, bound)
            add(f"verify_corollary_{bound}",
                {"case": case, "bound": bound, "wall_s": time.perf_counter() - t0,
                 "converse_checked": rep.converse_checked,
                 "flagged_non_ci": len(rep.flagged_non_ci),
                 "converse_violations": len(rep.converse_violations)})
    return {"round_split_s": split, "records": records}


def sweep_split_rounds(bound: int, rounds: int) -> dict:
    """``verify_corollary(case, bound)`` over the ten cases split into the
    pieces that ``theta`` looks up by name, each wrapped with a timer: the
    forward check (``qdo_from_ci``), ``k_gaps_stokes`` and the
    complete-intersection match (``match_ci``), and the rest of the call,
    ``candidates_check_G`` (the walk, the order-pattern lookup and the
    operators of non-integral vectors); each piece's mean over ``rounds``
    rounds, in ms per round.

    Each round first runs untimed, then timed.  For each piece a wrapped
    no-op of the piece's own argument count is then timed against the bare
    no-op over the same calls: the wrapper costs ``wrapped - bare`` a call
    (``timer_overhead`` is the sum of each piece's calls times that), of
    which ``window - bare`` falls inside its timer and is taken out of the
    piece, per call, and the rest out of ``candidates_check_G``.  So the
    pieces sum to the timed round, ``total``, which is the ``untimed`` one
    plus ``timer_overhead``.
    """
    from ttstar import theta
    from ttstar.cases import CASE_IDS
    from ttstar.enumeration import integral_solutions
    for case in CASE_IDS:
        integral_solutions(case)
    # piece -> the function it times and that function's argument count
    names = {"forward_check": ("qdo_from_ci", 1), "k_gaps_stokes": ("k_gaps_stokes", 2),
             "match_ci": ("match_ci", 2)}
    noops = {1: lambda a: None, 2: lambda a, b: None}
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
    splits = []
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
        splits.append(split)
    return {"bound": bound, "rounds": rounds,
            "ms_per_round": {piece: statistics.fmean(s[piece] for s in splits) * 1e3
                             for piece in splits[0]}}


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
    """Each ``CONVERT_INPUTS`` entry timed once with its label and exit
    code, after one README conversion has loaded the modules."""
    import contextlib
    import io
    from ttstar.cli import main
    out = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(["convert", "4a", "--from", "asymptotic", "3", "1"])
        for label, values in CONVERT_INPUTS.items():
            t0 = time.perf_counter()
            code = main(["convert", "4a", "--from", "k", *values])
            out.append({"input": label, "wall_s": time.perf_counter() - t0,
                        "returncode": code})
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


def summary(runs: list):
    """One side's runs as one record: a float becomes its median, quartiles
    and every run, any other field the one value all runs agree on or else
    its sorted distinct values; dicts are summarised key by key and lists
    index by index."""
    first = runs[0]
    if isinstance(first, dict):
        return {key: summary([r[key] for r in runs]) for key in first}
    if isinstance(first, list):
        return [summary(list(items)) for items in zip(*runs)]
    if isinstance(first, float):
        quartiles = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
        return {"median": statistics.median(runs), "quartiles": quartiles, "runs": runs}
    distinct = sorted(set(runs))
    return distinct[0] if len(distinct) == 1 else distinct


def alternating(sides: dict[str, Path], repeats: int, run) -> dict:
    """Each side's ``summary`` of ``run(checkout, i)`` for i < ``repeats``,
    the parent first for even i and the change first for odd i."""
    runs = {name: [] for name in sides}
    for i in range(repeats):
        for name in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            runs[name].append(run(sides[name], i))
    return {name: summary(side_runs) for name, side_runs in runs.items()}


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
    """The command line, wall time, exit code, ``scipy.linalg`` flag and the
    other modules of ``COLD_WATCHED`` loaded by one cold command, run in an
    empty directory (the README's ``--output profile.csv`` lands there)."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as cwd:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", COLD, *argv], cwd=cwd, env=env,
                              text=True, capture_output=True)
        wall = time.perf_counter() - t0
    names = proc.stderr.rstrip().rsplit("\n", 1)[-1].split()
    if names[:1] != ["loaded:"] or not set(names[1:]) <= set(COLD_WATCHED):
        raise RuntimeError(f"{argv}: no loaded: line on stderr: {proc.stderr[-300:]}")
    return {"command": ("ttstar " + shlex.join(argv) if argv
                        else 'python -c "import ttstar.solver"'),
            "wall_s": wall, "returncode": proc.returncode,
            "scipy_linalg_loaded": "scipy.linalg" in names,
            "loaded": tuple(m for m in names[1:] if m != "scipy.linalg")}


# the Tier-1 command of ROADMAP.md, run in the root of a checkout with its
# src/ in front of PYTHONPATH
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def tier1_run(checkout: Path) -> dict:
    """The command, wall time, exit code and passed and failed counts of one
    Tier-1 run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          text=True, capture_output=True)
    wall = time.perf_counter() - t0
    last = proc.stdout.rstrip().rsplit("\n", 1)[-1]
    out = {"command": "python " + shlex.join(TIER1), "wall_s": wall,
           "returncode": proc.returncode, "summary": last}
    for kind in ("passed", "failed"):
        count = re.search(rf"(\d+) {kind}", last)
        out[kind] = int(count.group(1)) if count else 0
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
        result["traced"] = alternating(
            sides, TRACED_REPEATS, lambda path, _: perfbench(path, args.workload, args.seed, 1))
    if args.workload == "verify_sweep":
        result["verify_corollary"] = alternating(
            sides, args.repeats, lambda path, _: run_in(path, "verify_round", args.bounds))
        result["verify_corollary_split"] = alternating(
            sides, args.repeats, lambda path, _: run_in(path, "sweep_split_rounds", 12, 20))
    elif args.workload == "radial_bvp":
        result["solve_phases"] = alternating(
            sides, args.repeats, lambda path, _: run_in(path, "solve_phases_round"))
    elif args.workload == "cli_cold":
        commands = readme_commands() + [[]]
        result["cold_commands"] = alternating(
            sides, args.repeats, lambda path, _: [cold_run(path, argv) for argv in commands])
        result["convert_times"] = alternating(
            sides, args.repeats, lambda path, _: run_in(path, "convert_round"))
        result["tier1"] = alternating(sides, 1, lambda path, _: tier1_run(path))
    if args.pairs:
        pairs = result["pair_summary"] = alternating(
            sides, args.pairs,
            lambda path, i: perfbench(path, args.workload, args.pair_seed + i, 0))
        pairs["change_wins"] = {}
        for metric in config["end_to_end"]:
            name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
            parent, change = (pairs[side]["end_to_end"][name]["runs"] for side in sides)
            pairs["change_wins"][name] = sum(sign * (c - p) < 0
                                             for p, c in zip(parent, change))
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
