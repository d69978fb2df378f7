"""Set up and run one workload of the ttstar benchmark in this interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

``ttstar`` is imported from ``src/`` of the checkout this file sits in.  The
worker prints ``READY <set-up phases as JSON>`` as soon as set-up is done, so
that the caller can time set-up from interpreter start.  Unless
``--setup-only`` is given it then runs the workload closed-loop (one caller,
the next operation issued only after the previous one returned and was
checked) for S seconds and prints its result as JSON on the last line.
``perfbench/run.py`` drives it; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import gc
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"

# exact_stream: denominators of (gamma, delta).  Small ones cover the
# integral grid and small conductors; the rest give fresh conductors in the
# low hundreds (2 * angle denominator, e.g. 240 for q = 30 in group 4).
STREAM_POINTS = 5_000
SMALL_DEN = 12
LARGE_DEN = (13, 30)
LARGE_SHARE = 0.2

# verify_sweep: the converse-check bound and the brute-force grid.  The pins
# are (converse_checked, flagged non-CI operators) per group at bound 12.
VERIFY_BOUND = 12
BRUTE_DEN = 60
VERIFY_PINS = {"4": (94, 19), "5ab": (180, 27), "5cde": (180, 27), "6": (78, 8)}

# radial_bvp: the 19 integral points of these cases plus seeded random
# in-region points, so one round is at least 100 solves.
RADIAL_CASES = ("4a", "5a", "5c", "6a")
RADIAL_RANDOM = 24
RADIAL_DEN = 12
SLOPE_TOL = 0.05
RESIDUAL_TOL = 1e-10

# Machine-speed probe.  On a shared 2-core VM each vCPU flips between fast
# and slow on its own, several times a second, which swamps run-to-run
# differences.  So the work is timed against a fixed stdlib Fraction loop
# (no ttstar code, garbage collection off) run on the CPU that does the
# work: a background thread reads the CPU that process (this worker, or the
# child of a cli_cold command or a set-up) last ran on from
# /proc/<pid>/stat every SAMPLE_EVERY_S, pins itself to it and probes once,
# taking about 2% of that CPU.  Work is scaled by the mean probe time over
# it (within PROBE_WINDOW_S of an in-process operation), to the speed at
# which one probe takes PROBE_REF_S.  The mean weighs the fast and slow
# stretches as the work met them; the median jumps between the two.
PROBE_ITERS = 100
PROBE_REF_S = 0.0004
PROBE_WINDOW_S = 0.25
SAMPLE_EVERY_S = 0.025

# The bounded tail latency.  On exact_stream p99 (printed as
# stokes_op_p99_ms) rests on a few dozen large-conductor points whose cost
# varies several-fold, so it spreads by about 18% between seeds; p90 sits
# near the median of the large-denominator points.
TAIL = 90

# at most this many rounds of inputs are generated per run
MAX_ROUNDS = 50
CLI_TIMEOUT_S = 120

# cosine arguments of the group formulas: 2cos(pi (gamma + gx) / d) and
# 2cos(pi (delta + dx) / d), written out here as an oracle independent of
# ttstar.stokes
GROUP_ANGLES = {"4": (1, 3, 4), "5ab": (6, 8, 5), "5cde": (2, 4, 5), "6": (2, 4, 6)}


def float_stokes(group: str, gamma: Fraction, delta: Fraction) -> tuple[float, float]:
    gx, dx, d = GROUP_ANGLES[group]
    x = 2 * math.cos(math.pi * float((gamma + gx) / d))
    y = 2 * math.cos(math.pi * float((delta + dx) / d))
    if group == "4":
        return x + y, -(2 + x * y)
    if group == "6":
        return x + y, -(1 + x * y)
    return 1 + x + y, -(2 + x + y + x * y)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of a nonempty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def region_point(rng: random.Random, case: str, q: int):
    """A random (gamma, delta) with denominator dividing q in the closed region."""
    from ttstar import cases
    ea, eb = cases.descriptor(case).ab
    glo, ghi = Fraction(-2, ea), Fraction(2, eb) + 2
    gamma = Fraction(rng.randint(math.ceil(glo * q), math.floor(ghi * q)), q)
    dlo, dhi = gamma - 2, Fraction(2, eb)
    delta = Fraction(rng.randint(math.ceil(dlo * q), math.floor(dhi * q)), q)
    return cases.AsymptoticData(gamma, delta)


# --- workloads ---------------------------------------------------------
#
# Each workload yields rounds of operation inputs.  ``op`` is the timed call
# into ttstar; ``check`` is the oracle, run untimed, and returns an error
# message or None.  The loop only starts a round it expects to finish within
# the run's seconds, so every run measures whole rounds.


class ExactStream:
    """Random rational points through both Stokes routes of ``ttstar.stokes``."""

    per_round = False

    def __init__(self, rng: random.Random):
        from ttstar import cases, stokes
        self.cases, self.stokes = cases, stokes
        self.points = []
        for _ in range(STREAM_POINTS):
            case = rng.choice(cases.CASE_IDS)
            if rng.random() < LARGE_SHARE:
                q = rng.randint(*LARGE_DEN)
            else:
                q = rng.randint(1, SMALL_DEN)
            self.points.append((case, region_point(rng, case, q)))
        self.sizes = {"points": STREAM_POINTS, "small_den": SMALL_DEN,
                      "large_den": list(LARGE_DEN), "large_share": LARGE_SHARE}

    def rounds(self):
        return ([p] for p in itertools.cycle(self.points))

    def op(self, point):
        case, a = point
        s_a = self.stokes.stokes_from_asymptotic(case, a)
        k = self.cases.asymptotic_to_k(case, a)
        return s_a, k, self.stokes.stokes_from_k(k)

    def check(self, point, out):
        case, a = point
        s_a, k, s_k = out
        if self.cases.k_to_asymptotic(k) != a:
            return f"{case} {a}: k does not map back to (gamma, delta)"
        if s_a.s2 != s_k.s2:
            return f"{case} {a}: s2 differs between the two routes"
        if s_a.s1 != s_k.s1 and not (s_a.s1_sign_ambiguous and s_a.s1 == -s_k.s1):
            return f"{case} {a}: s1 differs between the two routes"
        f1, f2 = float_stokes(self.cases.GROUP_OF_CASE[case], a.gamma, a.delta)
        e1, e2 = s_a.s1.to_float(), s_a.s2.to_float()
        if s_a.s1_sign_ambiguous:
            f1, e1 = abs(f1), abs(e1)
        if abs(f1 - e1) > 1e-8 or abs(f2 - e2) > 1e-8:
            return f"{case} {a}: exact ({e1}, {e2}) != float ({f1}, {f2})"
        return None

    def named(self, loop):
        lat = loop["op_s"]
        return {"stokes_ops_per_s": (len(lat) / sum(lat), "1/s"),
                "stokes_op_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
                "stokes_op_p99_ms": (percentile(lat, 99) * 1e3, "ms")}

    def counts(self, loop):
        return {}


class VerifySweep:
    """``verify_corollary`` then the brute-force sweep, for each of the ten cases."""

    # the ten cases cost from 0.3 to 1.2 s each, so the latency unit is the
    # round: a median over unlike operations jumps between them
    per_round = True

    def __init__(self, rng: random.Random):
        from ttstar import cases, enumeration, theta
        self.cases, self.enumeration, self.theta = cases, enumeration, theta
        self.orders = [rng.sample(cases.CASE_IDS, len(cases.CASE_IDS))
                       for _ in range(MAX_ROUNDS)]
        self.expected = {c: {(r.asymptotic.gamma, r.asymptotic.delta)
                             for r in enumeration.integral_solutions(c)}
                         for c in cases.CASE_IDS}
        self.checked = self.flagged = 0
        self.sizes = {"cases_per_round": len(cases.CASE_IDS),
                      "bound": VERIFY_BOUND, "brute_force_den": BRUTE_DEN}

    def rounds(self):
        return iter(self.orders)

    def op(self, case):
        report = self.theta.verify_corollary(case, VERIFY_BOUND)
        return report, self.enumeration.brute_force_integral_points(case, BRUTE_DEN)

    def check(self, case, out):
        report, points = out
        self.checked += report.converse_checked
        self.flagged += len(report.flagged_non_ci)
        if not report.ok:
            return f"{case}: verify_corollary failed: " + "; ".join(
                report.forward_mismatches + report.converse_violations)[:200]
        pin = VERIFY_PINS[self.cases.GROUP_OF_CASE[case]]
        got = (report.converse_checked, len(report.flagged_non_ci))
        if got != pin:
            return f"{case}: (checked, flagged) = {got}, pinned {pin}"
        if points != self.expected[case]:
            return f"{case}: brute force found {len(points)} points, not the 19"
        return None

    def named(self, loop):
        return {"verify_wall_s": (statistics.median(loop["round_op_s"]), "s")}

    def counts(self, loop):
        n = loop["rounds"]
        return {"theta.converse_checked": self.checked // n,
                "theta.flagged_non_ci": self.flagged // n}


class RadialBVP:
    """``solve_radial`` at the integral points of four cases and at random points."""

    per_round = False

    def __init__(self, rng: random.Random):
        from ttstar import enumeration, solver
        self.solver = solver
        integral = [(c, r.asymptotic, True) for c in RADIAL_CASES
                    for r in enumeration.integral_solutions(c)]
        self.orders = []
        for _ in range(MAX_ROUNDS):
            extra = []
            for _ in range(RADIAL_RANDOM):
                case = rng.choice(RADIAL_CASES)
                extra.append((case, region_point(rng, case, rng.randint(1, RADIAL_DEN)),
                              False))
            self.orders.append(rng.sample(integral + extra, len(integral) + len(extra)))
        self.solves = self.iterations = self.integral_iterations = 0
        self.sizes = {"solves_per_round": len(integral) + RADIAL_RANDOM,
                      "integral_points": len(integral), "random_points": RADIAL_RANDOM,
                      "grid_points": solver.SolverConfig().grid_points}

    def rounds(self):
        return iter(self.orders)

    def op(self, point):
        case, a, _ = point
        return self.solver.solve_radial(case, a)

    def check(self, point, sol):
        case, a, integral = point
        self.solves += 1
        self.iterations += sol.iterations
        if integral:
            self.integral_iterations += sol.iterations
        report = self.solver.verify_asymptotics(sol, SLOPE_TOL)
        if not report.ok or not sol.residual_norm < RESIDUAL_TOL:
            return (f"{case} {tuple(a)}: residual {sol.residual_norm:.2e}, "
                    f"slope errors {report.gamma_error:.3f} {report.delta_error:.3f}")
        return None

    def named(self, loop):
        lat = loop["op_s"]
        return {"solves_per_s": (len(lat) / sum(lat), "1/s"),
                "solve_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
                "solve_p90_ms": (percentile(lat, 90) * 1e3, "ms")}

    def counts(self, loop):
        return {"solver.newton_iterations": self.integral_iterations // loop["rounds"],
                "solver.iterations_per_solve": self.iterations / max(self.solves, 1)}


def _table_rows(stdout: str) -> list[list[str]]:
    return [line.split() for line in stdout.splitlines() if line.strip()]


class CliCold:
    """The README commands, each in a fresh ``python -m ttstar.cli`` child."""

    # single commands vary by up to 30% between runs, the script by far less
    per_round = True
    # The commands run in child processes, so each is scaled by the probes
    # taken on the child's CPU while it ran (``child_speed``)

    def __init__(self, rng: random.Random):
        self.golden = {}
        for path in sorted((ROOT / "tables").glob("*.csv")):
            with open(path, newline="", encoding="utf-8") as fh:
                self.golden[path.stem] = list(csv.DictReader(fh))
        self.dir = OUT / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.profile = self.dir / "profile.csv"
        commands = [
            ("convert", ["convert", "4a", "--from", "asymptotic", "3", "1"],
             lambda out: self._convert(out, "4", "table5", "3", "1")),
            ("convert", ["convert", "5a", "--from", "k", "-2/3", "-5/6", "-5/6",
                         "-5/6", "-5/6"],
             lambda out: self._convert(out, "5ab", "table6", "2/3", "1/3")),
            ("enumerate", ["enumerate", "4a"], self._enumerate),
            ("enumerate_all", ["enumerate", "--all", "--format", "csv"],
             self._enumerate_all),
            ("enumerate_raw", ["enumerate", "--raw"], self._enumerate_raw),
            ("qdo", ["qdo", "--weights", "1,2,3", "--degrees", "2", "--match"],
             self._qdo),
            ("verify", ["verify", "--case", "4a", "--bound", "12"], self._verify),
            ("solve", ["solve", "4a", "3", "1", "--output", str(self.profile)],
             self._solve),
        ]
        self.orders = [rng.sample(commands, len(commands)) for _ in range(MAX_ROUNDS)]
        # the default thread count of `enumerate --all` is part of what is measured
        self.env = {k: v for k, v in os.environ.items() if k != "TTSTAR_THREADS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.sizes = {"commands_per_round": len(commands)}
        self.child_speed: list = []

    def rounds(self):
        return iter(self.orders)

    def op(self, cmd):
        _, argv, _ = cmd
        self.child_speed = []
        with subprocess.Popen([sys.executable, "-m", "ttstar.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              cwd=ROOT, env=self.env) as proc, \
                sampling(proc.pid, self.child_speed):
            try:
                out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)

    def check(self, cmd, proc):
        label, argv, checker = cmd
        if proc.returncode != 0:
            return (f"{' '.join(argv)}: exit {proc.returncode}: "
                    f"{proc.stderr.strip()[-200:]}")
        error = checker(proc.stdout)
        return f"{' '.join(argv)}: {error}" if error else None

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    # oracles: the golden tables under tables/ and closed-form cosines

    def _convert(self, out, group, table, gamma, delta):
        fields = dict(line.split(None, 1) for line in out.splitlines() if line.strip())
        if (fields.get("gamma"), fields.get("delta")) != (gamma, delta):
            return f"(gamma, delta) = ({fields.get('gamma')}, {fields.get('delta')})"
        row = next(r for r in self.golden["table3"]
                   if (r[f"gamma_{group}"], r[f"delta_{group}"]) == (gamma, delta))
        want = next(r for r in self.golden[table] if (r["a"], r["b"]) == (row["a"], row["b"]))
        stokes = f"({want['s1']}, {want['s2']})  [integral]"
        if fields.get("stokes") != stokes:
            return f"stokes {fields.get('stokes')!r}, golden {stokes!r}"
        return None

    def _enumerate(self, out):
        rows = _table_rows(out)
        want = [list(r.values()) for r in self.golden["table5"]]
        if rows[1:] != want:
            return "rows differ from tables/table5.csv"
        return None

    def _enumerate_all(self, out):
        rows = list(csv.DictReader(out.splitlines()))
        by_case: dict[str, list[dict]] = {}
        for r in rows:
            by_case.setdefault(r.pop("case"), []).append(r)
        leading = {"4a": ("4", "table5"), "4b": ("4", None), "5a": ("5ab", "table6"),
                   "5b": ("5ab", None), "5c": ("5cde", "table7"), "5d": ("5cde", None),
                   "5e": ("5cde", None), "6a": ("6", "table8"), "6b": ("6", None),
                   "6c": ("6", None)}
        if sorted(by_case) != sorted(leading):
            return f"cases {sorted(by_case)}"
        for case, (group, table) in leading.items():
            got = by_case[case]
            if table and got != self.golden[table]:
                return f"{case}: rows differ from tables/{table}.csv"
            want = [(r["block"], r[f"gamma_{group}"], r[f"delta_{group}"])
                    for r in self.golden["table3"]
                    if group not in ("4", "6")
                    or Fraction(r[f"gamma_{group}"]) + Fraction(r[f"delta_{group}"]) >= 0]
            if [(r["block"], r["gamma"], r["delta"]) for r in got] != want:
                return f"{case}: (block, gamma, delta) differ from tables/table3.csv"
        return None

    def _enumerate_raw(self, out):
        rows = _table_rows(out)[1:]
        if len(rows) != 33 or len({(a, b) for a, b, _, _ in rows}) != 33:
            return f"{len(rows)} cosine pairs, expected 33 distinct"
        for a, b, m, p in rows:
            x = 2 * math.cos(math.pi * Fraction(a))
            y = 2 * math.cos(math.pi * Fraction(b))
            if abs(x - y - int(m)) > 1e-9 or abs(x * y - int(p)) > 1e-9:
                return f"pair ({a}, {b}): m = {m}, p = {p} do not match the cosines"
        return None

    def _qdo(self, out):
        lines = out.splitlines()
        tk = "θ^2(θ-1/3)(θ-2/3)"
        if lines[0] != f"X^{{1,2,3}}_{{2}}: λ^4 {tk} - z":
            return f"operator line {lines[0]!r}"
        want = {f"match: group 4 {r['block']} (a,b)=({r['a']},{r['b']})"
                for r in self.golden["table5"] if r["tk"] == tk}
        got = set(lines[1:])
        if not want or not want <= got or any(not m.startswith("match: group 4 ") for m in got):
            return f"match lines {sorted(got)}, expected {sorted(want)} (group 4 only)"
        return None

    def _verify(self, out):
        checked, flagged = VERIFY_PINS["4"]
        want = (f"converse: {checked} candidate operators, 0 violations, "
                f"{flagged} flagged non-CI")
        if want not in out.splitlines() or out.splitlines()[-1] != "PASS":
            return "no PASS or converse counts differ from the pins"
        return None

    def _solve(self, out):
        if "asymptotics   verified" not in out.splitlines():
            return "asymptotics not verified"
        lines = self.profile.read_text(encoding="utf-8").splitlines()
        self.profile.unlink()
        if lines[0] != "t,u,v" or len(lines) != 2049:
            return f"profile has {len(lines)} lines"
        return None

    def named(self, loop):
        return {"cli_wall_s": (statistics.median(loop["round_op_s"]), "s")}

    def counts(self, loop):
        """Per-subcommand seconds (both converts summed), median over rounds."""
        per_round: dict[str, list[float]] = {}
        for r, (label, _, _), seconds in loop["ops"]:
            sums = per_round.setdefault(label, [0.0] * loop["rounds"])
            sums[r] += seconds
        return {f"cli.cmd.{label}_s": statistics.median(sums)
                for label, sums in per_round.items()}


WORKLOADS = {"exact_stream": ExactStream, "verify_sweep": VerifySweep,
             "radial_bvp": RadialBVP, "cli_cold": CliCold}


# --- set-up, loop, probes ----------------------------------------------


def setup(name: str, seed: int, tracer=None):
    """Import the CLI, build the ten tables cold and generate the inputs."""
    t0 = perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ttstar.cli  # noqa: F401  (the import every CLI user pays)
    t1 = perf_counter()
    import ttstar
    if Path(ttstar.__file__).resolve().parent != SRC / "ttstar":
        raise SystemExit(f"ttstar imported from {ttstar.__file__}, not from {SRC}")
    own = tracer.own if tracer is not None else nullcontext
    if tracer is not None:
        tracer.install()
    from ttstar import cases, enumeration
    enumeration.enumerate_cos_pairs()
    t2 = perf_counter()
    for case in cases.CASE_IDS:
        enumeration.integral_solutions(case)
    t3 = perf_counter()
    with own():
        workload = WORKLOADS[name](random.Random(seed))
    t4 = perf_counter()
    return workload, {"import_cli_s": t1 - t0, "cos_pairs_cold_s": t2 - t1,
                      "tables_cold_s": t3 - t2, "inputs_s": t4 - t3}


def speed_probe() -> float:
    """Seconds for a fixed loop of stdlib Fraction products (no ttstar code)."""
    gc.disable()
    try:
        t0 = perf_counter()
        for i in range(1, PROBE_ITERS + 1):
            Fraction(i, 7) * Fraction(3, i + 1)
        return perf_counter() - t0
    finally:
        gc.enable()


def process_cpu(pid: int):
    """The CPU that process ``pid`` last ran on, or None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39
    except (OSError, ValueError, IndexError):
        return None


@contextmanager
def sampling(pid: int, samples: list):
    """While the block runs, probe every SAMPLE_EVERY_S on the CPU that
    process ``pid`` runs on; append (time, probe seconds) to ``samples``."""
    stop = threading.Event()

    def sample():
        while not stop.wait(SAMPLE_EVERY_S):
            cpu = process_cpu(pid)
            if cpu is None:
                continue
            try:
                os.sched_setaffinity(0, {cpu})  # this thread only
            except OSError:
                continue
            t = perf_counter()
            v = speed_probe()
            samples.append(((t + perf_counter()) / 2, v))

    thread = threading.Thread(target=sample, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def run_loop(workload, seconds: float, tracer=None) -> dict:
    """Closed loop over whole rounds; every failure is counted, none stops it.

    Returns raw operation times and times scaled to the reference speed by
    the mean probe time on the CPU that did the work: this process's CPU
    around an in-process operation, or the child's CPU while an operation
    that runs in a child process (a workload with ``child_speed``) ran.
    """
    own = tracer.own if tracer is not None else nullcontext
    in_child = hasattr(workload, "child_speed")
    ops, errors, samples = [], [], []
    failed = 0
    rounds = 0
    start = perf_counter()
    with nullcontext() if in_child else sampling(os.getpid(), samples):
        for r, inputs in enumerate(workload.rounds()):
            for x in inputs:
                t0, t1 = perf_counter(), None
                try:
                    out = workload.op(x)
                    t1 = perf_counter()
                    with own():
                        error = workload.check(x, out)
                except Exception as e:  # a crash of the program is a failed operation
                    if t1 is None:
                        t1 = perf_counter()
                    error = f"{type(e).__name__}: {e}"
                ops.append((r, x, t0, t1, workload.child_speed if in_child else None))
                if error:
                    failed += 1
                    if len(errors) < 5:
                        errors.append(error)
            rounds = r + 1
            if (perf_counter() - start) * (rounds + 1) / rounds > seconds:
                break
    wall = perf_counter() - start
    sample_t = [t for t, _ in samples]
    raw, ref = [], []
    with own():
        for _, _, t0, t1, window in ops:
            if not in_child and samples:
                lo = min(bisect.bisect_left(sample_t, t0 - PROBE_WINDOW_S), len(samples) - 1)
                hi = max(bisect.bisect_right(sample_t, t1 + PROBE_WINDOW_S), lo + 1)
                window = samples[lo:hi]
            # an operation too short to be probed is left unscaled
            speed = statistics.fmean(v for _, v in window) if window else PROBE_REF_S
            raw.append(t1 - t0)
            ref.append((t1 - t0) * PROBE_REF_S / speed)
    round_raw, round_ref = [0.0] * rounds, [0.0] * rounds
    for (r, *_), a, b in zip(ops, raw, ref):
        round_raw[r] += a
        round_ref[r] += b
    return {"ops": [(r, x, a) for (r, x, *_), a in zip(ops, raw)],
            "rounds": rounds, "wall_s": wall,
            "raw": {"op_s": raw, "round_op_s": round_raw},
            "ref": {"op_s": ref, "round_op_s": round_ref},
            "failed": failed, "errors": errors}


def _per_call_us(fn, x, y, batches: int = 5, min_batch_s: float = 0.05) -> float:
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn(x, y)
        if perf_counter() - t0 >= min_batch_s:
            break
        n *= 2
    samples = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(n):
            fn(x, y)
        samples.append((perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def exact_probes() -> dict:
    """AlgReal + and * at a small (24) and a large (210) fixed conductor."""
    from ttstar.exact import cos2
    operands = {"small": (cos2(Fraction(1, 12)), cos2(Fraction(5, 12))),
                "large": (cos2(Fraction(1, 105)), cos2(Fraction(8, 105)))}
    out = {}
    for size, (x, y) in operands.items():
        out[f"exact.add_{size}_us"] = _per_call_us(lambda a, b: a + b, x, y)
        out[f"exact.mul_{size}_us"] = _per_call_us(lambda a, b: a * b, x, y)
    return out


def versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0))}


def latency_metrics(lat: list[float]) -> dict:
    return {"ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": percentile(lat, 50) * 1e3,
            "op_tail_ms": percentile(lat, TAIL) * 1e3}


def summarize(name: str, workload, loop: dict, traced: dict | None = None) -> dict:
    """End-to-end metrics, times scaled to the reference speed; the unscaled
    ones are kept under ``raw``."""
    times = loop["ref"]
    key = "round_op_s" if workload.per_round else "op_s"
    lat, raw = times[key], loop["raw"][key]
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    named = workload.named(times)
    attempted = len(loop["ops"])
    named["fail_ratio"] = (loop["failed"] / attempted, "ratio")
    return {
        "attempted": attempted,
        "failed": loop["failed"],
        "errors": loop["errors"],
        "op_s": loop["ref"]["op_s"],
        "e2e": dict(latency_metrics(lat),
                    peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024),
        "raw": latency_metrics(raw),
        "named": named,
        "counts": workload.counts(loop),
        "sizes": dict(workload.sizes, rounds=loop["rounds"], ops=attempted,
                      latency_unit="round" if workload.per_round else "operation",
                      tail_percentile=TAIL, loop_wall_s=loop["wall_s"],
                      program_s=sum(raw),
                      speed_scale=sum(loop["ref"]["op_s"]) / sum(loop["raw"]["op_s"])),
        "versions": versions(),
        "trace": traced,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    from tracing import Tracer
    tracer = Tracer() if args.trace else None
    workload, phases = setup(args.workload, args.seed, tracer)
    print("READY " + json.dumps(phases), flush=True)
    try:
        if args.setup_only:
            return 0
        loop = run_loop(workload, args.seconds, tracer)
    finally:
        getattr(workload, "close", lambda: None)()
    traced = None
    if tracer is not None:
        traced = tracer.summary(tracer.uninstall())
        traced.update(exact_probes())
    print(json.dumps(summarize(args.workload, workload, loop, traced)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
