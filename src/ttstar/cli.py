"""Command-line interface: conversions, enumeration, operators, verification, BVP.

``convert`` decides integrality on integers and gives other Stokes data as floats.

Exit codes: 0 success, 1 asymptotics not verified, 2 parse error,
3 symmetry/region violation, 4 operator not reducible, 5 verification
mismatch, 6 solver non-convergence.  ``main`` gives a ``CliError`` its own
code, the library's ``SymmetryError`` and ``RegionError`` 3, its
``NotReducibleError`` 4 and any other ``ValueError`` 2, so no subcommand
re-checks a library rule or catches a library error.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from pathlib import Path

from .cases import (CASE_IDS, GROUPS, AsymptoticData, NotReducibleError,
                    RegionError, SymmetryError, _excerpt, asymptotic_gaps,
                    asymptotic_to_k, check_region, descriptor, in_region,
                    k_to_asymptotic, make_k)
from .stokes import k_gaps_floats, k_gaps_stokes

# ``enumeration`` and ``theta``, like ``solver``, load only in the subcommands
# that use them, so ``convert`` and ``solve`` skip their import; so do ``csv``
# and ``json``, in the writers and the golden-table reader

EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NOT_REDUCIBLE = 4
EXIT_VERIFY = 5
EXIT_NO_CONVERGENCE = 6

# the largest weight sum ``qdo`` accepts: the operator has one root per unit
# of weight (the degrees sum to less), and at this sum it takes about 0.03 s
MAX_QDO_WEIGHT_SUM = 10_000

# the largest --bound ``verify`` accepts: the converse sweep grows about as
# bound^2, and at this bound its slowest cases, 4a and 5a, take about 0.2 s
MAX_VERIFY_BOUND = 192

# the most digits of a numerator or denominator ``parse_frac`` accepts:
# ``Fraction("1e100000000")`` alone takes minutes, and Python refuses to
# print an integer of more than 4,300 digits
MAX_DIGITS = 1_000

# first case of each group carries the group's table
GROUP_TABLE = {"4": "table5", "5ab": "table6", "5cde": "table7", "6": "table8"}


class CliError(Exception):
    """A rule of the command line itself, with its exit code; ``main`` gives
    the library's ``ValueError`` theirs."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# n/d, or w.p times 10^(+-e), which Fraction forms as wp*10^e / 10^len(p)
_NUMBER = re.compile(r"[-+]?0*(\d*)(?:/0*(\d+)|\.?(\d*)(?:e([-+]?)0*(\d*))?)", re.I)


def parse_frac(text: str) -> Fraction:
    m = _NUMBER.fullmatch(text.replace("_", "").strip())
    if m:  # the digits Fraction would form, read before it forms them
        whole, den, places, sign, exp = m.groups(default="")
        shift = int(exp or 0) if len(exp) < 9 else 10**9  # past the cap either way
        up, down = (0, shift) if sign == "-" else (shift, 0)
        sizes = (len(whole), len(den)) if den else (
            len((whole + places).lstrip("0")) + up, 1 + len(places) + down)
        if max(sizes) > MAX_DIGITS:
            raise CliError(f"{_excerpt(text)!r} has a numerator or denominator "
                           f"of more than {MAX_DIGITS:,} digits", EXIT_PARSE)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"not an exact rational: {_excerpt(text)!r}", EXIT_PARSE) from None


def fmt_s1(n: int, ambiguous: bool) -> str:
    return f"\u00b1{n}" if ambiguous and n != 0 else str(n)


def record_row(rec) -> dict:
    s1, s2 = rec.stokes_int
    return {
        "a": str(rec.a_label), "b": str(rec.b_label),
        "gamma": str(rec.asymptotic.gamma),
        "delta": str(rec.asymptotic.delta),
        "s1": fmt_s1(s1, half_table(rec.case)), "s2": str(s2),
        "tk": str(rec.tk), "block": rec.block,
    }


def half_table(case_id: str) -> bool:
    """The cases with s1 defined up to sign (even n+1) print only the rows
    gamma + delta >= 0."""
    return descriptor(case_id).n_plus_1 % 2 == 0


def case_rows(case_id: str, full: bool) -> list[dict]:
    from .enumeration import integral_solutions
    recs = integral_solutions(case_id)
    if not full and half_table(case_id):
        recs = [r for r in recs if r.asymptotic.gamma + r.asymptotic.delta >= 0]
    return [record_row(r) for r in recs]


FIELDS = ("a", "b", "gamma", "delta", "s1", "s2", "tk", "block")


def emit_table(rows: list[dict], fields, out) -> None:
    widths = [max(len(f), *(len(r[f]) for r in rows)) if rows else len(f)
              for f in fields]
    out.write("  ".join(f.ljust(w) for f, w in zip(fields, widths)).rstrip() + "\n")
    for r in rows:
        out.write("  ".join(r[f].ljust(w) for f, w in zip(fields, widths)).rstrip() + "\n")


def emit_csv(rows: list[dict], fields, out) -> None:
    import csv
    w = csv.writer(out, lineterminator="\n")
    w.writerow(fields)
    for r in rows:
        w.writerow([r[f] for f in fields])


def emit_json(rows: list[dict], fields, out) -> None:
    import json
    json.dump([{f: r[f] for f in fields} for r in rows], out, indent=2,
              ensure_ascii=False)
    out.write("\n")


# the fields that ``emit_latex`` sets in math mode
LATEX_MATH = frozenset(("a", "b", "gamma", "delta", "s1", "s2", "tk"))


def _latex_math(text: str) -> str:
    """A math-mode cell: theta, +- and every fraction p/q rewritten."""
    text = text.replace("\u03b8", "\\theta ").replace("\u00b1", "\\pm ")
    return "$" + re.sub(r"(\d+)/(\d+)", r"\\tfrac{\1}{\2}", text) + "$"


def emit_latex(rows: list[dict], fields, out) -> None:
    cols = "|".join("c" for _ in fields)
    out.write(f"\\begin{{tabular}}{{|{cols}|}}\n\\hline\n")
    header = {"a": "$a/\\pi$", "b": "$b/\\pi$", "gamma": "$\\gamma$",
              "delta": "$\\delta$", "s1": "$s_1^{\\mathbb R}$",
              "s2": "$s_2^{\\mathbb R}$", "tk": "$T_k$", "block": "block"}
    out.write(" & ".join(header.get(f, f) for f in fields) + " \\\\\n\\hline\n")
    prev_block = None
    for r in rows:
        if prev_block is not None and r.get("block") != prev_block:
            out.write("\\hline\n")
        prev_block = r.get("block")
        out.write(" & ".join(_latex_math(r[f]) if f in LATEX_MATH else r[f]
                             for f in fields) + " \\\\\n")
    out.write("\\hline\n\\end{tabular}\n")


EMITTERS = {"table": emit_table, "csv": emit_csv, "json": emit_json,
            "latex": emit_latex}


def default_tables_dir() -> Path:
    return Path(__file__).resolve().parents[2] / "tables"


# --- subcommands -------------------------------------------------------

def cmd_convert(args) -> int:
    case_id = args.case
    if args.source == "k" and args.n is not None:
        raise CliError("--n applies to --from asymptotic only: a k-vector "
                       "fixes its own N", EXIT_PARSE)
    n = parse_frac("1" if args.n is None else args.n)
    values = [parse_frac(v) for v in args.values]
    if args.source == "asymptotic":
        if len(values) != 2:
            raise CliError("asymptotic input needs exactly two values", EXIT_PARSE)
        asym = AsymptoticData(*values)
        check_region(case_id, asym)
        k = asymptotic_to_k(case_id, asym, n)
    else:
        k = make_k(case_id, values)
        asym = k_to_asymptotic(k)
    gaps = asymptotic_gaps(case_id, asym)
    ints = k_gaps_stokes(case_id, gaps)
    print(f"case      {case_id}")
    print(f"gamma     {asym.gamma}")
    print(f"delta     {asym.delta}")
    print(f"k         {' '.join(map(str, k.entries))}")
    print(f"N         {k.N}")
    print(f"in_region {'yes' if in_region(case_id, asym) else 'no'}")
    if ints is not None:
        s1, s2 = ints
        print(f"stokes    ({fmt_s1(s1, half_table(case_id))}, {s2})  [integral]")
    else:
        s1, s2 = k_gaps_floats(case_id, gaps)
        print(f"stokes    ({s1:.12g}, {s2:.12g})  [irrational]")
    return 0


def cmd_enumerate(args) -> int:
    emit = EMITTERS[args.format]
    if args.raw:
        if args.case or args.all or args.full:
            raise CliError("--raw lists the cosine pairs and takes no case id, "
                           "--all or --full", EXIT_PARSE)
        from .enumeration import enumerate_cos_pairs
        fields = ("a", "b", "m", "p")  # a CosPair's own fields, in order
        emit([dict(zip(fields, map(str, pair))) for pair in enumerate_cos_pairs()],
             fields, sys.stdout)
        return 0
    if args.case and args.all:
        raise CliError("give a case id or --all, not both", EXIT_PARSE)
    if not (args.case or args.all):
        raise CliError("a case id or --all is required", EXIT_PARSE)
    case_ids = CASE_IDS if args.all else (args.case,)
    rows = [{"case": case_id, **r} for case_id in case_ids
            for r in case_rows(case_id, args.full)]
    emit(rows, ("case", *FIELDS) if args.all else FIELDS, sys.stdout)
    return 0


def _parse_int_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"not a comma-separated integer list: {text!r}",
                       EXIT_PARSE) from None


def cmd_qdo(args) -> int:
    from .enumeration import integral_solutions
    from .theta import CISpec, fmt_qdo, qdo_from_ci
    spec = CISpec(_parse_int_list(args.weights), _parse_int_list(args.degrees))
    if sum(spec.weights) > MAX_QDO_WEIGHT_SUM:
        raise CliError(f"the weights sum to {sum(spec.weights)}, above qdo's "
                       f"limit of {MAX_QDO_WEIGHT_SUM}", EXIT_PARSE)
    op = qdo_from_ci(spec)
    print(f"{spec}: {fmt_qdo(op)}")
    if args.match:
        found = []
        for group, cases in GROUPS.items():
            for rec in integral_solutions(cases[0]):
                # an operator has one root per power of lambda
                if op == rec.tk:
                    found.append(f"group {group} {rec.block} "
                                 f"(a,b)=({rec.a_label},{rec.b_label})")
        if found:
            for f in found:
                print(f"match: {f}")
        else:
            print("match: none")
    return 0


def golden_rows(path: Path, columns: tuple[str, ...] = ()) -> list[dict]:
    """The rows of a golden CSV file.

    Raises ValueError naming the file when it cannot be read (a directory,
    say), is not UTF-8 CSV or its header lacks one of the given columns.
    """
    import csv
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"{path.name}: no column {missing[0]!r}")
            return list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise ValueError(f"{path.name}: unreadable: {e}") from None


def compare_golden(case_id: str, tables_dir: Path) -> list[str]:
    """Mismatches between the rows ``enumerate`` prints and the golden table
    files: the group's table against the case's rows, and the (gamma, delta)
    summary table3, which lists all 19 points per group, against its
    ``--full`` rows."""
    group = descriptor(case_id).group
    problems = []
    for name, full, columns, fields in (
            (GROUP_TABLE[group], False, FIELDS, FIELDS),
            ("table3", True, ("block", f"gamma_{group}", f"delta_{group}"),
             ("block", "gamma", "delta"))):
        path = tables_dir / f"{name}.csv"
        if not path.exists():
            return problems + [f"missing golden file {path}"]
        try:
            expected = golden_rows(path, columns)
        except ValueError as e:
            return problems + [str(e)]
        got = case_rows(case_id, full)
        if len(expected) != len(got):
            return problems + [f"{path.name}: {len(got)} rows computed, "
                               f"{len(expected)} expected"]
        for i, (e, g) in enumerate(zip(expected, got)):
            for column, f in zip(columns, fields):
                if e[column] != g[f]:
                    problems.append(f"{path.name} row {i + 1} field {column}: "
                                    f"computed {g[f]!r}, expected {e[column]!r}")
    return problems


def cmd_verify(args) -> int:
    from .theta import verify_corollary
    case_id = args.case
    if args.bound > MAX_VERIFY_BOUND:
        raise CliError(f"--bound {args.bound} is above verify's limit of "
                       f"{MAX_VERIFY_BOUND}", EXIT_PARSE)
    report = verify_corollary(case_id, args.bound,
                              corrupt_catalog=args.self_test)
    print(f"case {case_id}, bound {args.bound}")
    print(f"forward: {report.forward_checked} catalog entries, "
          f"{len(report.forward_mismatches)} mismatches")
    print(f"converse: {report.converse_checked} candidate operators, "
          f"{len(report.converse_violations)} violations, "
          f"{len(report.flagged_non_ci)} flagged non-CI")
    failures = report.forward_mismatches + report.converse_violations
    golden_problems = compare_golden(case_id, Path(args.tables))
    print(f"golden tables: {len(golden_problems)} mismatches")
    failures += golden_problems
    if failures:
        raise CliError(f"FAIL: {failures[0]}", EXIT_VERIFY)
    print("PASS")
    return 0


def _print_history(history) -> None:
    print("iter  residual   lambda     max|step|", file=sys.stderr)
    for i, (res, lam, step) in enumerate(history, 1):
        print(f"{i:4d}  {res:.3e}  {lam:.3e}  {step:.3e}", file=sys.stderr)


def _check_writable(path: Path) -> None:
    """Fail fast on an output path that cannot be written; create nothing."""
    existed = path.exists()
    try:
        path.open("a", encoding="utf-8").close()
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror}", EXIT_PARSE) from None
    if not existed:
        path.unlink()


def cmd_solve(args) -> int:
    case_id = args.case
    asym = AsymptoticData(parse_frac(args.gamma), parse_frac(args.delta))
    check_region(case_id, asym)
    # numpy and scipy's LAPACK extension load here only, after the input checks,
    # so bad input and the other subcommands exit sooner (never scipy.linalg)
    from .solver import (ConvergenceError, SolverConfig, solve_radial,
                         verify_asymptotics)
    cfg = SolverConfig(t_min=args.t_min, t_max=args.t_max,
                       grid_points=args.points)
    if args.output:
        _check_writable(Path(args.output))
    try:
        sol = solve_radial(case_id, asym, cfg)
    except ConvergenceError as e:
        if args.trace:
            _print_history(e.history)
        raise CliError(str(e), EXIT_NO_CONVERGENCE) from None
    if args.trace:
        _print_history(sol.history)
    # CSV rows of numbers, which never need quoting
    profile = "t,u,v\n" + "".join(f"{t:.12g},{u:.12g},{v:.12g}\n"
                                   for t, u, v in zip(sol.grid, sol.u, sol.v))
    if args.output:
        try:
            Path(args.output).write_text(profile, encoding="utf-8")
        except OSError as e:
            raise CliError(f"cannot write {args.output}: {e.strerror}", EXIT_PARSE) from None
        print(f"profile written to {args.output}")
    else:
        sys.stdout.write(profile)
    report = verify_asymptotics(sol)
    print(f"residual      {sol.residual_norm:.3e}")
    print(f"fitted gamma  {sol.fitted_gamma:.6f}  (target {asym.gamma},"
          f" error {report.gamma_error:.4f})")
    print(f"fitted delta  {sol.fitted_delta:.6f}  (target {asym.delta},"
          f" error {report.delta_error:.4f})")
    print(f"offsets       u: {sol.offset_u:.6f}  v: {sol.offset_v:.6f}")
    print("asymptotics   " + ("verified" if report.ok else "NOT verified"))
    return 0 if report.ok else 1


# let argparse take tokens that start like negative numbers ("-1e0", "-.5") as values
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ttstar",
        description="Exact Stokes data, integral-solution tables, operator "
                    "constructions and the radial BVP of the two-function "
                    "tt*-Toda reductions.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("convert", help="convert between asymptotic and "
                                       "holomorphic data; print Stokes data")
    c.add_argument("case", choices=CASE_IDS)
    c.add_argument("--from", dest="source", choices=("asymptotic", "k"),
                   required=True)
    c.add_argument("values", nargs="+")
    c.add_argument("--n", help="normalization N of --from asymptotic "
                                "(default 1)")
    c.set_defaults(func=cmd_convert)
    c._negative_number_matcher = _NEGATIVE_VALUE

    e = sub.add_parser("enumerate", help="list the integral solutions")
    e.add_argument("case", nargs="?", choices=CASE_IDS)
    e.add_argument("--all", action="store_true")
    e.add_argument("--full", action="store_true",
                   help="all 19 rows for the symmetric groups too")
    e.add_argument("--raw", action="store_true",
                   help="the 33 integral cosine pairs")
    e.add_argument("--format", choices=tuple(EMITTERS), default="table")
    e.set_defaults(func=cmd_enumerate)

    q = sub.add_parser("qdo", help="quantum differential operator of a "
                                   "weighted complete intersection")
    q.add_argument("--weights", required=True)
    q.add_argument("--degrees", default="")
    q.add_argument("--match", action="store_true",
                   help="report matching integral-solution records")
    q.set_defaults(func=cmd_qdo)

    v = sub.add_parser("verify", help="verify the integrality "
                                      "characterization and golden tables")
    v.add_argument("--case", choices=CASE_IDS, required=True)
    v.add_argument("--bound", type=int, default=12)
    v.add_argument("--tables", default=str(default_tables_dir()))
    v.add_argument("--self-test", action="store_true",
                   help="corrupt one catalog entry; must exit 5")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("solve", help="radial boundary-value solve")
    s.add_argument("case", choices=CASE_IDS)
    s.add_argument("gamma")
    s.add_argument("delta")
    s.add_argument("--t-min", type=float, default=-12.0)
    s.add_argument("--t-max", type=float, default=4.0)
    s.add_argument("--points", type=int, default=2048)
    s.add_argument("--output", help="CSV profile path (default: stdout)")
    s.add_argument("--trace", action="store_true",
                   help="print the Newton history (residual, line-search "
                        "factor, step size) to stderr")
    s.set_defaults(func=cmd_solve)
    s._negative_number_matcher = _NEGATIVE_VALUE
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, CliError):
            return e.code
        if isinstance(e, NotReducibleError):
            return EXIT_NOT_REDUCIBLE
        return EXIT_DOMAIN if isinstance(e, (SymmetryError, RegionError)) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
