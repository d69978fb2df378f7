import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ttstar.cli import (MAX_DIGITS, MAX_QDO_WEIGHT_SUM, MAX_VERIFY_BOUND,
                        default_tables_dir, main)

TABLES = default_tables_dir()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_convert_from_asymptotic(capsys):
    code, out, _ = run(capsys, "convert", "4a", "--from", "asymptotic", "3", "1")
    assert code == 0
    assert "k         0 -1 -1 -1" in out
    assert "stokes    (±4, -6)  [integral]" in out


def test_convert_from_k(capsys):
    code, out, _ = run(capsys, "convert", "5a", "--from", "k",
                       "-2/3", "-5/6", "-5/6", "-5/6", "-5/6")
    assert code == 0
    assert "gamma     2/3" in out and "delta     1/3" in out
    assert "stokes    (1, -1)  [integral]" in out


def test_convert_irrational_marker(capsys):
    code, out, _ = run(capsys, "convert", "4a", "--from", "asymptotic",
                       "1/2", "0")
    assert code == 0 and "[irrational]" in out


@pytest.mark.parametrize("case,k", [
    ("6a", ("-23/24", "-3/4", "-19/24", "-19/24", "-3/4", "-23/24")),
    ("6b", ("-19/24", "-19/24", "-3/4", "-23/24", "-23/24", "-3/4")),
    ("6c", ("-3/4", "-19/24", "-19/24", "-3/4", "-23/24", "-23/24"))])
def test_convert_prints_no_negative_zero(capsys, case, k):
    """An irrational point whose float s2 is zero prints 0, not -0."""
    code, out, _ = run(capsys, "convert", case, "--from", "k", *k)
    assert code == 0
    assert out.splitlines()[-1] == "stokes    (1.41421356237, 0)  [irrational]"


# whole outputs of ``convert --from k``, as the gaps (k_i + 1)/N over their
# common denominator gave them before ``cases.asymptotic_gaps`` did
@pytest.mark.parametrize("k,want", [
    (("4a", "-1/2", "-1", "0", "-1"),  # N = 3/2
     "case      4a\ngamma     1/3\ndelta     -5/3\nk         -1/2 -1 0 -1\n"
     "N         3/2\nin_region yes\nstokes    (±2, -3)  [integral]\n"),
    (("5a", "-3/2", "1/4", "-1/2", "-1/2", "1/4"),  # k_0 + 1 < 0
     "case      5a\ngamma     -11/6\ndelta     1/3\nk         -3/2 1/4 -1/2 -1/2 1/4\n"
     "N         3\nin_region no\n"
     "stokes    (0.267949192431, 0.464101615138)  [irrational]\n")])
def test_convert_from_k_pinned(capsys, k, want):
    assert run(capsys, "convert", k[0], "--from", "k", *k[1:]) == (0, want, "")


def test_convert_thousand_digit_k_pinned(capsys):
    big = "1234567890" * 100
    code, out, err = run(capsys, "convert", "6a", "--from", "k",
                         big, "-1", "1/3", "1/3", "-1", big)
    assert code == 0 and err == ""
    assert [len(line) for line in out.splitlines()] == [12, 2012, 2011, 2025, 1012, 13, 31]
    assert out.endswith("in_region yes\nstokes    (4, -5)  [irrational]\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3f37c381a63da044f053d12ee90fdcf6609e2bc040dfef51b0f554c4e200776e")


def test_convert_n_with_k_rejected(capsys):
    """A k-vector fixes its own N, so --n with --from k is a parse error."""
    code, _, err = run(capsys, "convert", "4a", "--from", "k",
                       "0", "0", "0", "0", "--n", "2")
    assert code == 2 and "--n applies to --from asymptotic only" in err
    code, out, _ = run(capsys, "convert", "4a", "--from", "asymptotic",
                       "3", "1", "--n", "2")
    assert code == 0 and "N         2" in out


def test_convert_parse_error(capsys):
    code, _, err = run(capsys, "convert", "4a", "--from", "asymptotic", "x", "0")
    assert code == 2 and "not an exact rational" in err


@pytest.mark.parametrize("argv", [
    ("convert", "4a", "--from", "asymptotic", "1e5000", "1"),
    ("convert", "4a", "--from", "asymptotic", "3", "1", "--n", "1e5000"),
    ("convert", "4a", "--from", "k", "1e5000", "0", "0", "0"),
    ("convert", "4a", "--from", "asymptotic", "1/3", "1e-5000"),
    ("solve", "4a", "1e5000", "1"),
    ("convert", "4a", "--from", "asymptotic", "1e100000000", "1"),
    ("solve", "4a", "0", "1e-1_000_000_000_000"),
    ("convert", "4a", "--from", "asymptotic", "1/" + "7" * (MAX_DIGITS + 1), "0"),
])
def test_huge_exact_input_rejected(capsys, argv):
    """A numerator or denominator of more than MAX_DIGITS digits exits 2 at
    once: ``Fraction("1e100000000")`` alone takes minutes, and Python refuses
    to print an integer of more than 4,300 digits."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error:") and f"more than {MAX_DIGITS:,} digits" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command", ["convert", "solve"])
def test_long_exact_input_parsed(capsys, command):
    """A gamma of MAX_DIGITS digits still parses, and lies outside the region."""
    argv = [command, "4a", "9" * MAX_DIGITS, "0"]
    if command == "convert":
        argv[2:2] = ["--from", "asymptotic"]
    code, out, err = run(capsys, *argv)
    assert code == 3 and "outside the region" in err and not out


# a gamma and delta in lowest terms, each part of about MAX_DIGITS digits,
# well outside every region
_LONG_GAMMA = f"{10**999 + 1}/{10**999 + 3}"
_LONG_DELTA = f"-{10**999 + 7}/{3 * 10**998 + 1}"
_LONG_K = ["1/" + str(10**999 + j) for j in (1, 3, 7, 3)]  # 4a: k_1 = k_3


@pytest.mark.parametrize("argv, code, text", [
    (["convert", "4a", "--from", "asymptotic", _LONG_GAMMA, _LONG_DELTA], 3,
     "...) outside the region"),
    (["solve", "4a", _LONG_GAMMA, _LONG_DELTA], 3, "...) outside the region"),
    (["convert", "4a", "--from", "k", "1" * 999 + "x", "0", "0", "0"], 2,
     "not an exact rational: '111"),
    (["convert", "4a", "--from", "asymptotic", "0", "1" * 999 + "x"], 2,
     "not an exact rational: '111"),
    (["solve", "4a", "1" * 999 + "x", "0"], 2, "not an exact rational: '111"),
])
def test_long_exact_values_shortened_in_errors(capsys, argv, code, text):
    """Region errors and unparsable input show a value of about MAX_DIGITS
    digits as an excerpt."""
    got, out, err = run(capsys, *argv)
    assert got == code and not out
    assert err.startswith("error:") and text in err and len(err) < 200, err


def test_convert_nonpositive_n(capsys):
    """A k-vector whose N = n + 1 + sum(k) is not positive reaches the
    library's rule, a parse error, as a nonpositive --n does."""
    for k in (["-2"] * 4, ["-1"] * 4):
        code, out, err = run(capsys, "convert", "4a", "--from", "k", *k)
        assert (code, out, err) == (2, "", "error: N must be positive\n")


_RAW_ALONE = "error: --raw lists the cosine pairs and takes no case id, --all or --full"


@pytest.mark.parametrize("argv, code, last_line", [
    (["convert", "4a", "--from", "asymptotic", "3"], 2,
     "error: asymptotic input needs exactly two values"),
    (["enumerate"], 2, "error: a case id or --all is required"),
    (["qdo", "--weights", "1,1,1,1,1,1,1", "--match"], 0, "match: none"),
    (["enumerate", "4a", "--all"], 2, "error: give a case id or --all, not both"),
    (["enumerate", "--raw", "4a"], 2, _RAW_ALONE),
    (["enumerate", "--raw", "--all"], 2, _RAW_ALONE),
    (["enumerate", "--raw", "--full"], 2, _RAW_ALONE),
    (["convert", "4a", "--from", "asymptotic", "3", "1", "--n", ""], 2,
     "error: not an exact rational: ''"),
])
def test_exit_last_line(capsys, argv, code, last_line):
    """An error exits with its one stderr line and no output; a success
    writes stdout only."""
    got, out, err = run(capsys, *argv)
    assert got == code and not (out and err)
    assert (out or err).splitlines()[-1] == last_line


def test_convert_region_violation(capsys):
    code, _, err = run(capsys, "convert", "4a", "--from", "asymptotic", "5", "0")
    assert code == 3 and "outside the region" in err


_HUGE_PRIME_GAP = str(5 * 10**15 + 28)  # q = 10^16 + 61, a prime


def test_convert_large_denominator_answered(capsys):
    """Stokes data are decided on the integer gaps over their common
    denominator q and evaluated as floats otherwise, so any q answers at
    once, among them a prime q, where both slot roots have one huge order."""
    for argv in [
            ("asymptotic", "1/2003", "0"),  # q = 16,024
            ("k", "1000", "0", "0", "0"),  # q = 1,004
            ("k", *_LONG_K),  # q of about 3,000 digits
            ("asymptotic", f"{10**999 + 1}/{10**999 + 3}",
             f"{10**999 + 7}/{3 * 10**999 + 1}", "--n", f"{10**999 + 9}/{10**999 + 13}"),
            ("k", "0", _HUGE_PRIME_GAP, "1", _HUGE_PRIME_GAP)]:
        start = time.perf_counter()
        code, out, err = run(capsys, "convert", "4a", "--from", *argv)
        assert time.perf_counter() - start < 1.0, argv[:2]
        assert code == 0 and not err, (argv[:2], err)
        assert out.splitlines()[-1].endswith("[irrational]"), argv[:2]


def test_convert_runs_without_algreal(capsys, monkeypatch):
    """``convert`` builds no ``AlgReal``: with its constructor and ``cos2``
    raising, the README commands and an irrational point print as before."""
    def fail(*args, **kwargs):
        raise AssertionError("AlgReal on the convert path")

    monkeypatch.setattr("ttstar.exact.AlgReal.__init__", fail)
    monkeypatch.setattr("ttstar.exact.cos2", fail)
    monkeypatch.setattr("ttstar.stokes.cos2", fail)
    fields = ("case", "gamma", "delta", "k", "N", "in_region", "stokes")
    for argv, want in [
            (("4a", "--from", "asymptotic", "3", "1"),
             ("4a", "3", "1", "0 -1 -1 -1", "1", "yes", "(±4, -6)  [integral]")),
            (("5a", "--from", "k", "-2/3", "-5/6", "-5/6", "-5/6", "-5/6"),
             ("5a", "2/3", "1/3", "-2/3 -5/6 -5/6 -5/6 -5/6", "1", "yes",
              "(1, -1)  [integral]")),
            (("4a", "--from", "asymptotic", "1/2", "0"),
             ("4a", "1/2", "0", "-5/8 -13/16 -3/4 -13/16", "1", "yes",
              "(0.648846697643, -0.917607799708)  [irrational]"))]:
        code, out, err = run(capsys, "convert", *argv)
        assert code == 0 and not err
        assert out == "".join(f"{f:<10}{v}\n" for f, v in zip(fields, want))


def test_convert_symmetry_violation(capsys):
    code, _, err = run(capsys, "convert", "4a", "--from", "k",
                       "0", "0", "0", "1")
    assert code == 3 and "requires k_1 = k_3" in err


def test_negative_values_in_every_exact_form(capsys):
    """Every negative value that parses is taken as a value, not as an
    option: the same point in any written form prints the same bytes."""
    _, want, _ = run(capsys, "convert", "4a", "--from", "asymptotic", "-1", "1")
    for value in ("-1e0", "-1.", "-1_0/10", "-10E-1"):
        assert run(capsys, "convert", "4a", "--from", "asymptotic", value, "1") \
            == (0, want, "")
    code, _, err = run(capsys, "convert", "4a", "--from", "k",
                       "0", "-5E-1", "0", "0")
    assert code == 3 and "requires k_1 = k_3" in err
    code, out, _ = run(capsys, "convert", "4a", "--from", "asymptotic", "-.5", "0")
    assert code == 0 and "gamma     -1/2" in out


def test_negative_float_option_and_help(capsys, tmp_path):
    code, _, _ = run(capsys, "solve", "4a", "0", "0", "--points", "64",
                     "--t-min", "-1e1", "--output", str(tmp_path / "p.csv"))
    assert code == 0
    for command in ("convert", "solve"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "-h"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: ttstar {command}")


def test_enumerate_default_and_full(capsys):
    code, out, _ = run(capsys, "enumerate", "4a", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 13  # header + 12
    code, out, _ = run(capsys, "enumerate", "4a", "--format", "csv", "--full")
    assert len(out.splitlines()) == 20
    code, out, _ = run(capsys, "enumerate", "5a", "--format", "csv")
    assert len(out.splitlines()) == 20  # five-element cases list all 19


def test_enumerate_raw(capsys):
    code, out, _ = run(capsys, "enumerate", "--raw", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 34


def test_enumerate_all_deterministic(capsys):
    code, out1, _ = run(capsys, "enumerate", "--all", "--format", "csv")
    code2, out2, _ = run(capsys, "enumerate", "--all", "--format", "csv")
    assert code == code2 == 0 and out1 == out2
    assert len(out1.splitlines()) == 1 + 12 * 5 + 19 * 5


def test_enumerate_matches_golden_csv(capsys):
    _, out, _ = run(capsys, "enumerate", "4a", "--format", "csv")
    golden = (TABLES / "table5.csv").read_text(encoding="utf-8")
    assert out == golden
    _, out, _ = run(capsys, "enumerate", "5a", "--format", "csv")
    assert out == (TABLES / "table6.csv").read_text(encoding="utf-8")


def test_json_round_trip(capsys):
    _, out, _ = run(capsys, "enumerate", "6a", "--format", "json")
    rows = json.loads(out)
    assert len(rows) == 12
    assert json.dumps(rows, indent=2, ensure_ascii=False) + "\n" == out


def test_latex_layout(capsys):
    """Every field but the block in math mode, with its fractions as
    \\tfrac, and a rule between blocks; --raw's m and p stay outside math
    mode and its single block needs no rule."""
    _, out, _ = run(capsys, "enumerate", "4a", "--format", "latex")
    lines = out.splitlines()
    assert lines[:5] == [
        r"\begin{tabular}{|c|c|c|c|c|c|c|c|}", r"\hline",
        r"$a/\pi$ & $b/\pi$ & $\gamma$ & $\delta$ & $s_1^{\mathbb R}$ & "
        r"$s_2^{\mathbb R}$ & $T_k$ & block \\", r"\hline",
        r"$1$ & $0$ & $3$ & $1$ & $\pm 4$ & $-6$ & $\theta ^4$ & top-edge \\"]
    # the last top-edge row, the rule, the first diagonal-edge row
    assert lines[8:11] == [
        r"$0$ & $0$ & $-1$ & $1$ & $0$ & $2$ & $\theta ^2(\theta -\tfrac{1}{2})^2$"
        r" & top-edge \\", r"\hline",
        r"$\tfrac{1}{2}$ & $\tfrac{1}{2}$ & $1$ & $-1$ & $0$ & $-2$ & "
        r"$\theta ^2(\theta -\tfrac{1}{2})^2$ & diagonal-edge \\"]
    assert lines[-2:] == [r"\hline", r"\end{tabular}"]
    assert lines.count(r"\hline") == 3 + 3  # 4a's half table has four blocks
    _, out, _ = run(capsys, "enumerate", "--raw", "--format", "latex")
    lines = out.splitlines()
    assert lines[2:6] == [r"$a/\pi$ & $b/\pi$ & m & p \\", r"\hline",
                          r"$0$ & $0$ & 0 & 4 \\",
                          r"$0$ & $\tfrac{1}{3}$ & 1 & 2 \\"]
    assert r"$\tfrac{2}{3}$ & $0$ & -3 & -2 \\" in lines
    assert lines.count(r"\hline") == 3 and len(lines) == 33 + 6


def test_qdo_match(capsys):
    code, out, _ = run(capsys, "qdo", "--weights", "1,2,3", "--degrees", "2",
                       "--match")
    assert code == 0
    assert out.splitlines()[0] == "X^{1,2,3}_{2}: λ^4 θ^2(θ-1/3)(θ-2/3) - z"
    assert "match: group 4 top-edge (a,b)=(1/3,0)" in out


def test_qdo_not_reducible(capsys):
    code, _, err = run(capsys, "qdo", "--weights", "1,1", "--degrees", "3")
    assert code == 4
    code, _, err = run(capsys, "qdo", "--weights", "1,1,1", "--degrees", "2")
    assert code == 4


@pytest.mark.parametrize("weights, degrees, message", [
    (",1", "", "not a comma-separated integer list"),
    ("1,1", "0", "degrees must be positive integers"),
    ("0,1", "", "weights must be a nonempty list of positive integers"),
    ("", "", "weights must be a nonempty list of positive integers"),
    ("0", "5", "weights must be a nonempty list of positive integers"),
], ids=["not-integers", "degree-0", "weight-0", "empty", "weight-0-small-sum"])
def test_qdo_malformed_list(capsys, weights, degrees, message):
    """A list that is not integers, has no weight or has an entry below 1 is
    a parse error (exit 2), not an operator that does not reduce (exit 4)."""
    code, out, err = run(capsys, "qdo", "--weights", weights, "--degrees", degrees)
    assert code == 2 and not out
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_qdo_large_weight_sum_rejected(capsys):
    """qdo builds one root per unit of weight, so it refuses a weight sum
    above its limit before building any; the limit itself is accepted, and
    its operator of nearly 10,000 distinct roots is written in one pass."""
    start = time.perf_counter()
    code, _, err = run(capsys, "qdo", "--weights", "1,10000000")
    assert code == 2 and f"limit of {MAX_QDO_WEIGHT_SUM}" in err
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    code, out, _ = run(capsys, "qdo", "--weights", f"1,{MAX_QDO_WEIGHT_SUM - 1}")
    assert code == 0 and out.startswith(f"P^{{1,{MAX_QDO_WEIGHT_SUM - 1}}}: ")
    assert time.perf_counter() - start < 1.0


def test_verify_large_bound_rejected(capsys):
    """The converse sweep grows about as bound^3, so verify refuses a bound
    above its limit at once."""
    start = time.perf_counter()
    for bound in (MAX_VERIFY_BOUND + 1, 100_000):
        code, out, err = run(capsys, "verify", "--case", "4a", "--bound", str(bound))
        assert code == 2 and f"limit of {MAX_VERIFY_BOUND}" in err and not out
    assert time.perf_counter() - start < 1.0


def test_verify_small_bound_rejected(capsys):
    """A bound below 6 reaches the library's rule, a parse error."""
    code, out, err = run(capsys, "verify", "--case", "4a", "--bound", "5")
    assert (code, out, err) == (2, "", "error: search_bound must be at least 6\n")


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--case", "4a", "--bound", "6")
    assert code == 0 and "PASS" in out


def test_verify_self_test(capsys):
    code, _, err = run(capsys, "verify", "--case", "4a", "--bound", "6",
                       "--self-test")
    assert code == 5 and "FAIL" in err


def test_verify_detects_corrupted_golden(capsys, tmp_path):
    src = (TABLES / "table5.csv").read_text(encoding="utf-8")
    bad = src.replace("±4,-6", "±4,-7", 1)
    (tmp_path / "table5.csv").write_text(bad, encoding="utf-8")
    (tmp_path / "table3.csv").write_text(
        (TABLES / "table3.csv").read_text(encoding="utf-8"), encoding="utf-8")
    code, _, err = run(capsys, "verify", "--case", "4a", "--bound", "6",
                       "--tables", str(tmp_path))
    assert code == 5 and "field s2" in err


def test_verify_detects_corrupted_table3(capsys, tmp_path):
    """table3.csv is compared field by field with the rows of
    ``enumerate --full``, as the group tables are with ``enumerate``."""
    _copy_tables(tmp_path)
    rows = list(csv.reader(io.StringIO(
        (TABLES / "table3.csv").read_text(encoding="utf-8"))))
    column = rows[0].index("gamma_4")
    assert rows[7][column] == "-1"  # left-edge (0, 1/2)
    rows[7][column] = "-2"
    (tmp_path / "table3.csv").write_text(
        "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--case", "4a", "--bound", "6",
                         "--tables", str(tmp_path))
    assert code == 5 and "golden tables: 1 mismatches" in out
    assert err == ("error: FAIL: table3.csv row 7 field gamma_4: "
                   "computed '-1', expected '-2'\n")
    # only the groups whose columns it changed see the corruption
    code, out, _ = run(capsys, "verify", "--case", "5a", "--bound", "6",
                       "--tables", str(tmp_path))
    assert code == 0 and "golden tables: 0 mismatches" in out


def _copy_tables(tmp_path):
    for src in TABLES.glob("*.csv"):
        (tmp_path / src.name).write_bytes(src.read_bytes())


def test_verify_golden_missing_group_column(capsys, tmp_path):
    _copy_tables(tmp_path)
    rows = list(csv.reader(io.StringIO((tmp_path / "table3.csv").read_text())))
    keep = [i for i, name in enumerate(rows[0]) if name != "gamma_4"]
    (tmp_path / "table3.csv").write_text(
        "".join(",".join(row[i] for i in keep) + "\n" for row in rows))
    code, _, err = run(capsys, "verify", "--case", "4a", "--bound", "6",
                       "--tables", str(tmp_path))
    assert code == 5 and "table3.csv: no column 'gamma_4'" in err
    assert "Traceback" not in err


def test_verify_golden_not_utf8(capsys, tmp_path):
    _copy_tables(tmp_path)
    (tmp_path / "table5.csv").write_bytes(
        (TABLES / "table5.csv").read_text(encoding="utf-8").encode("utf-16"))
    code, _, err = run(capsys, "verify", "--case", "4a", "--bound", "6",
                       "--tables", str(tmp_path))
    assert code == 5 and "table5.csv: unreadable" in err


@pytest.mark.parametrize("name", ["table5.csv", "table3.csv"])
def test_verify_golden_unreadable_file(capsys, tmp_path, name):
    _copy_tables(tmp_path)
    (tmp_path / name).unlink()
    (tmp_path / name).mkdir()
    code, _, err = run(capsys, "verify", "--case", "4a", "--bound", "6",
                       "--tables", str(tmp_path))
    assert code == 5 and f"{name}: unreadable" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    ("remove", "missing golden file"),
    ("extra row", "table5.csv: 12 rows computed, 13 expected"),
])
def test_verify_golden_missing_file_or_row_count(capsys, tmp_path, edit, message):
    _copy_tables(tmp_path)
    path = tmp_path / "table5.csv"
    if edit == "remove":
        path.unlink()
    else:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines + lines[-1:]), encoding="utf-8")
    code, _, err = run(capsys, "verify", "--case", "4a", "--bound", "6",
                       "--tables", str(tmp_path))
    assert code == 5 and err.startswith(f"error: FAIL: {message}")


def test_verify_golden_missing_field_column(capsys, tmp_path):
    _copy_tables(tmp_path)
    lines = (TABLES / "table5.csv").read_text(encoding="utf-8").splitlines()
    # drop the tk column (second to last) from every line
    (tmp_path / "table5.csv").write_text("".join(
        ",".join(cells[:-2] + cells[-1:]) + "\n"
        for cells in (line.split(",") for line in lines)), encoding="utf-8")
    code, _, err = run(capsys, "verify", "--case", "4a", "--bound", "6",
                       "--tables", str(tmp_path))
    assert code == 5 and "table5.csv: no column 'tk'" in err


def test_solve_trivial(capsys, tmp_path):
    out_file = tmp_path / "p.csv"
    code, out, _ = run(capsys, "solve", "4a", "0", "0", "--points", "512",
                       "--output", str(out_file))
    assert code == 0 and "verified" in out
    rows = list(csv.reader(io.StringIO(out_file.read_text())))
    assert rows[0] == ["t", "u", "v"] and len(rows) == 513


def test_solve_not_verified(capsys):
    """A converged solve whose fitted slope misses gamma by more than
    SLOPE_TOL (0.2292 here, on a window starting at t = -4) exits 1."""
    code, out, err = run(capsys, "solve", "4a", "3", "1", "--t-min", "-4",
                         "--points", "64")
    assert code == 1 and not err
    assert "error 0.2292)" in out
    assert out.splitlines()[-1] == "asymptotics   NOT verified"


def test_solve_region_violation(capsys):
    code, _, err = run(capsys, "solve", "4a", "5", "0")
    assert code == 3 and "outside the region" in err


@pytest.fixture
def two_newton_steps(monkeypatch):
    """A solver that gives up after two Newton steps, where 4a (3, 1) needs
    four."""
    from ttstar import solver
    monkeypatch.setattr(solver, "MAX_NEWTON_STEPS", 2)


def test_solve_non_convergence(capsys, two_newton_steps):
    code, _, err = run(capsys, "solve", "4a", "3", "1", "--points", "512")
    assert code == 6
    assert err.startswith("error: no convergence") and err.count("\n") == 1


def test_solve_overflow_prints_only_the_error():
    """A diverging solve exits 6 with one error line on stderr: numpy's
    overflow warnings from the rejected iterates are not printed, nor those
    from the constants of a window so wide that h^2 overflows, nor from its
    initial iterate."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for window in (("--t-min", "-1e300"), ("--t-min", "-1e308", "--t-max", "8")):
        proc = subprocess.run(
            [sys.executable, "-m", "ttstar.cli", "solve", "4a", "3", "1", *window,
             "--points", "64"], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 6 and not proc.stdout, window
        assert proc.stderr == ("error: line search stalled at residual nan "
                               "on the 64-point grid\n"), window


def test_solve_trace(capsys, tmp_path, monkeypatch):
    code, _, err = run(capsys, "solve", "4a", "3", "1", "--points", "512",
                       "--output", str(tmp_path / "p.csv"), "--trace")
    assert code == 0
    lines = err.splitlines()
    assert lines[0].split() == ["iter", "residual", "lambda", "max|step|"]
    assert len(lines) > 2 and lines[-1].split()[0] == str(len(lines) - 1)
    from ttstar import solver
    monkeypatch.setattr(solver, "MAX_NEWTON_STEPS", 2)
    code, _, err = run(capsys, "solve", "4a", "3", "1", "--points", "512",
                       "--trace")
    assert code == 6
    assert [line.split()[0] for line in err.splitlines()] == [
        "iter", "1", "2", "error:"]


def test_solve_unwritable_output(capsys, tmp_path):
    target = tmp_path / "missing" / "p.csv"
    code, _, err = run(capsys, "solve", "4a", "0", "0", "--points", "512",
                       "--output", str(target))
    assert code == 2 and not target.exists()
    assert err.startswith(f"error: cannot write {target}") and "Traceback" not in err


def test_solve_output_checked_before_solving(capsys, tmp_path, monkeypatch):
    from ttstar import solver

    def no_solve(*args):
        raise AssertionError("solve_radial called before the output check")

    monkeypatch.setattr(solver, "solve_radial", no_solve)
    target = tmp_path / "missing" / "p.csv"
    code, _, err = run(capsys, "solve", "4a", "3", "1", "--output", str(target))
    assert code == 2 and err.startswith(f"error: cannot write {target}")
    code, _, err = run(capsys, "solve", "4a", "3", "1", "--output", str(tmp_path))
    assert code == 2 and err.startswith(f"error: cannot write {tmp_path}")


def test_solve_non_convergence_writes_no_profile(capsys, tmp_path, two_newton_steps):
    target = tmp_path / "p.csv"
    code, _, err = run(capsys, "solve", "4a", "3", "1", "--points", "512",
                       "--output", str(target))
    assert code == 6 and err.startswith("error: no convergence")
    assert not target.exists()
    # an existing file is neither truncated nor removed by a failed solve
    target.write_text("old\n", encoding="utf-8")
    code, _, _ = run(capsys, "solve", "4a", "3", "1", "--points", "512",
                     "--output", str(target))
    assert code == 6 and target.read_text(encoding="utf-8") == "old\n"


@pytest.mark.parametrize("options, message", [
    (("--points", "8"), "grid_points"),
    (("--t-max", "9"), "t_max must be at most 8"),
    (("--t-max", "400", "--points", "64"), "t_max must be at most 8"),
    (("--t-min", "5", "--t-max", "0"), "t_min"),
    (("--t-max", "8.5"), "t_max must be at most 8"),
    (("--t-max", "1e308", "--t-min", "-1e308"), "t_max must be at most 8"),
    (("--t-max", "inf", "--points", "64"), "t_max"),
    (("--t-min=-inf",), "t_min"),
    (("--t-min", "nan"), "t_min"),
    (("--points", "100000000"), "grid_points"),
])
def test_solve_invalid_options(capsys, options, message):
    code, _, err = run(capsys, "solve", "4a", "0", "0", *options)
    assert code == 2 and err.startswith("error: ") and message in err


def test_cli_import_skips_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ttstar.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_convert_skips_enumeration_and_theta():
    """``convert`` runs without importing the table and operator modules."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ttstar.cli import main; "
         "code = main(['convert', '4a', '--from', 'asymptotic', '3', '1']); "
         "print(code, sorted(m for m in ('ttstar.theta', 'ttstar.enumeration') "
         "if m in sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "stokes    (±4, -6)  [integral]" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_solve_parse_error_skips_solver_import():
    """``solve`` checks its input before it imports numpy and the solver."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ttstar.cli import main; "
         "code = main(['solve', '4a', 'x', '0']); "
         "print(code, 'numpy' in sys.modules, 'ttstar.solver' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["2", "False", "False"], proc.stderr


def test_exit_codes_documented_alike():
    """The module docstring lists the exit codes the README documents."""
    from ttstar import cli

    def exit_codes(text):
        return " ".join(text[text.index("Exit codes:"):].split(".")[0].split())

    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert exit_codes(cli.__doc__) == exit_codes(readme.read_text(encoding="utf-8"))
    assert "1 asymptotics not verified" in exit_codes(cli.__doc__)
