"""Acceptance gate: the eight verifiable claims with their pinned tolerances.

Exact claims carry zero tolerance.  The four T_k cells marked NORMALIZED in
the expected tables differ from the source tables: the published cells are
inconsistent with the defining linear forms and the canonical
lowest-rotation rule (two print a non-canonical rotation of the correct
cyclic data; two print root sets that violate the case symmetry and belong
to the neighboring group's table).  The values here are the ones forced by
the stated construction and are cross-checked by the Stokes and
(gamma, delta) columns, which agree with the source in all rows.
"""

import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import check_Q, random_symmetric_gaps, random_symmetric_k
from ttstar.cases import (CASE_IDS, GROUPS, AsymptoticData, KVector,
                          asymptotic_to_k, in_region, k_to_asymptotic)
from ttstar.cli import case_rows, default_tables_dir, golden_rows
from ttstar.enumeration import (_cos_dictionary, admissible_points,
                                brute_force_integral_points,
                                enumerate_cos_pairs, integral_solutions)
from ttstar.exact import cos2
from ttstar.solver import SolverConfig, solve_radial, verify_asymptotics
from ttstar.stokes import stokes_from_asymptotic, stokes_from_k
from ttstar.theta import (CISpec, catalog, check_G, match_ci,
                          qdo_from_ci, theta_poly, tk_from_k)

REP_CASE = {"4": "4a", "5ab": "5a", "5cde": "5c", "6": "6a"}

# ((a, b), (gamma, delta), (s1, s2), roots); s1 is |s1| for the groups with
# the sign ambiguity (groups 4 and 6)
EXPECTED_TABLES = {
    "4": [
        ((1, 0), (3, 1), (4, -6), "0,0,0,0"),
        (("2/3", 0), ("5/3", 1), (3, -4), "0,0,1/6,5/6"),
        (("1/2", 0), (1, 1), (2, -2), "0,0,1/4,3/4"),
        (("1/3", 0), ("1/3", 1), (1, 0), "0,0,1/3,2/3"),
        ((0, 0), (-1, 1), (0, 2), "0,0,1/2,1/2"),
        (("1/2", "1/2"), (1, -1), (0, -2), "0,0,1/2,1/2"),
        (("2/3", "1/3"), ("5/3", "-1/3"), (2, -3), "0,0,1/3,1/3"),
        (("1/3", "1/3"), ("1/3", "-1/3"), (0, -1), "0,1/6,1/2,2/3"),
        (("1/4", "1/4"), (0, 0), (0, 0), "0,1/4,1/2,3/4"),
        (("1/6", "1/6"), ("-1/3", "1/3"), (0, 1), "0,1/6,1/2,2/3"),
        (("1/2", "1/3"), (1, "-1/3"), (1, -2), "0,1/12,5/12,1/2"),
        (("2/5", "1/5"), ("3/5", "1/5"), (1, -1), "0,1/5,2/5,3/5"),
    ],
    "5ab": [
        ((1, 0), (4, 2), (5, -10), "0,0,0,0,0"),
        (("2/3", 0), ("7/3", 2), (4, -7), "0,0,0,1/6,5/6"),
        (("1/2", 0), ("3/2", 2), (3, -4), "0,0,0,1/4,3/4"),
        (("1/3", 0), ("2/3", 2), (2, -1), "0,0,0,1/3,2/3"),
        ((0, 0), (-1, 2), (1, 2), "0,0,0,1/2,1/2"),
        ((0, "1/3"), (-1, "1/3"), (0, 1), "0,0,1/3,1/2,2/3"),
        ((0, "1/2"), (-1, "-1/2"), (-1, 0), "0,0,1/4,1/2,3/4"),
        ((0, "2/3"), (-1, "-4/3"), (-2, -1), "0,0,1/6,1/2,5/6"),
        ((0, 1), (-1, -3), (-3, -2), "0,0,0,0,1/2"),
        # NORMALIZED: canonical rotation of the printed cyclic data
        (("1/3", "2/3"), ("2/3", "-4/3"), (-1, -1), "0,0,1/3,1/3,2/3"),
        (("1/2", "1/2"), ("3/2", "-1/2"), (1, -2), "0,0,1/4,1/2,1/2"),
        (("2/3", "1/3"), ("7/3", "1/3"), (3, -5), "0,0,1/6,1/3,1/3"),
        (("1/3", "1/3"), ("2/3", "1/3"), (1, -1), "0,1/6,1/3,1/2,2/3"),
        (("1/4", "1/4"), ("1/4", "3/4"), (1, 0), "0,1/8,1/4,1/2,3/4"),
        (("1/6", "1/6"), ("-1/6", "7/6"), (1, 1), "0,1/12,1/6,1/2,2/3"),
        # NORMALIZED: the printed cell is not compatible with the case
        # symmetry; the value below is forced by (gamma, delta)
        (("1/2", "1/3"), ("3/2", "1/3"), (2, -3), "0,1/12,1/4,5/12,1/2"),
        (("2/5", "1/5"), (1, 1), (2, -2), "0,1/10,1/5,2/5,4/5"),
        (("1/5", "2/5"), (0, 0), (0, 0), "0,1/5,2/5,3/5,4/5"),
        (("1/3", "1/2"), ("2/3", "-1/2"), (0, -1), "0,1/12,1/3,7/12,2/3"),
    ],
    "5cde": [
        ((1, 0), (3, 1), (-3, -2), "0,0,0,0,1/2"),
        (("2/3", 0), ("4/3", 1), (-2, -1), "0,0,1/6,1/2,5/6"),
        (("1/2", 0), ("1/2", 1), (-1, 0), "0,0,1/4,1/2,3/4"),
        (("1/3", 0), ("-1/3", 1), (0, 1), "0,0,1/3,1/2,2/3"),
        ((0, 0), (-2, 1), (1, 2), "0,0,0,1/2,1/2"),
        ((0, "1/3"), (-2, "-2/3"), (2, -1), "0,0,0,1/3,2/3"),
        ((0, "1/2"), (-2, "-3/2"), (3, -4), "0,0,0,1/4,3/4"),
        ((0, "2/3"), (-2, "-7/3"), (4, -7), "0,0,0,1/6,5/6"),
        ((0, 1), (-2, -4), (5, -10), "0,0,0,0,0"),
        (("1/3", "2/3"), ("-1/3", "-7/3"), (3, -5), "0,0,1/6,1/3,1/3"),
        (("1/2", "1/2"), ("1/2", "-3/2"), (1, -2), "0,0,1/4,1/2,1/2"),
        # NORMALIZED: canonical rotation of the printed cyclic data
        (("2/3", "1/3"), ("4/3", "-2/3"), (-1, -1), "0,0,1/3,1/3,2/3"),
        (("1/3", "1/3"), ("-1/3", "-2/3"), (1, -1), "0,1/6,1/3,1/2,2/3"),
        (("1/4", "1/4"), ("-3/4", "-1/4"), (1, 0), "0,1/8,1/4,1/2,3/4"),
        (("1/6", "1/6"), ("-7/6", "1/6"), (1, 1), "0,1/12,1/6,1/2,2/3"),
        (("1/2", "1/3"), ("1/2", "-2/3"), (0, -1), "0,1/12,1/3,7/12,2/3"),
        (("2/5", "1/5"), (0, 0), (0, 0), "0,1/5,2/5,3/5,4/5"),
        (("1/5", "2/5"), (-1, -1), (2, -2), "0,1/10,1/5,2/5,4/5"),
        # NORMALIZED: the printed cell is not compatible with the case
        # symmetry; the value below is forced by (gamma, delta)
        (("1/3", "1/2"), ("-1/3", "-3/2"), (2, -3), "0,1/12,1/4,5/12,1/2"),
    ],
    "6": [
        ((1, 0), (4, 2), (4, -5), "0,0,0,0,0,1/2"),
        (("2/3", 0), (2, 2), (3, -3), "0,0,0,1/6,1/2,5/6"),
        (("1/2", 0), (1, 2), (2, -1), "0,0,0,1/4,1/2,3/4"),
        (("1/3", 0), (0, 2), (1, 1), "0,0,0,1/3,1/2,2/3"),
        ((0, 0), (-2, 2), (0, 3), "0,0,0,1/2,1/2,1/2"),
        (("1/2", "1/2"), (1, -1), (0, -1), "0,0,1/4,1/2,1/2,3/4"),
        (("2/3", "1/3"), (2, 0), (2, -2), "0,0,1/6,1/3,1/3,2/3"),
        (("1/3", "1/3"), (0, 0), (0, 0), "0,1/6,1/3,1/2,2/3,5/6"),
        (("1/4", "1/4"), ("-1/2", "1/2"), (0, 1), "0,1/8,1/4,1/2,5/8,3/4"),
        (("1/6", "1/6"), (-1, 1), (0, 2), "0,1/12,1/6,1/2,7/12,2/3"),
        (("1/2", "1/3"), (1, 0), (1, -1), "0,1/12,1/4,5/12,1/2,3/4"),
        (("2/5", "1/5"), ("2/5", "4/5"), (1, 0), "0,1/10,1/5,2/5,3/5,4/5"),
    ],
}

# the (gamma, delta) summary for all 19 points, per group, with blocks
EXPECTED_SUMMARY = [
    ("top-edge", [(3, 1), (4, 2), (3, 1), (4, 2)]),
    ("top-edge", [("5/3", 1), ("7/3", 2), ("4/3", 1), (2, 2)]),
    ("top-edge", [(1, 1), ("3/2", 2), ("1/2", 1), (1, 2)]),
    ("top-edge", [("1/3", 1), ("2/3", 2), ("-1/3", 1), (0, 2)]),
    ("top-edge", [(-1, 1), (-1, 2), (-2, 1), (-2, 2)]),
    ("left-edge", [(-1, "-1/3"), (-1, "1/3"), (-2, "-2/3"), (-2, 0)]),
    ("left-edge", [(-1, -1), (-1, "-1/2"), (-2, "-3/2"), (-2, -1)]),
    ("left-edge", [(-1, "-5/3"), (-1, "-4/3"), (-2, "-7/3"), (-2, -2)]),
    ("left-edge", [(-1, -3), (-1, -3), (-2, -4), (-2, -4)]),
    ("diagonal-edge", [("1/3", "-5/3"), ("2/3", "-4/3"), ("-1/3", "-7/3"), (0, -2)]),
    ("diagonal-edge", [(1, -1), ("3/2", "-1/2"), ("1/2", "-3/2"), (1, -1)]),
    ("diagonal-edge", [("5/3", "-1/3"), ("7/3", "1/3"), ("4/3", "-2/3"), (2, 0)]),
    ("center-line", [("1/3", "-1/3"), ("2/3", "1/3"), ("-1/3", "-2/3"), (0, 0)]),
    ("center-line", [(0, 0), ("1/4", "3/4"), ("-3/4", "-1/4"), ("-1/2", "1/2")]),
    ("center-line", [("-1/3", "1/3"), ("-1/6", "7/6"), ("-7/6", "1/6"), (-1, 1)]),
    ("other-interior", [(1, "-1/3"), ("3/2", "1/3"), ("1/2", "-2/3"), (1, 0)]),
    ("other-interior", [("3/5", "1/5"), (1, 1), (0, 0), ("2/5", "4/5")]),
    ("other-interior", [("-1/5", "-3/5"), (0, 0), (-1, -1), ("-4/5", "-2/5")]),
    ("other-interior", [("1/3", -1), ("2/3", "-1/2"), ("-1/3", "-3/2"), (0, -1)]),
]


def _normalize(rows):
    out = []
    for (lab, gd, s, roots) in rows:
        out.append((
            (F(str(lab[0])), F(str(lab[1]))),
            (F(str(gd[0])), F(str(gd[1]))),
            (int(s[0]), int(s[1])),
            tuple(sorted(F(x) for x in roots.split(","))),
        ))
    return out


def test_criterion_1_golden_tables():
    # time the cold build, whatever earlier tests have cached
    for cached in (_cos_dictionary, enumerate_cos_pairs, integral_solutions):
        cached.cache_clear()
    start = time.perf_counter()
    for group, rows in EXPECTED_TABLES.items():
        case = REP_CASE[group]
        recs = list(integral_solutions(case))
        if len(rows) == 12:  # the even sizes list gamma + delta >= 0 only
            recs = [r for r in recs
                    if r.asymptotic.gamma + r.asymptotic.delta >= 0]
        expected = _normalize(rows)
        assert len(recs) == len(expected)
        for rec, (lab, gd, s, roots) in zip(recs, expected):
            assert (rec.a_label, rec.b_label) == lab
            assert tuple(rec.asymptotic) == gd
            assert rec.stokes_int == s
            assert rec.tk.roots == roots
            assert rec.tk == theta_poly(roots)  # a ThetaPoly is monic
    # the checked-in golden files are the same data in CSV form
    tables_dir = default_tables_dir()
    names = {"4": "table5", "5ab": "table6", "5cde": "table7", "6": "table8"}
    for group, name in names.items():
        case = REP_CASE[group]
        rows = case_rows(case, full=group in ("5ab", "5cde"))
        golden = golden_rows(tables_dir / f"{name}.csv")
        assert [dict(r) for r in golden] == rows
    assert time.perf_counter() - start < 1.0


def test_criterion_2_counts():
    pairs = enumerate_cos_pairs()
    assert len(pairs) == 33
    halves = [p for p in pairs if cos2(p.a_label).as_rational() is not None
              and cos2(p.b_label).as_rational() is not None]
    assert len(halves) == 25
    assert len(pairs) - len(halves) == 8
    assert len(admissible_points()) == 19
    for cid in CASE_IDS:
        assert len(integral_solutions(cid)) == 19


def test_criterion_3_summary_table():
    groups = list(GROUPS)
    recs = {g: integral_solutions(REP_CASE[g]) for g in groups}
    for i, (block, per_group) in enumerate(EXPECTED_SUMMARY):
        for g, gd in zip(groups, per_group):
            rec = recs[g][i]
            assert rec.block == block
            assert tuple(rec.asymptotic) == (F(str(gd[0])), F(str(gd[1])))
    # cases within one group share the whole summary column
    for g, cases in GROUPS.items():
        for cid in cases:
            assert [tuple(r.asymptotic) for r in integral_solutions(cid)] == \
                [tuple(r.asymptotic) for r in recs[g]]


def test_criterion_4_corollary():
    start = time.time()
    # forward: every catalog entry reproduces its record's operator
    for group, cases in GROUPS.items():
        recs = integral_solutions(cases[0])
        by_block = {}
        for rec in recs:
            by_block.setdefault(rec.block, []).append(rec)
        n1 = len(recs[0].k.entries)
        for spec, block, pos in catalog(group):
            rec = by_block[block][pos]
            assert qdo_from_ci(spec) == rec.tk and rec.tk.degree == n1, (group, spec)
    # the counterexample: abstract conditions hold, Stokes not integral,
    # no complete intersection with weight sum <= 72 matches
    t = theta_poly([0, 0, F("1/10"), F("9/10")])
    gaps = (F(0), F("1/10"), F("8/10"), F("1/10"))  # 4a-symmetric rotation
    assert check_Q(Counter(gaps)) and check_G(t)
    k = KVector("4a", tuple(g - 1 for g in gaps))
    assert tk_from_k(k) == t
    assert stokes_from_k(k).integral() is None
    assert t.degree == 4 and match_ci(t.roots, 72) is None
    assert time.time() - start < 30.0


def test_criterion_5_worked_examples():
    op = qdo_from_ci(CISpec((1, 2, 3)))
    assert op.degree == 6
    assert Counter(op.roots) == Counter(
        [F(0), F(0), F(0), F("1/2"), F("1/3"), F("2/3")])
    op2 = qdo_from_ci(CISpec((1, 2, 3), (2,)))
    assert op2 == theta_poly([0, 0, F("1/3"), F("2/3")]) and op2.degree == 4
    k = KVector("4a", (F("-1/2"), F("-11/12"), F("-2/3"), F("-11/12")))
    assert tk_from_k(k) == theta_poly([0, F("1/12"), F("5/12"), F("6/12")])


def test_criterion_6_property_suites():
    start = time.time()
    rng = random.Random(1234)
    instances = 0
    # (a) region <=> all k_i >= -1, denominator-<=12 grid
    for _ in range(2000):
        cid = rng.choice(CASE_IDS)
        a = AsymptoticData(F(rng.randint(-40, 40), rng.randint(1, 12)),
                           F(rng.randint(-40, 40), rng.randint(1, 12)))
        k = asymptotic_to_k(cid, a)
        assert in_region(cid, a) == (min(k.entries) >= -1)
        instances += 1
    # (b) exact round trips, N in {1, 4, 12}
    for _ in range(1500):
        cid = rng.choice(CASE_IDS)
        k = random_symmetric_k(rng, cid)
        a = k_to_asymptotic(k)
        for n in (1, 4, 12):
            assert k_to_asymptotic(asymptotic_to_k(cid, a, n)) == a
        instances += 3
    # (c) Stokes route consistency and (d) group coincidence
    for _ in range(1500):
        cid = rng.choice(CASE_IDS)
        k = random_symmetric_k(rng, cid)
        a = k_to_asymptotic(k)
        s_k = stokes_from_k(k)
        others = [stokes_from_asymptotic(c, a) for c in GROUPS[
            next(g for g, cs in GROUPS.items() if cid in cs)]]
        for s_a in others:
            assert s_k.s2 == s_a.s2
            assert s_k.s1 == s_a.s1 or (s_k.s1_sign_ambiguous
                                        and s_k.s1 == -s_a.s1)
            instances += 1
    # (e) T_k rotation invariance
    for _ in range(1000):
        cid = rng.choice(CASE_IDS)
        gaps = random_symmetric_gaps(rng, cid)
        t = tk_from_k(KVector(cid, tuple(g - 1 for g in gaps)))
        n1 = len(gaps)
        for j in range(n1):
            rot = tuple(gaps[(j + i) % n1] for i in range(n1))
            assert tk_from_k([g - 1 for g in rot]) == t
            instances += 1
    # (f) cyclotomic identities
    for _ in range(800):
        r = F(rng.randint(-36, 36), rng.randint(1, 18))
        s = F(rng.randint(-36, 36), rng.randint(1, 18))
        assert cos2(r) * cos2(s) == cos2(r + s) + cos2(r - s)
        assert cos2(r) == cos2(-r) == -cos2(1 - r)
        instances += 2
    assert instances >= 10_000
    assert time.time() - start < 60.0


def test_criterion_7_bvp_all_integral_points():
    start = time.time()
    cfg = SolverConfig()  # t in [-12, 4], 256 nodes, tol 1e-10
    for cid in ("4a", "6a"):
        for rec in integral_solutions(cid):
            sol = solve_radial(cid, rec.asymptotic, cfg)
            assert sol.residual_norm < 1e-10
            rep = verify_asymptotics(sol, 0.05)
            assert rep.ok, (cid, tuple(rec.asymptotic), rep)
            if tuple(rec.asymptotic) == (0, 0):
                assert max(abs(sol.u).max(), abs(sol.v).max()) < 1e-10
    # grid-doubling stability at a representative point
    a = AsymptoticData(F(3), F(1))
    doubled = solve_radial("4a", a, SolverConfig(grid_points=4096))
    base = solve_radial("4a", a, cfg)
    assert abs(doubled.fitted_gamma - base.fitted_gamma) < 0.05
    assert abs(doubled.fitted_delta - base.fitted_delta) < 0.05
    assert time.time() - start < 120.0


def test_criterion_8_brute_force_completeness():
    start = time.time()
    found = brute_force_integral_points("4a", max_denominator=60)
    expected = {tuple(r.asymptotic) for r in integral_solutions("4a")}
    assert found == expected
    assert time.time() - start < 300.0
