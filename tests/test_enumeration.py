from fractions import Fraction
from math import gcd, lcm

import pytest

from conftest import primitive
from ttstar import enumeration, exact, stokes, theta
from ttstar.cases import CASE_IDS, GROUPS, descriptor, in_region, k_to_asymptotic
from ttstar.cli import half_table
from ttstar.exact import _cyclotomic, cos2
from ttstar.enumeration import (BLOCKS, CosPair, _admissible_set, _cos_class,
                                _cos_dictionary, _integral_label_pairs,
                                _pair_integral, admissible_points,
                                brute_force_integral_points, classify_block,
                                enumerate_cos_pairs, integral_solutions,
                                k_from_labels)
from ttstar.stokes import stokes_from_k
from ttstar.theta import tk_from_k


def F(x):
    return Fraction(x)


def test_pair_count_and_split():
    pairs = enumerate_cos_pairs()
    assert len(pairs) == 33
    halves = [p for p in pairs if cos2(p.a_label).as_rational() is not None
              and cos2(p.b_label).as_rational() is not None]
    assert len(halves) == 25
    extras = {(p.a_label, p.b_label) for p in pairs} - {(p.a_label, p.b_label)
                                                        for p in halves}
    assert extras == {
        (F("1/6"), F("1/6")), (F("1/4"), F("1/4")), (F("3/4"), F("3/4")),
        (F("5/6"), F("5/6")), (F("1/5"), F("2/5")), (F("2/5"), F("1/5")),
        (F("3/5"), F("4/5")), (F("4/5"), F("3/5")),
    }


def _reference_cos_pairs():
    """Slow reference: sweep every monic integer quadratic t^2 - m t - p
    with roots in [-2, 2] and match both roots, x = cos2(a) and
    y = cos2(b), against the dictionary."""
    dictionary = [(lab, cos2(lab)) for lab in _cos_dictionary()]
    found = {}
    for m in range(-4, 5):
        for p in range(-4, 5):
            if m * m + 4 * p < 0:
                continue  # no real roots
            for la, x in dictionary:
                for lb, y in dictionary:
                    if (x - y) == m and (x * y) == p:
                        found.setdefault((la, lb), CosPair(la, lb, m, p))
    return tuple(found[key] for key in sorted(found))


def test_cos_pairs_match_reference_sweep():
    pairs = enumerate_cos_pairs()
    reference = _reference_cos_pairs()
    assert len(pairs) == len(reference) == 33
    for got, want in zip(pairs, reference):
        assert got == want


def test_admissible_points():
    pts = admissible_points()
    assert len(pts) == 19
    assert (F("1/5"), F("2/5")) in pts
    assert (F("3/4"), F("3/4")) not in pts
    simple = {F(0), F("1/3"), F("1/2"), F("2/3"), F(1)}
    assert sum(1 for a, b in pts if {a, b} <= simple) == 15


def test_admissible_count_from_cyclotomic_quartics():
    """19 = 15 + 4, counted apart from the sweep: the rational points are
    the label pairs of the five rational cosines with a + b <= 1, and each
    irrational admissible pair has (t^2 - x t + 1)(t^2 + y t + 1), built
    from x = cos2(a) and y = cos2(b), equal to one of Phi_5, Phi_8, Phi_10,
    Phi_12."""
    simple = (F(0), F("1/3"), F("1/2"), F("2/3"), F(1))
    rational = {(a, b) for a in simple for b in simple if a + b <= 1}
    assert len(rational) == 15
    pairs = {(p.a_label, p.b_label): p for p in enumerate_cos_pairs()}
    irrational = set(admissible_points()) - rational
    assert len(irrational) == 4
    quartics = set()
    for label in irrational:
        assert label in pairs
        x, y = cos2(label[0]), cos2(label[1])
        c1, c2 = (y - x).is_integer(), (2 - x * y).is_integer()
        quartics.add((1, c1, c2, c1, 1))
    assert quartics == {_cyclotomic(d) for d in (5, 8, 10, 12)}


def test_integral_solution_invariants():
    for cid in CASE_IDS:
        recs = integral_solutions(cid)
        assert len(recs) == 19
        for rec in recs:
            assert in_region(cid, rec.asymptotic)
            assert rec.k.admissible and rec.k.N == 1
            assert rec.stokes_int is not None
            assert rec.block in BLOCKS
            assert classify_block(cid, rec.asymptotic) == rec.block


def test_group_sharing():
    """Within a group every case yields the same printed record data."""
    for cases in GROUPS.values():
        base = integral_solutions(cases[0])
        for other in cases[1:]:
            recs = integral_solutions(other)
            for r1, r2 in zip(base, recs):
                assert (r1.a_label, r1.b_label) == (r2.a_label, r2.b_label)
                assert r1.asymptotic == r2.asymptotic
                assert r1.stokes_int == r2.stokes_int
                assert r1.tk == r2.tk
                assert r1.block == r2.block


def test_even_size_label_swap():
    """For groups 4 and 6, swapping (a,b) negates and swaps (gamma,delta)."""
    for group in ("4", "6"):
        recs = {(r.a_label, r.b_label): r
                for r in integral_solutions(GROUPS[group][0])}
        for (a, b), rec in recs.items():
            if (b, a) in recs:
                other = recs[(b, a)]
                assert other.asymptotic.gamma == -rec.asymptotic.delta
                assert other.asymptotic.delta == -rec.asymptotic.gamma
                assert other.tk == rec.tk


def test_even_cases_fold_stokes_pairs():
    """Where n+1 is even, s1 is known up to sign, and the 19 records carry 12
    distinct Stokes pairs: each of the 7 shared ones belongs to two records
    exchanged by (gamma, delta) -> (-delta, -gamma), and the printed half
    table (gamma + delta >= 0) holds one record per pair.  In the odd cases
    all 19 pairs are distinct."""
    from ttstar.cli import case_rows, fmt_frac
    for cid in CASE_IDS:
        recs = integral_solutions(cid)
        by_pair = {}
        for rec in recs:
            by_pair.setdefault(rec.stokes_int, []).append(rec.asymptotic)
        if not half_table(cid):
            assert len(by_pair) == 19, cid
            continue
        shared = [points for points in by_pair.values() if len(points) > 1]
        assert len(by_pair) == 12 and len(shared) == 7, cid
        for p, q in shared:
            assert (q.gamma, q.delta) == (-p.delta, -p.gamma), (cid, p, q)
        printed = {(row["gamma"], row["delta"]) for row in case_rows(cid, full=False)}
        assert len(printed) == 12, cid
        for points in by_pair.values():
            assert sum((fmt_frac(p.gamma), fmt_frac(p.delta)) in printed
                       for p in points) == 1, (cid, points)


def test_k_from_labels_consistency():
    gaps = k_from_labels("4a", F("1/2"), F("1/3"))
    q = sum(gaps)
    assert tuple(Fraction(c, q) for c in gaps) == (
        F("1/2"), F("1/12"), F("1/3"), F("1/12"))


def _reference_k_from_labels(case_id, a_label, b_label):
    """The retired ``k_from_labels``: the labels over m on the two slot
    gaps, over one denominator q, and what is left of q shared by the
    class holding neither slot, over a multiple of q where it must be."""
    desc = descriptor(case_id)
    (ki, mk, _), (li, ml, _) = stokes.case_formula(case_id).slots
    da, db = a_label.denominator * mk, b_label.denominator * ml
    q = lcm(da, db)
    slot_gap = {ki: a_label.numerator * (q // da), li: b_label.numerator * (q // db)}
    gaps = [0] * desc.n_plus_1
    free = []
    for cls in desc.classes:
        known = [slot_gap[i] for i in cls if i in slot_gap]
        if known:
            for i in cls:
                gaps[i] = known[0]
        else:
            free += cls
    rest = q - sum(gaps)
    scale = len(free) // gcd(rest, len(free))
    gaps = [c * scale for c in gaps]
    for i in free:
        gaps[i] = rest * scale // len(free)
    assert sum(gaps) == q * scale
    return gaps


def test_k_from_labels_matches_reference(rng):
    """The one ``class_gaps`` solve gives the retired bookkeeping's gaps up
    to a positive scale, on the 19 table points of every case and on random
    label pairs with a, b >= 0, a + b <= 1 and denominators up to 12."""
    table = [labels for _, block in enumeration._BLOCK_ORDER for labels in block]
    assert len(table) == 19
    pairs = []
    while len(pairs) < 200:
        a = Fraction(rng.randint(0, 12), rng.randint(1, 12))
        b = Fraction(rng.randint(0, 12), rng.randint(1, 12))
        if a + b <= 1:
            pairs.append((a, b))
    for cid in CASE_IDS:
        for a, b in table + pairs:
            gaps = k_from_labels(cid, a, b)
            assert sum(gaps) > 0, (cid, a, b)
            assert primitive(gaps) == primitive(_reference_k_from_labels(cid, a, b)), \
                (cid, a, b)


def test_records_match_algreal_oracle():
    """Every record's integer-built fields equal the Fraction and AlgReal
    routes at its k: ``stokes_from_k``, ``k_to_asymptotic`` and ``tk_from_k``
    (also as the integer numerators over q that the forward check reads);
    the table's +- flag is ``stokes_from_k``'s ``s1_sign_ambiguous``."""
    for cid in CASE_IDS:
        for rec in integral_solutions(cid):
            assert rec.k.N == 1
            assert all(((e + 1) * rec.tk.q).denominator == 1 for e in rec.k.entries)
            assert rec.tk.roots == tuple(Fraction(r, rec.tk.q) for r in rec.tk.numerators)
            stokes = stokes_from_k(rec.k)
            assert stokes.integral() == rec.stokes_int
            assert stokes.s1_sign_ambiguous == half_table(rec.case)
            assert rec.asymptotic == k_to_asymptotic(rec.k)
            assert rec.tk == tk_from_k(rec.k)


def test_cold_tables_make_no_algreal_arithmetic(monkeypatch):
    """A cold cosine-pair sweep and a cold build of the ten tables run with
    every cos2 binding and AlgReal's ring operations made to raise."""
    for cached in (_cos_dictionary, enumerate_cos_pairs, _admissible_set,
                   integral_solutions, exact._power_table, exact._cyclotomic,
                   exact._phi, exact._prime_factors):
        cached.cache_clear()

    def forbidden(*args):
        raise AssertionError("AlgReal arithmetic in the table build")

    for module in (exact, enumeration, stokes):
        if hasattr(module, "cos2"):
            monkeypatch.setattr(module, "cos2", forbidden)
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
               "__mul__", "__rmul__"):
        monkeypatch.setattr(exact.AlgReal, op, forbidden)
    assert len(enumerate_cos_pairs()) == 33
    for cid in CASE_IDS:
        assert len(integral_solutions(cid)) == 19
    bound = vars(enumeration).keys()
    assert not {"AlgReal", "cos2", "StokesData", "stokes_from_k"} & bound


def test_block_order_counts():
    recs = integral_solutions("4a")
    per_block = [rec.block for rec in recs]
    assert per_block == (["top-edge"] * 5 + ["left-edge"] * 4
                         + ["diagonal-edge"] * 3 + ["center-line"] * 3
                         + ["other-interior"] * 4)


def test_brute_force_small_bound():
    """Denominator-12 sweep already finds exactly the 19 points (case 4a)."""
    found = brute_force_integral_points("4a", max_denominator=12)
    expected = {tuple(r.asymptotic) for r in integral_solutions("4a")}
    assert found == expected


def _reference_grid(lo, hi, max_den):
    for q in range(1, max_den + 1):
        start = -((-lo.numerator * q) // lo.denominator)  # ceil(lo*q)
        stop = (hi.numerator * q) // hi.denominator       # floor(hi*q)
        for p in range(start, stop + 1):
            if gcd(abs(p), q) == 1:
                yield Fraction(p, q)


# per group: the from-asymptotic cosine arguments, written out apart from
# the library's table
_REFERENCE_ARGS = {
    "4": (lambda g: (g + 1) / 4, lambda d: (d + 3) / 4),
    "5ab": (lambda g: (g + 6) / 5, lambda d: (d + 8) / 5),
    "5cde": (lambda g: (g + 2) / 5, lambda d: (d + 4) / 5),
    "6": (lambda g: (g + 2) / 6, lambda d: (d + 4) / 6),
}


def _reference_brute_force(case_id, max_den):
    """The brute-force sweep without the denominator prefilter: every grid
    point is built as a Fraction and classified."""
    desc = descriptor(case_id)
    ea, eb = desc.ab
    xa, yb = _REFERENCE_ARGS[desc.group]
    gammas = [(gm, _cos_class(xa(gm)))
              for gm in _reference_grid(F(-2) / ea, F(2) / eb + 2, max_den)]
    deltas = [(dl, _cos_class(yb(dl)))
              for dl in _reference_grid(F(-2) / ea - 2, F(2) / eb, max_den)]
    return {(gm, dl) for gm, cx in gammas if cx is not None
            for dl, cy in deltas if cy is not None
            if gm - dl <= 2 and _pair_integral(cx, cy)}


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_brute_force_matches_reference(case_id):
    # small grids too: below 6 the grid drops some of the cosine labels
    for max_den in (*range(1, 13), 30):
        assert (brute_force_integral_points(case_id, max_den)
                == _reference_brute_force(case_id, max_den)), max_den
    found = brute_force_integral_points(case_id, 60)
    assert found == _reference_brute_force(case_id, 60)
    assert found == {tuple(r.asymptotic) for r in integral_solutions(case_id)}


def test_brute_force_label_table():
    """The sweep's table holds exactly the label pairs whose cosines pass
    ``_pair_integral``, and, as 2cos(pi(1 - b)) = -2cos(pi b), exactly the
    pairs (a, 1 - b) of the cosine pairs that ``exact.cos_pair_sums`` finds."""
    labels = _cos_dictionary()
    assert len(labels) == 13
    table = {(Fraction(jx, 60), Fraction(jy, 60)) for jx, jy in _integral_label_pairs()}
    assert table == {(a, b) for a in labels for b in labels
                     if _pair_integral(_cos_class(a), _cos_class(b))}
    assert table == {(p.a_label, 1 - p.b_label) for p in enumerate_cos_pairs()}


def test_brute_force_independent_of_exact_kernels(monkeypatch):
    """The sweep, its label table built cold, runs with the integer kernels
    it checks, and the k route's slot map, made to raise wherever they are
    bound."""
    def forbidden(*args):
        raise AssertionError("the brute-force sweep called a route it checks")

    _integral_label_pairs.cache_clear()
    for module in (exact, enumeration, stokes, theta):
        for name in ("cos_pair_sums", "cyclotomic_factors", "case_formula",
                     "_slots", "k_gaps_stokes"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for case_id in CASE_IDS:
        found = brute_force_integral_points(case_id, 60)
        assert len(found) == 19
