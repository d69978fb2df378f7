import math
from fractions import Fraction

import pytest

from conftest import class_compositions, random_symmetric_gaps, random_symmetric_k
from ttstar.cases import (CASE_IDS, GROUP_OF_CASE, GROUPS, AsymptoticData,
                          KVector, descriptor, asymptotic_to_k, k_to_asymptotic, make_k)
from ttstar.exact import cos2
from ttstar.stokes import (cos_sum_sign, k_gaps_stokes, stokes_from_asymptotic,
                           stokes_from_k)


def F(*a):
    return Fraction(*a)


def test_table_corner_values():
    s = stokes_from_asymptotic("4a", AsymptoticData(F(3), F(1)))
    assert s.s1_sign_ambiguous and s.integral() == (4, -6)
    s = stokes_from_asymptotic("5a", AsymptoticData(F(4), F(2)))
    assert not s.s1_sign_ambiguous and s.integral() == (5, -10)
    s = stokes_from_asymptotic("5c", AsymptoticData(F(3), F(1)))
    assert s.integral() == (-3, -2)
    s = stokes_from_asymptotic("6a", AsymptoticData(F(4), F(2)))
    assert s.s1_sign_ambiguous and s.integral() == (4, -5)


def test_trivial_stokes():
    assert stokes_from_asymptotic("4a", AsymptoticData(F(0), F(0))).integral() == (0, 0)
    assert stokes_from_asymptotic("5a", AsymptoticData(F(0), F(0))).integral() == (0, 0)


def test_irrational_detection():
    s = stokes_from_asymptotic("4a", AsymptoticData(F(1, 2), F(0)))
    assert s.integral() is None


def test_ambiguous_sign_canonicalized():
    # the raw formula gives a negative s1 here; stored value must be >= 0
    s = stokes_from_asymptotic("4a", AsymptoticData(F(-1), F(-3)))
    assert s.integral() == (4, -6)


def test_sign_flag_per_group():
    for group, cases in GROUPS.items():
        for cid in cases:
            s = stokes_from_asymptotic(cid, AsymptoticData(F(0), F(0)))
            assert s.s1_sign_ambiguous == (group in ("4", "6"))


def test_from_k_worked_example():
    k = make_k("4a", [F("-1/2"), F("-11/12"), F("-2/3"), F("-11/12")])
    assert stokes_from_k(k).integral() == (1, -2)
    # integer entries give the same exact data as their Fractions
    assert stokes_from_k(KVector("4a", (0, -1, 1, -1))) == \
        stokes_from_k(make_k("4a", [0, -1, 1, -1]))


def test_consistency_random(rng):
    for _ in range(400):
        cid = rng.choice(CASE_IDS)
        k = random_symmetric_k(rng, cid)
        s_k = stokes_from_k(k)
        s_a = stokes_from_asymptotic(cid, k_to_asymptotic(k))
        assert s_k.s2 == s_a.s2
        assert s_k.s1 == s_a.s1 or (s_k.s1_sign_ambiguous and s_k.s1 == -s_a.s1)


def test_group_coincidence_random(rng):
    for _ in range(300):
        g = Fraction(rng.randint(-24, 24), rng.randint(1, 8))
        d = Fraction(rng.randint(-24, 24), rng.randint(1, 8))
        a = AsymptoticData(g, d)
        for cases in GROUPS.values():
            vals = {(stokes_from_asymptotic(c, a).s1,
                     stokes_from_asymptotic(c, a).s2) for c in cases}
            assert len(vals) == 1


def test_bounds_on_region_grid(rng):
    from ttstar.cases import in_region
    checked = 0
    while checked < 200:
        cid = rng.choice(CASE_IDS)
        g = Fraction(rng.randint(-12, 24), 6)
        d = Fraction(rng.randint(-24, 12), 6)
        if not in_region(cid, AsymptoticData(g, d)):
            continue
        checked += 1
        s = stokes_from_asymptotic(cid, AsymptoticData(g, d))
        # |s1| <= 1 + 2 + 2 for the five-element cases (their integral
        # tables reach (5, -10)), 2 + 2 for the even sizes
        from ttstar.cases import GROUP_OF_CASE
        s1_bound = 5 if GROUP_OF_CASE[cid].startswith("5") else 4
        assert abs(s.s1.to_float()) <= s1_bound + 1e-9
        assert abs(s.s2.to_float()) <= 10 + 1e-9


def test_bad_n_rejected():
    with pytest.raises(ValueError):
        stokes_from_k(make_k("4a", [-2, -2, -2, -2]))


SIGN_GRID = sorted({Fraction(p, q) for q in range(1, 9) for p in range(-2 * q, 2 * q + 1)})


def test_cos_sum_sign_matches_float():
    checked = 0
    for a in SIGN_GRID:
        for b in SIGN_GRID:
            value = 2 * math.cos(math.pi * a) + 2 * math.cos(math.pi * b)
            if abs(value) > 1e-9:
                assert cos_sum_sign(a, b) == (1 if value > 0 else -1), (a, b)
                checked += 1
    assert checked > 5000


def test_cos_sum_sign_exact_zeros():
    # 2cos(pi*a) + 2cos(pi*b) vanishes exactly when a + b or a - b is odd
    for a in SIGN_GRID:
        for odd in (-3, -1, 1, 3):
            for b in (odd - a, a + odd):
                assert cos_sum_sign(a, b) == 0, (a, b)
                assert cos2(a) + cos2(b) == 0
    for a in SIGN_GRID:
        for b in SIGN_GRID:
            if cos_sum_sign(a, b) == 0:
                assert cos2(a) + cos2(b) == 0, (a, b)


def test_ambiguous_s1_identical_on_both_routes(rng):
    ambiguous = GROUPS["4"] + GROUPS["6"]
    for _ in range(300):
        cid = rng.choice(ambiguous)
        k = random_symmetric_k(rng, cid)
        s_k = stokes_from_k(k)
        s_a = stokes_from_asymptotic(cid, k_to_asymptotic(k))
        assert s_k.s1 == s_a.s1
        assert s_k.s1.to_float() > -1e-12


def test_k_gaps_integral_matches_stokes_from_k(rng):
    """The integer Stokes routine against the AlgReal route, on random
    symmetric gap vectors of every case at a small and a large denominator
    bound, each scaled to integers by a random multiple of its common
    denominator; points with s1 = 0 of both outcomes must occur in both
    ambiguous groups."""
    zero_s1 = set()
    for cid in CASE_IDS:
        for max_den in (12,) * 100 + (60,) * 40:
            gaps = random_symmetric_gaps(rng, cid, max_den)
            scale = math.lcm(*(g.denominator for g in gaps)) * rng.randint(1, 3)
            numerators = [int(g * scale) for g in gaps]
            s = stokes_from_k(KVector(cid, tuple(g - 1 for g in gaps)))
            integral = s.integral() is not None
            assert k_gaps_stokes(cid, numerators) == s.integral(), (cid, gaps)
            if s.s1 == 0:
                zero_s1.add((GROUP_OF_CASE[cid], integral))
    assert {("4", True), ("4", False), ("6", True), ("6", False)} <= zero_s1
    with pytest.raises(ValueError):
        k_gaps_stokes("4a", [0, 0, 0, 0])


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_k_gaps_stokes_exhaustive(case_id):
    """``k_gaps_stokes`` equals ``stokes_from_k(k).integral()`` on every
    case-symmetric integer gap vector with sum q <= 12, primitive or not;
    every integral point of the paper has q <= 12."""
    desc = descriptor(case_id)
    integral = 0
    for q in range(1, 13):
        for counts in class_compositions(q, [len(c) for c in desc.classes]):
            gaps = [0] * desc.n_plus_1
            for cls, c in zip(desc.classes, counts):
                for i in cls:
                    gaps[i] = c
            k = KVector(case_id, tuple(Fraction(c - q, q) for c in gaps))
            want = stokes_from_k(k).integral()
            assert k_gaps_stokes(case_id, gaps) == want, (case_id, gaps)
            integral += want is not None
    assert integral >= 19
