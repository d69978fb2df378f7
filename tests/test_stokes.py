import math
from fractions import Fraction
from itertools import accumulate

import pytest

from conftest import class_compositions, random_symmetric_gaps, random_symmetric_k
from ttstar.cases import (CASE_IDS, GROUP_OF_CASE, GROUPS, AsymptoticData,
                          KVector, descriptor, asymptotic_to_k, k_to_asymptotic, make_k)
from ttstar.exact import cos2, cos_pair_sums
from ttstar.stokes import (StokesData, case_formula, cos_sum_sign,
                           k_gaps_floats, k_gaps_stokes, stokes_from_asymptotic,
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


def test_k_gaps_floats_match_algreal(rng):
    """``convert``'s route against the AlgReal route at a few hundred random
    symmetric points of every case with gap denominator up to 480: the same
    integral data, and elsewhere the same values to 1e-12, with s1 = 0
    exactly where the exact s1 is 0."""
    irrational = zero_s1 = 0
    for cid in CASE_IDS:
        for max_den in (24,) * 10 + (240,) * 20:
            gaps = random_symmetric_gaps(rng, cid, max_den)
            q = math.lcm(*(g.denominator for g in gaps))
            assert q <= 480
            numerators = [int(g * q) for g in gaps]
            s = stokes_from_k(KVector(cid, tuple(g - 1 for g in gaps)))
            assert k_gaps_stokes(cid, numerators) == s.integral(), (cid, gaps)
            if s.integral() is None:
                s1, s2 = k_gaps_floats(cid, numerators)
                assert abs(s1 - s.s1.to_float()) < 1e-12, (cid, gaps)
                assert abs(s2 - s.s2.to_float()) < 1e-12, (cid, gaps)
                assert (s1 == 0) == (s.s1 == 0), (cid, gaps)
                irrational += 1
                zero_s1 += s1 == 0
    assert irrational > 200 and zero_s1 > 0


def test_k_gaps_floats_s1_nonnegative_near_cancelling_slots():
    """6a (even n+1) at gamma, delta and N of 1,000 digits with
    gamma + delta = 1/(10^999 + 3), where x + y is of that size and its float
    is about -2.4e-16: s1 is taken nonnegative, and 0 at gamma + delta = 0."""
    d = 10**999
    gamma, n = F(d + 1, d + 3), F(d + 9, d + 13)
    for delta in (F(-d, d + 3), -gamma):
        k = asymptotic_to_k("6a", AsymptoticData(gamma, delta), n)
        q = math.lcm(*(((e + 1) / k.N).denominator for e in k.entries))
        gaps = [int((e + 1) * q / k.N) for e in k.entries]
        assert k_gaps_stokes("6a", gaps) is None
        s1, _ = k_gaps_floats("6a", gaps)
        assert s1 >= 0 and (s1 == 0) == (delta == -gamma)


def test_k_gaps_floats_no_negative_zero():
    """Over every case-symmetric gap vector with sum up to 24 whose data are
    not integral, a zero s1 or s2 is +0.0, so that it prints as 0."""
    zeros = 0
    for cid in CASE_IDS:
        for gaps in _symmetric_gap_vectors(cid, 24):
            if k_gaps_stokes(cid, gaps) is None:
                for value in k_gaps_floats(cid, gaps):
                    assert value != 0 or math.copysign(1.0, value) > 0, (cid, gaps)
                    zeros += value == 0
    assert zeros > 0


def _symmetric_gap_vectors(case_id, max_q):
    """Every case-symmetric integer gap vector with 0 < sum <= max_q."""
    desc = descriptor(case_id)
    for q in range(1, max_q + 1):
        for counts in class_compositions(q, [len(c) for c in desc.classes]):
            gaps = [0] * desc.n_plus_1
            for cls, c in zip(desc.classes, counts):
                for i in cls:
                    gaps[i] = c
            yield gaps


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_k_gaps_stokes_exhaustive(case_id):
    """``k_gaps_stokes`` equals ``stokes_from_k(k).integral()`` on every
    case-symmetric integer gap vector with sum q <= 12, primitive or not;
    every integral point of the paper has q <= 12."""
    integral = 0
    for gaps in _symmetric_gap_vectors(case_id, 12):
        q = sum(gaps)
        k = KVector(case_id, tuple(Fraction(c - q, q) for c in gaps))
        want = stokes_from_k(k).integral()
        assert k_gaps_stokes(case_id, gaps) == want, (case_id, gaps)
        integral += want is not None
    assert integral >= 19


# --- the retired hand-set formula tables, kept as the oracle of case_formula

# per group: (c1, c2, ell, k_flips, s1_ambiguous), with s1 = c1 + x + y and
# -s2 = c2 + ell*(x + y) + x*y
_RETIRED_GROUPS = {
    "4": (0, 2, 0, (0, 1), True),
    "5ab": (1, 2, 1, (1, 0), False),
    "5cde": (1, 2, 1, (0, 1), False),
    "6": (0, 1, 0, (0, 1), True),
}

# per case: (kl_index, angle_mult), slot angle = (mult*gaps[index] + flip*q)/q
_RETIRED_SLOTS = {
    "4a": ((0, 2), (1, 1)), "4b": ((3, 1), (1, 1)),
    "5a": ((0, 2), (1, 2)), "5b": ((4, 1), (1, 2)),
    "5c": ((0, 2), (2, 1)), "5d": ((0, 3), (2, 1)), "5e": ((3, 1), (2, 1)),
    "6a": ((0, 2), (2, 2)), "6b": ((0, 3), (2, 2)), "6c": ((4, 1), (2, 2)),
}

# per group: (div, shift_gamma, shift_delta), the retired (gamma, delta) ->
# slot map: slot angles (gamma + shift_gamma)/div and (delta + shift_delta)/div
_RETIRED_ANGLES = {"4": (4, 1, 3), "5ab": (5, 6, 8), "5cde": (5, 2, 4), "6": (6, 2, 4)}


def _retired_slots(case_id, gaps):
    """The retired slot numerators a, b over q = sum(gaps), and the group row."""
    (ki, li), (mk, ml) = _RETIRED_SLOTS[case_id]
    group = _RETIRED_GROUPS[GROUP_OF_CASE[case_id]]
    fa, fb = group[3]
    q = sum(gaps)
    return group, mk * gaps[ki] + fa * q, ml * gaps[li] + fb * q, q


def _reference_k_gaps_stokes(case_id, gaps):
    """``k_gaps_stokes`` as it was computed from the retired tables."""
    (c1, c2, ell, _, ambiguous), a, b, q = _retired_slots(case_id, gaps)
    sums = cos_pair_sums(a, b, q)
    if sums is None:
        return None
    s, xy = sums
    s1 = c1 + s
    return abs(s1) if ambiguous else s1, -(c2 + ell * s + xy)


def _reference_assemble(case_id, a, b):
    """The retired group formula over ``AlgReal`` at the slot angles a, b."""
    c1, c2, ell, _, ambiguous = _RETIRED_GROUPS[GROUP_OF_CASE[case_id]]
    x, y = cos2(a), cos2(b)
    s1 = x + y + c1
    if ambiguous and cos_sum_sign(a, b) < 0:
        s1 = -s1
    return StokesData(s1, -(x * y + (x + y) * ell + c2), ambiguous)


def test_k_gaps_stokes_matches_retired_tables():
    """The derived formula equals the retired tables on every case-symmetric
    integer gap vector with q <= 36, primitive or not, None included."""
    checked = integral = 0
    for cid in CASE_IDS:
        for gaps in _symmetric_gap_vectors(cid, 36):
            want = _reference_k_gaps_stokes(cid, gaps)
            assert k_gaps_stokes(cid, gaps) == want, (cid, gaps)
            checked += 1
            integral += want is not None
    assert checked == 25830 and integral > 190


def test_algreal_routes_match_retired_assembly(rng):
    """Both ``AlgReal`` routes equal the retired formula exactly."""
    for _ in range(300):
        cid = rng.choice(CASE_IDS)
        k = random_symmetric_k(rng, cid)
        _, a, b, q = _retired_slots(cid, [e + 1 for e in k.entries])
        assert stokes_from_k(k) == _reference_assemble(cid, Fraction(a, q), Fraction(b, q))
        div, shift_gamma, shift_delta = _RETIRED_ANGLES[GROUP_OF_CASE[cid]]
        asym = k_to_asymptotic(k)
        want = _reference_assemble(cid, (asym.gamma + shift_gamma) / div,
                                   (asym.delta + shift_delta) / div)
        assert stokes_from_asymptotic(cid, asym) == want


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_case_formula_pins_retired_constants(case_id):
    """The derivation reproduces the retired slot indices and multipliers in
    order, the group constants, and the flips (up to negating both cosines,
    which only flips the sign of s1, where n+1 is even)."""
    desc = descriptor(case_id)
    formula = case_formula(case_id)
    c1, c2, ell, flips, ambiguous = _RETIRED_GROUPS[GROUP_OF_CASE[case_id]]
    (ki, li), mults = _RETIRED_SLOTS[case_id]
    assert [(i, m) for i, m, _ in formula.slots] == [(ki, mults[0]), (li, mults[1])]
    assert 0 <= ki < desc.n_plus_1 and 0 <= li < desc.n_plus_1 and ki != li
    assert (formula.t, formula.t, formula.c2) == (c1, ell, c2)
    assert (desc.n_plus_1 % 2 == 0) == ambiguous == (formula.t == 0)
    derived = tuple(f for _, _, f in formula.slots)
    assert derived == flips or (ambiguous and derived == tuple(1 - f for f in flips))


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_on_axis_lemma(case_id):
    """On every case-symmetric vector with q <= 36 the roots
    exp(i*pi*(2r_k - r_(rho+1))/q) come in conjugate pairs k, rho+1-k; each
    root on the axis sits at 0 or q mod 2q, on one side for the whole case;
    and, with the odd-n+1 on-axis root moved to +1, the roots are exactly the
    derived slots' pairs and on-axis roots summing to t with c2 = 2 + e2."""
    desc = descriptor(case_id)
    n1 = desc.n_plus_1
    rho1 = sum(desc.symmetry[0]) % n1 + 1
    formula = case_formula(case_id)
    on_axis = [k for k in range(n1) if (2 * k - rho1) % n1 == 0]
    assert len(on_axis) == n1 - 2 * len(formula.slots)
    sides = set()
    for gaps in _symmetric_gap_vectors(case_id, 36):
        q = sum(gaps)
        r = list(accumulate(gaps, initial=0))
        e = [(2 * r[k] - r[rho1]) % (2 * q) for k in range(n1)]
        for k in range(n1):
            assert e[(rho1 - k) % n1] == -e[k] % (2 * q), (gaps, k)
        assert all(e[k] in (0, q) for k in on_axis), gaps
        side = tuple(e[k] // q for k in on_axis)
        sides.add(side)
        # odd n+1: negate every root, which puts the on-axis one at +1
        flip = side[0] if n1 % 2 else 0
        slots = [m * gaps[i] + f * q for i, m, f in formula.slots]
        want = [(s + flip) * q for s in side] + slots + [-a for a in slots]
        assert sorted((x + flip * q) % (2 * q) for x in e) == \
            sorted(x % (2 * q) for x in want), gaps
    assert len(sides) == 1
    side, = sides
    values = [(-1) ** (s + flip) for s in side]
    assert n1 % 2 == 0 or values == [1]
    assert sum(values) == formula.t
    assert 2 + (sum(values) ** 2 - len(values)) // 2 == formula.c2
