from fractions import Fraction
from math import lcm

import pytest

from conftest import primitive, random_symmetric_k
from ttstar.cases import (CASE_IDS, GROUP_OF_CASE, GROUPS, AsymptoticData,
                          KVector, SymmetryError, asymptotic_gaps, asymptotic_to_k,
                          case_formula, descriptor, gaps_to_asymptotic, in_region,
                          k_to_asymptotic, make_k, share_gaps)


def F(x):
    return Fraction(x)


def test_case_enumeration():
    assert len(CASE_IDS) == 10
    assert sum(len(v) for v in GROUPS.values()) == 10
    assert set(GROUP_OF_CASE) == set(CASE_IDS)


# the paper's data, as the descriptors once stated them: the cases of each
# group, and gamma + delta on the region's line of symmetry
PAPER_GROUPS = {
    "4": ("4a", "4b"),
    "5ab": ("5a", "5b"),
    "5cde": ("5c", "5d", "5e"),
    "6": ("6a", "6b", "6c"),
}
PAPER_CENTER_SUM = {"4a": 0, "4b": 0, "5a": 1, "5b": 1, "5c": -1, "5d": -1,
                    "5e": -1, "6a": 0, "6b": 0, "6c": 0}

# and each case's exponents (a, b), symmetry pairs, and gamma and delta rows:
# gamma = sum(gamma_row_i * k_i)/N and delta = sum(delta_row_i * k_i)/N
PAPER_CASES = {
    "4a": ((2, 2), ((1, 3),), (3, -2, -1, 0), (1, 2, -3, 0)),
    "4b": ((2, 2), ((0, 2),), (-2, -1, 0, 3), (2, -3, 0, 1)),
    "5a": ((2, 1), ((1, 4), (2, 3)), (4, -2, -2, 0, 0), (2, 4, -6, 0, 0)),
    "5b": ((2, 1), ((0, 3), (1, 2)), (-2, -2, 0, 0, 4), (4, -6, 0, 0, 2)),
    "5c": ((1, 2), ((1, 3), (0, 4)), (6, -4, -2, 0, 0), (2, 2, -4, 0, 0)),
    "5d": ((1, 2), ((2, 4), (0, 1)), (6, 0, -4, -2, 0), (2, 0, 2, -4, 0)),
    "5e": ((1, 2), ((0, 2), (3, 4)), (-4, -2, 0, 6, 0), (2, -4, 0, 2, 0)),
    "6a": ((1, 1), ((1, 4), (0, 5), (2, 3)), (8, -4, -4, 0, 0, 0), (4, 4, -8, 0, 0, 0)),
    "6b": ((1, 1), ((2, 5), (0, 1), (3, 4)), (8, 0, -4, -4, 0, 0), (4, 0, 4, -8, 0, 0)),
    "6c": ((1, 1), ((0, 3), (4, 5), (1, 2)), (-4, -4, 0, 0, 8, 0), (4, -8, 0, 0, 4, 0)),
}


def _paper_classes(case_id):
    """The classes of equal k_i by the paper's pairs: the pairs, then each
    unpaired position."""
    _, symmetry, gamma_row, _ = PAPER_CASES[case_id]
    paired = {i for pair in symmetry for i in pair}
    return symmetry + tuple((i,) for i in range(len(gamma_row)) if i not in paired)


def _det3(rows):
    """The determinant of a 3 x 3 matrix."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _class_system(case_id):
    """The paper's gamma, delta and sum rows summed over each class."""
    _, _, gamma_row, delta_row = PAPER_CASES[case_id]
    return tuple(tuple(sum(row[i] for i in cls) for cls in _paper_classes(case_id))
                 for row in (gamma_row, delta_row, (1,) * len(gamma_row)))


def _paper_asymptotic(case_id, entries):
    """(gamma, delta) by the paper's rows at the k_i."""
    _, _, gamma_row, delta_row = PAPER_CASES[case_id]
    n = len(entries) + sum(entries)
    return AsymptoticData(sum(r * k for r, k in zip(gamma_row, entries)) / n,
                          sum(r * k for r, k in zip(delta_row, entries)) / n)


def test_derived_case_facts_match_paper():
    """GROUPS and GROUP_OF_CASE come from the case table's group field and
    center_sum from the corners; all three equal the paper's data."""
    assert GROUPS == PAPER_GROUPS
    assert list(GROUPS.items()) == list(PAPER_GROUPS.items())
    assert GROUP_OF_CASE == {c: g for g, cs in PAPER_GROUPS.items() for c in cs}
    for cid in CASE_IDS:
        d = descriptor(cid)
        assert d.center_sum == PAPER_CENTER_SUM[cid] == sum(d.corners)


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_derived_descriptor_matches_paper(case_id):
    """(a, b) and the symmetry pairs, derived from the reflection through the
    slots of ``case_formula``, equal the paper's, and so do the classes and
    the values read from them; the slot classes have m and l positions."""
    ab, symmetry, gamma_row, _ = PAPER_CASES[case_id]
    d = descriptor(case_id)
    classes = _paper_classes(case_id)
    assert (d.n_plus_1, d.ab, d.symmetry, d.classes) == (len(gamma_row), ab, symmetry, classes)
    assert d.class_of == tuple(next(c for c, cls in enumerate(classes) if i in cls)
                               for i in range(d.n_plus_1))
    assert d.corners == (Fraction(-2, ab[0]), Fraction(2, ab[1]))
    (i, m, _), (j, l, _) = case_formula(case_id).slots
    assert (len(classes[d.class_of[i]]), len(classes[d.class_of[j]])) == (m, l)
    # the pairs list the class without a slot, then the slot classes in order
    slot_classes = [classes[d.class_of[i]], classes[d.class_of[j]]]
    no_slot = [cls for cls in classes if cls not in slot_classes]
    assert tuple(cls for cls in no_slot + slot_classes if len(cls) == 2) == symmetry


def test_descriptor_shapes():
    for cid in CASE_IDS:
        d = descriptor(cid)
        _, _, gamma_row, delta_row = PAPER_CASES[cid]
        assert len(gamma_row) == len(delta_row) == d.n_plus_1
        assert d.ab in {(2, 2), (2, 1), (1, 2), (1, 1)}
        # every symmetry pair (i, j) gives one reflection i -> rho - i, with
        # rho = i + j mod n+1
        assert len({(i + j) % d.n_plus_1 for i, j in d.symmetry}) == 1
        # the paper's rows read (gamma, delta) off gaps at any scale
        assert sum(gamma_row) == sum(delta_row) == 0
        # and fix one value per class of equal k_i
        assert len(d.classes) == 3 and _det3(_class_system(cid)) != 0


def test_asymptotic_matches_paper_rows(rng):
    """On random case-symmetric k, (gamma, delta) are the paper's row forms,
    and ``asymptotic_gaps`` gives back the gaps k_i + 1 up to scale."""
    for i in range(3000):
        cid = CASE_IDS[i % 10]
        k = random_symmetric_k(rng, cid)
        a = k_to_asymptotic(k)
        assert a == _paper_asymptotic(cid, k.entries), (cid, k)
        scale = lcm(*(e.denominator for e in k.entries))
        gaps = [int((e + 1) * scale) for e in k.entries]
        assert gaps_to_asymptotic(cid, gaps) == a
        back = asymptotic_gaps(cid, a)
        assert sum(back) > 0 and primitive(back) == primitive(gaps), (cid, k)


def test_unknown_case():
    with pytest.raises(ValueError):
        descriptor("7z")


def test_symmetry_enforced():
    with pytest.raises(SymmetryError):
        make_k("4a", [0, 0, 0, 1])  # needs k_1 = k_3
    make_k("4a", [0, -1, 0, -1])


def test_worked_example_4a():
    k = make_k("4a", [F("-1/2"), F("-11/12"), F("-2/3"), F("-11/12")])
    assert k.N == 1
    a = k_to_asymptotic(k)
    assert (a.gamma, a.delta) == (1, F("-1/3"))
    back = asymptotic_to_k("4a", a)
    assert back == k


def test_worked_example_5a():
    k = make_k("5a", [F("-2/3")] + [F("-5/6")] * 4)
    a = k_to_asymptotic(k)
    assert (a.gamma, a.delta) == (F("2/3"), F("1/3"))
    assert asymptotic_to_k("5a", a) == k


def test_trivial_point():
    k = asymptotic_to_k("4a", AsymptoticData(F(0), F(0)))
    assert set(k.entries) == {F("-3/4")}


def test_region_vertices():
    assert in_region("4a", AsymptoticData(F(3), F(1)))
    assert in_region("4a", AsymptoticData(F(-1), F(1)))
    assert in_region("4a", AsymptoticData(F(-1), F(-3)))
    assert not in_region("4a", AsymptoticData(F(4), F(1)))
    assert in_region("5a", AsymptoticData(F(-1), F(2)))
    assert not in_region("5a", AsymptoticData(F("-11/10"), F(0)))


def test_round_trip_random(rng):
    for _ in range(400):
        cid = rng.choice(CASE_IDS)
        k = random_symmetric_k(rng, cid)
        a = k_to_asymptotic(k)
        for n in (1, 4, 12):
            kk = asymptotic_to_k(cid, a, n)
            assert k_to_asymptotic(kk) == a
            # (k_i + 1) scales linearly with N
            assert all((e2 + 1) == n * (e1 + 1)
                       for e1, e2 in zip(k.entries, kk.entries))


def test_region_equivalence_random(rng):
    for _ in range(500):
        cid = rng.choice(CASE_IDS)
        g = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        d = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        a = AsymptoticData(g, d)
        k = asymptotic_to_k(cid, a)
        assert in_region(cid, a) == (min(k.entries) >= -1)


def test_nonpositive_n_rejected():
    with pytest.raises(ValueError):
        asymptotic_to_k("4a", AsymptoticData(F(0), F(0)), 0)
    with pytest.raises(ValueError):
        k_to_asymptotic(make_k("4a", [-2, -2, -2, -2]))


def _reference_asymptotic_to_k(case_id, a, N):
    """The retired ``asymptotic_to_k``: Cramer's rule over Fractions on the
    class values k of the paper's rows, with right-hand side (N*gamma,
    N*delta, N - (n+1))."""
    n1 = descriptor(case_id).n_plus_1
    rows = _class_system(case_id)
    det = _det3(rows)
    rhs = (N * a.gamma, N * a.delta, N - n1)
    entries = [None] * n1
    for c, cls in enumerate(_paper_classes(case_id)):
        value = _det3([row[:c] + (b,) + row[c + 1:] for row, b in zip(rows, rhs)]) / det
        for i in cls:
            entries[i] = value
    return KVector(case_id, tuple(entries))


def test_asymptotic_to_k_matches_fraction_cramer(rng):
    """The shares of the slot classes give the retired Fraction Cramer's k at
    N = 1, 3/2 and 7, inside the region and outside it."""
    for i in range(300):
        cid = CASE_IDS[i % 10]
        a = AsymptoticData(Fraction(rng.randint(-90, 90), rng.randint(1, 30)),
                           Fraction(rng.randint(-90, 90), rng.randint(1, 30)))
        for n in (F(1), Fraction(3, 2), F(7)):
            assert asymptotic_to_k(cid, a, n) == _reference_asymptotic_to_k(cid, a, n)


def test_asymptotic_gaps_inverts_gaps_to_asymptotic(rng):
    """On case-symmetric integer gaps with a positive sum, negative ones
    included, the gaps read back from (gamma, delta) are the same up to
    scale, and their sum is positive."""
    for i in range(400):
        cid = CASE_IDS[i % 10]
        desc = descriptor(cid)
        gaps = [0] * desc.n_plus_1
        while sum(gaps) <= 0:
            for cls in desc.classes:
                value = rng.randint(-6, 40)
                for j in cls:
                    gaps[j] = value
        back = asymptotic_gaps(cid, gaps_to_asymptotic(cid, gaps))
        assert sum(back) > 0 and primitive(back) == primitive(gaps), (cid, gaps)


def test_share_gaps_holds_the_shares(rng):
    """On random rational shares a, b, negative ones and a + b > 1 included,
    the gaps are equal on each class, their sum q is positive, and the slot
    classes (i, m, f), (j, l, f') hold m*c_i = a*q and l*c_j = b*q."""
    for n in range(600):
        cid = CASE_IDS[n % 10]
        desc = descriptor(cid)
        a, b = (Fraction(rng.randint(-30, 30), rng.randint(1, 20)) for _ in range(2))
        if n % 7 == 0:
            a = rng.randint(-2, 2)
        gaps = share_gaps(cid, a, b)
        q = sum(gaps)
        assert q > 0 and len(gaps) == desc.n_plus_1
        assert all(len({gaps[i] for i in cls}) == 1 for cls in desc.classes)
        (i, m, _), (j, l, _) = case_formula(cid).slots
        assert (m * gaps[i], l * gaps[j]) == (a * q, b * q), (cid, a, b)


@pytest.mark.parametrize("n", [0, -1, Fraction(-1, 2)])
def test_asymptotic_to_k_rejects_nonpositive_n(n):
    with pytest.raises(ValueError):
        asymptotic_to_k("5c", AsymptoticData(F(1), F(0)), n)
