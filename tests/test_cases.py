from fractions import Fraction

import pytest

from conftest import random_symmetric_k
from ttstar.cases import (CASE_IDS, GROUP_OF_CASE, GROUPS, AsymptoticData,
                          SymmetryError, _class_system, asymptotic_to_k,
                          descriptor, in_region, k_to_asymptotic, make_k)


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


def test_derived_case_facts_match_paper():
    """GROUPS and GROUP_OF_CASE come from the descriptors' group field and
    center_sum from the corners; all three equal the paper's data."""
    assert GROUPS == PAPER_GROUPS
    assert list(GROUPS.items()) == list(PAPER_GROUPS.items())
    assert GROUP_OF_CASE == {c: g for g, cs in PAPER_GROUPS.items() for c in cs}
    for cid in CASE_IDS:
        d = descriptor(cid)
        assert d.center_sum == PAPER_CENTER_SUM[cid] == sum(d.corners)


def test_descriptor_shapes():
    for cid in CASE_IDS:
        d = descriptor(cid)
        assert len(d.gamma_row) == len(d.delta_row) == d.n_plus_1
        assert d.ab in {(2, 2), (2, 1), (1, 2), (1, 1)}
        # every symmetry pair (i, j) gives one reflection i -> rho - i, with
        # rho = i + j mod n+1; ``stokes.case_formula`` reads only the first
        assert len({(i + j) % d.n_plus_1 for i, j in d.symmetry}) == 1
        # gaps_to_asymptotic reads (gamma, delta) off gaps at any scale
        assert sum(d.gamma_row) == sum(d.delta_row) == 0
        # asymptotic_to_k solves for one value per class of equal k_i
        assert len(d.classes) == 3 and _class_system(cid)[1] != 0


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
