from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttstar.exact import AlgReal, cos2

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=18)


def test_trivial_values():
    assert cos2(0) == 2
    assert cos2(1) == -2
    assert cos2(Fraction(1, 2)) == 0
    assert cos2(Fraction(1, 3)) == 1
    assert cos2(Fraction(2, 3)) == -1


def test_golden_ratio_quadratic():
    x = cos2(Fraction(1, 5))
    assert x * x == x + 1
    assert abs(x.to_float() - 1.618033988749895) < 1e-12


def test_golden_product():
    assert cos2(Fraction(1, 5)) * cos2(Fraction(2, 5)) == 1


def test_sqrt2_square():
    x = cos2(Fraction(1, 4))
    assert x * x == 2


def test_add_sub_scale():
    assert cos2(Fraction(1, 3)) + cos2(Fraction(2, 3)) == 0
    assert cos2(Fraction(1, 4)) - cos2(Fraction(1, 4)) == 0
    assert cos2(Fraction(1, 2)) * Fraction(5, 7) == 0
    assert cos2(Fraction(1, 6)) * cos2(Fraction(1, 6)) == 3


def test_rationality_detection():
    assert cos2(Fraction(1, 3)).as_rational() == 1
    assert cos2(Fraction(1, 5)).as_rational() is None
    assert cos2(Fraction(1, 4)).is_integer() is None
    assert AlgReal.from_rational(Fraction(7, 2)).is_integer() is None
    assert AlgReal.from_rational(-3).is_integer() == -3


def test_niven_sweep():
    """2cos(pi r) is rational exactly on the classical five-value set."""
    niven = {Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
             Fraction(1)}
    for q in range(1, 25):
        for p in range(q + 1):
            r = Fraction(p, q)
            got = cos2(r).as_rational()
            assert (got is not None) == (r in niven), r


def test_conductor_is_minimal():
    # zeta_12 + zeta_12^-1 = sqrt(3) lives at conductor 12, but the sum of
    # two such values collapsing to a rational must land at conductor 2
    v = cos2(Fraction(1, 6)) + cos2(Fraction(5, 6))
    assert v.conductor == 2 and v == 0
    w = cos2(Fraction(1, 12)) * cos2(Fraction(1, 12))
    assert w == cos2(Fraction(1, 6)) + 2  # product-to-sum collapses


def test_immutability_and_hash():
    x = cos2(Fraction(1, 5))
    with pytest.raises(AttributeError):
        x.conductor = 4
    y = cos2(Fraction(1, 5)) * 1
    assert hash(x) == hash(y) and x == y


def test_is_real():
    assert cos2(Fraction(3, 7)).is_real()
    assert AlgReal.from_rational(5).is_real()


@settings(max_examples=300, deadline=None)
@given(rationals, rationals)
def test_product_to_sum(r, s):
    assert cos2(r) * cos2(s) == cos2(r + s) + cos2(r - s)


@settings(max_examples=300, deadline=None)
@given(rationals)
def test_reflection_symmetries(r):
    assert cos2(r) == cos2(-r)
    assert cos2(r) == -cos2(1 - r)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
def test_float_agreement(r, s):
    x, y = cos2(r), cos2(s)
    assert abs((x * y).to_float() - x.to_float() * y.to_float()) < 1e-9
    assert abs((x + y).to_float() - (x.to_float() + y.to_float())) < 1e-9


def test_rejects_odd_conductor():
    with pytest.raises(ValueError):
        AlgReal(3, [1, 0])
