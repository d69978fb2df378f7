import math
import random
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttstar.cases import CASE_IDS, AsymptoticData, descriptor
from ttstar.exact import (AlgReal, _cyclotomic, _pair_root_sum, _phi,
                          _prime_factors, _substitute, cos2, cos_pair_sums,
                          cyclotomic_factors, moebius)
from ttstar.stokes import stokes_from_asymptotic

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


def test_rational_at_conductor_12():
    # zeta_12 + zeta_12^-1 = sqrt(3) lives at conductor 12, and the sum of
    # two such values collapsing to a rational stays there: it must still
    # read as that rational and hash like it
    v = cos2(Fraction(1, 6)) + cos2(Fraction(5, 6))
    assert v == 0 and v.is_integer() == 0 and v.as_rational() == 0
    assert hash(v) == hash(0)
    w = cos2(Fraction(1, 12)) * cos2(Fraction(1, 12))
    assert w == cos2(Fraction(1, 6)) + 2  # product-to-sum collapses


def test_immutability_and_hash():
    x = cos2(Fraction(1, 5))
    with pytest.raises(AttributeError):
        x.conductor = 4
    y = cos2(Fraction(1, 5)) * 1
    assert hash(x) == hash(y) and x == y


def test_rational_hash_contract():
    three = AlgReal.from_rational(3)
    assert three == 3 and hash(three) == hash(3)
    assert len({three, 3}) == 1


def test_unrelated_values_compare_without_a_lift(monkeypatch):
    """Unequal hashes, or a rational side, decide equality across conductors
    without the lift to their lcm (1,798, 7,192 and 259,192 here, whose
    power tables are large).  2cos(pi/716) and 2cos(pi/724) are primitive
    roots of the non-squarefree orders 8*179 and 8*181."""
    pairs = [(cos2(Fraction(1, 29)), cos2(Fraction(1, 31))),
             (cos2(Fraction(1, 116)), cos2(Fraction(1, 124))),
             (cos2(Fraction(1, 716)), cos2(Fraction(1, 724)))]
    zeros = [x - x for pair in pairs for x in pair]

    def no_lift(*args):
        raise AssertionError("lift to the lcm")

    monkeypatch.setattr(AlgReal, "_unify", no_lift)
    for x, y in pairs:
        assert x != y and hash(x) != hash(y)
        assert x != 1 and x != AlgReal.from_rational(1)
    assert all(z == 0 and z == zeros[0] for z in zeros)


def _exact_stream_values(count, seed):
    """s1, s2 at count random rational points of the cases' regions, drawn as
    perfbench's exact_stream draws them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        case = rng.choice(CASE_IDS)
        q = rng.randint(13, 30) if rng.random() < 0.2 else rng.randint(1, 12)
        ea, eb = descriptor(case).ab
        gamma = Fraction(rng.randint(math.ceil(Fraction(-2 * q, ea)),
                                     math.floor(Fraction(2 * q, eb) + 2 * q)), q)
        delta = Fraction(rng.randint(math.ceil((gamma - 2) * q),
                                     math.floor(Fraction(2 * q, eb))), q)
        s = stokes_from_asymptotic(case, AsymptoticData(gamma, delta))
        out += [s.s1, s.s2]
    return out


def test_set_of_stokes_values():
    """3,000 Stokes values, kept at the conductors their points give them, go
    into a set in well under a second (a trace hash put 767 of them in one
    bucket, and the set did not finish in 90 s): distinct irrational values
    hash apart, and equal values dedupe."""
    values = _exact_stream_values(1500, 2025)
    start = time.perf_counter()
    distinct = set(values)
    assert time.perf_counter() - start < 2.0
    irrational = [v for v in distinct if v.as_rational() is None]
    assert len({hash(v) for v in irrational}) == len(irrational)
    assert len(distinct) == len({round(v.to_float(), 9) for v in values}) < len(values)


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


# --- slow reference: descent by a scan over the Galois automorphisms ------

@lru_cache(maxsize=None)
def _ref_power_table(M):
    """zeta_M^e reduced mod Phi_M, for e = 0 .. M-1, as dense integer rows."""
    deg = _phi(M)
    phi_poly = _cyclotomic(M)
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(M):
        rows.append(tuple(cur))
        nxt = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            for j in range(deg):
                nxt[j] -= lead * phi_poly[j]
        cur = nxt
    return tuple(rows)


def _ref_reduce_poly(M, coeffs):
    deg = _phi(M)
    table = _ref_power_table(M)
    out = [Fraction(0)] * deg
    for e, c in enumerate(coeffs):
        if c:
            row = table[e % M]
            for j in range(deg):
                if row[j]:
                    out[j] += c * row[j]
    return out


def _ref_lift(x, M):
    step = M // x.conductor
    out = [Fraction(0)] * (step * (len(x.coeffs) - 1) + 1)
    for j, c in enumerate(x.coeffs):
        out[step * j] = c
    return _ref_reduce_poly(M, out)


@lru_cache(maxsize=None)
def _ref_descent_solver(M, d):
    degM, degd = _phi(M), _phi(d)
    table = _ref_power_table(M)
    step = M // d
    cols = [table[(step * j) % M] for j in range(degd)]
    mat = [[Fraction(cols[j][i]) for j in range(degd)] for i in range(degM)]
    work = [(i, row[:]) for i, row in enumerate(mat)]
    pivot_rows = []
    col = 0
    for r in range(degM):
        if col >= degd:
            break
        if work[r][1][col] == 0:
            for rr in range(r + 1, degM):
                if work[rr][1][col] != 0:
                    work[r], work[rr] = work[rr], work[r]
                    break
            else:
                continue
        pivot_rows.append(work[r][0])
        inv = work[r][1][col]
        for rr in range(r + 1, degM):
            f = work[rr][1][col] / inv
            if f:
                for cc in range(col, degd):
                    work[rr][1][cc] -= f * work[r][1][cc]
        col += 1
    assert len(pivot_rows) == degd
    return tuple(pivot_rows), _ref_invert_matrix([mat[r][:] for r in pivot_rows])


def _ref_invert_matrix(m):
    n = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = aug[c][c]
        aug[c] = [v / inv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [v - f * p for v, p in zip(aug[r], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def _ref_apply_automorphism(M, coeffs, a):
    deg = _phi(M)
    table = _ref_power_table(M)
    out = [Fraction(0)] * deg
    for j, c in enumerate(coeffs):
        if c:
            row = table[(a * j) % M]
            for i in range(deg):
                if row[i]:
                    out[i] += c * row[i]
    return out


def _ref_minimize(M, coeffs):
    """Descend while the element is fixed by every automorphism of Q(zeta_M)/Q(zeta_d)."""
    while M > 2:
        descended = False
        for p in _prime_factors(M):
            d = M // p
            if d % 2 == 1:
                continue
            invariant = all(
                _ref_apply_automorphism(M, tuple(coeffs), a) == coeffs
                for a in range(2, M) if math.gcd(a, M) == 1 and a % d == 1)
            if not invariant:
                continue
            rows, inverse = _ref_descent_solver(M, d)
            rhs = [coeffs[r] for r in rows]
            coeffs = [sum(inverse[i][j] * rhs[j] for j in range(len(rhs)))
                      for i in range(len(rhs))]
            M = d
            descended = True
            break
        if not descended:
            break
    return M, tuple(coeffs)


def _ref_sum(x, y):
    M = math.lcm(x.conductor, y.conductor)
    return _ref_minimize(M, [a + b for a, b in zip(_ref_lift(x, M), _ref_lift(y, M))])


def _ref_product(x, y):
    M = math.lcm(x.conductor, y.conductor)
    a, b = _ref_lift(x, M), _ref_lift(y, M)
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] += u * v
    return _ref_minimize(M, _ref_reduce_poly(M, prod))


def _ref_scale(x, q):
    return _ref_minimize(x.conductor, _ref_reduce_poly(x.conductor, [c * q for c in x.coeffs]))


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)
elements = st.one_of(
    st.builds(cos2, rationals),
    st.builds(AlgReal.from_rational, small_rationals),
    st.builds(lambda r, s: cos2(r) * cos2(s), small_rationals, small_rationals),
    st.builds(lambda r, q: cos2(r) + q, small_rationals, small_rationals),
)


def _ref(data):
    return AlgReal(*data)


@settings(max_examples=150, deadline=None)
@given(elements, elements, small_rationals)
def test_descent_matches_galois_scan_reference(x, y, q):
    assert x + y == _ref(_ref_sum(x, y))
    assert x * y == _ref(_ref_product(x, y))
    assert x * q == _ref(_ref_scale(x, q))
    assert x - y == _ref(_ref_sum(x, -y))


@settings(max_examples=150, deadline=None)
@given(elements, st.integers(1, 6))
def test_lift_keeps_value_and_hash(x, m):
    """x written at a multiple M of its conductor equals x, hashes alike and
    dedupes with it in a set."""
    M = m * x.conductor
    lifted = AlgReal(M, _substitute(M, x.coeffs, m))
    assert lifted == x and x == lifted
    assert hash(lifted) == hash(x)
    assert len({x, lifted}) == 1


@st.composite
def root_multisets(draw):
    """(exponents, n): arbitrary exponents, or whole Galois orbits of random
    multiplicity, written with random representatives mod n, sometimes with
    one exponent changed so the multiset is just off stable."""
    n = draw(st.integers(1, 36))
    if draw(st.booleans()):
        exponents = draw(st.lists(st.integers(-2 * n, 2 * n), min_size=1, max_size=10))
    else:
        exponents = []
        for d in draw(st.lists(st.sampled_from([d for d in range(1, n + 1)
                                                 if n % d == 0]), min_size=1, max_size=4)):
            exponents += [(n // d) * v + n * draw(st.integers(-2, 2))
                          for v in range(d) if math.gcd(v, d) == 1]
        if draw(st.booleans()):
            exponents[draw(st.integers(0, len(exponents) - 1))] += draw(st.integers(1, n))
    return draw(st.permutations(exponents)), n


@settings(max_examples=400, deadline=None)
@given(root_multisets())
def test_cyclotomic_factors_match_definition(case):
    exponents, n = case
    count = Counter(e % n for e in exponents)
    stable = all(Counter(u * e % n for e in exponents) == count
                 for u in range(1, n + 1) if math.gcd(u, n) == 1)
    factors = cyclotomic_factors(exponents, n)
    assert (factors is not None) == stable
    if factors is not None:
        assert all(n % d == 0 and m > 0 for d, m in factors.items())
        assert sum(m * _phi(d) for d, m in factors.items()) == len(exponents)
        root_sum = math.fsum(math.cos(2 * math.pi * e / n) for e in exponents)
        assert sum(m * moebius(d) for d, m in factors.items()) == round(root_sum)


def test_cyclotomic_matches_sympy():
    """The Moebius product gives sympy's cyclotomic polynomials."""
    import sympy
    x = sympy.Symbol("x")
    for n in range(1, 201):
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert _cyclotomic(n) == tuple(map(int, want)), n


def test_moebius_is_sum_of_primitive_roots():
    for n in range(1, 200):
        primitive = math.fsum(math.cos(2 * math.pi * k / n)
                              for k in range(n) if math.gcd(k, n) == 1)
        assert moebius(n) == round(primitive), n


def test_cos_pair_sums_match_algreal():
    """The integer kernel against AlgReal for all 0 <= a, b < 2n, n <= 12:
    integral exactly when x + y and x*y both are, with the same values."""
    integral = 0
    for n in range(1, 13):
        xs = [cos2(Fraction(a, n)) for a in range(2 * n)]
        for a, x in enumerate(xs):
            for b, y in enumerate(xs):
                s, p = (x + y).is_integer(), (x * y).is_integer()
                want = None if s is None or p is None else (s, p)
                assert cos_pair_sums(a, b, n) == want, (a, b, n)
                integral += want is not None
    assert 0 < integral < sum(4 * n * n for n in range(1, 13))


def root_sum(exponents, n):
    """The sum of the roots zeta_n^e, or None when they are not a product of
    cyclotomic polynomials: the primitive d-th roots of unity sum to mu(d).
    The generic oracle of ``_pair_root_sum``."""
    factors = cyclotomic_factors(exponents, n)
    if factors is None:
        return None
    return sum(m * moebius(d) for d, m in factors.items())


def test_pair_root_sum_matches_root_sum():
    """The closed form behind ``cos_pair_sums`` equals the generic
    ``root_sum((a, -a, b, -b), m)`` for every even m <= 120, a in [-m, 2m)
    and b in [0, m]; ``root_sum`` reads exponents mod m, so it is called
    once per residue of a."""
    none = 0
    for m in range(2, 121, 2):
        for b in range(m + 1):
            want = [root_sum((a, -a, b, -b), m) for a in range(m)]
            for a in range(-m, 2 * m):
                assert _pair_root_sum(a, b, m) == want[a % m], (a, b, m)
            none += want.count(None)
    assert 0 < none < sum(m * (m + 1) for m in range(2, 121, 2))


def test_pair_root_sum_at_a_huge_prime_order():
    """Equal orders are tested against the four with phi = 4, not by
    computing phi: for the prime p = 10^16 + 61, zeta^1 and zeta^3 both have
    order 2p, whose phi by trial division takes seconds (and forever for a
    prime of 30 digits)."""
    start = time.perf_counter()
    assert cos_pair_sums(1, 3, 10**16 + 61) is None
    assert time.perf_counter() - start < 0.1
