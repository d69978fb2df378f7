import copy
import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from conftest import (check_Q, class_compositions, random_symmetric_gaps,
                      random_symmetric_k)
from ttstar import theta
from ttstar.cases import CASE_IDS, GROUPS, KVector, descriptor, make_k
from ttstar.enumeration import integral_solutions
from ttstar.stokes import k_gaps_stokes, stokes_from_k
from ttstar.theta import (CISpec, CorollaryReport, NotReducibleError,
                          ThetaPoly, _mirror_closed, catalog, check_G, fmt_qdo,
                          match_ci, qdo_from_ci, theta_poly, tk_from_k,
                          tk_numerators, verify_corollary)


def F(*a):
    return Fraction(*a)


def test_theta_poly_printing():
    t = theta_poly([0, 0, F("1/6"), F("5/6")])
    assert str(t) == "θ^2(θ-1/6)(θ-5/6)"
    assert str(theta_poly([0, 0, 0, 0])) == "θ^4"
    assert str(theta_poly([])) == "1"


def test_tk_worked_example():
    k = make_k("4a", [F("-1/2"), F("-11/12"), F("-2/3"), F("-11/12")])
    t = tk_from_k(k)
    assert t.roots == (F(0), F("1/12"), F("5/12"), F("1/2"))


def test_tk_corner():
    assert tk_from_k(make_k("4a", [0, -1, -1, -1])).roots == (0, 0, 0, 0)
    k5 = make_k("5a", [F("-2/3")] + [F("-5/6")] * 4)
    assert tk_from_k(k5).roots == tuple(F(j, 6) for j in (0, 1, 2, 3, 4))


def test_tk_requires_normalization():
    with pytest.raises(ValueError):
        tk_from_k(make_k("4a", [0, 0, 0, 0]))
    with pytest.raises(ValueError):
        tk_from_k(make_k("4a", [F("3/2"), F("-3/2"), F("1/2"), F("-3/2")]))
    with pytest.raises(ValueError):
        tk_from_k([F("-1/2")] * 4)
    with pytest.raises(ValueError):
        tk_from_k([F("3/2"), F("-3/2"), F("1/2"), F("-3/2")])


def test_tk_rotation_invariance(rng):
    for _ in range(300):
        cid = rng.choice(CASE_IDS)
        gaps = random_symmetric_gaps(rng, cid)
        k = KVector(cid, tuple(g - 1 for g in gaps))
        t = tk_from_k(k)
        n1 = len(gaps)
        for j in range(n1):
            rot = tuple(gaps[(j + i) % n1] for i in range(n1))
            assert tk_from_k([g - 1 for g in rot]) == t


def k_from_tk(t: ThetaPoly, n_plus_1: int) -> Counter:
    """Recover the cyclic multiset of (k_i + 1) gaps from a T_k operator: the
    inverse of ``tk_from_k`` up to rotation, kept as its check."""
    if t.degree != n_plus_1:
        raise ValueError(f"degree {t.degree} != {n_plus_1}")
    roots = t.roots
    if roots[0] != 0 or any(not (0 <= r < 1) for r in roots):
        raise ValueError("roots must lie in [0, 1) with smallest root 0")
    gaps = [b - a for a, b in zip(roots, roots[1:])]
    gaps.append(1 - roots[-1])
    return Counter(gaps)


def test_k_from_tk_round_trip(rng):
    for _ in range(300):
        cid = rng.choice(CASE_IDS)
        k = random_symmetric_k(rng, cid)
        t = tk_from_k(k)
        gaps = k_from_tk(t, len(k.entries))
        assert gaps == Counter(e + 1 for e in k.entries)


def test_k_from_tk_validation():
    with pytest.raises(ValueError):
        k_from_tk(theta_poly([0, 0, 0]), 4)
    with pytest.raises(ValueError):
        k_from_tk(theta_poly([0, 1, F("1/2"), F("1/4")]), 4)


def test_qdo_projective_space():
    op = qdo_from_ci(CISpec((1, 1, 1, 1)))
    assert op == theta_poly([0, 0, 0, 0]) and op.degree == 4
    assert fmt_qdo(op) == "λ^4 θ^4 - z"


def test_qdo_worked_examples():
    # P^{1,2,3} and the quadric hypersurface X^{1,2,3}_2 inside it
    op = qdo_from_ci(CISpec((1, 2, 3)))
    assert op.degree == 6
    assert Counter(op.roots) == Counter(
        [F(0), F(0), F(0), F("1/2"), F("1/3"), F("2/3")])
    spec2 = CISpec((1, 2, 3), (2,))
    op2 = qdo_from_ci(spec2)
    assert op2 == theta_poly([0, 0, F("1/3"), F("2/3")]) and op2.degree == 4
    # the README's qdo line
    assert f"{spec2}: {fmt_qdo(op2)}" == "X^{1,2,3}_{2}: λ^4 θ^2(θ-1/3)(θ-2/3) - z"
    op3 = qdo_from_ci(CISpec((1, 1, 1, 6), (2, 3)))
    assert op3 == theta_poly([0, 0, F("1/6"), F("5/6")]) and op3.degree == 4


def test_qdo_not_reducible():
    with pytest.raises(NotReducibleError):
        qdo_from_ci(CISpec((1, 1, 1), (2,)))  # no 1/2 root upstairs
    with pytest.raises(ValueError):
        CISpec((1, 1), (3,))  # weight sum must exceed degree sum


def test_division_soundness():
    spec = CISpec((1, 1, 4), (2,))
    op = qdo_from_ci(spec)
    upstairs = Counter(F(j, v) for v in spec.weights for j in range(v))
    downstairs = Counter(F(j, d) for d in spec.degrees for j in range(d))
    assert downstairs + Counter(op.roots) == upstairs


def test_check_q():
    assert check_Q([F(0), F("1/2"), F("1/2")])
    assert not check_Q([F("1/4")] * 4)
    with pytest.raises(ValueError):
        check_Q([F("1/2")])


def test_check_g():
    assert check_G(theta_poly([0, 0, F("1/3"), F("2/3")]))
    assert check_G(theta_poly([0, 0, F("1/10"), F("9/10")]))
    assert not check_G(theta_poly([0, F("1/5"), F("1/2"), F("4/5"), F("4/5")]))


def test_mirror_closed_matches_sorted_comparison():
    """The sort-free check_G test gives the sorted comparison on every
    ascending list of up to five numerators in [0, q + 1], for q <= 8."""
    def ascending(length, lo, hi):
        if length == 0:
            yield []
            return
        for r in range(lo, hi + 1):
            for rest in ascending(length - 1, r, hi):
                yield [r] + rest

    closed = 0
    for q in range(1, 9):
        for length in range(6):
            for numerators in ascending(length, 0, q + 1):
                want = _reference_mirror_closed(numerators, q)
                assert _mirror_closed(numerators, q) == want, (numerators, q)
                closed += want
    assert closed > 100


def _weak_orders():
    """One value triple for each of the 13 ways three values can compare."""
    orders = {}
    for cs in itertools.product(range(3), repeat=3):
        ranks = sorted(set(cs))
        orders.setdefault(tuple(ranks.index(c) for c in cs), cs)
    assert len(orders) == 13
    return orders


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_shape_matches_min_over_rotations(case_id):
    """For every order pattern of the class values (c0, c1, c2), the lowest
    rotation and back that ``theta._shape`` finds at one triple hold for
    every triple of values up to 6 with that pattern: the prefix sums of
    the rotation are ``min`` over the rotations, and back is the first
    rotation by -j that is case-symmetric."""
    desc = descriptor(case_id)
    n1 = desc.n_plus_1
    slot = [next(k for k, cls in enumerate(desc.classes) if i in cls)
            for i in range(n1)]
    for order, rep in _weak_orders().items():
        lowest, back = theta._shape(rep, slot, desc.symmetry)
        for cs in itertools.product(range(7), repeat=3):
            ranks = sorted(set(cs))
            if tuple(ranks.index(c) for c in cs) != order:
                continue
            vec = [cs[k] for k in slot]
            canon = min(_reference_rotations(vec))
            assert [cs[k] for k in lowest] == list(canon[:-1]), (order, cs)
            rotated = [vec[(i - back) % n1] for i in range(n1)]
            assert all(rotated[a] == rotated[b] for a, b in desc.symmetry)
            assert not any(all(vec[(a - j) % n1] == vec[(b - j) % n1]
                               for a, b in desc.symmetry) for j in range(1, back))
            assert [0, *itertools.accumulate(cs[k] for k in lowest)] == tk_numerators(vec)


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_order_table_is_shape_at_every_weak_order(case_id):
    """The case's cached table holds, for each of the 13 weak orders of the
    class values, what ``theta._shape`` finds at every triple of values up
    to 3 with that order: the values of the lowest rotation but its last,
    and back; and, at every such triple with a zero class, whether T_k's
    roots are closed under r -> -r mod q, by sorting."""
    desc = descriptor(case_id)
    table = theta._order_table(case_id)
    assert len(table) == 13
    seen = set()
    zero_class = 0
    for cs in itertools.product(range(4), repeat=3):
        pattern = theta._order_pattern(*cs)
        seen.add(pattern)
        lowest, back = theta._shape(cs, desc.class_of, desc.symmetry)
        getter, got_back, closed = table[pattern]
        assert (getter(cs), got_back) == (tuple(cs[k] for k in lowest), back), cs
        if 0 in cs and any(cs):
            vec = [cs[k] for k in desc.class_of]
            assert closed == _reference_mirror_closed(tk_numerators(vec), sum(vec)), cs
            zero_class += 1
    assert zero_class == 4**3 - 3**3 - 1
    assert seen == set(table)
    assert {theta._order_pattern(*cs) for cs in _weak_orders().values()} == seen


def test_order_table_closed_matches_mirror_test():
    """At every triple (c0, c1, c2) with a zero class and class-size-weighted
    sum q <= 48, primitive or not, in all ten cases, the table's check_G
    flag is ``_mirror_closed`` of the roots built from its lowest rotation,
    and both flags occur."""
    flags = Counter()
    for case_id in CASE_IDS:
        desc = descriptor(case_id)
        table = theta._order_table(case_id)
        sizes = [len(cls) for cls in desc.classes]
        for q in range(1, 49):
            for cs in class_compositions(q, sizes):
                if 0 not in cs:
                    continue
                getter, _, closed = table[theta._order_pattern(*cs)]
                roots = list(itertools.accumulate(getter(cs), initial=0))
                assert closed == _mirror_closed(roots, q), (case_id, cs)
                flags[closed] += 1
    assert flags[True] and flags[False]


def test_match_numerators_once_per_operator(monkeypatch):
    """The converse sweep matches each distinct non-integral operator once,
    however many gap vectors share it: 19 operators for 4a at bound 12."""
    calls = Counter()
    match = theta.match_ci

    def counted(t, weight_sum_bound):
        assert type(t) is ThetaPoly
        calls[t] += 1
        return match(t, weight_sum_bound)

    monkeypatch.setattr(theta, "match_ci", counted)
    rep = verify_corollary("4a", 12)
    assert sum(calls.values()) == len(calls) == len(rep.flagged_non_ci) == 19


def test_verify_corollary_formats_nothing_without_a_violation(monkeypatch):
    """With no violation nothing is formatted: every case passes at bound 12
    with ``ThetaPoly.__str__`` made to raise, and each flagged operator,
    built from its sweep key, is the operator its constructor normalizes."""
    def forbidden(*args):
        raise AssertionError("an operator was formatted")

    monkeypatch.setattr(ThetaPoly, "__str__", forbidden)
    for case_id in CASE_IDS:
        rep = verify_corollary(case_id, 12)
        assert rep.ok and rep.flagged_non_ci
        for op in rep.flagged_non_ci:
            assert type(op) is ThetaPoly and ThetaPoly(*op) == op


def test_verify_corollary_repeatable():
    """Successive calls give equal reports, and mutating a returned report
    leaves the next call's report as it was."""
    for case_id in CASE_IDS:
        first = verify_corollary(case_id, 12)
        want = copy.deepcopy(first)
        assert verify_corollary(case_id, 12) == want
        for field in ("forward_mismatches", "converse_violations", "flagged_non_ci"):
            getattr(first, field).append("mutated")
        assert verify_corollary(case_id, 12) == want


def test_match_ci_positive():
    # the minimal-weight representative is returned (the quadric in
    # P^{1,2,3} shares its operator with P^{1,3})
    assert match_ci(theta_poly([F(0), F(0), F("1/3"), F("2/3")]), 48) == CISpec((1, 3))
    assert match_ci(theta_poly([F(0)] * 4), 48) == CISpec((1, 1, 1, 1))
    assert match_ci(theta_poly([F(0), F(0), F("1/6"), F("5/6")]), 48) == CISpec(
        (1, 1, 1, 6), (2, 3))


def test_match_ci_counterexample():
    assert match_ci(theta_poly([F(0), F(0), F("1/10"), F("9/10")]), 72) is None
    # the empty operator: no complete intersection has degree 0
    assert match_ci(theta_poly([]), 72) is None


def test_catalog_shape():
    for group in GROUPS:
        rows = catalog(group)
        assert len(rows) == 9
        assert [b for _, b, _ in rows] == ["top-edge"] * 5 + ["left-edge"] * 4


def test_catalog_qdo_grading():
    """Every catalog operator has degree n+1, lambda's power, which is the
    weight sum less the degree sum."""
    for group, cases in GROUPS.items():
        n1 = 4 if group == "4" else (5 if group.startswith("5") else 6)
        for spec, _, _ in catalog(group):
            op = qdo_from_ci(spec)
            assert op.degree == sum(spec.weights) - sum(spec.degrees) == n1
            assert fmt_qdo(op).startswith(f"λ^{n1} ")


def test_verify_corollary_4a():
    rep = verify_corollary("4a", 10)
    assert rep.ok
    assert rep.forward_checked == 9
    assert theta_poly([0, 0, F(1, 10), F(9, 10)]) in rep.flagged_non_ci
    # the uniform A_n operator has no zero gap, so check_Q excludes it
    assert theta_poly([0, F(1, 5), F(2, 5), F(3, 5)]) not in rep.flagged_non_ci


def test_verify_corollary_corrupt():
    rep = verify_corollary("4a", 6, corrupt_catalog=True)
    assert not rep.ok and rep.forward_mismatches


def test_verify_corollary_bound_validation():
    with pytest.raises(ValueError):
        verify_corollary("4a", 5)


# --- Fraction references for the integer operator code ----------------

def _reference_str(roots):
    """str(ThetaPoly) over its Fraction roots, grouped with a Counter."""
    def fmt(r):
        return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"
    parts = []
    for r, mult in sorted(Counter(roots).items()):
        base = "θ" if r == 0 else f"(θ-{fmt(r)})"
        parts.append(base + (f"^{mult}" if mult > 1 else ""))
    return "".join(parts) or "1"


def _reference_factor_roots(ns):
    return Counter(F(j, v) for v in ns for j in range(v))


def _reference_qdo_from_ci(spec):
    """qdo_from_ci with the factor roots counted as Fractions."""
    a_roots = _reference_factor_roots(spec.weights)
    b_roots = _reference_factor_roots(spec.degrees)
    if b_roots - a_roots:
        raise NotReducibleError(
            f"{spec}: hypersurface factor is not a sub-multiset of the ambient factor")
    return theta_poly((a_roots - b_roots).elements())


def _reference_moebius(n):
    primes = [p for p in range(2, n + 1) if n % p == 0
              and all(p % d for d in range(2, p))]
    if any(n % (p * p) == 0 for p in primes):
        return 0
    return (-1) ** len(primes)


def _reference_match_ci(roots, weight_sum_bound):
    """match_ci on Fraction roots: class multiplicities keyed by Fraction."""
    roots = Counter(F(r) for r in roots)
    n_plus_1 = sum(roots.values())
    class_mult = {}
    for e in sorted({r.denominator for r in roots}):
        mults = {roots[F(c, e)]
                 for c in range(e) if math.gcd(c, e) == 1 and (c or e == 1)}
        if len(mults) != 1:
            return None
        class_mult[e] = mults.pop()
    if any(not (0 <= r < 1) for r in roots):
        return None
    support = {f for e in class_mult for f in range(1, e + 1) if e % f == 0}
    net = {}
    for e in sorted(support):
        total = sum(_reference_moebius(f // e) * m
                    for f, m in class_mult.items() if f % e == 0)
        if total:
            net[e] = total
    if sum(e * c for e, c in net.items()) != n_plus_1:
        return None
    weights = [e for e, c in sorted(net.items()) for _ in range(c)]
    degrees = [e for e, c in sorted(net.items()) for _ in range(-c)]
    if not weights or sum(weights) > weight_sum_bound:
        return None
    spec = CISpec(tuple(weights), tuple(degrees))
    produced = _reference_qdo_from_ci(spec)
    assert Counter(produced.roots) == roots
    assert sum(weights) - sum(degrees) == n_plus_1
    return spec


def _random_spec(rng, reducible):
    """A random CISpec; when reducible, each degree divides its own weight."""
    while True:
        weights = [rng.randint(1, 12) for _ in range(rng.randint(1, 6))]
        if reducible:
            degrees = [rng.choice([d for d in range(1, v + 1) if v % d == 0])
                       for v in rng.sample(weights, rng.randint(0, len(weights)))]
        else:
            degrees = [rng.randint(1, 12) for _ in range(rng.randint(0, 3))]
        if sum(weights) > sum(degrees):
            return CISpec(tuple(weights), tuple(degrees))


def test_qdo_matches_reference(rng):
    not_reducible = 0
    for i in range(400):
        spec = _random_spec(rng, reducible=i % 2 == 0)
        try:
            expected = _reference_qdo_from_ci(spec)
        except NotReducibleError as e:
            not_reducible += 1
            with pytest.raises(NotReducibleError) as got:
                qdo_from_ci(spec)
            assert str(got.value) == str(e)
            continue
        assert qdo_from_ci(spec) == expected
        assert qdo_from_ci(spec).degree == sum(spec.weights) - sum(spec.degrees)
    assert not_reducible > 50


def test_fmt_roots_matches_reference(rng):
    assert str(ThetaPoly((0, 0, 0), 1)) == "θ^3"
    assert str(ThetaPoly((0, 0, 2, 10, 10), 12)) == "θ^2(θ-1/6)(θ-5/6)^2"
    for _ in range(500):
        q = rng.choice([1, 1, 2, 6, 12, rng.randint(1, 60)])
        numerators = [rng.randrange(-q, 2 * q) for _ in range(rng.randint(0, 7))]
        numerators += [0] * rng.randint(0, 3) + numerators[:rng.randint(0, 2)]
        t = theta_poly(F(r, q) for r in numerators)
        assert str(t) == _reference_str(t.roots)


def test_theta_poly_canonical_form(rng):
    """A ThetaPoly keeps its roots as ascending numerators over their least
    common denominator: built from unsorted numerators over any multiple of
    it, or from the Fraction roots, it is one object with one hash, its
    roots round-trip, and its string is the Fraction reference's."""
    for _ in range(500):
        q = rng.choice([1, 2, 6, 12, rng.randint(1, 60)])
        numerators = [rng.randrange(-q, 2 * q) for _ in range(rng.randint(0, 7))]
        numerators += [0] * rng.randint(0, 3)
        rng.shuffle(numerators)
        roots = [F(r, q) for r in numerators]
        t = ThetaPoly(tuple(numerators), q)
        assert t == theta_poly(roots)
        assert t.q == math.lcm(*(r.denominator for r in roots))
        assert t.roots == tuple(sorted(roots))
        assert theta_poly(t.roots) == t
        k = rng.randint(2, 7)
        scaled = ThetaPoly(tuple(r * k for r in numerators), q * k)
        assert scaled == t and hash(scaled) == hash(t)
        assert str(t) == _reference_str(t.roots)


def _orbit_roots(case_id, bound):
    """The T_k roots of every rotation orbit of case-symmetric gap vectors."""
    desc = descriptor(case_id)
    paired = {i for pair in desc.symmetry for i in pair}
    classes = list(desc.symmetry) + [(i,) for i in range(desc.n_plus_1)
                                     if i not in paired]
    seen = set()
    for q in range(1, bound + 1):
        for counts in class_compositions(q, [len(c) for c in classes]):
            k = [F(0)] * desc.n_plus_1
            for cls, c in zip(classes, counts):
                for i in cls:
                    k[i] = F(c, q) - 1
            seen.add(tk_from_k(k).roots)
    return seen


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_match_ci_matches_reference_on_orbits(case_id):
    n1 = descriptor(case_id).n_plus_1
    for roots in _orbit_roots(case_id, 24):
        for bound in (2 * n1, 24 * n1):
            assert match_ci(theta_poly(roots), bound) == _reference_match_ci(roots, bound)


def test_match_ci_matches_reference_on_ci_roots(rng):
    for _ in range(300):
        spec = _random_spec(rng, reducible=True)
        roots = list(qdo_from_ci(spec).roots)
        n1 = len(roots)
        bound = rng.choice([sum(spec.weights), n1, 10 ** 6])
        assert match_ci(theta_poly(roots), bound) == _reference_match_ci(roots, bound)
        found = match_ci(theta_poly(roots), 10 ** 6)
        assert found is not None and qdo_from_ci(found) == qdo_from_ci(spec)
        # a near miss: one root moved, possibly out of [0, 1)
        i = rng.randrange(n1)
        if rng.random() < 0.5:
            d = rng.randint(1, 12)
            roots[i] = F(rng.randrange(d), d)
        else:
            roots[i] += F(rng.choice([-1, 1]), rng.randint(1, 30))
        assert match_ci(theta_poly(roots), 10 ** 6) == _reference_match_ci(roots, 10 ** 6)


# --- slow reference for the converse sweep ------------------------------

def _reference_compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _reference_compositions(total - first, parts - 1):
            yield (first,) + rest


def _reference_rotations(gaps):
    n1 = len(gaps)
    return [tuple(gaps[(j + t) % n1] for t in range(n1)) for j in range(n1)]


def _reference_tk(gaps):
    best = min(_reference_rotations(tuple(g - 1 for g in gaps)))
    roots = [F(0)]
    acc = F(0)
    for g in best[:-1]:
        acc += g + 1
        roots.append(acc)
    return theta_poly(roots)


def _symmetric_rotations(case_id, q):
    """Every rotation of every case-symmetric composition of q: the
    compositions of q that have a case-symmetric rotation, with repeats."""
    desc = descriptor(case_id)
    for counts in class_compositions(q, [len(c) for c in desc.classes]):
        gaps = [0] * desc.n_plus_1
        for cls, c in zip(desc.classes, counts):
            for i in cls:
                gaps[i] = c
        yield from _reference_rotations(gaps)


def _reference_converse(case_id, search_bound, compositions=None):
    """verify_corollary by the slow route: every composition of every q into
    n+1 parts, deduplicated across q by a set of Fraction tuples, kept when
    some rotation has the case symmetry and read through the first such.

    ``compositions(q)``, when given, yields the integer gap vectors of sum q
    to visit instead of every composition; ``_symmetric_rotations`` visits
    the same kept vectors, so the route stays affordable at larger bounds."""
    desc = descriptor(case_id)
    n1 = desc.n_plus_1
    if compositions is None:
        def compositions(q):
            return _reference_compositions(q, n1)
    forward_checked, forward_mismatches = 0, []
    converse_checked, converse_violations, flagged_non_ci = 0, [], []
    by_block = {}
    for rec in integral_solutions(case_id):
        by_block.setdefault(rec.block, []).append(rec)
    for spec, block, pos in catalog(desc.group):
        expected = by_block[block][pos].tk
        produced = _reference_qdo_from_ci(spec)
        forward_checked += 1
        if produced != expected:
            forward_mismatches.append(
                f"{spec} -> {fmt_qdo(produced)} != {fmt_qdo(expected)} at {block}[{pos}]")

    def symmetric(rot):
        return all(rot[i] == rot[j] for i, j in desc.symmetry)

    seen = set()
    for q in range(1, search_bound + 1):
        for comp in compositions(q):
            gaps = tuple(F(c, q) for c in comp)
            if gaps in seen:
                continue
            seen.add(gaps)
            aligned = [rot for rot in _reference_rotations(gaps) if symmetric(rot)]
            if not aligned:
                continue
            tk = _reference_tk(gaps)
            if not (check_Q(Counter(gaps)) and check_G(tk)):
                continue
            s = stokes_from_k(KVector(case_id, tuple(g - 1 for g in aligned[0])))
            converse_checked += 1
            if s.integral() is None:
                match = _reference_match_ci(tk.roots, search_bound * n1)
                if match is not None:
                    converse_violations.append(
                        f"{tk}: non-integral Stokes but matches {match}")
                else:
                    flagged_non_ci.append(tk)
    return CorollaryReport(case_id, search_bound, forward_checked, forward_mismatches,
                           converse_checked, converse_violations,
                           sorted(set(flagged_non_ci)))


@pytest.mark.parametrize("case_id, bound",
                         [(c, 12) for c in CASE_IDS] + [("5c", 16), ("6a", 16)])
def test_converse_matches_reference(case_id, bound):
    assert verify_corollary(case_id, bound) == _reference_converse(case_id, bound)


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_converse_matches_reference_on_symmetric_rotations(case_id):
    """Field for field at bounds 12 and 24, the reference visiting only the
    rotations of the case-symmetric compositions (the full sweep above
    confirms it at 12 and 16)."""
    rotations = partial(_symmetric_rotations, case_id)
    for bound in (12, 24):
        assert (verify_corollary(case_id, bound)
                == _reference_converse(case_id, bound, rotations)), bound


def _forward_verdict(spec, tk):
    """The forward check's comparison: spec's theta-part against T_k."""
    try:
        return qdo_from_ci(spec) == tk
    except NotReducibleError:
        return False


def test_forward_verdict_matches_reference():
    """The forward check's comparison (``qdo_from_ci(spec) == rec.tk``)
    gives the Fraction reference's verdict for every catalog entry of the
    four groups, the self-test's corrupt entry and a non-reducible space,
    against all 190 records; the corrupt entry is flagged with the
    reference's message."""
    specs = [spec for group in GROUPS for spec, _, _ in catalog(group)]
    specs += [CISpec((1,) * n1) for n1 in (5, 6, 7)] + [CISpec((1, 1, 4), (3,))]
    for group, cases in GROUPS.items():
        n1 = descriptor(cases[0]).n_plus_1
        for case_id in cases:
            matches = 0
            for rec in integral_solutions(case_id):
                assert rec.tk.degree == n1
                for spec in specs:
                    want = _reference_qdo_matches(spec, rec.tk)
                    assert _forward_verdict(spec, rec.tk) == want, (spec, rec.tk)
                    matches += want
            assert matches >= len(catalog(group))
        for case_id in cases:
            assert verify_corollary(case_id, 6).forward_mismatches == []
            rep = verify_corollary(case_id, 6, corrupt_catalog=True)
            spec, top = CISpec((1,) * (n1 + 1)), integral_solutions(case_id)[0]
            assert rep.forward_mismatches == [
                f"{spec} -> λ^{n1 + 1} {_reference_qdo_from_ci(spec)} - z != "
                f"λ^{n1} {top.tk} - z at top-edge[0]"]


@pytest.mark.parametrize("case_id, bound, checked, flagged", [
    ("4a", 12, 94, 19), ("4a", 24, 362, 86), ("4a", 36, 794, 194),
    ("5a", 12, 180, 27), ("6a", 12, 78, 8), ("6a", 18, 174, 24),
    ("4a", 48, 1426, 352), ("4b", 48, 1426, 352),
    ("5a", 48, 2685, 528), ("5b", 48, 2685, 528), ("5c", 48, 2685, 528),
    ("5d", 48, 2685, 528), ("5e", 48, 2685, 528),
    ("6a", 48, 1086, 176), ("6b", 48, 1086, 176), ("6c", 48, 1086, 176),
    ("4a", 96, 5614, 1399), ("5a", 96, 10580, 2107), ("6a", 96, 4278, 708),
    ("4a", 192, 22462, 5611), ("5a", 192, 42110, 8413), ("6a", 192, 16842, 2802),
])
def test_converse_pins(case_id, bound, checked, flagged):
    rep = verify_corollary(case_id, bound)
    assert (rep.converse_checked, len(rep.flagged_non_ci)) == (checked, flagged)
    assert rep.ok and not rep.converse_violations


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_no_integral_or_ci_point_past_12(case_id):
    """The finiteness behind the converse (ROADMAP Direction K): for q from
    13 to 48 no primitive case-symmetric gap vector c/q has integral Stokes
    data, and no T_k root multiset matches a complete intersection, even
    with weight sums up to 10^6."""
    desc = descriptor(case_id)
    n1 = desc.n_plus_1
    for q in range(13, 49):
        for counts in class_compositions(q, [len(c) for c in desc.classes]):
            if math.gcd(q, *counts) != 1:
                continue
            gaps = [0] * n1
            for cls, c in zip(desc.classes, counts):
                for i in cls:
                    gaps[i] = c
            assert k_gaps_stokes(case_id, gaps) is None, gaps
            roots = [F(r, q) for r in tk_numerators(gaps)]
            assert match_ci(theta_poly(roots), 10**6) is None, gaps


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_converse_violations_count_every_gap_vector(case_id, monkeypatch):
    """With every Stokes datum read as non-integral, each distinct gap vector
    with a case-symmetric rotation, both conditions and a T_k matching a
    complete intersection is one violation: a symmetric vector's violations
    carry the count of the rotations it stands for."""
    monkeypatch.setattr("ttstar.theta.k_gaps_stokes", lambda case_id, gaps: None)
    n1 = descriptor(case_id).n_plus_1
    matching = set()
    for q in range(1, 13):
        for gaps in _symmetric_rotations(case_id, q):
            tk = _reference_tk(tuple(F(c, q) for c in gaps))
            if (math.gcd(q, *gaps) == 1 and 0 in gaps and check_G(tk)
                    and match_ci(tk, 12 * n1) is not None):
                matching.add(gaps)
    assert len(verify_corollary(case_id, 12).converse_violations) == len(matching) > 0


def _reference_qdo_matches(spec, tk):
    """Whether spec's operator is lambda^(n+1) T_k - z, by
    ``_reference_qdo_from_ci``: lambda's power, the weight sum less the
    degree sum, against T_k's degree, and the two root multisets counted as
    Fractions with a Counter."""
    try:
        produced = _reference_qdo_from_ci(spec)
    except NotReducibleError:
        return False
    return (sum(spec.weights) - sum(spec.degrees) == tk.degree
            and Counter(produced.roots) == Counter(tk.roots))


def _reference_mirror_closed(numerators, q):
    """``_mirror_closed`` by sorting, for numerators in any order."""
    return sorted(numerators) == sorted(-r % q for r in numerators)


def _reference_sweep(case_id, search_bound, corrupt_catalog=False):
    """``verify_corollary`` as it stood before the zero-class visit: every
    (c0, c1) triple builds its vector before the check_Q test, T_k's roots
    come from ``min`` over the rotations (``tk_numerators``), check_G and
    the forward check are the sorted and Fraction comparisons
    (``_reference_mirror_closed``, ``_reference_qdo_matches``), ``back`` is
    searched per vector, the match and the violation string are
    ``_reference_match_ci`` and ``_reference_str`` on the Fraction roots,
    and each flagged vector's operator is normalized by the ``ThetaPoly``
    constructor.  It reads
    ``k_gaps_stokes`` through ``ttstar.theta``, so a test that patches it
    there patches both sweeps."""
    desc = descriptor(case_id)
    n1 = desc.n_plus_1
    forward_checked, forward_mismatches = 0, []
    converse_checked, converse_violations, flagged_non_ci = 0, [], []

    records = integral_solutions(case_id)
    by_block: dict[str, list] = {}
    for rec in records:
        by_block.setdefault(rec.block, []).append(rec)
    for idx, (spec, block, pos) in enumerate(catalog(desc.group)):
        rec = by_block[block][pos]
        if corrupt_catalog and idx == 0:
            spec = CISpec((1,) * (n1 + 1))
        forward_checked += 1
        if not _reference_qdo_matches(spec, rec.tk):
            try:
                produced = qdo_from_ci(spec)
            except NotReducibleError:
                produced = None
            forward_mismatches.append(
                f"{spec} -> {produced and fmt_qdo(produced)} != {fmt_qdo(rec.tk)} "
                f"at {block}[{pos}]")

    weight_bound = search_bound * n1
    matches = {}  # (T_k numerators, q) -> its reference match
    classes = desc.classes
    s0, s1, s2 = map(len, classes)  # every case has three classes
    for q in range(1, search_bound + 1):
        # every primitive case-symmetric gap vector c/q, as integer numerators c
        for c0 in range(q // s0 + 1):
            for c1 in range((q - c0 * s0) // s1 + 1):
                c2, left = divmod(q - c0 * s0 - c1 * s1, s2)
                if left or math.gcd(q, c0, c1, c2) != 1:
                    continue
                vec = [0] * n1
                for cls, c in zip(classes, (c0, c1, c2)):
                    for i in cls:
                        vec[i] = c
                if 0 not in vec:  # fails check_Q
                    continue
                roots = tk_numerators(vec)  # T_k's roots r/q
                if not _reference_mirror_closed(roots[1:], q):
                    continue
                # vec stands for itself and its rotations by -1, -2, ... up to
                # the previous case-symmetric one, excluded (at -n1 at most)
                back = next(j for j in range(1, n1 + 1) if all(
                    vec[a - j] == vec[b - j] for a, b in desc.symmetry))
                converse_checked += back
                if theta.k_gaps_stokes(case_id, vec) is not None:
                    continue
                fractions = [F(r, q) for r in roots]
                key = tuple(roots), q
                if key not in matches:
                    matches[key] = _reference_match_ci(fractions, weight_bound)
                match = matches[key]
                if match is None:
                    flagged_non_ci.append(ThetaPoly(roots, q))
                else:
                    converse_violations += [f"{_reference_str(fractions)}: non-integral "
                                            f"Stokes but matches {match}"] * back
    # dedupe flags (different gap vectors can share one operator)
    return CorollaryReport(case_id, search_bound, forward_checked, forward_mismatches,
                           converse_checked, converse_violations,
                           sorted(set(flagged_non_ci)))


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_sweep_matches_reference_sweep(case_id, monkeypatch):
    """The zero-class visit gives the triple loop's report field for field at
    bounds 6 to 48, the catalog corrupted or not, and again with every
    Stokes datum read as non-integral, which fills converse_violations and
    so compares its order."""
    for bound in (6, 12, 24, 48):
        for corrupt in (False, True):
            assert (verify_corollary(case_id, bound, corrupt)
                    == _reference_sweep(case_id, bound, corrupt)), (bound, corrupt)
    monkeypatch.setattr("ttstar.theta.k_gaps_stokes", lambda case_id, gaps: None)
    for bound in (6, 12, 24, 48):
        rep = verify_corollary(case_id, bound)
        assert rep.converse_violations
        assert rep == _reference_sweep(case_id, bound), bound
