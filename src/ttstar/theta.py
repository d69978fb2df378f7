"""Operator algebra in the Euler operator theta = z d/dz.

All operators in scope are lambda^h P(theta) - z with P a monic product
of linear factors (theta - r), r rational.  That covers the T_k operators
attached to holomorphic data and the quantum differential operators of
weighted projective complete intersections, which are built here by
multiset division of their factor lists.  There is one operator type,
``ThetaPoly``, the monic theta-part P, and lambda's power h is its
degree: a record's T_k has n+1 roots, and a complete intersection's P
keeps the sum(weights) roots of its ambient factor less the sum(degrees)
of its hypersurface factor.  ``fmt_qdo`` writes the operator from P.

The corollary verifier's converse sweep is one pass over the primitive
case-symmetric gap vectors with a zero class (condition Q asks for a
zero gap), one integer per class of equal k_i, each counting the rotations
back to the previous symmetric one.  It runs on the integer numerators c
of the gaps c/q: T_k's roots are the prefix sums of the lowest rotation
(``tk_numerators``, which the tables and ``tk_from_k`` use too; the sweep
reads that rotation from a table of the 13 order patterns of the class
values, built once per case, ``_order_table``), they come out ascending,
so check_G's closure under r -> -r mod q is a sort-free mirror test
(``_mirror_closed``).
Integrality is decided at the slot angles (``stokes.k_gaps_stokes``, over
the closed-form kernel ``exact.cos_pair_sums``), and the
complete-intersection match (``_match_numerators``, behind ``match_ci``)
reads the cyclotomic factors of the numerators
(``exact.cyclotomic_factors``, which states the lemma).  The operator
strings (``_fmt_roots``, behind ``ThetaPoly.__str__``) take the same
numerators over q, and so does every operator: a ``ThetaPoly`` keeps its
roots as ascending integer numerators over their least common
denominator, so the forward check is one equality of ``ThetaPoly``s, a
catalog entry's (``qdo_from_ci``, which counts its roots over the lcm of
its weights and degrees) against its integral-solution record's T_k.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby, product
from operator import itemgetter
from types import MappingProxyType, SimpleNamespace

from .cases import KVector, descriptor
from .exact import cyclotomic_factors, moebius
from .stokes import k_gaps_stokes


class NotReducibleError(ValueError):
    """The hypersurface factor does not divide the ambient-space factor, or
    its degrees sum to no less than the weights."""


def _fmt_ratio(r: int, q: int) -> str:
    """r/q in lowest terms, without a denominator of 1."""
    g = math.gcd(r, q)
    return str(r // g) if g == q else f"{r // g}/{q // g}"


def _fmt_roots(numerators: Iterable[int], q: int) -> str:
    """prod (theta - r/q) over the multiset of numerators, e.g. "θ^2(θ-1/6)"."""
    parts = []
    for r, run in groupby(sorted(numerators)):  # the distinct numerators, ascending
        factor = "θ" if r == 0 else f"(θ-{_fmt_ratio(r, q)})"
        mult = len(list(run))
        parts.append(f"{factor}^{mult}" if mult > 1 else factor)
    return "".join(parts)


class ThetaPoly(namedtuple("ThetaPoly", "numerators q")):
    """prod (theta - r/q) over the multiset of root numerators r.

    The numerators are kept ascending over their least common denominator
    q, so equal operators are equal objects however they were built.
    """

    __slots__ = ()

    def __new__(cls, numerators: Sequence[int], q: int):
        g = math.gcd(q, *numerators)
        return super().__new__(cls, tuple(sorted(r // g for r in numerators)), q // g)

    @property
    def roots(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(r, self.q) for r in self.numerators)

    @property
    def degree(self) -> int:
        return len(self.numerators)

    def __str__(self) -> str:
        return _fmt_roots(self.numerators, self.q) or "1"


def theta_poly(roots: Iterable) -> ThetaPoly:
    """The ``ThetaPoly`` with the given rational roots."""
    roots = [Fraction(r) for r in roots]
    q = math.lcm(*(r.denominator for r in roots))
    return ThetaPoly(tuple(r.numerator * (q // r.denominator) for r in roots), q)


def fmt_qdo(t: ThetaPoly) -> str:
    """The operator lambda^degree t(theta) - z, e.g. "λ^4 θ^4 - z"."""
    return f"λ^{t.degree} {t} - z"


class CISpec(namedtuple("CISpec", "weights degrees")):
    """A complete intersection of the given degrees in weighted projective space."""

    __slots__ = ()

    def __new__(cls, weights: tuple[int, ...], degrees: tuple[int, ...] = ()):
        if not weights or any(v < 1 for v in weights):
            raise ValueError("weights must be a nonempty list of positive integers")
        if any(d < 1 for d in degrees):
            raise ValueError("degrees must be positive integers")
        if sum(weights) <= sum(degrees):
            raise NotReducibleError("sum of weights must exceed sum of degrees")
        return super().__new__(cls, tuple(sorted(weights)), tuple(sorted(degrees)))

    def __str__(self) -> str:
        w = ",".join(map(str, self.weights))
        if not self.degrees:
            return f"P^{{{w}}}"
        d = ",".join(map(str, self.degrees))
        return f"X^{{{w}}}_{{{d}}}"


def tk_numerators(gaps: Sequence) -> list:
    """T_k's roots times q = sum(gaps): 0 and the prefix sums of the lowest
    rotation (which makes T_k rotation invariant) of the gaps k_i + 1, as
    integer numerators c over q = sum(c) or as rationals with q = 1."""
    gaps = tuple(gaps)
    canon = min(gaps[j:] + gaps[:j] for j in range(len(gaps)))
    return [0, *accumulate(canon[:-1])]


def _shape(cs: Sequence[int], class_of: tuple[int, ...],
           symmetry: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """For the gaps cs[class_of[i]]: the classes of their lowest rotation but
    its last, whose prefix sums are ``tk_numerators``, and back, the least
    j >= 1 with the gaps rotated by -j (entry i is gaps[i - j]) symmetric.

    Both depend only on how the class values cs compare, as every
    comparison of two rotations, or of two entries, compares two of them."""
    n1 = len(class_of)
    vec = [cs[k] for k in class_of]
    j = min(range(n1), key=lambda j: vec[j:] + vec[:j])
    back = next(j for j in range(1, n1 + 1) if all(
        vec[a - j] == vec[b - j] for a, b in symmetry))
    return (class_of[j:] + class_of[:j])[:-1], back


def _order_pattern(c0: int, c1: int, c2: int) -> tuple[bool, ...]:
    """How the class values compare: the key of ``_order_table``."""
    return (c0 < c1, c0 < c2, c1 < c2, c0 == c1, c0 == c2, c1 == c2)


@lru_cache(maxsize=None)
def _order_table(case_id: str
                 ) -> MappingProxyType[tuple[bool, ...], tuple[itemgetter, int]]:
    """``_shape`` for each of the 13 weak orders of the case's class values,
    keyed by ``_order_pattern``, with the lowest rotation's classes as a
    getter of their values: found at the orders' rank representatives (the
    triples over 0, 1, 2 that use every rank up to their largest), which
    it holds for every triple of that order (cached per case, and
    read-only, as every caller shares it)."""
    desc = descriptor(case_id)
    table = {}
    for cs in product(range(3), repeat=3):
        if set(cs) == set(range(max(cs) + 1)):
            lowest, back = _shape(cs, desc.class_of, desc.symmetry)
            table[_order_pattern(*cs)] = itemgetter(*lowest), back
    return MappingProxyType(table)


def tk_from_k(k: KVector | Sequence[Fraction]) -> ThetaPoly:
    """The monic scalar operator attached to holomorphic data with N = 1.

    k is a ``KVector`` or a bare sequence k_0..k_n (a rotation of case
    data need not keep the case symmetry); its roots are the
    ``tk_numerators`` of the gaps k_i + 1.
    """
    # a KVector is itself a tuple, of (case, entries), so it is tested first
    entries = tuple(k.entries if isinstance(k, KVector) else k)
    if len(entries) + sum(entries) != 1:
        raise ValueError("tk_from_k requires N = 1")
    if any(e < -1 for e in entries):
        raise ValueError("tk_from_k requires all k_i >= -1")
    return theta_poly(tk_numerators(e + 1 for e in entries))


def _factor_roots(ns: Iterable[int], lcm: int) -> Counter:
    """The roots j/v (0 <= j < v) over every v in ns, as numerators over lcm."""
    return Counter(j for v in ns for j in range(0, lcm, lcm // v))


@lru_cache
def qdo_from_ci(spec: CISpec) -> ThetaPoly:
    """The monic theta-part of a weighted projective complete intersection's
    quantum differential operator, of degree sum(weights) - sum(degrees).

    Forms the ambient and hypersurface factor lists and left-divides by
    their common part, which is required to absorb the whole hypersurface
    factor.  The roots are counted as integer numerators over the lcm of
    the weights and degrees (cached: the catalog is constant).
    """
    lcm = math.lcm(*spec.weights, *spec.degrees)
    a_roots = _factor_roots(spec.weights, lcm)
    b_roots = _factor_roots(spec.degrees, lcm)
    if b_roots - a_roots:
        raise NotReducibleError(
            f"{spec}: hypersurface factor is not a sub-multiset of the ambient factor")
    return ThetaPoly(tuple((a_roots - b_roots).elements()), lcm)


def _mirror_closed(numerators: Sequence[int], q: int) -> bool:
    """Whether the multiset of exponents r/q, given as ascending numerators
    r >= 0, is closed under x -> 1 - x mod 1: the zeros map to themselves,
    and the nonzero part must map onto itself reversed."""
    tail = numerators[numerators.count(0):]
    return list(tail) == [q - r for r in reversed(tail)]


def check_G(t: ThetaPoly) -> bool:
    """Closure of the exponent multiset under x -> 1 - x taken modulo 1."""
    if not t.numerators or t.numerators[0] != 0:
        raise ValueError("operator must have smallest root 0")
    return _mirror_closed(t.numerators, t.q)


# --- Table of quantum cohomology interpretations ----------------------

def _p(*w):
    return CISpec(tuple(w))


def _x(w, d):
    return CISpec(tuple(w), tuple(d))


# per group: (top-edge entries in row order, left-edge entries in row order)
_CATALOG = {
    "4": (
        [_p(1, 1, 1, 1), _x((1, 1, 1, 6), (2, 3)), _x((1, 1, 4), (2,)),
         _p(1, 3), _p(2, 2)],
        [_p(1, 3), _x((1, 1, 4), (2,)), _x((1, 1, 1, 6), (2, 3)), _p(1, 1, 1, 1)],
    ),
    "5ab": (
        [_p(1, 1, 1, 1, 1), _x((1, 1, 1, 1, 6), (2, 3)), _x((1, 1, 1, 4), (2,)),
         _p(1, 1, 3), _p(1, 2, 2)],
        [_p(2, 3), _p(1, 4), _x((1, 1, 6), (3,)), _p(1, 1, 1, 2)],
    ),
    "5cde": (
        [_p(1, 1, 1, 2), _x((1, 1, 6), (3,)), _p(1, 4), _p(2, 3), _p(1, 2, 2)],
        [_p(1, 1, 3), _x((1, 1, 1, 4), (2,)), _x((1, 1, 1, 1, 6), (2, 3)),
         _p(1, 1, 1, 1, 1)],
    ),
    "6": (
        [_p(1, 1, 1, 1, 2), _x((1, 1, 1, 6), (3,)), _p(1, 1, 4), _p(1, 2, 3),
         _p(2, 2, 2)],
        [_p(1, 2, 3), _p(1, 1, 4), _x((1, 1, 1, 6), (3,)), _p(1, 1, 1, 1, 2)],
    ),
}


def catalog(group: str) -> list[tuple[CISpec, str, int]]:
    """Catalog of (space, block, row-within-block) for one case group."""
    top, left = _CATALOG[group]
    out = [(spec, "top-edge", i) for i, spec in enumerate(top)]
    out += [(spec, "left-edge", i) for i, spec in enumerate(left)]
    return out


# --- CI matching and the corollary verifier ---------------------------

def _match_numerators(numerators: Sequence[int], q: int,
                      weight_sum_bound: int) -> CISpec | None:
    """``match_ci`` on the roots r/q given as integer numerators r."""
    if min(numerators) < 0 or max(numerators) >= q:
        return None
    # the root multiplicity must be constant on each class {c/e : gcd(c, e) = 1},
    # the exponents of the primitive e-th roots of unity
    class_mult = cyclotomic_factors(numerators, q)
    if class_mult is None:
        return None
    # net count of weights-minus-degrees equal to e, by Moebius inversion;
    # sum(e * net[e]) = sum(phi(f) * class_mult[f]) is the number of roots
    support = {e for f in class_mult for e in range(1, f + 1) if f % e == 0}
    net: dict[int, int] = {}
    for e in sorted(support):
        total = sum(moebius(f // e) * m for f, m in class_mult.items() if f % e == 0)
        if total:
            net[e] = total
    weights = [e for e, c in net.items() for _ in range(c)]
    degrees = [e for e, c in net.items() for _ in range(-c)]
    if not weights or sum(weights) > weight_sum_bound:
        return None
    spec = CISpec(tuple(weights), tuple(degrees))
    # paranoia: the divisor-count argument is exact, but verify anyway
    assert qdo_from_ci(spec) == ThetaPoly(numerators, q)
    return spec


def match_ci(roots: Iterable[Fraction],
             weight_sum_bound: int) -> CISpec | None:
    """The minimal complete intersection whose operator has the given theta roots.

    The root multiset of a weight/degree factor list is determined by the
    divisor counts of the weights and degrees; matching reduces to a
    Moebius inversion over denominators.  Returns None when no weights
    and degrees reproduce the multiset with the weight sum within bound.
    """
    t = theta_poly(roots)
    return _match_numerators(t.numerators, t.q, weight_sum_bound)


class CorollaryReport(SimpleNamespace):
    """What ``verify_corollary`` found, filled in as it runs; reports with
    equal fields are equal."""

    def __init__(self, case: str, bound: int, forward_checked: int = 0,
                 forward_mismatches: list[str] | None = None,
                 converse_checked: int = 0,
                 converse_violations: list[str] | None = None,
                 flagged_non_ci: list[str] | None = None):
        super().__init__(
            case=case, bound=bound, forward_checked=forward_checked,
            forward_mismatches=[] if forward_mismatches is None else forward_mismatches,
            converse_checked=converse_checked,
            converse_violations=[] if converse_violations is None else converse_violations,
            flagged_non_ci=[] if flagged_non_ci is None else flagged_non_ci)

    @property
    def ok(self) -> bool:
        return not self.forward_mismatches and not self.converse_violations


def verify_corollary(case_id: str, search_bound: int,
                     corrupt_catalog: bool = False) -> CorollaryReport:
    """Check both directions of the integral-Stokes characterization.

    Forward: every catalog entry's operator equals lambda^{n+1} T_k - z of
    the matching integral-solution record.  Converse: over all gap vectors with
    common denominator <= search_bound that have a case-symmetric rotation
    and satisfy the two abstract-QDM conditions, non-integral Stokes data
    implies no complete intersection matches the operator.

    One pass over the case-symmetric vectors: for each q, one integer per
    symmetry class (every case has three) with the class-size-weighted sum
    q and gcd 1 with q (so each vector appears at its primitive denominator
    only) gives a symmetric vector s.  Only the triples (c0, c1, c2) with a
    zero, which condition Q asks for, are visited: for c0 = 0 every c1, else
    c1 = 0 and the c1 giving c2 = 0.  A candidate is read through its first
    case-symmetric rotation at or after its own index.  So s stands for
    itself and its rotations by -1, ..., -(back - 1), where back is the
    least j >= 1 with s rotated by -j (entry i is s[i - j]) case-symmetric:
    s counts back candidates, which share its T_k, its two conditions and
    its CI match (all rotation invariant) and are read through its Stokes
    data.  Every distinct gap vector is counted once, because the symmetric
    rotations of an orbit, each generated once, cut its cycle of distinct
    rotations into arcs that end one at each of them.

    How c0, c1 and c2 compare fixes both back and the lowest rotation of s,
    as each comparison of two rotations or two entries is one of the class
    values against another; so both are read from the case's table of the
    13 such order patterns (``_order_table``, which finds them once per case
    with ``_shape``), and T_k's roots are one prefix sum over the lowest
    rotation's classes.  They come out ascending, so check_G is the
    sort-free mirror test of ``_mirror_closed``.  Every vector passing both
    conditions gets ``stokes.k_gaps_stokes``, and every non-integral one
    ``_match_numerators``; a flagged operator's string is formatted once per
    distinct (T_k numerators, q).  The forward check compares the catalog
    entry's theta-part (``qdo_from_ci``) with its record's T_k; an operator
    has one root per power of lambda, so equal roots give equal powers.
    """
    from .enumeration import integral_solutions  # enumeration imports this module

    if search_bound < 6:
        raise ValueError("search_bound must be at least 6")
    desc = descriptor(case_id)
    n1 = desc.n_plus_1
    report = CorollaryReport(case_id, search_bound)

    by_block: dict[str, list] = {}
    for rec in integral_solutions(case_id):
        by_block.setdefault(rec.block, []).append(rec)
    for idx, (spec, block, pos) in enumerate(catalog(desc.group)):
        rec = by_block[block][pos]
        if corrupt_catalog and idx == 0:
            spec = CISpec((1,) * (n1 + 1))
        report.forward_checked += 1
        try:
            produced = qdo_from_ci(spec)
        except NotReducibleError:
            produced = None
        if produced != rec.tk:
            report.forward_mismatches.append(
                f"{spec} -> {produced and fmt_qdo(produced)} != {fmt_qdo(rec.tk)} "
                f"at {block}[{pos}]")

    weight_bound = search_bound * n1
    s0, s1, s2 = map(len, desc.classes)  # every case has three classes
    # the gap vector of the class values (n+1 >= 4, so a getter gives a tuple)
    spread = itemgetter(*desc.class_of)
    # by how c0, c1 and c2 compare: the values of the lowest rotation but
    # its last, and back
    shapes = _order_table(case_id)
    checked = 0
    flagged: set[tuple[tuple[int, ...], int]] = set()  # (T_k numerators, q)
    for q in range(1, search_bound + 1):
        # the primitive case-symmetric gap vectors c/q with a zero class, as
        # integer numerators c
        for c0 in range(q // s0 + 1):
            rest = q - c0 * s0
            c1s = (range(rest // s1 + 1) if c0 == 0
                   else (0,) if rest < s1 else (0, rest // s1))
            for c1 in c1s:
                c2, left = divmod(rest - c1 * s1, s2)
                if left or math.gcd(q, c0, c1, c2) != 1:
                    continue
                if c0 and c1 and c2:  # fails condition Q
                    continue
                cs = (c0, c1, c2)
                lowest, back = shapes[_order_pattern(c0, c1, c2)]
                roots = list(accumulate(lowest(cs), initial=0))  # T_k's roots r/q
                if not _mirror_closed(roots, q):
                    continue
                # vec stands for itself and its rotations by -1, -2, ... up to
                # the previous case-symmetric one, excluded (at -n1 at most)
                checked += back
                vec = spread(cs)
                if k_gaps_stokes(case_id, vec) is not None:
                    continue
                match = _match_numerators(roots, q, weight_bound)
                if match is None:
                    flagged.add((tuple(roots), q))
                else:
                    report.converse_violations += [
                        f"{_fmt_roots(roots, q)}: non-integral Stokes but "
                        f"matches {match}"] * back
    report.converse_checked = checked
    # one string per operator (different gap vectors can share one)
    report.flagged_non_ci = sorted({_fmt_roots(r, q) for r, q in flagged})
    return report

