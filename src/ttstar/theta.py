"""Operator algebra in the Euler operator theta = z d/dz.

All operators in scope are lambda-graded products of linear factors
(theta - r) with rational r, minus z.  That covers the T_k operators
attached to holomorphic data and the quantum differential operators of
weighted projective complete intersections, which are built here by
multiset division of their factor lists.

The corollary verifier's converse sweep is one pass over the primitive
case-symmetric gap vectors with a zero class (check_Q asks for a zero
gap), one integer per class of equal k_i, each counting the rotations
back to the previous symmetric one.  It runs on the integer numerators c
of the gaps c/q: T_k's roots are the prefix sums of the lowest rotation
(``tk_numerators``, which the tables and ``tk_from_k`` use too), check_G
asks for closure under r -> -r mod q, and integrality
(``stokes.k_gaps_stokes``) and the complete-intersection match
(``_match_numerators``, behind ``match_ci``) both read the cyclotomic
factors of the numerators (``exact.cyclotomic_factors``, which states
the lemma).  The operator strings (``_fmt_roots``, behind
``ThetaPoly.__str__``) take the same numerators over q.  The forward
check compares integer root numerators too: a catalog entry's over the
lcm of its weights and degrees (``_ci_numerators``, behind
``qdo_from_ci``) against its record's T_k roots over theirs
(``_qdo_matches``); operators are built only to report a mismatch.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby
from typing import Iterable, Optional, Sequence

from .cases import KVector, descriptor
from .exact import cyclotomic_factors, moebius
from .stokes import k_gaps_stokes


class NotReducibleError(ValueError):
    """The hypersurface factor does not divide the ambient-space factor."""


def _fmt_ratio(r: int, q: int) -> str:
    """r/q in lowest terms, without a denominator of 1."""
    g = math.gcd(r, q)
    return str(r // g) if g == q else f"{r // g}/{q // g}"


def _fmt_roots(numerators: Iterable[int], q: int) -> str:
    """prod (theta - r/q) over the multiset of numerators, e.g. "θ^2(θ-1/6)"."""
    parts = []
    for r, run in groupby(sorted(numerators)):
        mult = len(list(run))
        parts.append(("θ" if r == 0 else f"(θ-{_fmt_ratio(r, q)})")
                     + (f"^{mult}" if mult > 1 else ""))
    return "".join(parts)


def _numerators(roots: Sequence[Fraction]) -> tuple[list[int], int]:
    """The roots as integer numerators over their common denominator q."""
    q = math.lcm(*(r.denominator for r in roots))
    return [r.numerator * (q // r.denominator) for r in roots], q


@dataclass(frozen=True)
class ThetaPoly:
    """coeff * prod (theta - r) over the sorted multiset of roots."""

    coeff: Fraction
    roots: tuple[Fraction, ...]

    def __post_init__(self):
        if self.coeff == 0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "roots", tuple(sorted(self.roots)))

    @property
    def degree(self) -> int:
        return len(self.roots)

    def __str__(self) -> str:
        coeff = _fmt_ratio(self.coeff.numerator, self.coeff.denominator)
        body = _fmt_roots(*_numerators(self.roots))
        if self.coeff != 1:
            return coeff + "*" + body
        return body or coeff


def theta_poly(roots: Iterable, coeff=Fraction(1)) -> ThetaPoly:
    return ThetaPoly(Fraction(coeff), tuple(Fraction(r) for r in roots))


@dataclass(frozen=True)
class QDO:
    """The operator lambda^h * theta_poly(theta) - z, coefficient-normalized."""

    lambda_power: int
    theta: ThetaPoly

    def __post_init__(self):
        if self.lambda_power < 0:
            raise ValueError("lambda power must be nonnegative")
        if self.theta.coeff != 1:
            raise ValueError("QDO theta part must be monic")

    def __str__(self) -> str:
        return f"λ^{self.lambda_power} {self.theta} - z"


@dataclass(frozen=True)
class CISpec:
    """A complete intersection of the given degrees in weighted projective space."""

    weights: tuple[int, ...]
    degrees: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.weights or any(v < 1 for v in self.weights):
            raise ValueError("weights must be a nonempty list of positive integers")
        if any(d < 1 for d in self.degrees):
            raise ValueError("degrees must be positive integers")
        if sum(self.weights) <= sum(self.degrees):
            raise ValueError("sum of weights must exceed sum of degrees")
        object.__setattr__(self, "weights", tuple(sorted(self.weights)))
        object.__setattr__(self, "degrees", tuple(sorted(self.degrees)))

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


def tk_from_k(k: KVector | Sequence[Fraction]) -> ThetaPoly:
    """The monic scalar operator attached to holomorphic data with N = 1.

    k is a ``KVector`` or a bare sequence k_0..k_n (a rotation of case
    data need not keep the case symmetry); its roots are the
    ``tk_numerators`` of the gaps k_i + 1.
    """
    entries = tuple(k.entries if isinstance(k, KVector) else k)
    if len(entries) + sum(entries) != 1:
        raise ValueError("tk_from_k requires N = 1")
    if any(e < -1 for e in entries):
        raise ValueError("tk_from_k requires all k_i >= -1")
    roots = tk_numerators(e + 1 for e in entries)
    return ThetaPoly(Fraction(1), tuple(map(Fraction, roots)))


def _factor_roots(ns: Iterable[int], lcm: int) -> Counter:
    """The roots j/v (0 <= j < v) over every v in ns, as numerators over lcm."""
    return Counter(j for v in ns for j in range(0, lcm, lcm // v))


@lru_cache
def _ci_numerators(spec: CISpec) -> tuple[tuple[int, ...], int]:
    """The theta roots of spec's QDO as integer numerators over the lcm of
    its weights and degrees (cached: the catalog is constant): the ambient
    factor's roots less the hypersurface factor's, which must all be among
    them."""
    lcm = math.lcm(*spec.weights, *spec.degrees)
    a_roots = _factor_roots(spec.weights, lcm)
    b_roots = _factor_roots(spec.degrees, lcm)
    if b_roots - a_roots:
        raise NotReducibleError(
            f"{spec}: hypersurface factor is not a sub-multiset of the ambient factor")
    return tuple(sorted((a_roots - b_roots).elements())), lcm


def qdo_from_ci(spec: CISpec) -> QDO:
    """Quantum differential operator of a weighted projective complete intersection.

    Forms the ambient and hypersurface factor lists and left-divides by
    their common part, which is required to absorb the whole hypersurface
    factor; scalar coefficients are normalized away.  The roots are
    counted as integer numerators over the lcm of the weights and degrees
    (``_ci_numerators``).
    """
    numerators, lcm = _ci_numerators(spec)
    power = sum(spec.weights) - sum(spec.degrees)
    roots = tuple(Fraction(r, lcm) for r in numerators)
    return QDO(power, ThetaPoly(Fraction(1), roots))


def check_Q(k_gaps: Counter | Iterable) -> bool:
    """At least one vanishing gap (nonzero second cohomology of the target)."""
    gaps = Counter(k_gaps) if not isinstance(k_gaps, Counter) else k_gaps
    if any(g < 0 for g in gaps):
        raise ValueError("gaps must be nonnegative")
    if sum(gaps.elements()) != 1:
        raise ValueError("gaps must sum to 1")
    return gaps[Fraction(0)] > 0


def _mirror_closed(numerators: Sequence[int], q: int) -> bool:
    """Whether the multiset of exponents r/q is closed under x -> 1 - x mod 1."""
    return sorted(numerators) == sorted(-r % q for r in numerators)


def check_G(t: ThetaPoly) -> bool:
    """Closure of the exponent multiset under x -> 1 - x taken modulo 1."""
    if t.coeff != 1 or not t.roots or t.roots[0] != 0:
        raise ValueError("operator must be monic with smallest root 0")
    numerators, q = _numerators(t.roots)
    return _mirror_closed(numerators[1:], q)


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

def _match_numerators(numerators: Sequence[int], q: int, n_plus_1: int,
                      weight_sum_bound: int) -> Optional[CISpec]:
    """``match_ci`` on the roots r/q given as integer numerators r."""
    if len(numerators) != n_plus_1:
        raise ValueError("root multiset size must equal the theta degree")
    if any(not (0 <= r < q) for r in numerators):
        return None
    # the root multiplicity must be constant on each class {c/e : gcd(c, e) = 1},
    # the exponents of the primitive e-th roots of unity
    class_mult = cyclotomic_factors(numerators, q)
    if class_mult is None:
        return None
    # net count of weights-minus-degrees equal to e, by Moebius inversion
    support = {e for f in class_mult for e in range(1, f + 1) if f % e == 0}
    net: dict[int, int] = {}
    for e in sorted(support):
        total = sum(moebius(f // e) * m for f, m in class_mult.items() if f % e == 0)
        if total:
            net[e] = total
    if sum(e * c for e, c in net.items()) != n_plus_1:
        return None
    weights = [e for e, c in net.items() for _ in range(c)]
    degrees = [e for e, c in net.items() for _ in range(-c)]
    if not weights or sum(weights) > weight_sum_bound:
        return None
    spec = CISpec(tuple(weights), tuple(degrees))
    # paranoia: the divisor-count argument is exact, but verify anyway
    produced = qdo_from_ci(spec)
    assert sorted(r * q for r in produced.theta.roots) == sorted(numerators)
    assert produced.lambda_power == n_plus_1
    return spec


def _qdo_matches(spec: CISpec, n_plus_1: int, tk: ThetaPoly) -> bool:
    """Whether ``qdo_from_ci(spec) == QDO(n_plus_1, tk)``, decided on integer
    root numerators: spec's over its lcm, tk's over their common denominator.

    The QDO of spec has as many roots as its lambda power, so equal root
    multisets of the n_plus_1 roots of tk also give equal powers.
    """
    try:
        numerators, lcm = _ci_numerators(spec)
    except NotReducibleError:
        return False
    roots, q = _numerators(tk.roots)
    # both lists are sorted, and scaling by a positive integer keeps the order
    return [r * q for r in numerators] == [r * lcm for r in roots]


def match_ci(roots: Iterable[Fraction], n_plus_1: int,
             weight_sum_bound: int) -> Optional[CISpec]:
    """The minimal complete intersection whose QDO has the given theta roots.

    The root multiset of a weight/degree factor list is determined by the
    divisor counts of the weights and degrees; matching reduces to a
    Moebius inversion over denominators.  Returns None when no weights
    and degrees reproduce the multiset with the weight sum within bound.
    """
    numerators, q = _numerators([Fraction(r) for r in roots])
    return _match_numerators(numerators, q, n_plus_1, weight_sum_bound)


@dataclass
class CorollaryReport:
    case: str
    bound: int
    forward_checked: int = 0
    forward_mismatches: list[str] = field(default_factory=list)
    converse_checked: int = 0
    converse_violations: list[str] = field(default_factory=list)
    flagged_non_ci: list[str] = field(default_factory=list)
    an_type: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.forward_mismatches and not self.converse_violations


def verify_corollary(case_id: str, search_bound: int,
                     corrupt_catalog: bool = False) -> CorollaryReport:
    """Check both directions of the integral-Stokes characterization.

    Forward: every catalog entry's QDO equals lambda^{n+1} T_k - z of the
    matching integral-solution record.  Converse: over all gap vectors with
    common denominator <= search_bound that have a case-symmetric rotation
    and satisfy the two abstract-QDM conditions, non-integral Stokes data
    implies no complete intersection matches the operator.

    One pass over the case-symmetric vectors: for each q, one integer per
    symmetry class (every case has three) with the class-size-weighted sum
    q and gcd 1 with q (so each vector appears at its primitive denominator
    only) gives a symmetric vector s.  Only the triples (c0, c1, c2) with a
    zero, which check_Q asks for, are visited: for c0 = 0 every c1, else
    c1 = 0 and the c1 giving c2 = 0; at q = n+2, for the uniform A_n, every
    triple.  A candidate is read through its first case-symmetric rotation
    at or after its own index.  So s stands for itself and its rotations by
    -1, ..., -(back - 1), where back is the least j >= 1 with s rotated by
    -j (entry i is s[i - j]) case-symmetric: s counts back candidates,
    which share its T_k, its two conditions and its CI match (all rotation
    invariant) and are read through its Stokes data.  Every distinct gap
    vector is counted once, because the symmetric rotations of an orbit,
    each generated once, cut its cycle of distinct rotations into arcs that
    end one at each of them.  Which classes are equal fixes back, so it is
    searched once per such pattern and call.

    Every vector passing both conditions gets ``stokes.k_gaps_stokes``, and
    every non-integral one ``_match_numerators``; a flagged operator's
    string is formatted once per distinct (T_k numerators, q).  The forward
    check compares integer root numerators (``_qdo_matches``), building the
    two operators only for the message of a mismatch.
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
        if not _qdo_matches(spec, n1, rec.tk):
            try:
                produced = qdo_from_ci(spec)
            except NotReducibleError:
                produced = None
            report.forward_mismatches.append(
                f"{spec} -> {produced} != {QDO(n1, rec.tk)} at {block}[{pos}]")

    weight_bound = search_bound * n1
    classes = desc.classes
    s0, s1, s2 = map(len, classes)  # every case has three classes
    slot = [next(k for k, cls in enumerate(classes) if i in cls) for i in range(n1)]
    backs: dict[tuple[bool, bool, bool], int] = {}  # by which classes are equal
    flagged: set[tuple[tuple[int, ...], int]] = set()  # (T_k numerators, q)
    for q in range(1, search_bound + 1):
        # the primitive case-symmetric gap vectors c/q with a zero class, as
        # integer numerators c, and every one at q = n+2
        for c0 in range(q // s0 + 1):
            rest = q - c0 * s0
            c1s = (range(rest // s1 + 1) if c0 == 0 or q == n1 + 1
                   else (0,) if rest < s1 else (0, rest // s1))
            for c1 in c1s:
                c2, left = divmod(rest - c1 * s1, s2)
                if left or math.gcd(q, c0, c1, c2) != 1:
                    continue
                if c0 and c1 and c2:  # fails check_Q
                    # n+1 positive gaps with sum n+2 are 1, ..., 1, 2 in their
                    # lowest rotation: T_k's roots j/(n+2), the uniform A_n
                    if q == n1 + 1:
                        report.an_type.append(_fmt_roots(range(n1), q))
                    continue
                vec = [(c0, c1, c2)[k] for k in slot]
                roots = tk_numerators(vec)  # T_k's roots r/q
                if not _mirror_closed(roots[1:], q):
                    continue
                # vec stands for itself and its rotations by -1, -2, ... up to
                # the previous case-symmetric one, excluded (at -n1 at most)
                pattern = (c0 == c1, c0 == c2, c1 == c2)
                if pattern not in backs:
                    backs[pattern] = next(j for j in range(1, n1 + 1) if all(
                        vec[a - j] == vec[b - j] for a, b in desc.symmetry))
                back = backs[pattern]
                report.converse_checked += back
                if k_gaps_stokes(case_id, vec) is not None:
                    continue
                match = _match_numerators(roots, q, n1, weight_bound)
                if match is None:
                    flagged.add((tuple(roots), q))
                else:
                    report.converse_violations += [
                        f"{_fmt_roots(roots, q)}: non-integral Stokes but "
                        f"matches {match}"] * back
    # one string per operator (different gap vectors can share one)
    report.flagged_non_ci = sorted({_fmt_roots(r, q) for r, q in flagged})
    report.an_type = sorted(set(report.an_type))
    return report

