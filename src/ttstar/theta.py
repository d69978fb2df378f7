"""Operator algebra in the Euler operator theta = z d/dz.

All operators in scope are lambda-graded products of linear factors
(theta - r) with rational r, minus z.  That covers the T_k operators
attached to holomorphic data and the quantum differential operators of
weighted projective complete intersections, which are built here by
multiset division of their factor lists.

The corollary verifier's converse sweep generates its candidate gap
vectors class by class from the case symmetry and visits each cyclic
rotation orbit once, instead of filtering every composition of the
denominator; the rotation-invariant work is done once per orbit.  It runs
on the integer numerators c of the gaps c/q: T_k's roots are prefix sums,
check_Q asks for a zero gap, check_G for closure under r -> -r mod q, and
integrality (``stokes.k_gaps_integral``) and the complete-intersection
match (``_match_numerators``, behind ``match_ci``) both read the
cyclotomic factors of the numerators (``exact.cyclotomic_factors``, which
states the lemma).  The operator strings (``_fmt_roots``, behind
``ThetaPoly.__str__``) take the same numerators over q, and the forward
check's ``qdo_from_ci`` counts its factor roots as integers over the lcm
of the weights and degrees.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Optional, Sequence

from .cases import KVector, descriptor
from .exact import cyclotomic_factors, moebius
from .stokes import k_gaps_integral


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

    def monic(self) -> "ThetaPoly":
        return ThetaPoly(Fraction(1), self.roots)

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


def _rotations(seq: tuple) -> list[tuple]:
    """The cyclic rotations of seq; entry j starts at position j.

    The canonical form of a cyclic sequence is min(_rotations(seq)).
    """
    return [seq[j:] + seq[:j] for j in range(len(seq))]


def tk_from_k(k: KVector | Sequence[Fraction]) -> ThetaPoly:
    """The monic scalar operator attached to holomorphic data with N = 1.

    k is a ``KVector`` or a bare sequence k_0..k_n (a rotation of case
    data need not keep the case symmetry).  The canonical (lexicographically
    lowest) rotation of k is chosen; the roots are 0 and the partial sums
    of the rotated (k_i + 1) sequence, so T_k is rotation invariant.
    """
    entries = tuple(k.entries if isinstance(k, KVector) else k)
    if len(entries) + sum(entries) != 1:
        raise ValueError("tk_from_k requires N = 1")
    if any(e < -1 for e in entries):
        raise ValueError("tk_from_k requires all k_i >= -1")
    roots = [Fraction(0)]
    for e in min(_rotations(entries))[:-1]:
        roots.append(roots[-1] + e + 1)
    return ThetaPoly(Fraction(1), tuple(roots))


def k_from_tk(t: ThetaPoly, n_plus_1: int) -> Counter:
    """Recover the cyclic multiset of (k_i + 1) gaps from a T_k operator."""
    if t.coeff != 1:
        raise ValueError("operator must be monic")
    if t.degree != n_plus_1:
        raise ValueError(f"degree {t.degree} != {n_plus_1}")
    roots = t.roots
    if roots[0] != 0 or any(not (0 <= r < 1) for r in roots):
        raise ValueError("roots must lie in [0, 1) with smallest root 0")
    gaps = [b - a for a, b in zip(roots, roots[1:])]
    gaps.append(1 - roots[-1])
    return Counter(gaps)


def _factor_roots(ns: Iterable[int], lcm: int) -> Counter:
    """The roots j/v (0 <= j < v) over every v in ns, as numerators over lcm."""
    return Counter(j for v in ns for j in range(0, lcm, lcm // v))


def qdo_from_ci(spec: CISpec) -> QDO:
    """Quantum differential operator of a weighted projective complete intersection.

    Forms the ambient and hypersurface factor lists and left-divides by
    their common part, which is required to absorb the whole hypersurface
    factor; scalar coefficients are normalized away.  The roots are
    counted as integer numerators over the lcm of the weights and degrees.
    """
    lcm = math.lcm(*spec.weights, *spec.degrees)
    a_roots = _factor_roots(spec.weights, lcm)
    b_roots = _factor_roots(spec.degrees, lcm)
    if b_roots - a_roots:
        raise NotReducibleError(
            f"{spec}: hypersurface factor is not a sub-multiset of the ambient factor")
    remaining = (a_roots - b_roots).elements()
    power = sum(spec.weights) - sum(spec.degrees)
    return QDO(power, ThetaPoly(Fraction(1), tuple(Fraction(r, lcm) for r in remaining)))


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

    The candidates are generated, not filtered: for each q, one integer per
    symmetry class with the class-size-weighted sum q and gcd 1 with q
    (so each vector appears at its primitive denominator only) gives a
    symmetric vector, whose rotation orbit is taken once.  T_k, the two
    conditions and the CI match are rotation invariant and computed once
    per orbit; the Stokes data once per distinct first symmetric rotation
    of the orbit's members, each member counting as one candidate.

    Everything runs on the integer numerators c of the gaps c/q.  The
    Stokes data at the slot angles a/q and b/q are integral exactly when
    the roots of unity exp(i*pi*(+-a)/q), exp(i*pi*(+-b)/q) form a product
    of cyclotomic polynomials; ``stokes.k_gaps_integral`` asks
    ``exact.cyclotomic_factors``, whose docstring states the lemma
    (Kronecker).  The complete-intersection match of a non-integral orbit
    (``_match_numerators``) reads its class multiplicities from the same
    routine, the strings of the reported uniform A_n and flagged operators
    (``_fmt_roots``) take the same numerators, and the forward check's
    ``qdo_from_ci`` counts roots as integers, making a ``Fraction`` only
    for each root of the operator it returns.
    """
    from .enumeration import integral_solutions  # enumeration imports this module

    if search_bound < 6:
        raise ValueError("search_bound must be at least 6")
    desc = descriptor(case_id)
    n1 = desc.n_plus_1
    report = CorollaryReport(case_id, search_bound)

    records = integral_solutions(case_id)
    by_block: dict[str, list] = {}
    for rec in records:
        by_block.setdefault(rec.block, []).append(rec)
    for idx, (spec, block, pos) in enumerate(catalog(desc.group)):
        rec = by_block[block][pos]
        expected = QDO(n1, rec.tk)
        if corrupt_catalog and idx == 0:
            spec = CISpec((1,) * (n1 + 1))
        try:
            produced = qdo_from_ci(spec)
        except NotReducibleError:
            produced = None
        report.forward_checked += 1
        if produced != expected:
            report.forward_mismatches.append(
                f"{spec} -> {produced} != {expected} at {block}[{pos}]")

    weight_bound = search_bound * n1
    classes = desc.classes
    for q in range(1, search_bound + 1):
        # gap vectors c/q as integer numerators c; each rotation orbit of a
        # primitive case-symmetric vector once, keyed by its canonical form
        orbits: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for counts in _class_compositions(q, [len(cls) for cls in classes]):
            if math.gcd(q, *counts) != 1:
                continue
            vec = [0] * n1
            for cls, c in zip(classes, counts):
                for i in cls:
                    vec[i] = c
            rots = _rotations(tuple(vec))
            orbits.setdefault(min(rots), rots)
        for canon, rots in orbits.items():
            # T_k's roots r/q: 0 and the prefix sums of the canonical rotation
            roots = [0]
            for c in canon[:-1]:
                roots.append(roots[-1] + c)
            if all(r * (n1 + 1) == j * q for j, r in enumerate(roots)):
                report.an_type.append(_fmt_roots(roots, q))
            if 0 not in canon or not _mirror_closed(roots[1:], q):
                continue
            # every distinct gap vector of the orbit is one candidate, read
            # through its first case-symmetric rotation: the first symmetric
            # entry of rots at or after its own index, cyclically (rots[0],
            # the generated vector, is symmetric)
            first = [0] * n1
            nxt = 0
            for i in range(n1 - 1, -1, -1):
                if all(rots[i][a] == rots[i][b] for a, b in desc.symmetry):
                    nxt = i
                first[i] = nxt
            period = next((j for j in range(1, n1) if rots[j] == rots[0]), n1)
            aligned = Counter(rots[first[i]] for i in range(period))
            report.converse_checked += period
            non_integral = sum(count for vec, count in aligned.items()
                               if not k_gaps_integral(case_id, vec))
            if not non_integral:
                continue
            tk = _fmt_roots(roots, q)
            match = _match_numerators(roots, q, n1, weight_bound)
            if match is not None:
                report.converse_violations += [
                    f"{tk}: non-integral Stokes but matches {match}"] * non_integral
            else:
                report.flagged_non_ci.append(tk)
    # dedupe flags (different gap vectors can share one operator)
    report.flagged_non_ci = sorted(set(report.flagged_non_ci))
    report.an_type = sorted(set(report.an_type))
    return report


def _class_compositions(total: int, sizes: list[int]):
    """All tuples c of nonnegative integers with sum(c[r] * sizes[r]) == total."""
    if len(sizes) == 1:
        if total % sizes[0] == 0:
            yield (total // sizes[0],)
        return
    for first in range(total // sizes[0] + 1):
        for rest in _class_compositions(total - first * sizes[0], sizes[1:]):
            yield (first,) + rest
