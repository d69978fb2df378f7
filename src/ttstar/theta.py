"""Operator algebra in the Euler operator theta = z d/dz.

All operators in scope are lambda-graded products of linear factors
(theta - r) with rational r, minus z.  That covers the T_k operators
attached to holomorphic data and the quantum differential operators of
weighted projective complete intersections, which are built here by
multiset division of their factor lists.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .cases import KVector


class NotReducibleError(ValueError):
    """The hypersurface factor does not divide the ambient-space factor."""


def _fmt_root(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


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
        parts = []
        if self.coeff != 1:
            parts.append(_fmt_root(self.coeff) + "*")
        for r, mult in sorted(Counter(self.roots).items()):
            if r == 0:
                base = "θ"
            else:
                base = f"(θ-{_fmt_root(r)})"
            parts.append(base + (f"^{mult}" if mult > 1 else ""))
        return "".join(parts) or _fmt_root(self.coeff)


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


def tk_from_k(k: KVector) -> ThetaPoly:
    """The monic scalar operator attached to holomorphic data with N = 1.

    The cyclic rotation of k starting at the lexicographically lowest
    position is chosen; the roots are 0 and the partial sums of the
    rotated (k_i + 1) sequence.
    """
    if k.N != 1:
        raise ValueError("tk_from_k requires N = 1")
    if not k.admissible:
        raise ValueError("tk_from_k requires all k_i >= -1")
    entries = k.entries
    n1 = len(entries)
    rotations = [tuple(entries[(j + t) % n1] for t in range(n1)) for j in range(n1)]
    best = min(rotations)
    gaps = [e + 1 for e in best]
    roots = [Fraction(0)]
    acc = Fraction(0)
    for g in gaps[:-1]:
        acc += g
        roots.append(acc)
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


def _factor_roots(ns: Iterable[int]) -> Counter:
    out: Counter = Counter()
    for v in ns:
        for j in range(v):
            out[Fraction(j, v)] += 1
    return out


def qdo_from_ci(spec: CISpec) -> QDO:
    """Quantum differential operator of a weighted projective complete intersection.

    Forms the ambient and hypersurface factor lists and left-divides by
    their common part, which is required to absorb the whole hypersurface
    factor; scalar coefficients are normalized away.
    """
    a_roots = _factor_roots(spec.weights)
    b_roots = _factor_roots(spec.degrees)
    if b_roots - a_roots:
        raise NotReducibleError(
            f"{spec}: hypersurface factor is not a sub-multiset of the ambient factor")
    remaining = a_roots - b_roots
    power = sum(spec.weights) - sum(spec.degrees)
    return QDO(power, ThetaPoly(Fraction(1), tuple(remaining.elements())))


def check_Q(k_gaps: Counter | Iterable) -> bool:
    """At least one vanishing gap (nonzero second cohomology of the target)."""
    gaps = Counter(k_gaps) if not isinstance(k_gaps, Counter) else k_gaps
    if any(g < 0 for g in gaps):
        raise ValueError("gaps must be nonnegative")
    if sum(gaps.elements()) != 1:
        raise ValueError("gaps must sum to 1")
    return gaps[Fraction(0)] > 0


def check_G(t: ThetaPoly) -> bool:
    """Closure of the exponent multiset under x -> 1 - x taken modulo 1."""
    if t.coeff != 1 or not t.roots or t.roots[0] != 0:
        raise ValueError("operator must be monic with smallest root 0")
    exponents = Counter(t.roots[1:])
    mirrored = Counter((1 - x) % 1 for x in exponents.elements())
    return exponents == mirrored


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

def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _moebius(n: int) -> int:
    mu, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
        p += 1
    if m > 1:
        mu = -mu
    return mu


def match_ci(roots: Iterable[Fraction], n_plus_1: int,
             weight_sum_bound: int) -> Optional[CISpec]:
    """The minimal complete intersection whose QDO has the given theta roots.

    The root multiset of a weight/degree factor list is determined by the
    divisor counts of the weights and degrees; matching reduces to a
    Moebius inversion over denominators.  Returns None when no weights
    and degrees reproduce the multiset with the weight sum within bound.
    """
    roots = Counter(Fraction(r) for r in roots)
    if sum(roots.values()) != n_plus_1:
        raise ValueError("root multiset size must equal the theta degree")
    # multiplicity must be constant on each class {c/e : gcd(c, e) = 1}
    class_mult: dict[int, int] = {}
    dens = sorted({r.denominator for r in roots})
    for e in dens:
        mults = {roots[Fraction(c, e)]
                 for c in range(e) if math.gcd(c, e) == 1 and (c or e == 1)}
        if len(mults) != 1:
            return None
        class_mult[e] = mults.pop()
    if any(not (0 <= r < 1) for r in roots):
        return None
    # net count of weights-minus-degrees equal to e, by Moebius inversion
    support = sorted({f for e in class_mult for f in _divisors(e)} | set(class_mult))
    net: dict[int, int] = {}
    for e in support:
        total = 0
        for f in class_mult:
            if f % e == 0:
                total += _moebius(f // e) * class_mult[f]
        if total:
            net[e] = total
    if sum(e * c for e, c in net.items()) != n_plus_1:
        return None
    weights = []
    degrees = []
    for e, c in sorted(net.items()):
        if c > 0:
            weights.extend([e] * c)
        else:
            degrees.extend([e] * (-c))
    if not weights or sum(weights) > weight_sum_bound:
        return None
    spec = CISpec(tuple(weights), tuple(degrees))
    # paranoia: the divisor-count argument is exact, but verify anyway
    produced = qdo_from_ci(spec)
    assert Counter(produced.theta.roots) == roots
    assert produced.lambda_power == n_plus_1
    return spec


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


def _case_symmetric_rotations(gaps: tuple[Fraction, ...], symmetry) -> bool:
    n1 = len(gaps)
    for j in range(n1):
        rot = tuple(gaps[(j + t) % n1] for t in range(n1))
        if all(rot[i] == rot[jj] for i, jj in symmetry):
            return True
    return False


def verify_corollary(case_id: str, search_bound: int,
                     corrupt_catalog: bool = False) -> CorollaryReport:
    """Check both directions of the integral-Stokes characterization.

    Forward: every catalog entry's QDO equals lambda^{n+1} T_k - z of the
    matching integral-solution record.  Converse (desk scale): over all
    case-symmetric gap vectors with common denominator <= search_bound
    satisfying the two abstract-QDM conditions, non-integral Stokes data
    implies no complete intersection matches the operator.
    """
    from .cases import KVector, descriptor
    from .enumeration import integral_solutions
    from .stokes import stokes_from_k

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
    uniform_an = theta_poly([Fraction(j, n1 + 1) for j in range(n1)])
    seen: set[tuple[Fraction, ...]] = set()
    for q in range(1, search_bound + 1):
        for comp in _compositions(q, n1):
            gaps = tuple(Fraction(c, q) for c in comp)
            if gaps in seen:
                continue
            seen.add(gaps)
            if not _case_symmetric_rotations(gaps, desc.symmetry):
                continue
            tk = _tk_from_gaps(gaps)
            gap_counter = Counter(gaps)
            if tk == uniform_an:
                report.an_type.append(str(tk))
            if not (check_Q(gap_counter) and check_G(tk)):
                continue
            kvec = _aligned_kvector(case_id, gaps, desc.symmetry)
            s = stokes_from_k(kvec)
            report.converse_checked += 1
            if s.integral() is None:
                match = match_ci(tk.roots, n1, weight_bound)
                if match is not None:
                    report.converse_violations.append(
                        f"{tk}: non-integral Stokes but matches {match}")
                else:
                    report.flagged_non_ci.append(str(tk))
    # dedupe flags (different gap vectors can share one operator)
    report.flagged_non_ci = sorted(set(report.flagged_non_ci))
    report.an_type = sorted(set(report.an_type))
    return report


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _tk_from_gaps(gaps: tuple[Fraction, ...]) -> ThetaPoly:
    n1 = len(gaps)
    ks = tuple(g - 1 for g in gaps)
    best = min(tuple(ks[(j + t) % n1] for t in range(n1)) for j in range(n1))
    roots = [Fraction(0)]
    acc = Fraction(0)
    for g in best[:-1]:
        acc += g + 1
        roots.append(acc)
    return ThetaPoly(Fraction(1), tuple(roots))


def _aligned_kvector(case_id: str, gaps: tuple[Fraction, ...], symmetry) -> KVector:
    n1 = len(gaps)
    for j in range(n1):
        rot = tuple(gaps[(j + t) % n1] for t in range(n1))
        if all(rot[i] == rot[jj] for i, jj in symmetry):
            return KVector(case_id, tuple(g - 1 for g in rot))
    raise ValueError("gap vector does not satisfy the case symmetry")
