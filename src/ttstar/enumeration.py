"""Enumeration of the solutions with integral Stokes data.

The generator is a sweep over pairs of a finite cosine dictionary: if
both m = 2cos(a) - 2cos(b) and p = 4cos(a)cos(b) are integers, then
2cos(a) and -2cos(b) are the roots of t^2 - m t - p, a monic integer
quadratic with both roots in [-2, 2], hence (Kronecker) twice cosines of
rational multiples of pi of degree at most 2.  The dictionary holds all
such cosines, so one integrality decision per dictionary pair, made on
integer angles by ``exact.cyclotomic_factors`` (which states the lemma),
recovers the full candidate set without reference to any published list.
The quadratics' range (-4 <= m, p <= 4, m^2 + 4p >= 0) is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, lcm
from typing import Optional, Sequence

from .cases import AsymptoticData, KVector, descriptor, in_region, k_to_asymptotic
from .exact import AlgReal, cos2, cyclotomic_factors, moebius
from .stokes import GROUP_FORMULAS, StokesData, stokes_from_k
from .theta import ThetaPoly, tk_from_k

BLOCKS = ("top-edge", "left-edge", "diagonal-edge", "center-line", "other-interior")


@dataclass(frozen=True)
class CosPair:
    x: AlgReal
    y: AlgReal
    a_label: Fraction
    b_label: Fraction
    # the integers m = x - y and p = x*y
    m: int
    p: int


@dataclass(frozen=True)
class SolutionRecord:
    case: str
    a_label: Fraction
    b_label: Fraction
    asymptotic: AsymptoticData
    stokes: StokesData
    stokes_int: tuple[int, int]
    k: KVector
    tk: ThetaPoly
    block: str


@lru_cache(maxsize=1)
def _cos_dictionary() -> tuple[tuple[Fraction, AlgReal], ...]:
    """2cos(pi*j/q) for all labels j/q in [0,1] with q <= 6."""
    labels = sorted({Fraction(j, q) for q in range(1, 7) for j in range(q + 1)})
    return tuple((lab, cos2(lab)) for lab in labels)


def _root_sum(exponents: Sequence[int], n: int) -> Optional[int]:
    """The sum of the roots zeta_n^e, or None when they are not a product of
    cyclotomic polynomials: the primitive d-th roots of unity sum to mu(d)."""
    factors = cyclotomic_factors(exponents, n)
    if factors is None:
        return None
    return sum(m * moebius(d) for d, m in factors.items())


@lru_cache(maxsize=1)
def enumerate_cos_pairs() -> tuple[CosPair, ...]:
    """All (a, b) in [0, pi]^2 with 2cos a - 2cos b and 4cos a cos b integral.

    Each pair of labels, in label order, is put over the lcm h of their
    denominators as x = 2cos(pi*a/h) and -y = 2cos(pi*b/h).  Then m = x - y
    is the root sum of {+-a, +-b} mod 2h, None when not integral, and
    p = x*y = -(2cos(pi(a+b)/h) + 2cos(pi(a-b)/h)).
    """
    dictionary = _cos_dictionary()
    pairs = []
    for la, x in dictionary:
        for lb, y in dictionary:
            h = lcm(la.denominator, lb.denominator)
            a = la.numerator * (h // la.denominator)
            b = lb.numerator * (h // lb.denominator) + h
            m = _root_sum((a, -a, b, -b), 2 * h)
            if m is None:
                continue
            p = -_root_sum((a + b, -a - b, a - b, b - a), 2 * h)
            assert -4 <= m <= 4 and -4 <= p <= 4 and m * m + 4 * p >= 0
            pairs.append(CosPair(x, y, la, lb, m, p))
    return tuple(pairs)


def admissible_points() -> list[tuple[Fraction, Fraction]]:
    """The cosine pairs compatible with nonnegative gaps summing to 1."""
    return [(c.a_label, c.b_label) for c in enumerate_cos_pairs()
            if c.a_label + c.b_label <= 1]


# Canonical row order of the published tables: the five blocks, each with
# a fixed label sequence (top and diagonal sweep a downward/upward along
# the respective edge; the paper fixes the rest by printing order).
_BLOCK_ORDER: tuple[tuple[str, tuple[tuple[Fraction, Fraction], ...]], ...] = (
    ("top-edge", ((Fraction(1), Fraction(0)), (Fraction(2, 3), Fraction(0)),
                  (Fraction(1, 2), Fraction(0)), (Fraction(1, 3), Fraction(0)),
                  (Fraction(0), Fraction(0)))),
    ("left-edge", ((Fraction(0), Fraction(1, 3)), (Fraction(0), Fraction(1, 2)),
                   (Fraction(0), Fraction(2, 3)), (Fraction(0), Fraction(1)))),
    ("diagonal-edge", ((Fraction(1, 3), Fraction(2, 3)),
                       (Fraction(1, 2), Fraction(1, 2)),
                       (Fraction(2, 3), Fraction(1, 3)))),
    ("center-line", ((Fraction(1, 3), Fraction(1, 3)),
                     (Fraction(1, 4), Fraction(1, 4)),
                     (Fraction(1, 6), Fraction(1, 6)))),
    ("other-interior", ((Fraction(1, 2), Fraction(1, 3)),
                        (Fraction(2, 5), Fraction(1, 5)),
                        (Fraction(1, 5), Fraction(2, 5)),
                        (Fraction(1, 3), Fraction(1, 2)))),
)


def classify_block(case_id: str, a: AsymptoticData) -> str:
    """Block of the five-block table partition, from (gamma, delta) alone."""
    desc = descriptor(case_id)
    ea, eb = desc.ab
    if a.delta == Fraction(2, eb):
        return "top-edge"
    if a.gamma == Fraction(-2, ea):
        return "left-edge"
    if a.gamma - a.delta == 2:
        return "diagonal-edge"
    if a.gamma + a.delta == desc.center_sum:
        return "center-line"
    return "other-interior"


def k_from_labels(case_id: str, a_label: Fraction, b_label: Fraction) -> KVector:
    """Holomorphic data with N = 1 for one admissible cosine-pair point."""
    desc = descriptor(case_id)
    mk, ml = desc.angle_mult
    ki, li = desc.kl_index
    # each symmetry class takes the gap of the slot it holds; the one class
    # holding neither slot shares what is left of the sum 1
    slot_gap = {ki: a_label / mk, li: b_label / ml}
    gaps: list[Fraction] = [Fraction(0)] * desc.n_plus_1
    free = []
    for cls in desc.classes:
        known = [slot_gap[i] for i in cls if i in slot_gap]
        if known:
            for i in cls:
                gaps[i] = known[0]
        else:
            free += cls
    fill = (1 - sum(gaps)) / len(free)
    for i in free:
        gaps[i] = fill
    assert sum(gaps) == 1
    return KVector(case_id, tuple(g - 1 for g in gaps))


@lru_cache(maxsize=None)
def integral_solutions(case_id: str) -> tuple[SolutionRecord, ...]:
    """The 19 complete solution records of one case, in table order."""
    admissible = set(admissible_points())
    records = []
    for block, labels in _BLOCK_ORDER:
        for a_label, b_label in labels:
            assert (a_label, b_label) in admissible
            k = k_from_labels(case_id, a_label, b_label)
            asym = k_to_asymptotic(k)
            stokes = stokes_from_k(k)
            ints = stokes.integral()
            if ints is None:
                raise AssertionError(
                    f"non-integral Stokes data at {case_id} {(a_label, b_label)}")
            assert in_region(case_id, asym) and k.admissible
            derived_block = classify_block(case_id, asym)
            assert derived_block == block, (case_id, a_label, b_label, derived_block)
            records.append(SolutionRecord(
                case_id, a_label, b_label, asym, stokes, ints, k,
                tk_from_k(k), block))
    assert len(records) == 19
    return tuple(records)


# --- brute-force completeness sweep -----------------------------------

_NIVEN = {
    Fraction(0): 2, Fraction(1, 3): 1, Fraction(1, 2): 0,
    Fraction(2, 3): -1, Fraction(1): -2,
}

# quadratic irrational cosines: label -> (field discriminant tag, a, b)
# with value a + b*sqrt(D)
_QUAD = {
    Fraction(1, 4): (2, Fraction(0), Fraction(1)),
    Fraction(3, 4): (2, Fraction(0), Fraction(-1)),
    Fraction(1, 6): (3, Fraction(0), Fraction(1)),
    Fraction(5, 6): (3, Fraction(0), Fraction(-1)),
    Fraction(1, 5): (5, Fraction(1, 2), Fraction(1, 2)),
    Fraction(2, 5): (5, Fraction(-1, 2), Fraction(1, 2)),
    Fraction(3, 5): (5, Fraction(1, 2), Fraction(-1, 2)),
    Fraction(4, 5): (5, Fraction(-1, 2), Fraction(-1, 2)),
}


def _cos_class(r: Fraction):
    """Classify 2cos(pi*r): integer value, quadratic surd, or degree >= 3.

    Degree >= 3 values (returned as None) can never contribute integral
    Stokes data: x + y and x*y integral force x to satisfy a monic
    integer quadratic.
    """
    r = r % 2
    if r > 1:
        r = 2 - r
    if r in _NIVEN:
        return ("int", _NIVEN[r])
    if r in _QUAD:
        return ("quad", _QUAD[r])
    return None


def _pair_integral(cx, cy) -> bool:
    """Exact test of x + y (equivalently x - y) and x*y both integral."""
    if cx[0] == "int" and cy[0] == "int":
        return True
    if cx[0] != cy[0]:
        return False
    dx, ax, bx = cx[1]
    dy, ay, by = cy[1]
    if dx != dy:
        return False
    s = ax + ay
    t = bx + by
    prod_rat = ax * ay + bx * by * dx
    prod_irr = ax * by + ay * bx
    return (t == 0 and s.denominator == 1
            and prod_irr == 0 and prod_rat.denominator == 1)


def _cosine_grid(lo: Fraction, hi: Fraction, max_den: int, shift: int, div: int):
    """(v, class of 2cos(pi*(v + shift)/div)) over grid values v = p/q in [lo, hi].

    Only grid points whose cosine argument t = (v + shift)/div has reduced
    denominator at most 6 can carry integral Stokes data; every other point
    has degree >= 3.  Those arguments are exactly the labels j/e with e <= 6
    in [(lo + shift)/div, (hi + shift)/div], every one of them a _NIVEN or
    _QUAD label after reduction to [0, 1].  So the labels are enumerated and
    mapped back to v = div*t - shift, and v is kept when its denominator is
    at most max_den: the same points as a sweep over every reduced p/q with
    q <= max_den that drops those where _cos_class returns None.
    """
    t_lo, t_hi = (lo + shift) / div, (hi + shift) / div
    labels = {Fraction(j, e) for e in range(1, 7)
              for j in range(ceil(t_lo * e), floor(t_hi * e) + 1)}
    out = []
    for t in sorted(labels):
        v = t * div - shift
        if v.denominator <= max_den:
            out.append((v, _cos_class(t)))
    return out


def brute_force_integral_points(case_id: str, max_denominator: int = 60
                                ) -> set[tuple[Fraction, Fraction]]:
    """Exhaustive integral-Stokes sweep over the region on a rational grid.

    Independent of the enumeration route and of ``AlgReal``: classifies the
    Theorem-B cosine arguments by algebraic degree and decides integrality
    by exact quadratic-field arithmetic.  Grid points whose cosine argument
    has reduced denominator above 6 (degree >= 3, never integral) are never
    visited: each axis is built from the cosine labels (``_cosine_grid``).
    """
    desc = descriptor(case_id)
    ea, eb = desc.ab
    g = GROUP_FORMULAS[desc.group]
    gammas = _cosine_grid(Fraction(-2, ea), Fraction(2, eb) + 2, max_denominator,
                          g.shift_gamma, g.div)
    deltas = _cosine_grid(Fraction(-2, ea) - 2, Fraction(2, eb), max_denominator,
                          g.shift_delta, g.div)
    out = set()
    for gm, cx in gammas:
        for dl, cy in deltas:
            if gm - dl <= 2 and _pair_integral(cx, cy):
                out.add((gm, dl))
    return out
