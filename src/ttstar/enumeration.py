"""Enumeration of the solutions with integral Stokes data.

The generator is a sweep over pairs of a finite cosine dictionary: if
both m = 2cos(a) - 2cos(b) and p = 4cos(a)cos(b) are integers, then
2cos(a) and -2cos(b) are the roots of t^2 - m t - p, a monic integer
quadratic with both roots in [-2, 2], hence (Kronecker) twice cosines of
rational multiples of pi of degree at most 2.  The dictionary holds all
such cosines, so one integrality decision per dictionary pair, made on
integer angles by ``exact.cos_pair_sums`` (which states the lemma),
recovers the full candidate set without reference to any published list.
The quadratics' range (-4 <= m, p <= 4, m^2 + 4p >= 0) is asserted.

The tables are built on integers too, and this module holds no ``AlgReal``.
Each admissible label pair gives integer gaps c over q = sum(c): the labels
are the shares of q that the two slot classes of ``cases.case_formula``
hold (``cases.share_gaps``, as for every inverse data map), and from the
gaps come the asymptotic data (``cases.gaps_to_asymptotic``), the Stokes
data (``stokes.k_gaps_stokes``, over the same kernel) and T_k, whose
``ThetaPoly`` keeps its roots as the integer numerators
``theta.tk_numerators`` over q; a ``Fraction`` is made only for the other
fields a record stores.
``stokes.stokes_from_k`` serves arbitrary rational points and is the tests'
oracle for these records.

The brute-force completeness sweep (``brute_force_integral_points``) checks
the list from outside, on integers over 60 and by quadratic-field
arithmetic, with its own cosine arguments and without the integer kernels
of ``exact``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import gcd, lcm
from types import MappingProxyType

from .cases import (AsymptoticData, KVector, descriptor, gaps_to_asymptotic,
                    in_region, share_gaps)
from .exact import cos_pair_sums
from .stokes import k_gaps_stokes
from .theta import ThetaPoly, tk_numerators

BLOCKS = ("top-edge", "left-edge", "diagonal-edge", "center-line", "other-interior")


# the cosine labels a, b (Fractions) and the integers m = x - y and p = x*y
# for x = 2cos(pi*a), y = 2cos(pi*b)
CosPair = namedtuple("CosPair", "a_label b_label m p")

# one row of a case's table: the labels, the AsymptoticData, the integral
# Stokes data (s1, s2), the KVector, T_k as a ThetaPoly and the block
SolutionRecord = namedtuple("SolutionRecord", "case a_label b_label asymptotic "
                            "stokes_int k tk block")


@lru_cache(maxsize=1)
def _cos_dictionary() -> tuple[Fraction, ...]:
    """The labels j/q in [0,1] with q <= 6 of the cosines 2cos(pi*j/q)."""
    return tuple(sorted({Fraction(j, q) for q in range(1, 7) for j in range(q + 1)}))


@lru_cache(maxsize=1)
def enumerate_cos_pairs() -> tuple[CosPair, ...]:
    """All (a, b) in [0, pi]^2 with 2cos a - 2cos b and 4cos a cos b integral.

    Each pair of labels, in label order, is put over the lcm h of their
    denominators as x = 2cos(pi*a/h) and y = 2cos(pi*b/h).  Since
    -y = 2cos(pi*(b + h)/h), (m, -p) = ``exact.cos_pair_sums(a, b + h, h)``,
    None when not integral.
    """
    labels = _cos_dictionary()
    pairs = []
    for la in labels:
        for lb in labels:
            h = lcm(la.denominator, lb.denominator)
            a = la.numerator * (h // la.denominator)
            b = lb.numerator * (h // lb.denominator)
            sums = cos_pair_sums(a, b + h, h)
            if sums is None:
                continue
            m, p = sums[0], -sums[1]
            assert -4 <= m <= 4 and -4 <= p <= 4 and m * m + 4 * p >= 0
            pairs.append(CosPair(la, lb, m, p))
    return tuple(pairs)


def admissible_points() -> list[tuple[Fraction, Fraction]]:
    """The cosine pairs compatible with nonnegative gaps summing to 1."""
    return [(c.a_label, c.b_label) for c in enumerate_cos_pairs()
            if c.a_label + c.b_label <= 1]


# The 19 admissible label pairs in the paper's printing order: its five
# blocks in turn (``classify_block`` names each; top and diagonal sweep a
# downward/upward along the respective edge, and the paper fixes the rest).
_TABLE_ORDER: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(1), Fraction(0)), (Fraction(2, 3), Fraction(0)),
    (Fraction(1, 2), Fraction(0)), (Fraction(1, 3), Fraction(0)),
    (Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1, 3)), (Fraction(0), Fraction(1, 2)),
    (Fraction(0), Fraction(2, 3)), (Fraction(0), Fraction(1)),
    (Fraction(1, 3), Fraction(2, 3)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(2, 3), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(1, 3)),
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(1, 6), Fraction(1, 6)),
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(2, 5), Fraction(1, 5)),
    (Fraction(1, 5), Fraction(2, 5)),
    (Fraction(1, 3), Fraction(1, 2)),
)


def classify_block(case_id: str, a: AsymptoticData) -> str:
    """Block of the five-block table partition, from (gamma, delta) alone."""
    desc = descriptor(case_id)
    gamma_lo, delta_hi = desc.corners
    if a.delta == delta_hi:
        return "top-edge"
    if a.gamma == gamma_lo:
        return "left-edge"
    if a.gamma - a.delta == 2:
        return "diagonal-edge"
    if a.gamma + a.delta == desc.center_sum:
        return "center-line"
    return "other-interior"


@lru_cache(maxsize=None)
def integral_solutions(case_id: str) -> tuple[SolutionRecord, ...]:
    """The 19 complete solution records of one case, in table order."""
    assert sorted(_TABLE_ORDER) == sorted(admissible_points())
    records = []
    for a_label, b_label in _TABLE_ORDER:
        gaps = share_gaps(case_id, a_label, b_label)
        q = sum(gaps)
        asym = gaps_to_asymptotic(case_id, gaps)
        ints = k_gaps_stokes(case_id, gaps)
        if ints is None:
            raise AssertionError(
                f"non-integral Stokes data at {case_id} {(a_label, b_label)}")
        # k admissible: every k_i = c_i/q - 1 >= -1
        assert in_region(case_id, asym) and min(gaps) >= 0
        records.append(SolutionRecord(
            case_id, a_label, b_label, asym, ints,
            KVector(case_id, tuple(Fraction(c - q, q) for c in gaps)),
            ThetaPoly(tk_numerators(gaps), q), classify_block(case_id, asym)))
    # one run per block, in BLOCKS order: ``cli.emit_latex`` rules off each run
    assert tuple(block for block, _ in groupby(r.block for r in records)) == BLOCKS
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


# every cosine label j/e with e <= 6 is an integer J over L = 60
_LABEL_DEN = 60

# the sweep's own cosine arguments (gamma + shift_gamma)/div and
# (delta + shift_delta)/div per group, as (div, shift_gamma, shift_delta)
_GROUP_ANGLES = {"4": (4, 1, 3), "5ab": (5, 6, 8), "5cde": (5, 2, 4), "6": (6, 2, 4)}


@lru_cache(maxsize=1)
def _integral_label_pairs() -> frozenset[tuple[int, int]]:
    """The pairs (J_x, J_y) of folded labels J/L in [0, 1] (the 13 of
    ``_cos_dictionary``) whose cosines pass ``_pair_integral``."""
    classes = {int(label * _LABEL_DEN): _cos_class(label) for label in _cos_dictionary()}
    return frozenset((jx, jy) for jx, cx in classes.items()
                     for jy, cy in classes.items() if _pair_integral(cx, cy))


@lru_cache(maxsize=64)
def _label_axis(lo: int, hi: int, max_den: int, shift: int, div: int
                ) -> MappingProxyType[int, tuple[tuple[int, Fraction], ...]]:
    """(V, V/L) over the grid values v = V/L in [lo/L, hi/L] whose cosine
    argument (v + shift)/div is a label J/L with denominator at most 6,
    indexed by their folded J (cached: a case's two axes are built once per
    grid; read-only, as every caller shares them).

    v = (div*J - L*shift)/L, kept when its reduced denominator
    L/gcd(V, L) is at most max_den; J is folded to [0, L] by the symmetries
    of the cosine (period 2L, even).
    """
    L = _LABEL_DEN
    out: dict[int, list[tuple[int, Fraction]]] = {}
    for J in range(-(-(lo + L * shift) // div), (hi + L * shift) // div + 1):
        if L // gcd(J, L) > 6:
            continue
        V = div * J - L * shift
        if L // gcd(V, L) <= max_den:
            J %= 2 * L
            out.setdefault(min(J, 2 * L - J), []).append((V, Fraction(V, L)))
    return MappingProxyType({J: tuple(values) for J, values in out.items()})


def brute_force_integral_points(case_id: str, max_denominator: int = 60
                                ) -> set[tuple[Fraction, Fraction]]:
    """Exhaustive integral-Stokes sweep over the region on a rational grid.

    Independent of the enumeration route, of ``AlgReal``, of the integer
    kernels in ``exact`` and of the slot angles of ``cases.case_formula``
    (only the region's (a, b) come from the descriptor): the cosine
    arguments are its own (``_GROUP_ANGLES``), and integrality is decided
    by exact quadratic-field arithmetic (``_cos_class``, ``_pair_integral``)
    and kept as a table of folded label pairs (``_integral_label_pairs``).
    Grid points whose cosine argument has reduced denominator above 6
    (degree >= 3, never integral) are never visited; the rest are integers
    over L = 60, the lcm of the label denominators: gamma = G/L and
    delta = D/L (``_label_axis``, built once per case and grid, each axis
    indexed by folded label), and the region's diagonal is G - D <= 2L.
    A call walks the table's pairs, joins the two axes' values at each and
    returns a new set.
    """
    desc = descriptor(case_id)
    ea, eb = desc.ab
    div, shift_gamma, shift_delta = _GROUP_ANGLES[desc.group]
    L = _LABEL_DEN
    # the bounding box of the region: gamma in [-2/ea, 2/eb + 2],
    # delta in [-2/ea - 2, 2/eb]
    lo, hi = -2 * L // ea, 2 * L // eb
    gammas = _label_axis(lo, hi + 2 * L, max_denominator, shift_gamma, div)
    deltas = _label_axis(lo - 2 * L, hi, max_denominator, shift_delta, div)
    return {(gamma, delta)
            for jx, jy in _integral_label_pairs()
            for G, gamma in gammas.get(jx, ()) for D, delta in deltas.get(jy, ())
            if G - D <= 2 * L}
