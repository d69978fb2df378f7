"""Exact Stokes data of the two-function tt*-Toda solutions.

The two real Stokes parameters (s1, s2) are cosine polynomials in either
the asymptotic data (gamma, delta) or the holomorphic exponents k_i.
Both routes are implemented exactly over ``AlgReal`` from one table of
per-group formulas; they agree on the nose.  In the groups of cases with
an even size matrix s1 is only defined up to sign; its sign is decided
exactly from the rational angles and s1 is reported nonnegative.

Both k routes read the slot angles from one map (``_slots``).  At a point
given by integer gaps the data are also decided and computed on integers
alone (``k_gaps_stokes``), by the one integer kernel ``exact.cos_pair_sums``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cases import AsymptoticData, KVector, descriptor
from .exact import AlgReal, cos2, cos_pair_sums


@dataclass(frozen=True)
class GroupFormula:
    """The Stokes formulas of one group of cases.

    With x = 2cos(pi*A) and y = 2cos(pi*B) for the slot angles A, B:
    s1 = c1 + x + y and -s2 = c2 + ell*(x + y) + x*y.  From (gamma, delta)
    the angles are A = (gamma + shift_gamma)/div and B = (delta +
    shift_delta)/div; from k they are the slot angles plus k_flips, a flip
    of 1 negating that slot's cosine.  In the groups with s1_ambiguous
    (c1 = 0) s1 is only defined up to sign and is reported nonnegative.
    """

    div: int
    shift_gamma: int
    shift_delta: int
    c1: int
    c2: int
    ell: int
    k_flips: tuple[int, int]
    s1_ambiguous: bool


GROUP_FORMULAS = {
    "4": GroupFormula(4, 1, 3, 0, 2, 0, (0, 1), True),
    "5ab": GroupFormula(5, 6, 8, 1, 2, 1, (1, 0), False),
    "5cde": GroupFormula(5, 2, 4, 1, 2, 1, (0, 1), False),
    "6": GroupFormula(6, 2, 4, 0, 1, 0, (0, 1), True),
}


@dataclass(frozen=True)
class StokesData:
    s1: AlgReal
    s2: AlgReal
    s1_sign_ambiguous: bool

    def integral(self) -> Optional[tuple[int, int]]:
        i1 = self.s1.is_integer()
        i2 = self.s2.is_integer()
        if i1 is None or i2 is None:
            return None
        return i1, i2


def _cos_sign(t: Fraction) -> int:
    """The exact sign of cos(pi*t)."""
    t %= 2
    if t in (Fraction(1, 2), Fraction(3, 2)):
        return 0
    return 1 if t < Fraction(1, 2) or t > Fraction(3, 2) else -1


def cos_sum_sign(a: Fraction, b: Fraction) -> int:
    """The exact sign of 2cos(pi*a) + 2cos(pi*b) = 4cos(pi(a+b)/2)cos(pi(a-b)/2)."""
    return _cos_sign((a + b) / 2) * _cos_sign((a - b) / 2)


def _assemble(g: GroupFormula, a: Fraction, b: Fraction) -> StokesData:
    """The group formulas at the slot angles a and b."""
    x, y = cos2(a), cos2(b)
    s = x + y
    s1 = s + g.c1
    minus_s2 = x * y + s * g.ell + g.c2
    if g.s1_ambiguous and cos_sum_sign(a, b) < 0:
        s1 = -s1
    return StokesData(s1, -minus_s2, g.s1_ambiguous)


def _slots(case_id: str, gaps: Sequence) -> tuple:
    """The group formula and the slot angles a/q, b/q, a = mk*gaps[ki] + flip*q,
    at the gaps k_i + 1 given at any common scale, q = sum(gaps)."""
    desc = descriptor(case_id)
    q = sum(gaps)
    if q <= 0:
        raise ValueError("N must be positive")
    g = GROUP_FORMULAS[desc.group]
    (ki, li), (mk, ml), (fa, fb) = desc.kl_index, desc.angle_mult, g.k_flips
    return g, mk * gaps[ki] + fa * q, ml * gaps[li] + fb * q, q


def stokes_from_asymptotic(case_id: str, a: AsymptoticData) -> StokesData:
    g = GROUP_FORMULAS[descriptor(case_id).group]
    return _assemble(g, (a.gamma + g.shift_gamma) / g.div,
                     (a.delta + g.shift_delta) / g.div)


def stokes_from_k(k: KVector) -> StokesData:
    g, a, b, q = _slots(k.case, [e + 1 for e in k.entries])
    return _assemble(g, Fraction(a, q), Fraction(b, q))


def k_gaps_stokes(case_id: str, gaps: Sequence[int]) -> Optional[tuple[int, int]]:
    """``stokes_from_k(k).integral()`` for k_i + 1 proportional to gaps.

    gaps are integers with a positive sum q, so the slot angles are a/q and
    b/q with integer a, b (``_slots``), and s1, s2 are integers exactly when
    x + y and x*y are (``exact.cos_pair_sums``, which states the lemma).
    Returns the integers (s1, s2), s1 taken nonnegative where it is
    s1_ambiguous, or None when the data are not integral.
    """
    g, a, b, q = _slots(case_id, gaps)
    sums = cos_pair_sums(a, b, q)
    if sums is None:
        return None
    s, xy = sums
    s1 = g.c1 + s
    return abs(s1) if g.s1_ambiguous else s1, -(g.c2 + g.ell * s + xy)
