"""Exact Stokes data of the two-function tt*-Toda solutions.

The two real Stokes parameters (s1, s2) are one cosine polynomial per case,
in two slot angles read from the gaps k_i + 1 of the holomorphic data.  The
polynomial and the gaps -> slot map are derived once per case from the
case's reflection of the gaps (``case_formula``).  The asymptotic data
(gamma, delta) take the same route, through their integer gaps
(``cases.asymptotic_gaps``), so there is one slot map.  In the cases with an
even size matrix s1 is only defined up to sign; its sign is decided exactly
from the rational angles and s1 is reported nonnegative.

Every route reads the slot angles as m*gaps[i] + f*q over q (``_slots``);
``stokes_from_k`` and ``stokes_from_asymptotic`` evaluate them over
``AlgReal``; at integer gaps ``k_gaps_stokes`` decides and computes integral
data on integers (``exact.cos_pair_sums``), and ``k_gaps_floats`` gives
other data as floats; each applies the formula through ``_stokes``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .cases import AsymptoticData, KVector, asymptotic_gaps, descriptor
from .exact import AlgReal, cos2, cos_pair_sums


class CaseFormula(namedtuple("CaseFormula", "slots t c2")):
    """The Stokes formula of one case, derived by ``case_formula``.

    slots are the two (i, m, f) whose slot angles are (m*gaps[i] + f*q)/q.
    With x = 2cos(pi*A) and y = 2cos(pi*B) at the slot angles A, B:
    s1 = t + x + y and -s2 = c2 + t*(x + y) + x*y, with t = (n+1) mod 2.
    Where t = 0 (even n+1) s1 is only defined up to sign and is reported
    nonnegative.
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def case_formula(case_id: str) -> CaseFormula:
    """The case's Stokes formula, derived from its reflection of the gaps.

    The symmetry pairs (i, j) of a case are the orbits of one reflection
    i -> rho - i of the gaps, and all give rho + 1 = (i + j mod n+1) + 1.
    With r_k = gaps[0] + ... + gaps[k-1] (r_0 = 0, r_(n+1) = q) the roots are
    xi_k = exp(i*pi*(2r_k - r_(rho+1))/q), k = 0..n, and s1 = e1, s2 = -e2
    of them (s1 up to sign for even n+1).  The reflection maps root k to
    root rho+1-k mod n+1, its conjugate.  Over the three class values of
    case-symmetric gaps each exponent reduces to m*gaps[i] + f*q, i the
    first gap of one class, and conjugate roots share that class.

    - The first root, by k, of each of the two conjugate pairs gives a
      slot (i, |m|, f mod 2); in this order they are the table's slots.
    - A root on the axis has m = 0: its exponent is f*q at every
      case-symmetric vector, so it is (-1)^f there and its side never
      changes.  For odd n+1 every f gains the one on-axis root's f, which
      negates all roots and puts that root at +1.
    - Each pair gives a factor z^2 - x z + 1, so e1 = t + x + y and
      e2 = c2 + t*(x + y) + x*y, with t the sum of the on-axis roots
      ((n+1) mod 2) and c2 = 2 + their e2 = 2 - (number of them)//2.
    """
    desc = descriptor(case_id)
    n1, classes = desc.n_plus_1, desc.classes
    rho1 = sum(desc.symmetry[0]) % n1 + 1
    # r[k] counts each class's gaps among gaps[0..k-1], so r[n1] stands for q
    r = [[sum(g < k for g in cls) for cls in classes] for k in range(n1 + 1)]
    slots, axis = {}, []
    for k in range(n1):
        e = [2 * a - c for a, c in zip(r[k], r[rho1])]
        # e - f*q vanishes on every class but at most one, x
        f = next(f for f in range(-1, 3) if sum(a != f * s for a, s in zip(e, r[n1])) < 2)
        m, x = max((abs(a - f * s), x) for x, (a, s) in enumerate(zip(e, r[n1])))
        if m:  # setdefault keeps the first root of each conjugate pair
            slots.setdefault(classes[x][0], (m, f))
        else:
            axis.append(f)
    flip = axis[0] if n1 % 2 else 0
    return CaseFormula(tuple((i, m, (f + flip) % 2) for i, (m, f) in slots.items()),
                       n1 % 2, 2 - len(axis) // 2)


class StokesData(namedtuple("StokesData", "s1 s2 s1_sign_ambiguous")):
    """The Stokes data (s1, s2) as ``AlgReal``s; s1 is reported nonnegative
    where it is only defined up to sign (``s1_sign_ambiguous``)."""

    __slots__ = ()

    def integral(self) -> tuple[int, int] | None:
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


def _stokes(c: CaseFormula, s, xy, sign) -> tuple:
    """(s1, s2) = (t + s, -(c2 + t*s + xy)) from s = x + y and xy = x*y; where
    t = 0, s1 = +-s by the sign of ``sign`` (that of s), so s1 >= 0.  s2 is
    subtracted from 0, so a float s2 is never -0.0."""
    s1 = c.t + s if c.t else (-s if sign < 0 else s)
    return s1, 0 - (c.c2 + c.t * s + xy)


def _assemble(c: CaseFormula, a, b, q) -> StokesData:
    """The case's formula at the slot angles a/q and b/q of ``_slots``."""
    a, b = Fraction(a, q), Fraction(b, q)
    x, y = cos2(a), cos2(b)
    sign = cos_sum_sign(a, b) if not c.t else 1  # read only where t = 0
    return StokesData(*_stokes(c, x + y, x * y, sign), not c.t)


def _slots(case_id: str, gaps: Sequence) -> tuple:
    """The case's formula and its slot angles a/q, b/q, a = m*gaps[i] + f*q
    for the slots (i, m, f), at the gaps k_i + 1 given at any common scale,
    q = sum(gaps)."""
    c = case_formula(case_id)
    q = sum(gaps)
    if q <= 0:
        raise ValueError("N must be positive")
    (ki, mk, fa), (li, ml, fb) = c.slots
    return c, mk * gaps[ki] + fa * q, ml * gaps[li] + fb * q, q


def stokes_from_asymptotic(case_id: str, a: AsymptoticData) -> StokesData:
    return _assemble(*_slots(case_id, asymptotic_gaps(case_id, a)))


def stokes_from_k(k: KVector) -> StokesData:
    return _assemble(*_slots(k.case, [e + 1 for e in k.entries]))


def k_gaps_stokes(case_id: str, gaps: Sequence[int]) -> tuple[int, int] | None:
    """``stokes_from_k(k).integral()`` for k_i + 1 proportional to gaps.

    gaps are integers with a positive sum q, so the slot angles are a/q and
    b/q with integer a, b (``_slots``), and s1, s2 are integers exactly when
    x + y and x*y are (``exact.cos_pair_sums``, which states the lemma).
    Returns the integers (s1, s2), s1 taken nonnegative where it is only
    defined up to sign (even n+1), or None when the data are not integral.
    """
    c, a, b, q = _slots(case_id, gaps)
    sums = cos_pair_sums(a, b, q)
    if sums is None:
        return None
    s, xy = sums
    return _stokes(c, s, xy, s)


def k_gaps_floats(case_id: str, gaps: Sequence[int]) -> tuple[float, float]:
    """(s1, s2) as floats at the integer gaps of ``k_gaps_stokes``, each slot
    numerator reduced mod 2q first; s1 = 0 exactly where ``cos_sum_sign`` is.
    Neither is -0.0 (``_stokes``)."""
    c, a, b, q = _slots(case_id, gaps)
    x, y = (2 * math.cos(math.pi * (v % (2 * q) / q)) for v in (a, b))
    s = x + y if c.t or cos_sum_sign(Fraction(a, q), Fraction(b, q)) else 0.0
    return _stokes(c, s, x * y, s)
