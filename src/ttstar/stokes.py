"""Exact Stokes data of the two-function tt*-Toda solutions.

The two real Stokes parameters (s1, s2) are cosine polynomials in either
the asymptotic data (gamma, delta) or the holomorphic exponents k_i.
Both routes are implemented exactly over ``AlgReal``; they agree on the
nose, up to the sign ambiguity of s1 in the groups of cases with an even
size matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cases import AsymptoticData, KVector, descriptor
from .exact import AlgReal, cos2

# groups whose s1 is only defined up to sign
_AMBIGUOUS_GROUPS = frozenset({"4", "6"})

# per group (div, shift_gamma, shift_delta): the from-asymptotic cosine
# arguments are x = 2cos(pi*(gamma + shift_gamma)/div) and
# y = 2cos(pi*(delta + shift_delta)/div)
ANGLE_SHIFTS = {"4": (4, 1, 3), "5ab": (5, 6, 8), "5cde": (5, 2, 4), "6": (6, 2, 4)}


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


def _assemble(group: str, x: AlgReal, y: AlgReal, sign_k: int, sign_l: int) -> StokesData:
    """Combine the two cosine values per the group formula.

    x and y carry the angles of the k- and l-slots; sign_k/sign_l are the
    signs with which 2cos of each slot enters (the from-asymptotic and
    from-k statements of the formulas differ exactly by these signs).
    """
    xs = x * sign_k
    ys = y * sign_l
    if group == "4":
        s1 = xs + ys
        minus_s2 = AlgReal.from_rational(2) + xs * ys
    elif group in ("5ab", "5cde"):
        s1 = AlgReal.from_rational(1) + xs + ys
        minus_s2 = AlgReal.from_rational(2) + xs + ys + xs * ys
    elif group == "6":
        s1 = xs + ys
        minus_s2 = AlgReal.from_rational(1) + xs * ys
    else:
        raise ValueError(f"unknown group {group}")
    ambiguous = group in _AMBIGUOUS_GROUPS
    if ambiguous and s1.to_float() < 0:
        s1 = -s1
    return StokesData(s1, -minus_s2, ambiguous)


def stokes_from_asymptotic(case_id: str, a: AsymptoticData) -> StokesData:
    g = descriptor(case_id).group
    div, shift_gamma, shift_delta = ANGLE_SHIFTS[g]
    x = cos2((a.gamma + shift_gamma) / div)
    y = cos2((a.delta + shift_delta) / div)
    return _assemble(g, x, y, 1, 1)


def stokes_from_k(k: KVector) -> StokesData:
    desc = descriptor(k.case)
    N = k.N
    if N <= 0:
        raise ValueError("N must be positive")
    ki, li = desc.kl_index
    mk, ml = desc.angle_mult
    x = cos2(Fraction(mk) * (k.entries[ki] + 1) / N)
    y = cos2(Fraction(ml) * (k.entries[li] + 1) / N)
    # the from-k formulas enter with signs (+,-) for groups 4/5cde/6 on the
    # l-slot and (-,+) for 5ab on the k-slot
    if desc.group == "5ab":
        return _assemble(desc.group, x, y, -1, 1)
    return _assemble(desc.group, x, y, 1, -1)
