"""The ten two-function reductions of the tt*-Toda system.

Each case is one reflection i -> rho - i mod n+1 of the gaps k_i + 1 of the
holomorphic exponents k_0..k_n, stated once as (n+1, rho, group).  The
reflection's orbits are the three classes of positions whose k_i are equal,
and everything else is derived from it: the Stokes formula and its two slots
(``case_formula``), and from them the exponents (a, b) of the reduced PDE
system and the order of the symmetry pairs (``descriptor``).

The asymptotic data are the slot classes' shares of the gaps.  If the slots
are (i, m, f) and (j, l, f'), the classes holding positions i and j have m
and l positions, (a, b) = (2/m, 2/l), and at gaps c with sum q the labels
A = m*c_i/q and B = l*c_j/q give (gamma, delta) = ((n+1)*A - m, l - (n+1)*B).
So every inverse map (from (gamma, delta), from the cosine-pair labels A, B)
is one spread of the shares A, B and the rest over the positions, on
integers (``share_gaps``).  Conversions are exact in both directions.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache

# each case as (n+1, rho, group): the size of its cyclic matrix, its
# reflection i -> rho - i mod n+1 of the gaps, and its group of cases
_CASES = {
    "4a": (4, 0, "4"), "4b": (4, 2, "4"),
    "5a": (5, 0, "5ab"), "5b": (5, 3, "5ab"),
    "5c": (5, 4, "5cde"), "5d": (5, 1, "5cde"), "5e": (5, 2, "5cde"),
    "6a": (6, 5, "6"), "6b": (6, 1, "6"), "6c": (6, 3, "6"),
}

CASE_IDS = tuple(_CASES)

GROUP_OF_CASE = {c: g for c, (_, _, g) in _CASES.items()}

# the cases of each group, in CASE_IDS order
GROUPS = {g: tuple(c for c in CASE_IDS if GROUP_OF_CASE[c] == g)
          for g in dict.fromkeys(GROUP_OF_CASE.values())}


class SymmetryError(ValueError):
    """A k-vector violates its case's equality constraints."""


class RegionError(ValueError):
    """Asymptotic data lie outside their case's region."""


# The records of the package are named tuples: immutable, compared and
# hashed by their fields, and cheap to define and to build.  So a record is
# also the tuple of its fields: it iterates over them and equals that tuple.

# the asymptotic data (gamma, delta), two Fractions
AsymptoticData = namedtuple("AsymptoticData", "gamma delta")


def _case(case_id: str) -> tuple[int, int, str]:
    try:
        return _CASES[case_id]
    except KeyError:
        raise ValueError(f"unknown case {case_id!r}") from None


def _orbits(n1: int, rho: int) -> list[tuple[int, ...]]:
    """The orbits of i -> rho - i mod n1, each sorted, by least position."""
    return sorted({tuple(sorted({i, (rho - i) % n1})) for i in range(n1)})


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

    The symmetry pairs (i, j) of a case are the orbits of its reflection
    i -> rho - i of the gaps, i + j = rho mod n+1.
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
    n1, rho, _ = _case(case_id)
    classes = _orbits(n1, rho)
    # r[k] counts each class's gaps among gaps[0..k-1], so r[n1] stands for q
    r = [[sum(g < k for g in cls) for cls in classes] for k in range(n1 + 1)]
    slots, axis = {}, []
    for k in range(n1):
        e = [2 * a - c for a, c in zip(r[k], r[rho + 1])]
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


class CaseDescriptor(namedtuple("CaseDescriptor", "id n_plus_1 ab symmetry group")):
    """One case: the size n+1, the exponents (a, b), the symmetry pairs of
    positions and the group's name.  It keeps an instance dictionary (no
    ``__slots__``) for its cached values."""

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The classes of positions whose k_i are equal: the symmetry pairs,
        which are disjoint in every case, then each unpaired position."""
        paired = {i for pair in self.symmetry for i in pair}
        return self.symmetry + tuple((i,) for i in range(self.n_plus_1)
                                     if i not in paired)

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        """The index in ``classes`` of each position's class."""
        classes = self.classes
        return tuple(next(c for c, cls in enumerate(classes) if i in cls)
                     for i in range(self.n_plus_1))

    @cached_property
    def corners(self) -> tuple[Fraction, Fraction]:
        """(-2/a, 2/b): the least gamma and the greatest delta of the region."""
        ea, eb = self.ab
        return Fraction(-2, ea), Fraction(2, eb)

    @cached_property
    def center_sum(self) -> Fraction:
        """gamma + delta on the region's line of symmetry: the region is a
        right isosceles triangle, and that line passes through the corner
        at its right angle."""
        return sum(self.corners)


@lru_cache(maxsize=None)
def descriptor(case_id: str) -> CaseDescriptor:
    """The case's descriptor, derived from its reflection and the slots
    (i, m, f), (j, l, f') of ``case_formula``: (a, b) = (2/m, 2/l), and the
    symmetry pairs list the class without a slot, then the classes of i and
    of j."""
    n1, rho, group = _case(case_id)
    (i, m, _), (j, l, _) = case_formula(case_id).slots
    orbits = sorted(_orbits(n1, rho), key=lambda cls: (i in cls) + 2 * (j in cls))
    return CaseDescriptor(case_id, n1, (2 // m, 2 // l),
                          tuple(cls for cls in orbits if len(cls) == 2), group)


class KVector(namedtuple("KVector", "case entries")):
    """The holomorphic data k_0..k_n of a case, a tuple of Fractions."""

    __slots__ = ()

    def __new__(cls, case: str, entries: tuple[Fraction, ...]):
        desc = descriptor(case)
        if len(entries) != desc.n_plus_1:
            raise ValueError(
                f"case {case} needs {desc.n_plus_1} entries, "
                f"got {len(entries)}")
        for i, j in desc.symmetry:
            if entries[i] != entries[j]:
                raise SymmetryError(
                    f"case {case} requires k_{i} = k_{j}")
        return super().__new__(cls, case, entries)

    @property
    def N(self) -> Fraction:
        return Fraction(len(self.entries)) + sum(self.entries)

    @property
    def admissible(self) -> bool:
        return all(k >= -1 for k in self.entries) and self.N > 0


def make_k(case_id: str, entries: Iterable) -> KVector:
    return KVector(case_id, tuple(Fraction(e) for e in entries))


def gaps_to_asymptotic(case_id: str, gaps: Sequence) -> AsymptoticData:
    """(gamma, delta) = (m*((n+1)*c_i/q - 1), l*(1 - (n+1)*c_j/q)) at gaps c
    proportional to the k_i + 1, q = sum(c), for the slots (i, m, f) and
    (j, l, f'): from integer gaps only the two Fractions returned are made."""
    (i, m, _), (j, l, _) = case_formula(case_id).slots
    q = sum(gaps)
    if q <= 0:
        raise ValueError("N must be positive")
    n1 = descriptor(case_id).n_plus_1
    return AsymptoticData(Fraction(m * (n1 * gaps[i] - q), q),
                          Fraction(l * (q - n1 * gaps[j]), q))


def k_to_asymptotic(k: KVector) -> AsymptoticData:
    return gaps_to_asymptotic(k.case, [e + 1 for e in k.entries])


def share_gaps(case_id: str, a: Fraction | int, b: Fraction | int) -> list[int]:
    """The integer gaps c, with q = sum(c) > 0, whose slot classes hold the
    shares a and b of q, m*c_i = a*q and l*c_j = b*q for the slots (i, m, f),
    (j, l, f'), and whose third class, of r positions, holds the rest: the
    class values a/m, b/l and (1 - a - b)/r times m*l*r*d, d the product of
    the denominators of a and b, spread over the positions.  Every inverse
    data map is one call."""
    desc = descriptor(case_id)
    (i, m, _), (j, l, _) = case_formula(case_id).slots
    r = desc.n_plus_1 - m - l
    d = a.denominator * b.denominator
    x, y = a.numerator * b.denominator, b.numerator * a.denominator
    values = [(d - x - y) * m * l] * 3
    values[desc.class_of[i]] = x * l * r
    values[desc.class_of[j]] = y * m * r
    return [values[c] for c in desc.class_of]


def asymptotic_gaps(case_id: str, a: AsymptoticData) -> list[int]:
    """The integer gaps c with k_i + 1 = N*c_i/sum(c) at (gamma, delta), for
    every N: ``share_gaps`` at the shares (gamma + m)/(n+1) and
    (l - delta)/(n+1) of the slots (i, m, f), (j, l, f')."""
    (_, m, _), (_, l, _) = case_formula(case_id).slots
    n1 = descriptor(case_id).n_plus_1
    g, d = a.gamma, a.delta
    return share_gaps(case_id, Fraction(g.numerator + m * g.denominator, n1 * g.denominator),
                      Fraction(l * d.denominator - d.numerator, n1 * d.denominator))


def asymptotic_to_k(case_id: str, a: AsymptoticData, N=Fraction(1)) -> KVector:
    """Invert the linear forms under symmetry and sum normalization:
    k_i = N*c_i/q - 1 over the gaps c of ``asymptotic_gaps``, q = sum(c)."""
    N = Fraction(N)
    if N <= 0:
        raise ValueError("N must be positive")
    gaps = asymptotic_gaps(case_id, a)
    d = N.denominator * sum(gaps)
    return KVector(case_id, tuple(Fraction(N.numerator * c - d, d) for c in gaps))


def in_region(case_id: str, a: AsymptoticData) -> bool:
    """Membership in the closed triangular region of asymptotic data."""
    gamma_lo, delta_hi = descriptor(case_id).corners
    return a.gamma >= gamma_lo and a.delta <= delta_hi and a.gamma - a.delta <= 2


def _excerpt(text: str) -> str:
    """text, or its first 37 characters and "..." when it is longer than 40."""
    return text if len(text) <= 40 else text[:37] + "..."


def check_region(case_id: str, a: AsymptoticData) -> None:
    """Raise ``RegionError`` unless (gamma, delta) lie in the case's region;
    the message cuts each value to 40 characters."""
    if not in_region(case_id, a):
        raise RegionError(f"(gamma, delta) = ({_excerpt(str(a.gamma))}, "
                          f"{_excerpt(str(a.delta))}) outside the region "
                          f"of case {case_id}")
