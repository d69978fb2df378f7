"""The ten two-function reductions of the tt*-Toda system.

Each case carries the size of the underlying cyclic matrix, the exponents
(a, b) of the reduced PDE system, the symmetry pattern of the holomorphic
exponents k_0..k_n, and the linear forms giving the asymptotic data
(gamma, delta) in terms of the k_i.  Conversions between k-vectors and
(gamma, delta) are exact in both directions.

On case-symmetric points every data set is linear in the three class values
of the gaps k_i + 1, so every inverse map (from (gamma, delta) here, from
the cosine-pair labels in ``enumeration.k_from_labels``) is one integer
solve, ``class_gaps``, of three linear forms on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import mul
from typing import Iterable, Sequence

CASE_IDS = ("4a", "4b", "5a", "5b", "5c", "5d", "5e", "6a", "6b", "6c")


class SymmetryError(ValueError):
    """A k-vector violates its case's equality constraints."""


@dataclass(frozen=True)
class AsymptoticData:
    gamma: Fraction
    delta: Fraction

    def __iter__(self):
        return iter((self.gamma, self.delta))


@dataclass(frozen=True)
class CaseDescriptor:
    id: str
    n_plus_1: int
    ab: tuple[int, int]
    symmetry: tuple[tuple[int, int], ...]
    gamma_row: tuple[int, ...]
    delta_row: tuple[int, ...]
    group: str

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


_DESCRIPTORS = {
    "4a": CaseDescriptor(
        "4a", 4, (2, 2), ((1, 3),),
        (3, -2, -1, 0), (1, 2, -3, 0), "4"),
    "4b": CaseDescriptor(
        "4b", 4, (2, 2), ((0, 2),),
        (-2, -1, 0, 3), (2, -3, 0, 1), "4"),
    "5a": CaseDescriptor(
        "5a", 5, (2, 1), ((1, 4), (2, 3)),
        (4, -2, -2, 0, 0), (2, 4, -6, 0, 0), "5ab"),
    "5b": CaseDescriptor(
        "5b", 5, (2, 1), ((0, 3), (1, 2)),
        (-2, -2, 0, 0, 4), (4, -6, 0, 0, 2), "5ab"),
    "5c": CaseDescriptor(
        "5c", 5, (1, 2), ((1, 3), (0, 4)),
        (6, -4, -2, 0, 0), (2, 2, -4, 0, 0), "5cde"),
    "5d": CaseDescriptor(
        "5d", 5, (1, 2), ((2, 4), (0, 1)),
        (6, 0, -4, -2, 0), (2, 0, 2, -4, 0), "5cde"),
    "5e": CaseDescriptor(
        "5e", 5, (1, 2), ((0, 2), (3, 4)),
        (-4, -2, 0, 6, 0), (2, -4, 0, 2, 0), "5cde"),
    "6a": CaseDescriptor(
        "6a", 6, (1, 1), ((1, 4), (0, 5), (2, 3)),
        (8, -4, -4, 0, 0, 0), (4, 4, -8, 0, 0, 0), "6"),
    "6b": CaseDescriptor(
        "6b", 6, (1, 1), ((2, 5), (0, 1), (3, 4)),
        (8, 0, -4, -4, 0, 0), (4, 0, 4, -8, 0, 0), "6"),
    "6c": CaseDescriptor(
        "6c", 6, (1, 1), ((0, 3), (4, 5), (1, 2)),
        (-4, -4, 0, 0, 8, 0), (4, -8, 0, 0, 4, 0), "6"),
}


GROUP_OF_CASE = {c: _DESCRIPTORS[c].group for c in CASE_IDS}

# the cases of each group, in CASE_IDS order
GROUPS = {g: tuple(c for c in CASE_IDS if GROUP_OF_CASE[c] == g)
          for g in dict.fromkeys(GROUP_OF_CASE.values())}


def descriptor(case_id: str) -> CaseDescriptor:
    try:
        return _DESCRIPTORS[case_id]
    except KeyError:
        raise ValueError(f"unknown case {case_id!r}") from None


@dataclass(frozen=True)
class KVector:
    case: str
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        desc = descriptor(self.case)
        if len(self.entries) != desc.n_plus_1:
            raise ValueError(
                f"case {self.case} needs {desc.n_plus_1} entries, "
                f"got {len(self.entries)}")
        for i, j in desc.symmetry:
            if self.entries[i] != self.entries[j]:
                raise SymmetryError(
                    f"case {self.case} requires k_{i} = k_{j}")

    @property
    def N(self) -> Fraction:
        return Fraction(len(self.entries)) + sum(self.entries)

    @property
    def admissible(self) -> bool:
        return all(k >= -1 for k in self.entries) and self.N > 0


def make_k(case_id: str, entries: Iterable) -> KVector:
    return KVector(case_id, tuple(Fraction(e) for e in entries))


def _asymptotic(desc: CaseDescriptor, values: Sequence, n) -> AsymptoticData:
    """(gamma, delta) = (sum(row_i * values_i)/n) over the two rows.

    gamma = sum(row_i * k_i)/N.  Every row of every case sums to 0, so the
    values may be the k_i or the gaps k_i + 1, at any common scale with n
    scaled alike.
    """
    if n <= 0:
        raise ValueError("N must be positive")
    return AsymptoticData(Fraction(sum(map(mul, desc.gamma_row, values)), n),
                          Fraction(sum(map(mul, desc.delta_row, values)), n))


def k_to_asymptotic(k: KVector) -> AsymptoticData:
    return _asymptotic(descriptor(k.case), k.entries, k.N)


def gaps_to_asymptotic(case_id: str, gaps: Sequence[int]) -> AsymptoticData:
    """(gamma, delta) at k_i = gaps_i/q - 1 for integer gaps with sum q: only
    the two Fractions returned are made."""
    return _asymptotic(descriptor(case_id), gaps, sum(gaps))


def _det3(rows):
    """The determinant of a 3 x 3 matrix."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@lru_cache(maxsize=None)
def _class_system(case_id: str) -> tuple[tuple[int, ...], ...]:
    """The gamma, delta and sum rows summed over each class of equal k_i:
    every case has three classes, and the 3 x 3 system is nonsingular."""
    desc = descriptor(case_id)
    return tuple(tuple(sum(row[i] for i in cls) for cls in desc.classes)
                 for row in (desc.gamma_row, desc.delta_row, (1,) * desc.n_plus_1))


def class_gaps(case_id: str, rows: Sequence[tuple[int, ...]],
               values: Sequence[Fraction | int]) -> list[int]:
    """The integer gaps, one value per class spread to its positions, whose
    class values x satisfy rows . x = lam * values, lam = |det|*lcm > 0:
    Cramer's rule on three integer linear forms of the class values, with
    the right-hand side scaled to integers by the lcm of the denominators
    of the values and signed like det.  Every inverse data map is one call.
    """
    det = _det3(rows)
    scale = lcm(*[v.denominator for v in values]) * (1 if det > 0 else -1)
    rhs = [v.numerator * scale // v.denominator for v in values]
    xs = [_det3([row[:c] + (b,) + row[c + 1:] for row, b in zip(rows, rhs)])
          for c in range(3)]
    return [xs[c] for c in descriptor(case_id).class_of]


def asymptotic_gaps(case_id: str, a: AsymptoticData) -> list[int]:
    """The integer gaps c with k_i + 1 = N*c_i/sum(c) at (gamma, delta), for
    every N (every row sums to 0): ``class_gaps`` on the gamma, delta and
    sum rows with values (gamma, delta, 1), so sum(c) > 0."""
    return class_gaps(case_id, _class_system(case_id), (a.gamma, a.delta, 1))


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
