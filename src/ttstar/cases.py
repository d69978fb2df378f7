"""The ten two-function reductions of the tt*-Toda system.

Each case carries the size of the underlying cyclic matrix, the exponents
(a, b) of the reduced PDE system, the symmetry pattern of the holomorphic
exponents k_0..k_n, and the linear forms giving the asymptotic data
(gamma, delta) in terms of the k_i.  Conversions between k-vectors and
(gamma, delta) are exact in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .exact import LinearSystem

CASE_IDS = ("4a", "4b", "5a", "5b", "5c", "5d", "5e", "6a", "6b", "6c")

GROUPS = {
    "4": ("4a", "4b"),
    "5ab": ("5a", "5b"),
    "5cde": ("5c", "5d", "5e"),
    "6": ("6a", "6b", "6c"),
}

GROUP_OF_CASE = {c: g for g, cs in GROUPS.items() for c in cs}


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
    l_param: int
    ab: tuple[int, int]
    symmetry: tuple[tuple[int, int], ...]
    gamma_row: tuple[int, ...]
    delta_row: tuple[int, ...]
    kl_index: tuple[int, int]
    angle_mult: tuple[int, int]
    group: str
    # gamma + delta on the interior line of symmetry of the region
    center_sum: int

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The classes of positions whose k_i are equal: the symmetry pairs,
        which are disjoint in every case, then each unpaired position."""
        paired = {i for pair in self.symmetry for i in pair}
        return self.symmetry + tuple((i,) for i in range(self.n_plus_1)
                                     if i not in paired)


_DESCRIPTORS = {
    "4a": CaseDescriptor(
        "4a", 4, 4, (2, 2), ((1, 3),),
        (3, -2, -1, 0), (1, 2, -3, 0), (0, 2), (1, 1), "4", 0),
    "4b": CaseDescriptor(
        "4b", 4, 2, (2, 2), ((0, 2),),
        (-2, -1, 0, 3), (2, -3, 0, 1), (3, 1), (1, 1), "4", 0),
    "5a": CaseDescriptor(
        "5a", 5, 5, (2, 1), ((1, 4), (2, 3)),
        (4, -2, -2, 0, 0), (2, 4, -6, 0, 0), (0, 2), (1, 2), "5ab", 1),
    "5b": CaseDescriptor(
        "5b", 5, 3, (2, 1), ((0, 3), (1, 2)),
        (-2, -2, 0, 0, 4), (4, -6, 0, 0, 2), (4, 1), (1, 2), "5ab", 1),
    "5c": CaseDescriptor(
        "5c", 5, 4, (1, 2), ((1, 3), (0, 4)),
        (6, -4, -2, 0, 0), (2, 2, -4, 0, 0), (0, 2), (2, 1), "5cde", -1),
    "5d": CaseDescriptor(
        "5d", 5, 1, (1, 2), ((2, 4), (0, 1)),
        (6, 0, -4, -2, 0), (2, 0, 2, -4, 0), (0, 3), (2, 1), "5cde", -1),
    "5e": CaseDescriptor(
        "5e", 5, 2, (1, 2), ((0, 2), (3, 4)),
        (-4, -2, 0, 6, 0), (2, -4, 0, 2, 0), (3, 1), (2, 1), "5cde", -1),
    "6a": CaseDescriptor(
        "6a", 6, 5, (1, 1), ((1, 4), (0, 5), (2, 3)),
        (8, -4, -4, 0, 0, 0), (4, 4, -8, 0, 0, 0), (0, 2), (2, 2), "6", 0),
    "6b": CaseDescriptor(
        "6b", 6, 1, (1, 1), ((2, 5), (0, 1), (3, 4)),
        (8, 0, -4, -4, 0, 0), (4, 0, 4, -8, 0, 0), (0, 3), (2, 2), "6", 0),
    "6c": CaseDescriptor(
        "6c", 6, 3, (1, 1), ((0, 3), (4, 5), (1, 2)),
        (-4, -4, 0, 0, 8, 0), (4, -8, 0, 0, 4, 0), (4, 1), (2, 2), "6", 0),
}


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


def k_to_asymptotic(k: KVector) -> AsymptoticData:
    desc = descriptor(k.case)
    N = k.N
    if N <= 0:
        raise ValueError("N must be positive")
    gamma = sum(c * ki for c, ki in zip(desc.gamma_row, k.entries)) / N
    delta = sum(c * ki for c, ki in zip(desc.delta_row, k.entries)) / N
    return AsymptoticData(Fraction(gamma), Fraction(delta))


@lru_cache(maxsize=None)
def _k_system(case_id: str) -> LinearSystem:
    """The gamma and delta forms, the sum row and one row per symmetry pair.

    3 + (number of symmetry pairs) = n + 1 for every case: the system is
    square and nonsingular, so it is consistent for every right-hand side.
    """
    desc = descriptor(case_id)
    n1 = desc.n_plus_1
    rows = [desc.gamma_row, desc.delta_row, (1,) * n1]
    for i, j in desc.symmetry:
        row = [0] * n1
        row[i], row[j] = 1, -1
        rows.append(row)
    return LinearSystem(rows)


def asymptotic_to_k(case_id: str, a: AsymptoticData, N=Fraction(1)) -> KVector:
    """Invert the linear forms under symmetry and sum normalization."""
    N = Fraction(N)
    if N <= 0:
        raise ValueError("N must be positive")
    desc = descriptor(case_id)
    rhs = [N * a.gamma, N * a.delta, N - desc.n_plus_1] + [0] * len(desc.symmetry)
    return KVector(case_id, tuple(_k_system(case_id).solve(rhs)))


def in_region(case_id: str, a: AsymptoticData) -> bool:
    """Membership in the closed triangular region of asymptotic data."""
    ea, eb = descriptor(case_id).ab
    return (a.gamma >= Fraction(-2, ea)
            and a.delta <= Fraction(2, eb)
            and a.gamma - a.delta <= 2)
