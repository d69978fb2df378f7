import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from ttstar.cases import KVector, descriptor


def random_symmetric_gaps(rng: random.Random, case_id: str,
                          max_den: int = 24) -> tuple[Fraction, ...]:
    """A random nonnegative gap vector summing to 1 with the case symmetry."""
    desc = descriptor(case_id)
    n1 = desc.n_plus_1
    # union-find the symmetry classes
    parent = list(range(n1))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in desc.symmetry:
        parent[find(i)] = find(j)
    classes: dict[int, list[int]] = {}
    for i in range(n1):
        classes.setdefault(find(i), []).append(i)
    reps = sorted(classes)
    q = rng.randint(1, max_den)
    # random composition of q over the classes, weighted by class size
    weights = [len(classes[r]) for r in reps]
    counts = [0] * len(reps)
    for _ in range(q):
        counts[rng.randrange(len(reps))] += 1
    gaps = [Fraction(0)] * n1
    for rep, total, w in zip(reps, counts, weights):
        # split the class total evenly so tied slots stay equal
        share = Fraction(total, q * w)
        for i in classes[rep]:
            gaps[i] = share
    assert sum(gaps) == 1
    return tuple(gaps)


def class_compositions(total: int, sizes: list[int]):
    """All tuples c of nonnegative integers with sum(c[r] * sizes[r]) == total."""
    if len(sizes) == 1:
        if total % sizes[0] == 0:
            yield (total // sizes[0],)
        return
    for first in range(total // sizes[0] + 1):
        for rest in class_compositions(total - first * sizes[0], sizes[1:]):
            yield (first,) + rest


def random_symmetric_k(rng: random.Random, case_id: str,
                       max_den: int = 24) -> KVector:
    gaps = random_symmetric_gaps(rng, case_id, max_den)
    return KVector(case_id, tuple(g - 1 for g in gaps))


def primitive(gaps) -> list[int]:
    """Integer gaps divided by their gcd: equal for vectors equal up to a
    positive scale (the sign is kept)."""
    g = reduce(gcd, gaps)
    return [c // g for c in gaps]


def check_Q(k_gaps) -> bool:
    """Condition Q of the corollary, at least one vanishing gap (nonzero
    second cohomology of the target), on a nonnegative gap vector summing
    to 1; the converse sweep keeps the vectors with a zero class inline."""
    gaps = Counter(k_gaps)
    if any(g < 0 for g in gaps):
        raise ValueError("gaps must be nonnegative")
    if sum(gaps.elements()) != 1:
        raise ValueError("gaps must sum to 1")
    return gaps[Fraction(0)] > 0


@pytest.fixture
def rng():
    return random.Random(20240817)
