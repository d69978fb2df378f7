"""Exact arithmetic in the real span of cosines of rational angles.

Values of the form 2*cos(pi*p/q) generate, together with the rationals,
a tower of real cyclotomic fields.  ``AlgReal`` represents an element of
Q(zeta_M) for an even conductor M, reduced modulo the M-th cyclotomic
polynomial and pushed down to the smallest even conductor containing it.
All coefficients are exact ``fractions.Fraction`` values, so equality is
canonical and integrality questions are decidable.

Two primitives do the work.  ``_substitute`` evaluates sum_j c_j zeta_M^(a*j)
mod Phi_M: it reduces products (a = 1), lifts an element into a larger
field (a = M / conductor) and conjugates (a = M - 1).  ``LinearSystem`` is
the one exact linear solver: descending to a subfield Q(zeta_d) is a solve
against its power basis, consistent exactly when the element lies in it,
and ``cases.asymptotic_to_k`` inverts its linear forms with the same solver.
Integrality is decided on integers instead (``cyclotomic_factors``).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Union

RationalLike = Union[Fraction, int]


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    # (x^n - 1) divided by the product of Phi_d for proper divisors d.
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, _cyclotomic(d))
    return tuple(poly)


def _polydiv_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials (remainder must vanish)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, dc in enumerate(den):
                num[i - dd + j] -= c * dc
    assert all(c == 0 for c in num)
    return out


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


def moebius(n: int) -> int:
    """The Moebius function: the sum of the primitive n-th roots of unity."""
    primes = _prime_factors(n)
    if any(n % (p * p) == 0 for p in primes):
        return 0
    return -1 if len(primes) % 2 else 1


def cyclotomic_factors(exponents: Iterable[int], n: int) -> Optional[dict[int, int]]:
    """{d: m_d} with prod Phi_d^m_d having exactly the roots zeta_n^e, or None.

    The one integrality decision of the package (Kronecker): a monic
    polynomial whose roots are roots of unity lies in Z[t] exactly when its
    roots are stable under the Galois group of Q(zeta_n), zeta_n^e ->
    zeta_n^(u*e) for the units u mod n, and is then a product of cyclotomic
    polynomials.  The zeta_n^e with n/gcd(e, n) = d, the phi(d) primitive
    d-th roots of unity, are one orbit: each one met must be present in
    full with one multiplicity m_d.  The root sum is sum m_d*mu(d).
    """
    classes: dict[int, list[int]] = {}
    for e, mult in Counter(e % n for e in exponents).items():
        classes.setdefault(n // math.gcd(e, n), []).append(mult)
    factors = {}
    for d, mults in classes.items():
        if len(mults) != _phi(d) or min(mults) != max(mults):
            return None
        factors[d] = mults[0]
    return factors


@lru_cache(maxsize=None)
def _power_table(M: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """zeta_M^e reduced mod Phi_M, for e = 0 .. M-1, as sparse (index, value) rows."""
    deg = _phi(M)
    phi_poly = _cyclotomic(M)
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(M):
        rows.append(tuple((i, v) for i, v in enumerate(cur) if v))
        # multiply by zeta
        nxt = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            for j in range(deg):
                nxt[j] -= lead * phi_poly[j]
        cur = nxt
    return tuple(rows)


def _substitute(M: int, coeffs, a: int = 1) -> list[Fraction]:
    """sum_j c_j zeta_M^(a*j), reduced mod Phi_M.

    With a = 1 this reduces a polynomial in zeta_M of any length; a = M - 1
    is complex conjugation; a = M // c lifts an element of conductor c
    dividing M into Q(zeta_M).
    """
    table = _power_table(M)
    out = [Fraction(0)] * _phi(M)
    for j, c in enumerate(coeffs):
        if c:
            for i, v in table[(a * j) % M]:
                out[i] += c * v
    return out


class LinearSystem:
    """An exact system A x = b whose m x n matrix A has full column rank.

    The factorization is one Gauss-Jordan elimination of [A^T | I] over
    Fraction.  Its pivot columns name n rows P of A whose square block A_P
    is invertible, and its right half ends as the transpose of A_P^-1.
    ``solve`` computes x = A_P^-1 b_P and multiplies the other rows of A
    back to check it.
    """

    __slots__ = ("_pivots", "_inverse", "_others")

    def __init__(self, rows):
        m, n = len(rows), len(rows[0])
        work = [[Fraction(row[j]) for row in rows]
                + [Fraction(int(i == j)) for i in range(n)] for j in range(n)]
        pivots: list[int] = []
        for col in range(m):
            r = len(pivots)
            if r == n:
                break
            piv = next((i for i in range(r, n) if work[i][col]), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            # columns up to col are never read again: only the tails change
            head = work[r][col]
            tail = [v / head for v in work[r][col + 1:]]
            work[r][col + 1:] = tail
            for i in range(n):
                f = work[i][col]
                if i != r and f:
                    work[i][col + 1:] = [v - f * w if w else v
                                         for v, w in zip(work[i][col + 1:], tail)]
            pivots.append(col)
        if len(pivots) < n:
            raise ValueError("singular system")
        self._pivots = tuple(pivots)
        # row j of A_P^-1 is column m + j of the right half, kept sparse
        self._inverse = tuple(tuple((k, work[k][m + j]) for k in range(n) if work[k][m + j])
                              for j in range(n))
        chosen = set(pivots)
        self._others = tuple((i, tuple((j, v) for j, v in enumerate(row) if v))
                             for i, row in enumerate(rows) if i not in chosen)

    def solve(self, rhs) -> Optional[list[Fraction]]:
        """The unique x with A x = rhs, or None if the system is inconsistent."""
        b = [rhs[p] for p in self._pivots]
        x = [sum((v * b[k] for k, v in row), Fraction(0)) for row in self._inverse]
        for i, row in self._others:
            if sum(v * x[j] for j, v in row) != rhs[i]:
                return None
        return x


@lru_cache(maxsize=None)
def _descent_system(M: int, d: int) -> LinearSystem:
    """Columns zeta_M^((M/d)*j), j < phi(d): the power basis of Q(zeta_d)."""
    table = _power_table(M)
    rows = [[0] * _phi(d) for _ in range(_phi(M))]
    for j in range(_phi(d)):
        for i, v in table[(M // d * j) % M]:
            rows[i][j] = v
    return LinearSystem(rows)


def _minimize(M: int, coeffs: list[Fraction]) -> tuple[int, tuple[Fraction, ...]]:
    """Push an element down to its minimal even conductor, by subfield membership.

    The element lies in Q(zeta_d), d = M/p, exactly when its coefficient
    vector is a combination of the columns zeta_M^((M/d)*j), j < phi(d):
    the descent system is consistent, and its solution is the coefficient
    vector at conductor d.  Descend one prime at a time until no even d
    admits the element.
    """
    while M > 2:
        for p in _prime_factors(M):
            d = M // p
            if d % 2 == 0:
                x = _descent_system(M, d).solve(coeffs)
                if x is not None:
                    M, coeffs = d, x
                    break
        else:
            break
    return M, tuple(coeffs)


class AlgReal:
    """An exact real element of a cyclotomic field of even conductor.

    Instances are immutable, canonically reduced, and hashable; two equal
    values always have identical ``(conductor, coeffs)`` data.
    """

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs, _reduced: bool = False):
        # coeffs are ints or Fractions; the reduction returns Fractions
        if not _reduced:
            if conductor % 2 != 0:
                raise ValueError("conductor must be even")
            conductor, coeffs = _minimize(conductor, _substitute(conductor, coeffs))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("AlgReal is immutable")

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rational(q: RationalLike) -> "AlgReal":
        return AlgReal(2, [Fraction(q)])

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(x) -> "AlgReal":
        if isinstance(x, AlgReal):
            return x
        return AlgReal.from_rational(x)

    def _lift(self, M: int) -> list:
        """The coefficient vector in Q(zeta_M); already reduced at M itself."""
        if self.conductor == M:
            return list(self.coeffs)
        return _substitute(M, self.coeffs, M // self.conductor)

    def _unify(self, other: "AlgReal"):
        M = math.lcm(self.conductor, other.conductor)
        return M, self._lift(M), other._lift(M)

    def __add__(self, other) -> "AlgReal":
        other = self._coerce(other)
        if self.conductor == 2:
            self, other = other, self
        if other.conductor == 2:
            # a rational moves the constant term only: still reduced and minimal
            coeffs = (self.coeffs[0] + other.coeffs[0],) + self.coeffs[1:]
            return AlgReal(self.conductor, coeffs, _reduced=True)
        M, a, b = self._unify(other)
        return AlgReal(M, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other) -> "AlgReal":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "AlgReal":
        return (-self) + other

    def __neg__(self) -> "AlgReal":
        return AlgReal(self.conductor, [-c for c in self.coeffs], _reduced=True)

    def __mul__(self, other) -> "AlgReal":
        if isinstance(other, (int, Fraction)):
            if not other:
                return AlgReal.from_rational(0)
            # a nonzero rational multiple is still reduced and minimal
            return AlgReal(self.conductor, [c * other for c in self.coeffs],
                           _reduced=True)
        M, a, b = self._unify(other)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return AlgReal(M, prod)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = AlgReal.from_rational(other)
        if not isinstance(other, AlgReal):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        # hashed on first use: most values are never a set member or dict key
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.conductor, self.coeffs)))
            return self._hash

    def __repr__(self):
        return f"AlgReal(M={self.conductor}, coeffs={self.coeffs})"

    # -- predicates and conversions -----------------------------------

    def is_real(self) -> bool:
        """True iff the element is fixed by complex conjugation."""
        conj = _substitute(self.conductor, self.coeffs, self.conductor - 1)
        return tuple(conj) == self.coeffs

    def as_rational(self) -> Optional[Fraction]:
        if self.conductor == 2:
            return self.coeffs[0]
        return None

    def is_integer(self) -> Optional[int]:
        q = self.as_rational()
        if q is not None and q.denominator == 1:
            return int(q)
        return None

    def to_float(self) -> float:
        M = self.conductor
        terms = [float(c) * math.cos(2.0 * math.pi * j / M)
                 for j, c in enumerate(self.coeffs) if c]
        return math.fsum(terms) if terms else 0.0


def cos2(r: RationalLike) -> AlgReal:
    """The exact value 2*cos(pi*r) for rational r."""
    r = Fraction(r) % 2
    if r > 1:
        r = 2 - r
    if r == 0:
        return AlgReal.from_rational(2)
    if r == 1:
        return AlgReal.from_rational(-2)
    q = r.denominator
    p = r.numerator
    M = 2 * q
    coeffs = [Fraction(0)] * M
    coeffs[p % M] += 1
    coeffs[(M - p) % M] += 1
    return AlgReal(M, coeffs)

