"""Exact arithmetic in the real span of cosines of rational angles.

Values of the form 2*cos(pi*p/q) generate, together with the rationals,
a tower of real cyclotomic fields.  ``AlgReal`` represents an element of
Q(zeta_M) for an even conductor M, reduced modulo the M-th cyclotomic
polynomial and pushed down to the smallest even conductor containing it.
All coefficients are exact ``fractions.Fraction`` values, so equality is
canonical and integrality questions are decidable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

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
def _phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


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
def _power_table(M: int) -> tuple[tuple[int, ...], ...]:
    """zeta_M^e reduced mod Phi_M, for e = 0 .. M-1, as integer vectors."""
    deg = _phi(M)
    phi_poly = _cyclotomic(M)
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(M):
        rows.append(tuple(cur))
        # multiply by zeta
        nxt = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            for j in range(deg):
                nxt[j] -= lead * phi_poly[j]
        cur = nxt
    return tuple(rows)


def _reduce_poly(M: int, coeffs: list[Fraction]) -> list[Fraction]:
    """Reduce a polynomial in zeta_M (any length) mod Phi_M."""
    deg = _phi(M)
    table = _power_table(M)
    out = [Fraction(0)] * deg
    for e, c in enumerate(coeffs):
        if c:
            row = table[e % M]
            for j in range(deg):
                if row[j]:
                    out[j] += c * row[j]
    return out


@lru_cache(maxsize=None)
def _descent_solver(M: int, d: int):
    """Data for rewriting an element of Q(zeta_M) known to lie in Q(zeta_d).

    Returns (pivot_rows, inverse) where inverse is the exact inverse of the
    square submatrix of the basis-change matrix picked out by pivot_rows.
    Columns of the basis-change matrix are zeta_M^{(M/d)*j} reduced mod
    Phi_M, j = 0 .. phi(d)-1.
    """
    degM, degd = _phi(M), _phi(d)
    table = _power_table(M)
    step = M // d
    cols = [table[(step * j) % M] for j in range(degd)]
    # rows of the phi(M) x phi(d) matrix, tagged with their original index
    mat = [[Fraction(cols[j][i]) for j in range(degd)] for i in range(degM)]
    work = [(i, row[:]) for i, row in enumerate(mat)]
    pivot_rows: list[int] = []
    col = 0
    for r in range(degM):
        if col >= degd:
            break
        if work[r][1][col] == 0:
            for rr in range(r + 1, degM):
                if work[rr][1][col] != 0:
                    work[r], work[rr] = work[rr], work[r]
                    break
            else:
                continue
        pivot_rows.append(work[r][0])
        inv = work[r][1][col]
        for rr in range(r + 1, degM):
            f = work[rr][1][col] / inv
            if f:
                for cc in range(col, degd):
                    work[rr][1][cc] -= f * work[r][1][cc]
        col += 1
    assert len(pivot_rows) == degd
    sub = [mat[r][:] for r in pivot_rows]
    inverse = _invert_matrix(sub)
    return tuple(pivot_rows), inverse


def _invert_matrix(m: list[list[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    n = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = aug[c][c]
        aug[c] = [v / inv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [v - f * p for v, p in zip(aug[r], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def _apply_automorphism(M: int, coeffs: tuple[Fraction, ...], a: int) -> list[Fraction]:
    """sigma_a: zeta -> zeta^a applied to a reduced coefficient vector."""
    deg = _phi(M)
    table = _power_table(M)
    out = [Fraction(0)] * deg
    for j, c in enumerate(coeffs):
        if c:
            row = table[(a * j) % M]
            for i in range(deg):
                if row[i]:
                    out[i] += c * row[i]
    return out


def _minimize(M: int, coeffs: list[Fraction]) -> tuple[int, tuple[Fraction, ...]]:
    """Push an element down to its minimal even conductor."""
    while M > 2:
        descended = False
        for p in _prime_factors(M):
            d = M // p
            if d % 2 == 1:
                continue
            # Galois-invariance under Gal(Q(zeta_M)/Q(zeta_d))
            invariant = True
            for a in range(1, M):
                if a != 1 and math.gcd(a, M) == 1 and a % d == 1:
                    if _apply_automorphism(M, tuple(coeffs), a) != coeffs:
                        invariant = False
                        break
            if not invariant:
                continue
            rows, inverse = _descent_solver(M, d)
            rhs = [coeffs[r] for r in rows]
            new = [sum(inverse[i][j] * rhs[j] for j in range(len(rhs)))
                   for i in range(len(rhs))]
            M, coeffs = d, new
            descended = True
            break
        if not descended:
            break
    return M, tuple(coeffs)


class AlgReal:
    """An exact real element of a cyclotomic field of even conductor.

    Instances are immutable, canonically reduced, and hashable; two equal
    values always have identical ``(conductor, coeffs)`` data.
    """

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs, _reduced: bool = False):
        coeffs = [Fraction(c) for c in coeffs]
        if not _reduced:
            if conductor % 2 != 0:
                raise ValueError("conductor must be even")
            coeffs = _reduce_poly(conductor, coeffs)
            conductor, coeffs = _minimize(conductor, coeffs)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "_hash", hash((conductor, self.coeffs)))

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

    def _unify(self, other: "AlgReal"):
        M = math.lcm(self.conductor, other.conductor)
        a = _reduce_poly(M, self._lift(M))
        b = _reduce_poly(M, other._lift(M))
        return M, a, b

    def _lift(self, M: int) -> list[Fraction]:
        step = M // self.conductor
        out = [Fraction(0)] * (step * (len(self.coeffs) - 1) + 1)
        for j, c in enumerate(self.coeffs):
            out[step * j] = c
        return out

    def __add__(self, other) -> "AlgReal":
        other = self._coerce(other)
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
            return AlgReal(self.conductor, [c * other for c in self.coeffs])
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
        return self._hash

    def __repr__(self):
        return f"AlgReal(M={self.conductor}, coeffs={self.coeffs})"

    # -- predicates and conversions -----------------------------------

    def is_real(self) -> bool:
        """True iff the element is fixed by complex conjugation."""
        conj = _apply_automorphism(self.conductor, self.coeffs, self.conductor - 1)
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

