"""Exact arithmetic in the real span of cosines of rational angles.

Values of the form 2*cos(pi*p/q) generate, together with the rationals,
a tower of real cyclotomic fields.  ``AlgReal`` represents an element of
Q(zeta_M) for an even conductor M, reduced modulo the M-th cyclotomic
polynomial at the conductor its operands give it (the lcm of theirs).
All coefficients are exact ``fractions.Fraction`` values.  Equality lifts
both sides to a common conductor, where the reduced form is unique; the
hash is a linear form that vanishes on every relation among roots of
unity, so it does not depend on the conductor.

One primitive does the work: ``_substitute`` evaluates sum_j c_j zeta_M^(a*j)
mod Phi_M.  It reduces products (a = 1) and lifts an element into a
larger field (a = M / conductor).
Integrality, and the value of integral cosine sums, are decided on integers
instead, by one kernel (``cos_pair_sums``, the root sums of
``cyclotomic_factors`` worked out in closed form for four roots).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from collections.abc import Iterable

RationalLike = Fraction | int


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


@lru_cache(maxsize=None)
def moebius(n: int) -> int:
    """The Moebius function: the sum of the primitive n-th roots of unity."""
    primes = _prime_factors(n)
    if any(n % (p * p) == 0 for p in primes):
        return 0
    return -1 if len(primes) % 2 else 1


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial, the
    Moebius product of the x^d - 1 over the divisors d of n to the powers
    mu(n/d): the factors of power 1 multiplied, then those of power -1
    divided out, where q (x^d - 1) = p gives q_i = q_(i-d) - p_i."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    poly = [1]
    for d in divisors:
        if moebius(n // d) == 1:
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d in divisors:
        if moebius(n // d) == -1:
            q = []
            for i in range(len(poly) - d):
                q.append((q[i - d] if i >= d else 0) - poly[i])
            poly = q
    return tuple(poly)


def cyclotomic_factors(exponents: Iterable[int], n: int) -> dict[int, int] | None:
    """{d: m_d} with prod Phi_d^m_d having exactly the roots zeta_n^e, or None.

    The one integrality decision of the package (Kronecker): a monic
    polynomial whose roots are roots of unity lies in Z[t] exactly when its
    roots are stable under the Galois group of Q(zeta_n), zeta_n^e ->
    zeta_n^(u*e) for the units u mod n, and is then a product of cyclotomic
    polynomials.  The zeta_n^e with n/gcd(e, n) = d, the phi(d) primitive
    d-th roots of unity, are one orbit: each one met must be present in
    full with one multiplicity m_d.  One pass over the distinct exponents
    checks the multiplicities; as each orbit holds at most phi(d) of them,
    all are full exactly when the phi(d) add up to their number.  The root
    sum is sum m_d*mu(d).
    """
    counts: dict[int, int] = {}
    for e in exponents:
        e %= n
        counts[e] = counts.get(e, 0) + 1
    factors: dict[int, int] = {}
    for e, mult in counts.items():
        if factors.setdefault(n // math.gcd(e, n), mult) != mult:
            return None
    if sum(map(_phi, factors)) != len(counts):
        return None
    return factors


# (2/phi(d))*mu(d) = 2cos(2*pi/d) at the orders d with phi(d) <= 2, where
# zeta^(+-a) fill their orbit: the only rational values of 2cos (Niven)
_RATIONAL_2COS = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}


def _pair_root_sum(a: int, b: int, n: int) -> int | None:
    """The sum of the roots zeta_n^(+-a), zeta_n^(+-b), or None when they are
    not a product of cyclotomic polynomials (``cyclotomic_factors``), in
    closed form from the orders d_a = n/gcd(a, n) and d_b of zeta_n^a and
    zeta_n^b; the primitive d-th roots of unity sum to mu(d).

    The orbit of zeta_n^a holds phi(d_a) roots, among them zeta_n^(+-a).
    When d_a != d_b the two orbits are apart, and each is full only when
    phi <= 2, with multiplicity 2/phi: the sum is then
    (2/phi(d_a))*mu(d_a) + (2/phi(d_b))*mu(d_b), the rational values
    2cos(2*pi*a/n) + 2cos(2*pi*b/n).  When d_a = d_b = d, one orbit holds
    all four: with phi(d) <= 2 the sum is 2*(2/phi(d))*mu(d), the same
    values; with phi(d) = 4 (d in 5, 8, 10, 12) it is full, once, exactly
    when b is not +-a mod n, and the sum is mu(d); else it is never full.
    """
    da, db = n // math.gcd(a, n), n // math.gcd(b, n)
    x, y = _RATIONAL_2COS.get(da), _RATIONAL_2COS.get(db)
    if x is not None and y is not None:
        return x + y
    if da == db and da in (5, 8, 10, 12) and (a - b) % n and (a + b) % n:
        return moebius(da)
    return None


def cos_pair_sums(a: int, b: int, n: int) -> tuple[int, int] | None:
    """The integers (x + y, x*y) for x = 2cos(pi*a/n), y = 2cos(pi*b/n), or
    None when they are not integral: the one integer kernel behind every
    integral Stokes answer.

    They are integral exactly when (t^2 - x t + 1)(t^2 - y t + 1), whose
    roots are zeta^(+-a), zeta^(+-b) with zeta = exp(i*pi/n), lies in Z[t],
    that is, when those roots are a product of cyclotomic polynomials; their
    sum is then x + y.  ``_pair_root_sum`` decides it and gives the sum in
    closed form from the orders of zeta^a and zeta^b.
    Then x*y = 2cos(pi(a+b)/n) + 2cos(pi(a-b)/n) is the root sum of +-(a+b),
    +-(a-b), which every unit mod 2n permuting +-a, +-b permutes too.
    """
    s = _pair_root_sum(a, b, 2 * n)
    if s is None:
        return None
    return s, _pair_root_sum(a + b, a - b, 2 * n)


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

    With a = 1 this reduces a polynomial in zeta_M of any length; a = M // c
    lifts an element of conductor c dividing M into Q(zeta_M).
    """
    table = _power_table(M)
    out = [Fraction(0)] * _phi(M)
    for j, c in enumerate(coeffs):
        if c:
            for i, v in table[(a * j) % M]:
                out[i] += c * v
    return out


_P = 2**61 - 1  # the modulus of Python's numeric hash


@lru_cache(maxsize=None)
def _root_weight(p: int, pa: int, k: int) -> int:
    """w(zeta_pa^k) mod P, pa a power of the prime p and k/pa in lowest
    terms: 1 at k = 0, pseudo-random (seeded by pa^2 + k) elsewhere but at
    the last point of each coset k + (pa/p)*Z, which takes minus the rest,
    so every coset sums to 0."""
    if k == 0:
        return 1
    step = pa // p
    if k < pa - step:
        return random.Random(pa * pa + k).getrandbits(61)
    return -sum(_root_weight(p, pa, k - i * step) for i in range(1, p)) % _P


@lru_cache(maxsize=None)
def _hash_weights(M: int) -> tuple[int, ...]:
    """w(zeta_M^j) for j < phi(M), the product of ``_root_weight`` over the
    p-primary parts of j/M.  w sends each rotated sum of the p-th roots of
    unity to 0, and these span every linear relation among roots of unity
    (de Bruijn), so sum_j c_j w(zeta_M^j) mod P depends on the value only."""
    out = [1] * _phi(M)
    for p in _prime_factors(M):
        pa = math.gcd(M, p ** M.bit_length())  # the p-part of M
        inv = pow(M // pa, -1, pa)
        for j in range(len(out)):
            g = math.gcd(j * inv, pa)
            out[j] = out[j] * _root_weight(p, pa // g, j * inv % pa // g) % _P
    return tuple(out)


class AlgReal:
    """An exact real element of a cyclotomic field of even conductor.

    Instances are immutable and hashable.  A value is kept reduced mod
    Phi_M at the conductor M its operands give it, not pushed down to the
    smallest one, so equal values may have different ``(conductor,
    coeffs)`` data: they compare equal at the lcm of their conductors and
    hash alike (``_hash_weights``).
    """

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs):
        # coeffs are ints or Fractions; phi(M) of them are the reduced form,
        # any other number is reduced (to Fractions)
        if conductor % 2 != 0:
            raise ValueError("conductor must be even")
        if len(coeffs) != _phi(conductor):
            coeffs = _substitute(conductor, coeffs)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("AlgReal is immutable")

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rational(q: RationalLike) -> "AlgReal":
        return AlgReal(2, (Fraction(q),))

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
            # a rational moves the constant term only
            coeffs = (self.coeffs[0] + other.coeffs[0],) + self.coeffs[1:]
            return AlgReal(self.conductor, coeffs)
        M, a, b = self._unify(other)
        return AlgReal(M, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other) -> "AlgReal":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "AlgReal":
        return (-self) + other

    def __neg__(self) -> "AlgReal":
        return AlgReal(self.conductor, [-c for c in self.coeffs])

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
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        # a rational side or unequal hashes decide without the lift to the
        # lcm, whose power table can be large
        q, r = self.as_rational(), other.as_rational()
        if q is not None or r is not None:
            return q == r
        if hash(self) != hash(other):
            return False
        _, a, b = self._unify(other)
        return a == b

    def __hash__(self):
        # a rational q hashes as q, an irrational value as sum_j c_j w(zeta_M^j)
        # mod P (``_hash_weights``), the same at every conductor; on first
        # use, as most values are never hashed
        try:
            return self._hash
        except AttributeError:
            q = self.as_rational()
            if q is None:
                q = sum(c.numerator * pow(c.denominator, -1, _P) * w for c, w
                        in zip(self.coeffs, _hash_weights(self.conductor)) if c) % _P
            object.__setattr__(self, "_hash", hash(q))
            return self._hash

    def __repr__(self):
        return f"AlgReal(M={self.conductor}, coeffs={self.coeffs})"

    # -- predicates and conversions -----------------------------------

    def as_rational(self) -> Fraction | None:
        """The value, or None when irrational: a reduced value is rational
        exactly when every coefficient but the constant one is zero."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def is_integer(self) -> int | None:
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
    """The exact value 2*cos(pi*r) for rational r: zeta^p + zeta^-p for
    r = p/q mod 2, zeta = zeta_2q."""
    r = Fraction(r) % 2
    coeffs = [0] * (2 * r.denominator)
    coeffs[r.numerator] += 1
    coeffs[-r.numerator] += 1
    return AlgReal(len(coeffs), coeffs)
