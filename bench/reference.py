"""Independent references for the benchmark's output checks.

Standard library only, and nothing from the package under test: exact
Bernoulli and generalized Bernoulli numbers, the Kronecker symbol from
Euler's criterion, a prime sieve, the necklace count of monic
irreducibles, and the closed forms that follow from them.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

#: Catalan's constant G = L(2, chi_-4), to more digits than binary64 holds.
CATALAN = 0.91596559417721901505460351493238411077414937428167


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def discriminant(d: int) -> int:
    """Discriminant of Q(sqrt d) for squarefree d not in {0, 1}."""
    return d if d % 4 == 1 else 4 * d


def primes_up_to(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(2, n + 1) if flags[p]]


def chi_prime(D: int, p: int) -> int:
    """(D/p) for a fundamental discriminant D and a prime p."""
    if D % p == 0:
        return 0
    if p == 2:
        return 1 if D % 8 == 1 else -1
    r = pow(D % p, (p - 1) // 2, p)  # Euler's criterion
    return 1 if r == 1 else -1


def chi(D: int, n: int) -> int:
    """Kronecker symbol (D/n) for n >= 1, multiplied out over n's prime factors."""
    out = 1
    p = 2
    while p * p <= n:
        while n % p == 0:
            out *= chi_prime(D, p)
            n //= p
        p += 1
    if n > 1:
        out *= chi_prime(D, n)
    return out


def totient(n: int) -> int:
    """Residue classes mod n coprime to n."""
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def irreducible_count(q: int, d: int) -> int:
    """Monic irreducibles of degree d over GF(q): (1/d) sum_{e|d} mu(e) q^(d/e)."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _mobius(e) * q ** (d // e)
    return total // d


def _mobius(n: int) -> int:
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, from sum_{k<=n} C(n+1, k) B_k = 0."""
    if n == 0:
        return Fraction(1)
    return -sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n)) / (n + 1)


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    return sum(math.comb(n, k) * bernoulli(k) * x ** (n - k) for k in range(n + 1))


@lru_cache(maxsize=None)
def generalized_bernoulli(n: int, D: int) -> Fraction:
    """B_{n,chi_D} = f^(n-1) sum_{a=1..f} chi_D(a) B_n(a/f), f = |D| > 1."""
    f = abs(D)
    acc = sum(chi(D, a) * bernoulli_poly(n, Fraction(a, f)) for a in range(1, f + 1))
    return f ** (n - 1) * acc


def zeta_at_negative(n: int) -> Fraction:
    """zeta(-n) = -B_{n+1}/(n+1), n >= 1."""
    return -bernoulli(n + 1) / (n + 1)


def l_at_negative(n: int, D: int) -> Fraction:
    """L(-n, chi_D) = -B_{n+1,chi}/(n+1), n >= 0."""
    return -generalized_bernoulli(n + 1, D) / (n + 1)


def zeta_at_even(k: int) -> float:
    """zeta(2k) = (-1)^(k+1) B_2k (2 pi)^2k / (2 (2k)!), k >= 1."""
    return float((-1) ** (k + 1) * bernoulli(2 * k) / (2 * math.factorial(2 * k))) * (
        2.0 * math.pi
    ) ** (2 * k)


def l_at_positive(n: int, D: int) -> float:
    """L(n, chi_D) for n >= 1 of the parity of chi_D (even for D > 0, odd for D < 0).

    L(n, chi) = (-1)^(1 + (n - delta)/2) sqrt(f)/2 (2 pi/f)^n B_{n,chi}/n!,
    where chi_D is real and primitive with Gauss sum i^delta sqrt(f).
    """
    f = abs(D)
    delta = 0 if D > 0 else 1
    if n < 1 or (n - delta) % 2:
        raise ValueError(f"no closed form for L({n}, chi_{D})")
    sign = (-1) ** (1 + (n - delta) // 2)
    exact = sign * generalized_bernoulli(n, D) / math.factorial(n)
    return float(exact) * math.sqrt(f) / 2.0 * (2.0 * math.pi / f) ** n


def function_field_zeta(q: int, s: complex) -> complex:
    """zeta of GF(q)(T): 1 / ((1 - q^-s)(1 - q^(1-s)))."""
    t = cmath.exp(-s * math.log(q))
    return 1.0 / ((1.0 - t) * (1.0 - q * t))


def relative_error(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want)
