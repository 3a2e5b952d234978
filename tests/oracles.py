"""Independent oracles for the test suite.

Everything here is deliberately dumb: direct summation with explicit
tail bounds, exact Bernoulli rationals from the defining recurrence,
Simpson quadrature, brute-force residue symbols and point counts, and
the argparse parser the CLI used to build.  None of it shares code
with the package under test.
"""

from __future__ import annotations

import argparse
import math
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# Dirichlet-series summation with a midpoint tail
# ---------------------------------------------------------------------------

def zeta_series(sigma: float, n_terms: int) -> tuple[float, float]:
    """(value, error_bound) for zeta(sigma), sigma > 1, by direct summation.

    The tail sum_{n>N} n^-sigma is replaced by the midpoint integral
    (N+1/2)^(1-sigma)/(sigma-1); the replacement error is bounded by
    sigma(sigma+1)/24 * sum_{n>N} n^(-sigma-2), itself bounded by the
    integral N^(-sigma-1)/(sigma+1).  A factor 2 of slack is included.
    """
    partial = math.fsum(n ** -sigma for n in range(1, n_terms + 1))
    tail = (n_terms + 0.5) ** (1.0 - sigma) / (sigma - 1.0)
    bound = 2.0 * (sigma * (sigma + 1.0) / 24.0) * n_terms ** (-sigma - 1.0) / (sigma + 1.0)
    return partial + tail, bound


def dedekind_zeta_qi_series(sigma: float, n_terms: int) -> tuple[float, float]:
    """zeta_{Q(i)}(sigma) = zeta(sigma) * L(sigma, chi_-4) by two series."""
    z, zb = zeta_series(sigma, n_terms)
    l, lb = catalan_type_series(sigma, n_terms)
    value = z * l
    bound = abs(z) * lb + abs(l) * zb + zb * lb
    return value, bound


# ---------------------------------------------------------------------------
# Alternating series for L(s, chi_-4)
# ---------------------------------------------------------------------------

def leibniz_quarter_pi(n_terms: int) -> tuple[float, float]:
    """(value, error_bound) for 1 - 1/3 + 1/5 - ... by paired partial sums.

    Averaging consecutive partial sums of an alternating series with
    monotone terms bounds the error by half the difference of the next
    two terms: 1/((2N+3)(2N+5)).
    """
    partial = math.fsum((-1.0) ** n / (2 * n + 1) for n in range(n_terms + 1))
    nxt = (-1.0) ** (n_terms + 1) / (2 * n_terms + 3)
    value = partial + 0.5 * nxt
    bound = 1.0 / ((2 * n_terms + 3) * (2 * n_terms + 5))
    return value, bound


def catalan_type_series(sigma: float, n_terms: int) -> tuple[float, float]:
    """(value, error_bound) for sum (-1)^n (2n+1)^-sigma, sigma > 0.

    sigma = 2 gives Catalan's constant.  Same pairing bound as above:
    half the difference of two consecutive terms past the cut.
    """
    partial = math.fsum((-1.0) ** n * (2 * n + 1) ** -sigma for n in range(n_terms + 1))
    nxt = (-1.0) ** (n_terms + 1) * (2 * n_terms + 3) ** -sigma
    value = partial + 0.5 * nxt
    bound = 0.5 * ((2 * n_terms + 3) ** -sigma - (2 * n_terms + 5) ** -sigma)
    return value, bound


# ---------------------------------------------------------------------------
# Bernoulli numbers / polynomials from the defining recurrence
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_number(m: int) -> Fraction:
    """B_m via sum_{j=0}^{m} C(m+1, j) B_j = 0 (B_1 = -1/2 convention)."""
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * bernoulli_number(j)
    return -acc / (m + 1)


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_k C(n, k) B_k x^(n-k), exact for rational x."""
    x = Fraction(x)
    return sum(
        (math.comb(n, k) * bernoulli_number(k) * x ** (n - k) for k in range(n + 1)),
        Fraction(0),
    )


def hurwitz_at_negative_integer(n: int, a: Fraction) -> Fraction:
    """zeta_H(-n, a) = -B_{n+1}(a) / (n+1), exact."""
    return -bernoulli_poly(n + 1, Fraction(a)) / (n + 1)


def euler_kronecker(D: int, n: int) -> int:
    """(D/n) for a fundamental discriminant D and n >= 1, multiplied out
    over n's prime factors with Euler's criterion at each odd prime."""
    out = 1
    p = 2
    while n > 1:
        if p * p > n:
            p = n
        while n % p == 0:
            if D % p == 0:
                return 0
            if p == 2:
                out *= 1 if D % 8 == 1 else -1
            else:
                out *= 1 if pow(D % p, (p - 1) // 2, p) == 1 else -1
            n //= p
        p += 1
    return out


@lru_cache(maxsize=None)
def generalized_bernoulli(n: int, D: int) -> Fraction:
    """B_{n,chi_D} = f^(n-1) sum_{a=1..f} chi_D(a) B_n(a/f), f = |D| > 1.

    Twin of bench/reference.py's generalized_bernoulli: tests do not
    import bench/, so each side keeps one copy.
    """
    f = abs(D)
    acc = sum(euler_kronecker(D, a) * bernoulli_poly(n, Fraction(a, f)) for a in range(1, f + 1))
    return f ** (n - 1) * acc


def l_at_negative(n: int, D: int) -> Fraction:
    """L(-n, chi_D) = -B_{n+1,chi}/(n+1), n >= 0, exact."""
    return -generalized_bernoulli(n + 1, D) / (n + 1)


def character_moments(D: int, J: int) -> list[Fraction]:
    """mu_j = sum_{r=1..q} chi_D(r) (r/q - 1/2)^j for j = 0..J, q = |D| > 1,
    exact: each is sum_r chi_D(r) (2r - q)^j over (2q)^j."""
    q = abs(D)
    offsets = [2 * r - q for r in range(1, q + 1)]
    terms = [euler_kronecker(D, r) for r in range(1, q + 1)]  # chi_D(r) (2r - q)^j at j = 0
    moments = []
    for j in range(J + 1):
        moments.append(Fraction(sum(terms), (2 * q) ** j))
        terms = [t * d for t, d in zip(terms, offsets)]
    return moments


# ---------------------------------------------------------------------------
# Gamma by quadrature
# ---------------------------------------------------------------------------

def gamma_half_by_quadrature() -> tuple[float, float]:
    """(value, error_bound) for Gamma(1/2) = 2 * int_0^inf exp(-u^2) du.

    Composite Simpson on [0, 8] with 8192 panels; the tail beyond 8 is
    under exp(-64) and the Simpson error is ~(b-a) h^4 max|f''''| / 180.
    """
    a, b, panels = 0.0, 8.0, 8192
    h = (b - a) / panels
    acc = math.exp(-a * a) + math.exp(-b * b)
    acc += 4.0 * math.fsum(math.exp(-((a + (2 * k - 1) * h) ** 2)) for k in range(1, panels // 2 + 1))
    acc += 2.0 * math.fsum(math.exp(-((a + 2 * k * h) ** 2)) for k in range(1, panels // 2))
    integral = acc * h / 3.0
    bound = (b - a) * h ** 4 * 12.0 / 180.0 + math.exp(-b * b)
    return 2.0 * integral, 2.0 * bound


# ---------------------------------------------------------------------------
# Quadratic-residue Kronecker oracle
# ---------------------------------------------------------------------------

def _chi_at_prime(D: int, p: int) -> int:
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    if D % p == 0:
        return 0
    return 1 if any((x * x - D) % p == 0 for x in range(p)) else -1


def brute_kronecker(D: int, n: int) -> int:
    """(D/n) built multiplicatively from brute-force residue tests."""
    assert n >= 1
    out = 1
    m = n
    f = 2
    while f * f <= m:
        while m % f == 0:
            out *= _chi_at_prime(D, f)
            m //= f
        f += 1
    if m > 1:
        out *= _chi_at_prime(D, m)
    return out


def count_sqrt_solutions(a: int, p: int) -> int:
    """Number of x mod p with x^2 = a, for the splitting oracle."""
    return sum(1 for x in range(p) if (x * x - a) % p == 0)


# ---------------------------------------------------------------------------
# Counting oracles over finite fields
# ---------------------------------------------------------------------------

def mobius(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            out = -out
        f += 1
    if m > 1:
        out = -out
    return out


def necklace_count(q: int, n: int) -> int:
    """(1/n) sum_{d | n} mu(d) q^(n/d): monic irreducibles of degree n."""
    total = sum(mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def _poly_rem(u: list[int], m: list[int], p: int) -> list[int]:
    """u mod m over GF(p); lists in ascending degree, zero is []."""
    u = list(u)
    inv = pow(m[-1], -1, p)
    while True:
        while u and u[-1] == 0:
            u.pop()
        if len(u) < len(m):
            return u
        c = u[-1] * inv % p
        shift = len(u) - len(m)
        for i, mi in enumerate(m):
            u[shift + i] = (u[shift + i] - c * mi) % p


def _poly_mulmod(u: list[int], v: list[int], m: list[int], p: int) -> list[int]:
    out = [0] * (len(u) + len(v))
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    return _poly_rem([c % p for c in out], m, p)


def _x_to_p_power(j: int, f: list[int], p: int) -> list[int]:
    """x^(p^j) mod f, by j rounds of raising to the p-th power."""
    h = _poly_rem([0, 1], f, p)
    for _ in range(j):
        power, base, e = [1], h, p
        while e:
            if e & 1:
                power = _poly_mulmod(power, base, f, p)
            base = _poly_mulmod(base, base, f, p)
            e >>= 1
        h = power
    return h


def rabin_irreducible(f, p: int) -> bool:
    """Rabin's test for a monic f of degree n >= 1 over GF(p), p prime.

    f is irreducible iff x^(p^n) = x mod f and gcd(x^(p^(n/r)) - x, f)
    = 1 for every prime r dividing n (M. O. Rabin, SIAM J. Comput. 1980).
    Coefficients are plain integers, ascending degree.
    """
    f = list(f)
    n = len(f) - 1
    x = _poly_rem([0, 1], f, p)
    if _x_to_p_power(n, f, p) != x:
        return False
    for r in range(2, n + 1):
        if n % r or any(r % d == 0 for d in range(2, r)):
            continue
        a = _x_to_p_power(n // r, f, p) + [0, 0]
        a[1] -= 1  # minus x
        a = _poly_rem([c % p for c in a], f, p)
        b = f
        while a:
            a, b = _poly_rem(b, a, p), a
        if len(b) > 1:  # gcd of positive degree
            return False
    return True


def extension_field_tables(modulus, p: int) -> tuple[list[list[int]], list[list[int]]]:
    """Add and mul tables of GF(p)[x]/(modulus) on integer-coded elements.

    Element a is the polynomial whose coefficients are the base-p digits
    of a; sums are taken digit by digit mod p and products by
    _poly_mulmod.  The tables make a field only for an irreducible
    modulus, which rabin_irreducible decides.
    """
    m = list(modulus)
    k = len(m) - 1
    polys = [[a // p ** i % p for i in range(k)] for a in range(p ** k)]

    def code(u: list[int]) -> int:
        return sum(c * p ** i for i, c in enumerate(u))

    add = [[code([(x + y) % p for x, y in zip(u, v)]) for v in polys] for u in polys]
    mul = [[code(_poly_mulmod(u, v, m, p)) for v in polys] for u in polys]
    return add, mul


def elliptic_point_count_f5() -> int:
    """Brute-force point count of y^2 = x^3 + x + 1 over GF(5), plus infinity."""
    affine = sum(
        1
        for x in range(5)
        for y in range(5)
        if (y * y - (x ** 3 + x + 1)) % 5 == 0
    )
    return affine + 1


def log_zeta_series_counts(coefficients, q: int, upto: int) -> list[Fraction]:
    """Point counts implied by Z(T) = P(T)/((1-T)(1-qT)).

    Expands log Z as a power series with exact rationals and returns
    [m * coeff of T^m] for m = 1..upto, which must equal N_m.
    """
    coeffs = [Fraction(c) for c in coefficients]
    # series of log P via  (log P)' P = P'  =>  recurrence on c_m
    logp = [Fraction(0)] * (upto + 1)
    for m in range(1, upto + 1):
        acc = m * (coeffs[m] if m < len(coeffs) else Fraction(0))
        for j in range(1, m):
            acc -= j * logp[j] * (coeffs[m - j] if m - j < len(coeffs) else Fraction(0))
        logp[m] = acc / m
    out = []
    for m in range(1, upto + 1):
        # -log(1-T) and -log(1-qT) contribute (1 + q^m)/m at T^m
        out.append(m * logp[m] + 1 + Fraction(q) ** m)
    return out


# ---------------------------------------------------------------------------
# The CLI's former argparse parser, the reference for its option table
# ---------------------------------------------------------------------------

_S_HELP = 'point, RE or RE,IM (write --s=-1,2 when the value starts with "-")'
_GRID_HELP = 're_min:re_max:steps,im_min:im_max:steps (write --grid=-5:-3:5,0:0:1 when it starts with "-")'


def argparse_cli_parser() -> argparse.ArgumentParser:
    """The globalzeta parser as argparse built it, option for option.

    A value that starts with "-" and is not a plain negative number
    (``--s -1,2``) is read as an option here: "expected one argument".
    """
    parser = argparse.ArgumentParser(
        prog="globalzeta",
        description="Completed zeta functions of global fields and their functional equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_format=True):
        p.add_argument("--field", required=True, help='field spec, e.g. "Q", "Q(sqrt=-1)", "Fq(T)?q=5", "curve?q=5&L=1,3,5"')
        if with_format:
            p.add_argument("--format", choices=("json", "csv"))
            p.add_argument("--output", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("eval", help="evaluate zeta, Gamma factor and completed value at s")
    common(p)
    p.add_argument("--s", required=True, help=_S_HELP)

    p = sub.add_parser("check", help="check Z(1-s) = beta^(2s-1) Z(s) at one point")
    common(p)
    p.add_argument("--s", required=True, help=_S_HELP)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("sweep", help="check the functional equation on a grid")
    common(p)
    p.add_argument("--grid", required=True, help=_GRID_HELP)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("covolume", help="print the adelic covolume of the field")
    common(p, with_format=False)

    p = sub.add_parser("places", help="list places with q_v up to a bound")
    common(p)
    p.add_argument("--bound", type=int, required=True)

    p = sub.add_parser("euler-check", help="closed form vs truncated Euler product (Re s > 1)")
    common(p)
    p.add_argument("--s", required=True, help=_S_HELP)
    p.add_argument("--bound", type=int, required=True)

    return parser
