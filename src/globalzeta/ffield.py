"""Tiny finite fields GF(p^k) and monic irreducible enumeration.

Only desk-scale sizes are needed, so elements are integers 0..q-1 and
arithmetic goes through precomputed q x q add and mul tables.  They are
built only when the sieve has products to mark, for degree >= 2, so only
q with q^2 within a place bound (q <= 362 under MAX_NORM_BOUND) pays for
them.  Polynomials over GF(q) are tuples of element codes in ascending
degree order.  A monic polynomial of degree n is numbered by the base-q
code sum c_i q^i of its non-leading coefficients c_0..c_{n-1}, and
ascending code is the canonical order of this module.
It is not the order of place lists: ``fields.enumerate_places`` sorts
each degree lexicographically on (c_0, c_1, ...).

``monic_irreducibles(q, n)`` is a span sieve.  A reducible monic h of
degree n has a monic irreducible factor f of degree d <= n/2, and with
e = n - d the low n coefficients of f*g, over all monic g of degree e,
are the affine set x^e f + span{c x^j f : c in GF(q)*, j < e}.  The
sieve builds that set for each f by doubling a list, one GF(q) addition
per product, marks the code of each element in a bytearray(q**n), and
returns the unmarked codes in ascending order.

For the additions, q = p^k and a polynomial's N = n*k base-p digits
(coefficient i's digit t is digit i*k + t) are packed into one int, a
digit per W-bit field, W = bit length of N*q**n, plus one.  Digitwise
addition mod p is one int add and a fix: each field of the sum is at
most 2p - 2 < 2^(W-1), so adding 2^(W-1) - p to every field sets its
guard bit, the top one, exactly where the field reached p, and carries
into no other field; p is then taken off those fields.  The base-q code
sum d_j p^j is field N-1 of the product with R = sum_j p^(N-1-j)
2^(W j): every field of that product is a sum of d_j p^i with distinct
i < N, at most p^N - 1 < N*q**n < 2^(W-1), so no field carries into the
next and one multiply, shift and mask decode the code.

GF(p^k) with k > 1 is GF(p)[x]/(m), element a standing for the
polynomial whose coefficients are the base-p digits of a.  The modulus
m must be ``monic_irreducibles(p, k)[0]``, the first irreducible in
canonical order: the mul table, the irreducibles over GF(p^k) and the
place labels printed by the CLI all depend on that choice.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, product

from .errors import DomainError
from .kernel import _factorization


def factor_prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p**k, or None if q is not a prime power."""
    factors = _factorization(q) if q > 1 else []
    return factors[0] if len(factors) == 1 else None


def _require_prime_power(q: int) -> tuple[int, int]:
    pk = factor_prime_power(q)
    if pk is None:
        raise DomainError(f"{q!r} is not a prime power")
    return pk


def _coefficients(code: int, q: int, n: int) -> tuple[int, ...]:
    # the n base-q digits of code, least significant first
    out = []
    for _ in range(n):
        code, c = divmod(code, q)
        out.append(c)
    return tuple(out)


def _code(coeffs, q: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * q + c
    return out


def _poly_mul(field: SmallGaloisField, u, v) -> list[int]:
    """u*v over the field, with len(u) + len(v) - 1 coefficients."""
    add, mul = field.add, field.mul
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            row = mul[ui]
            for j, vj in enumerate(v):
                out[i + j] = add[out[i + j]][row[vj]]
    return out


class SmallGaloisField:
    """GF(q) as add and mul tables indexed by integer-coded elements.

    0 and 1 are the additive and multiplicative identities.
    """

    def __init__(self, q: int):
        p, k = _require_prime_power(q)
        self.q, self.p, self.k = q, p, k
        if k == 1:
            self.add = [[(a + b) % q for b in range(q)] for a in range(q)]
            self.mul = [[(a * b) % q for b in range(q)] for a in range(q)]
            return
        prime = galois_field(p)
        self.modulus = m = monic_irreducibles(p, k)[0]
        elements = [_coefficients(a, p, k) for a in range(q)]
        self.add = [
            [_code([prime.add[x][y] for x, y in zip(u, v)], p) for v in elements]
            for u in elements
        ]
        self.mul = []
        for u in elements:
            row = []
            for v in elements:
                w = _poly_mul(prime, u, v)
                while len(w) > k:
                    # c x^t = -c x^(t-k) (m - x^k) modulo m
                    c = w.pop()
                    t = len(w)
                    for j in range(k):
                        w[t - k + j] = (w[t - k + j] - c * m[j]) % p
                row.append(_code(w, p))
            self.mul.append(row)


@lru_cache(maxsize=None)
def galois_field(q: int) -> SmallGaloisField:
    return SmallGaloisField(q)


def _mark_products(field: SmallGaloisField, n: int, candidates: bytearray) -> None:
    """Zero the code of f*g for each monic irreducible f of degree <= n/2."""
    q, p, k = field.q, field.p, field.k
    N = n * k
    W = (N * q ** n).bit_length() + 1
    ones = sum(1 << W * j for j in range(N))
    K, G = ones * ((1 << W - 1) - p), ones << W - 1
    R = sum(p ** (N - 1 - j) << W * j for j in range(N))
    top, low = W * (N - 1), (1 << W) - 1
    slot = W * k  # one coefficient: k fields
    digits = [sum(c << W * t for t, c in enumerate(_coefficients(a, p, k))) for a in range(q)]

    def pack(coeffs) -> int:
        return sum(digits[c] << slot * i for i, c in enumerate(coeffs))

    for d in range(1, n // 2 + 1):
        e = n - d
        for f in monic_irreducibles(q, d):
            steps = [pack([row[c] for c in f]) for row in field.mul[1:]]  # c*f, c != 0
            span = [pack(f[:-1]) << slot * e]
            for _ in range(e):
                span += [(t := v + s) - (((t + K) & G) >> W - 1) * p for s in steps for v in span]
                steps = [s << slot for s in steps]
            for code in map(low.__and__, map(top.__rrshift__, map(R.__mul__, span))):
                candidates[code] = 0


@lru_cache(maxsize=None)
def monic_irreducibles(q: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducibles of the given degree over GF(q), in canonical order."""
    _require_prime_power(q)
    if degree < 1:
        raise DomainError("degree must be >= 1")
    candidates = bytearray(b"\x01") * q ** degree
    if degree >= 2:
        _mark_products(galois_field(q), degree, candidates)
    # product() counts in base q with c_(n-1) first: reversed, ascending code
    return tuple(c[::-1] + (1,) for c in compress(product(range(q), repeat=degree), candidates))
