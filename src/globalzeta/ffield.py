"""Tiny finite fields GF(p^k) and monic irreducible enumeration.

GF(q), q = p^k, is GF(p)[x]/(m) with m = ``monic_irreducibles(p, k)[0]``,
the first irreducible in canonical order (x for k = 1).  Element a is
an integer 0..q-1 standing for the polynomial whose coefficients are
the base-p digits of a; the irreducibles over GF(p^k) and the place
labels printed by the CLI depend on the choice of m.  Polynomials over
GF(q) are tuples of element codes in ascending degree order.  A monic
polynomial of degree n is numbered by the base-q code sum c_i q^i of
its non-leading coefficients c_0..c_{n-1}, and ascending code is the
canonical order of this module.
It is not the order of place lists: ``fields.enumerate_places`` sorts
each degree lexicographically on (c_0, c_1, ...).

``monic_irreducibles(q, n)`` is a span sieve.  A reducible monic h of
degree n has a monic irreducible factor f of degree d <= n/2, and with
e = n - d the low n coefficients of f*g, over all monic g of degree e,
are the affine set x^e f + span_GF(q){x^j f : j < e}.  GF(q) is spanned
over GF(p) by 1, x, ..., x^(k-1), so that set is also x^e f +
span_GF(p){x^t x^j f : t < k, j < e}.  The sieve builds it for each f
by adding each basis vector's multiples 1..p-1 to the list so far, one
addition per product, marks the code of each element in a
bytearray(q**n), and returns the unmarked codes in ascending order.
The basis vectors x^t f need only "times x mod m" on the elements, a
q-entry list; no other GF(q) arithmetic is done.

For the additions a polynomial's N = n*k base-p digits (coefficient i's
digit t is digit i*k + t) are packed into one int, a digit per W-bit
field, W = bit length of q**n, plus one.  Digitwise addition mod p is
one int add and a fix: each field of the sum is at most 2p - 2 <
2^(W-1), so adding 2^(W-1) - p to every field sets its guard bit, the
top one, exactly where the field reached p, and carries into no other
field; p is then taken off those fields.  The base-q code sum d_j p^j
is field N-1 of the product with R = sum_j p^(N-1-j) 2^(W j): every
field of that product is a sum of d_j p^i with distinct i < N, at most
p^N - 1 < q**n < 2^(W-1), so no field carries into the next and one
multiply, shift and mask decode the code.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, product
from typing import NamedTuple

from .arith import DomainError, _require_prime_power


class SmallGaloisField(NamedTuple):
    """GF(q) = GF(p)[x]/(modulus), q = p^k, coded as in the module docstring."""

    q: int
    p: int
    k: int
    modulus: tuple[int, ...]


@lru_cache(maxsize=None)
def galois_field(q: int) -> SmallGaloisField:
    p, k = _require_prime_power(q, "")
    return SmallGaloisField(q, p, k, monic_irreducibles(p, k)[0])


def _mark_products(field: SmallGaloisField, n: int, candidates: bytearray) -> None:
    """Zero the code of f*g for each monic irreducible f of degree <= n/2."""
    q, p, k, m = field
    N = n * k
    W = (q ** n).bit_length() + 1
    ones = sum(1 << W * j for j in range(N))
    K, G = ones * ((1 << W - 1) - p), ones << W - 1
    R = sum(p ** (N - 1 - j) << W * j for j in range(N))
    top, low = W * (N - 1), (1 << W) - 1
    slot = W * k  # one coefficient: k fields
    elements = [u[::-1] for u in product(range(p), repeat=k)]  # base-p digits, lowest first
    digits = [sum(c << W * t for t, c in enumerate(u)) for u in elements]
    # x*a: a's digits one place up, and x^k = -(m_0 + ... + m_(k-1) x^(k-1))
    times_x = [sum((b - u[-1] * mj) % p * p ** t for t, (b, mj) in enumerate(zip((0,) + u[:-1], m)))
               for u in elements]

    def pack(coeffs) -> int:
        return sum(digits[c] << slot * i for i, c in enumerate(coeffs))

    for d in range(1, n // 2 + 1):
        e = n - d
        for f in monic_irreducibles(q, d):
            span = [pack(f[:-1]) << slot * e]
            basis, g = [], f  # f, x f, ..., x^(k-1) f: GF(q) f over GF(p)
            for _ in range(k):
                basis.append(pack(g))
                g = [times_x[c] for c in g]
            for _ in range(e):
                for b in basis:
                    layer = span
                    for _ in range(p - 1):  # span + b, span + 2b, ...
                        layer = [(t := v + b) - (((t + K) & G) >> W - 1) * p for v in layer]
                        span += layer
                basis = [b << slot for b in basis]
            for code in map(low.__and__, map(top.__rrshift__, map(R.__mul__, span))):
                candidates[code] = 0


@lru_cache(maxsize=None)
def monic_irreducibles(q: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducibles of the given degree over GF(q), in canonical order."""
    _require_prime_power(q, "")
    if degree < 1:
        raise DomainError("degree must be >= 1")
    candidates = bytearray(b"\x01") * q ** degree
    if degree >= 2:
        _mark_products(galois_field(q), degree, candidates)
    # product() counts in base q with c_(n-1) first: reversed, ascending code
    return tuple(c[::-1] + (1,) for c in compress(product(range(q), repeat=degree), candidates))
