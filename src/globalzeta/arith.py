"""Integer arithmetic and the real characters chi_D.

Trial-division factorization (bounded by MAX_FACTOR_INPUT), the
squarefree and fundamental-discriminant tests, Euler's totient, the
Kronecker symbol and KroneckerCharacter, plus what every evaluator
shares: the argument check _as_complex, POLE_EXCLUSION_RADIUS, MAX_ABS_S
and the term bound MAX_LOG_TERM with its check _require_log_term.
fields and ffield import only this module, so building a field or
listing its places never compiles the special-function kernel.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DomainError

#: Radius around a pole inside which evaluation raises PoleError.
POLE_EXCLUSION_RADIUS = 1e-3

#: Largest |s| the evaluators accept, for every field.  An Euler-Maclaurin
#: sum costs N <= max(20, ceil|s|) complex exponentials (kernel.hurwitz_zeta),
#: about 5 ms at the cap; a function field's q^-s carries a phase error of
#: about |Im s| 2^-53 from rounding Im(s) log q, no correct digit past 2^53.
MAX_ABS_S = 1e4

#: Largest natural log of a term an evaluator may reach: log(DBL_MAX/8),
#: about 707.7, leaving room for the sums, the |D|^-s factor and abs().
MAX_LOG_TERM = math.log(sys.float_info.max / 8.0)

#: Largest |n| factored by trial division (squarefree tests, prime
#: powers, totients): at most 10^6 divisions, about 0.1 s on one x86 core.
MAX_FACTOR_INPUT = 10**12

# Kronecker symbol (a/2) as a function of a mod 8 (a odd).
_CHI_TWO = (0, 1, 0, -1, 0, -1, 0, 1)


def _as_complex(s) -> complex:
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"s must be finite, got {s!r}")
    return s


def _require_log_term(s: complex, log_term: float) -> None:
    # log_term bounds the natural log of every part of an evaluation at s
    if log_term > MAX_LOG_TERM:
        raise DomainError(
            f"at s = {s!r} the terms reach exp({log_term:.1f}), "
            f"past MAX_LOG_TERM = {MAX_LOG_TERM:.4g} (binary64 overflow)"
        )


def _factorization(n: int) -> list[tuple[int, int]]:
    # (p, k) pairs with |n| = prod p^k, p ascending; [] for |n| <= 1.
    # Trial division costs up to sqrt|n| steps, hence MAX_FACTOR_INPUT.
    n = abs(n)
    if n > MAX_FACTOR_INPUT:
        raise DomainError(
            f"|n| = {n} exceeds MAX_FACTOR_INPUT = {MAX_FACTOR_INPUT}; "
            "trial division takes up to sqrt|n| steps"
        )
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _is_squarefree(n: int) -> bool:
    return n != 0 and all(k == 1 for _, k in _factorization(n))


def _totient(n: int) -> int:
    for p, _ in _factorization(n):
        n -= n // p
    return n


def is_fundamental_discriminant(D: int) -> bool:
    """True for D = 1 and for discriminants of quadratic fields."""
    if D == 1:
        return True
    if D % 4 == 1:
        return _is_squarefree(D)
    if D % 4 == 0:
        d = D // 4
        return d % 4 in (2, 3) and _is_squarefree(d)
    return False


def kronecker_chi(D: int, n: int) -> int:
    """Kronecker symbol (D/n) for n >= 1.

    D is assumed to be 1 or a fundamental discriminant (the character
    constructors validate this); the symbol itself is computed by the
    usual reciprocity iteration with the 2-adic rule
    (D/2) = 0, +1, -1 for D even, D = +-1, D = +-3 mod 8.
    """
    if n <= 0:
        raise DomainError(f"kronecker_chi: n must be positive, got {n!r}")
    a, b = D, n
    k = 1
    if b % 2 == 0:
        if a % 2 == 0:
            return 0
        v = 0
        while b % 2 == 0:
            b //= 2
            v += 1
        if v % 2:
            k = _CHI_TWO[a % 8]
    a %= b
    while a != 0:
        while a % 2 == 0:
            a //= 2
            k *= _CHI_TWO[b % 8]
        if a % 4 == 3 and b % 4 == 3:
            k = -k
        a, b = b % a, a
    return k if b == 1 else 0


class _KroneckerCharacterFields(NamedTuple):
    modulus: int


class KroneckerCharacter(_KroneckerCharacterFields):
    """The real character chi_D attached to a fundamental discriminant.

    chi_D is completely multiplicative, periodic mod |D|, and vanishes
    exactly on integers sharing a factor with D.  D = 1 gives the
    trivial character (whose L function is the Riemann zeta).
    """

    __slots__ = ()

    def __new__(cls, modulus: int):
        if not is_fundamental_discriminant(modulus):
            raise DomainError(
                f"KroneckerCharacter: {modulus!r} is not 1 or a fundamental discriminant"
            )
        return super().__new__(cls, modulus)

    def __call__(self, n: int) -> int:
        return kronecker_chi(self.modulus, n)
