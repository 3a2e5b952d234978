"""The moment series of dirichlet_l, for mid-size and large moduli.

With q = |D|, a_r = r/q, x = M + 1/2 and mu_j = sum_r chi(r) (a_r - 1/2)^j,

    q^s L(s, chi) = sum_r chi(r) sum_{n<M} (a_r + n)^-s
                    + sum_{j<=J} (-1)^j (s)_j/j! zeta_H(s + j, x) mu_j,

the Taylor expansion of each zeta_H(s, a_r + M) about x (Arb's
acb_dirichlet_hurwitz_precomp, arXiv:1309.2877).  The bounds that choose
M, J and the jets' shift count are stated in kernel.dirichlet_l:
head_and_order finds the short head, long_head the long one.  The head
logs log(a_r + n) are those of the modulus's one table in kernel, which
the per-class path reads too; exact_moments adds the moments mu_j to it,
computed from the classes r and chi(r) the table lists.  moment_sum does
once per call what does not depend on j: the head exps, the shift's
powers (x + n)^-s split into real and imaginary columns, and the
Euler-Maclaurin tail's powers X^(1-2k); per jet it forms only the
weights and sums that involve s + j.
kernel imports this module only when a call takes a moment series, so a
process whose calls all take the per-class sums does not compile it.
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import chain
from operator import mul, neg

from .kernel import _EM_COEF, _IMAG, _REAL, _Table, _moment_head, _tail_weights

# The bounds, relative to phi(q) x^-sigma (see kernel.dirichlet_l).
TAIL_BOUND = 2.0**-56
GROWTH_BOUND = 2.0**8


def exact_moments(table: _Table, order: int) -> list[float]:
    """mu_j = sum_r chi(r) (r/q - 1/2)^j for j = 0..order, q = |D|.

    The classes r and chi(r) come from table.plus and table.minus:
    r = round(a q) exactly, and a < 1/2 exactly when r < q/2 (q >= 3).
    Each mu_j is the exact integer sum 2 sum_{r<q/2} chi(r) (2r - q)^j
    divided by (2q)^j, rounded once; chi(q - r) = chi(-1) chi(r) pairs r
    with q - r, so it is 0 for j of the other parity than chi(-1) = (-1)^j.
    """
    q = abs(table.modulus)
    half = [(2 * round(a * q) - q, c) for tops, c in ((table.plus, 1), (table.minus, -1)) for a in tops if a < 0.5]
    first = 1 if table.modulus < 0 else 0
    powers = [c * d**first for d, c in half]
    squares = [d * d for d, _ in half]
    moments = [0.0] * (order + 1)
    for j in range(first, order + 1, 2):
        moments[j] = 2 * sum(powers) / (2 * q) ** j
        powers = list(map(mul, powers, squares))
    return moments


def _order(s: complex, x: float) -> tuple[int, float]:
    # The order J and growth G of the Taylor series at x = M + 1/2: the
    # smallest J >= 1 - sigma after which the tail bound falls below
    # TAIL_BOUND, and G = sum_{j<=J} t_j, where
    # t_j = (|(s)_j| + x |(s)_{j-1}|) / (j! (2x)^j).  G is inf where the
    # terms leave binary64 first: a sum overflows, or 1/(j! (2x)^j) drops
    # below the normal range, which at x >= 3/2 it does by j = 140.
    size = abs(s)
    lowest = max(1, math.ceil(1.0 - s.real))
    poch_prev, poch = 1.0, size  # |(s)_{j-1}|, |(s)_j| at j = 1
    scale = 1.0 / (2.0 * x)  # 1 / (j! (2x)^j) at j = 1
    growth = 0.0
    j = 1
    while True:
        growth += (poch + x * poch_prev) * scale
        poch_prev, poch = poch, poch * abs(s + j)
        scale /= 2.0 * x * (j + 1)
        if not growth < math.inf or scale < sys.float_info.min:
            return j, math.inf
        if j >= lowest:
            # the terms after j fall at least by ratio each
            ratio = max(size + j + 1, j + 2) / (2.0 * x * (j + 2))
            if ratio < 1.0 and (poch + x * poch_prev) * scale <= TAIL_BOUND * (1.0 - ratio):
                return j, growth
        j += 1


def head_and_order(s: complex, limit: int) -> tuple[int, int] | None:
    """(M, J): the smallest head M whose growth is within GROWTH_BOUND,
    and the order J that the tail bound asks for at x = M + 1/2; None
    where no M <= limit meets the bound."""
    head = _moment_head(s)
    while head > 1 and _order(s, head - 0.5)[1] <= GROWTH_BOUND:
        head -= 1
    order, growth = _order(s, head + 0.5)
    while growth > GROWTH_BOUND:
        head += 1
        if head > limit:
            return None
        order, growth = _order(s, head + 0.5)
    return head, order


def long_head(s: complex, shift: int) -> tuple[int, int, int] | None:
    """(M, J, 0) for the head M = shift = N(s) on the critical strip: J
    the order the tail bound asks for at x = M + 1/2, and jets that take
    no shift (kernel.dirichlet_l shows they need none there); None where
    the growth passes GROWTH_BOUND."""
    order, growth = _order(s, shift + 0.5)
    return None if growth > GROWTH_BOUND else (shift, order, 0)


def _real_power(p: float, z: complex) -> complex:
    # p^z for p > 0 with the modulus p^Re(z) from pow, whose error does not
    # grow with |Re z| log p as that of exp(z log p) does
    return p ** z.real * cmath.exp(complex(0.0, z.imag * math.log(p)))


def moment_sum(s: complex, table: _Table, head: int, order: int, shift: int) -> tuple:
    """Iterators over the real and imaginary parts of q^s L(s, chi), for fsum.

    They are the head sum_c chi_c sum_{n<head} (a_c + n)^-s, and for each
    j <= order of the parity of chi(-1) = (-1)^j the Taylor term
      (-1)^j mu_j [(s)_j/j! R_j + (s)_{j-1}/j! X^(1-s-j)],
    where R_j is zeta_H(s + j, x), x = head + 1/2, less its pole term
    X^(1-s-j)/(s+j-1), by Euler-Maclaurin with X = x + shift.

    Per call: the head exps, the real and imaginary parts of
    (x + n)^-s for n < shift, and X^(1-2k) for k = 1..K.  Per jet: the
    regular sum of (x + n)^-(s+j) as two fsums of those parts times the
    float column (x + n)^-j, and the tail with kernel's weights at s + j.
    """
    neg_s = -s
    plus, minus = (list(map(cmath.exp, map(neg_s.__mul__, logs[: len(tops) * head])))
                   for logs, tops in zip(table.heads, (table.plus, table.minus)))
    if s == -2 * len(_EM_COEF):  # each jet that counts is at -m, m < 2K: exact with no shift
        shift = 0
    x = head + 0.5
    big_x = x + shift
    points = [x + n for n in range(shift)]
    powers_s = [_real_power(p, neg_s) for p in points]
    inv = [1.0 / p for p in points]
    inv2 = list(map(mul, inv, inv))
    re, im = list(map(_REAL, powers_s)), list(map(_IMAG, powers_s))
    x_s = _real_power(big_x, neg_s)
    inv_x2 = 1.0 / (big_x * big_x)
    tail = [1.0 / big_x]  # X^(1-2k), k = 1..K
    for _ in _EM_COEF[1:]:
        tail.append(tail[-1] * inv_x2)
    odd = table.modulus < 0
    sign = -1.0 if odd else 1.0
    first = 1 if odd else 2
    scaled = inv if odd else inv2
    coef = complex(1.0) if odd else s  # (s)_{j-1} / (j-1)! at j = first
    moments = table.moments
    jets = []
    for j in range(first, order + 1, 2):
        pole_coef = coef / j  # (s)_{j-1} / j!
        coef *= (s + (j - 1)) / j  # (s)_j / j!
        mu = sign * moments[j]
        regular = complex(math.fsum(map(mul, re, scaled)), math.fsum(map(mul, im, scaled)))
        x_sj = x_s * big_x**-j
        em = 0.5  # summed left to right, as sum() is compensated from CPython 3.12 on
        for w, xp in zip(_tail_weights(s + j)[0], tail):
            em += w * xp
        jets.append(mu * (coef * (regular + x_sj * em) + pole_coef * big_x * x_sj))
        scaled = list(map(mul, scaled, inv2))
        coef *= (s + j) / (j + 1)  # (s)_{j+1} / (j+1)!
    return (chain(map(_REAL, plus), map(neg, map(_REAL, minus)), map(_REAL, jets)),
            chain(map(_IMAG, plus), map(neg, map(_IMAG, minus)), map(_IMAG, jets)))
