"""Complex special-function kernel.

Everything the zeta machinery needs at arbitrary complex argument:
a continuous branch of log Gamma and the analytically continued Hurwitz
zeta, the engine behind both the Riemann zeta and the Dirichlet L
functions L(s, chi_D).  The characters chi_D and the integer arithmetic
they need live in globalzeta.arith, which builds fields without this
module.

All functions work on binary64 complex numbers.  The algorithmic error
budget is 1e-12 max(1, |value|) on |s| <= 50 with Re s >= 0, absolute
near a zero; summation is done with fsum and exact-rational Bernoulli
coefficients so that budget is actually met (the continuation to
Re s < 0 pays a documented cancellation cost, see hurwitz_zeta).
Out-of-domain inputs raise DomainError / PoleError rather than letting
NaNs or infinities escape.
log Gamma is Stirling's series over the same Bernoulli numbers, truncated
below 2.2e-16; its rounding stays within 4.1e-14 for |s| <= 67 (log_gamma).

Cost is bounded up front.  An Euler-Maclaurin sum takes N <= max(20, ceil|s|)
terms, so |s| > MAX_ABS_S raises DomainError before any work.
dirichlet_l has three plans, which its docstring states: one Hurwitz sum
per class r coprime to D, and a Taylor series in the class offsets whose
coefficients are the character's moments, after a short or a long head.
What does not depend on s is kept in a cache of tables, one per modulus,
which every plan reads: the class offsets, their logs and, for the
moment series, the exact moments; the Riemann zeta's logs are the table
of D = 1.  Their sizes, in doubles, sum to at most MAX_TABLE_ENTRIES
(2 MiB); the least recently used tables are dropped to make room, and a
call whose own table would pass the limit raises DomainError before any
table is built or grown.
zeta(s) and L(s, chi) at one s share its Euler-Maclaurin shift count and
weights.  Each evaluator also bounds the size of its terms before any
work: past exp(MAX_LOG_TERM) they would overflow binary64, so it raises
DomainError instead (for the Riemann zeta, at Re s below about -141.6).
"""

from __future__ import annotations

import cmath
import math
import sys
import threading
from array import array
from functools import lru_cache
from itertools import chain
from operator import attrgetter, mul, neg

from .arith import (MAX_ABS_S, MAX_LOG_TERM, POLE_EXCLUSION_RADIUS, KroneckerCharacter, _as_complex,
                    _require_log_term, _totient, kronecker_chi)
from .errors import DomainError, PoleError

#: Largest number of doubles in the tables, summed over the moduli kept
#: (2 MiB here).  A table holds phi(|D|) * (rows + 1) + len(moments): the
#: class offsets, rows rows of logs and the moments.  The per-class path
#: and the Riemann zeta (phi = 1) need N + 1 rows for shift count
#: N <= max(20, ceil|s|) and no moments; the moment path needs M rows for
#: head length M and J + 1 moments for order J.
MAX_TABLE_ENTRIES = 2**18

_LOG_PI = math.log(math.pi)
_LOG_2PI = math.log(2.0 * math.pi)
# B_2 .. B_24 as exact (numerator, denominator) pairs.  The
# Euler-Maclaurin tail below uses B_2k / (2k)!, and Stirling's series for
# log Gamma B_2k / (2k (2k - 1)), highest k first for Horner's rule, where
# |w| >= _STIRLING_MIN_ABS (see log_gamma); each a correctly rounded int division.
_BERNOULLI_EVEN = (
    (1, 6),
    (-1, 30),
    (1, 42),
    (-1, 30),
    (5, 66),
    (-691, 2730),
    (7, 6),
    (-3617, 510),
    (43867, 798),
    (-174611, 330),
    (854513, 138),
    (-236364091, 2730),
)
_EM_COEF = tuple(n / (d * math.factorial(2 * k)) for k, (n, d) in enumerate(_BERNOULLI_EVEN, start=1))
_EM_STEPS = tuple(zip(_EM_COEF, range(1, 24, 2)))  # (B_2k/(2k)!, 2k - 1)
_STIRLING_COEF = tuple(n / (d * 2 * k * (2 * k - 1)) for k, (n, d) in enumerate(_BERNOULLI_EVEN, start=1))[::-1]
_STIRLING_MIN_ABS = 8.0

_REAL = attrgetter("real")
_IMAG = attrgetter("imag")

# ---------------------------------------------------------------------------
# log Gamma
# ---------------------------------------------------------------------------

def _stirling_log_gamma(w: complex) -> complex:
    # Principal branch on Re w >= 0.5 (see log_gamma).  The arguments of
    # w and w + 1 lie in (-pi/2, pi/2) with the same sign, so log(w (w + 1))
    # is log w + log(w + 1): the shift keeps the branch with one log a pair.
    shift = 0j
    while abs(w) < _STIRLING_MIN_ABS:
        shift += cmath.log(w * (w + 1.0))
        w += 2.0
    u = 1.0 / (w * w)
    tail = 0.0
    for coef in _STIRLING_COEF:
        tail = tail * u + coef
    return (w - 0.5) * cmath.log(w) - w + 0.5 * _LOG_2PI + tail / w - shift


def _log_sin_pi_upper(z: complex) -> complex:
    # Branch of log sin(pi z) that is analytic on Im z > 0 and takes
    # boundary values from above on the real axis:
    #   sin(pi z) = exp(-i pi z) * (1 - exp(2 i pi z)) * i/2,
    # and |exp(2 i pi z)| < 1 keeps the principal log of the middle
    # factor continuous.
    w = cmath.exp(2j * math.pi * z)
    return -1j * math.pi * z + cmath.log(1.0 - w) + (0.5j * math.pi - math.log(2.0))


def _log_gamma_impl(s: complex) -> complex:
    # No pole-radius guard; callers are responsible for staying off the poles.
    if math.copysign(1.0, s.imag) < 0.0:  # -0.0 too, so that conj s gives the conjugate
        return _log_gamma_impl(s.conjugate()).conjugate()
    if s.real >= 0.5:
        return _stirling_log_gamma(s)
    # Reflection, keeping the branch continuous off the cut.
    return _LOG_PI - _log_sin_pi_upper(s) - _stirling_log_gamma(1.0 - s)


def log_gamma(s) -> complex:
    """Continuous branch of log Gamma(s) on the plane cut along (-inf, 0].

    Real on the positive real axis.  For Re s >= 1/2, Stirling's series
    (w - 1/2) log w - w + log(2 pi)/2 + sum_{k<=12} B_2k / (2k (2k-1) w^(2k-1))
    at w = s + n, n the least even shift with |w| >= 8, less the logs of
    the factors s + j, j < n; left of it, the reflection formula.  The
    remainder is at most sec^26(arg(w)/2) |B_26| / (650 |w|^25), B_26 =
    8553103/6 (DLMF 5.11(ii)); with sec^2(arg(w)/2) = 2|w| / (|w| + Re w),
    |w| >= 8 and Re w >= 1/2, that is below 2.2e-16.  The error, i.e. the
    relative error of exp(log_gamma), is then the rounding of the parts,
    within 2^-52 times the sum of their sizes at the 513 points of
    tests/oracle_grid.json (|s| <= 67): 4.1e-14 at most, 2.6e-14 at 0.01
    from a pole, where the reflection's log sin(pi s) carries most of it.
    Raises PoleError within POLE_EXCLUSION_RADIUS of a nonpositive integer.
    """
    s = _as_complex(s)
    n = min(0, round(s.real))  # the nearest pole of Gamma
    if math.hypot(s.real - n, s.imag) < POLE_EXCLUSION_RADIUS:
        raise PoleError(f"log_gamma: {s!r} is within {POLE_EXCLUSION_RADIUS} of a Gamma pole")
    return _log_gamma_impl(s)


# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------

def _require_finite(s: complex, value: complex) -> complex:
    # A product of parts that each passed _require_log_term can still
    # leave binary64; refuse it rather than print inf or nan.
    if not cmath.isfinite(value):
        raise DomainError(
            f"at s = {s!r} a product of terms leaves binary64, "
            f"past MAX_LOG_TERM = {MAX_LOG_TERM:.4g} (binary64 overflow)"
        )
    return value


def _tail_weights(s: complex) -> tuple[list[complex], complex]:
    # B_2k/(2k)! (s)_{2k-1}, k = 1..K, the Euler-Maclaurin tail's weights, and (s)_2K
    weights, poch = [], s
    for coef, odd in _EM_STEPS:
        weights.append(coef * poch)
        poch = (even := poch * (s + odd)) * (s + (odd + 1))  # even = (s)_2k
    return weights, even


def _em_weights(s: complex) -> tuple[int, tuple[complex, ...]]:
    # (N, weights) of s (see hurwitz_zeta), once for zeta(s) and L(s, chi) of one evaluation;
    # DomainError, before any work, past MAX_ABS_S
    return _signed_em_weights(s, math.copysign(1.0, s.real), math.copysign(1.0, s.imag))


@lru_cache(maxsize=1)
def _signed_em_weights(s: complex, *signs: float) -> tuple[int, tuple[complex, ...]]:
    # The last s's, keyed by the signs of its parts too (0.0 == -0.0)
    if abs(s) > MAX_ABS_S:
        raise DomainError(
            f"|s| = {abs(s):.17g} exceeds MAX_ABS_S = {MAX_ABS_S:g}; "
            "the Euler-Maclaurin shift count grows with |s|"
        )
    weights, even = _tail_weights(s)
    shift, rate = max(20, math.ceil(abs(s))), s.real + 23.0
    if rate > 0.0 or not even:  # least N: N^rate >= 4 |(s)_24| 2^50 / ((2 pi)^24 rate), 0 if (s)_24 = 0
        log_n = (math.log(2.0**52 * abs(even) / rate) - 24.0 * _LOG_2PI) / rate if even else -math.inf
        shift = min(shift, math.ceil(math.exp(min(log_n, 30.0))))
    return shift, tuple(weights)


def _hurwitz_regular(weights: tuple[complex, ...], powers: list, x: float) -> complex:
    # Euler-Maclaurin evaluation of zeta_H(s, a) with the single pole
    # term x^(1-s)/(s-1), x = a + shift, split off:
    #
    #   zeta_H(s, a) = regular(s, a) + x^(1-s)/(s-1)
    #
    # regular = sum_{n<shift} (a+n)^-s + x^-s/2 + sum_{k=1..K} weights[k-1] * x^(-s-2k+1)
    #
    # powers holds (a+n)^-s for n < shift and x^-s last; it is taken
    # over as the list of parts.  fsum is correctly rounded, so the order
    # of the parts is immaterial.
    xs = powers[-1]
    powers[-1] = complex(0.5 * xs.real, 0.5 * xs.imag)
    inv_x2 = 1.0 / (x * x)
    xp = xs / x
    for w in weights:
        powers.append(w * xp)
        xp *= inv_x2
    return complex(math.fsum(map(_REAL, powers)), math.fsum(map(_IMAG, powers)))


def hurwitz_zeta(s, a: float) -> complex:
    """Analytically continued Hurwitz zeta zeta_H(s, a) for 0 < a <= 1.

    Euler-Maclaurin with 12 Bernoulli terms and the least shift count N
    whose remainder bound 4 |(s)_24| / (2 pi)^24 * N^-(sigma+23) / (sigma+23)
    (arXiv:1309.2877, Thm. 1) is at most 2^-50, capped at max(20, ceil|s|),
    also for Re s <= -23; N = 0 at s = -n, n <= 23, where the sum is exact.
    The error is at most 1e-12 max(1, |value|) for Re s >= 0, |s| <= 50,
    absolute near a zero; for Re s < 0 it is about (a+N)^|Re s| |s|
    log(a+N) 2^-53, the rounding of the parts that the sum cancels
    against.  Raises DomainError, before any work, for |s| > MAX_ABS_S or
    when a^-s or the pole term (a+N)^(1-s) would pass exp(MAX_LOG_TERM).
    """
    s = _as_complex(s)
    a = float(a)
    if not (0.0 < a <= 1.0):
        raise DomainError(f"hurwitz_zeta: a must lie in (0, 1], got {a!r}")
    if abs(s - 1.0) < POLE_EXCLUSION_RADIUS:
        raise PoleError(f"hurwitz_zeta: {s!r} is within {POLE_EXCLUSION_RADIUS} of the pole s=1")
    shift, weights = _em_weights(s)
    x = a + shift
    log_x = math.log(x)
    # the largest parts are a^-s and the pole term x^(1-s)
    _require_log_term(s, max(-s.real * math.log(a), (1.0 - s.real) * log_x))
    # log(a + n) for n <= N; for a = 1, the Riemann zeta, the table of D = 1 keeps them
    logs = (_cached_table(1, shift + 1).heads[0][: shift + 1] if a == 1.0
            else [math.log(a + n) for n in range(shift + 1)])
    regular = _hurwitz_regular(weights, list(map(cmath.exp, map((-s).__mul__, logs))), x)
    pole = cmath.exp((1.0 - s) * log_x) / (s - 1.0)
    return regular + pole


def riemann_zeta(s) -> complex:
    """Riemann zeta via the Hurwitz kernel at a = 1, its logs kept once."""
    return hurwitz_zeta(s, 1.0)


# ---------------------------------------------------------------------------
# Dirichlet L functions
# ---------------------------------------------------------------------------

def _phi_expm1_ratio(u: complex) -> complex:
    # (exp(u) - 1) / u, stable near u = 0.
    if u == 0:
        return complex(1.0)
    half = 0.5 * u
    return cmath.exp(half) * cmath.sinh(half) / half


class _Table:
    """The s-independent data of one modulus q = |D|, for every path.

    plus and minus hold r/q for the classes r in 1..q coprime to q with
    chi(r) = +1 and -1 (D = 1, the Riemann zeta, has the one class 1/1),
    and heads[0], heads[1] the logs log(r/q + n) of each, for n < rows,
    one block of classes per n.  moments[j] = mu_j = sum_r chi(r)
    (r/q - 1/2)^j for j < len(moments), filled for the moment path only
    by exact_moments, which reads the classes and chi(r) from plus and
    minus.
    """

    __slots__ = ("modulus", "plus", "minus", "heads", "rows", "moments")

    def __init__(self, D: int) -> None:
        q = abs(D)
        self.modulus = D
        chis = [(r / q, kronecker_chi(D, r)) for r in range(1, q + 1) if math.gcd(r, q) == 1]
        self.plus = [a for a, c in chis if c > 0]
        self.minus = [a for a, c in chis if c < 0]
        self.heads = (array("d"), array("d"))
        self.rows = 0
        self.moments: list[float] = []

    def size(self, rows: int = 0, order: int = -1) -> int:
        # doubles held (r/q, logs, moments), after growing to rows and order
        count = len(self.plus) + len(self.minus)
        return count * (max(self.rows, rows) + 1) + max(len(self.moments), order + 1)

    def covers(self, rows: int, order: int = -1) -> bool:
        return rows <= self.rows and order < len(self.moments)

    def grow(self, rows: int, order: int = -1) -> None:
        for logs, tops in zip(self.heads, (self.plus, self.minus)):
            for n in range(self.rows, rows):
                logs.extend([math.log(a + n) for a in tops])
        self.rows = max(self.rows, rows)
        if len(self.moments) <= order:
            self.moments = exact_moments(self, order)


# The tables of the moduli seen, least recently used first, keyed by D;
# their sizes sum to at most MAX_TABLE_ENTRIES.
_tables: dict = {}
_table_lock = threading.Lock()


def _cached_table(D: int, rows: int, order: int = -1) -> _Table:
    # The table of D, grown to rows and order, now the most recently used;
    # older tables are dropped, least recently used first, until everything fits.
    with _table_lock:
        table = _tables.pop(D, None)
        if table is None or not table.covers(rows, order):
            if table is None or table.size(rows, order) > MAX_TABLE_ENTRIES:
                table = _Table(D)  # fresh also where an old table, grown, would not fit
            room = MAX_TABLE_ENTRIES - table.size(rows, order)
            for oldest in list(_tables):
                if sum(t.size() for t in _tables.values()) <= room:
                    break
                del _tables[oldest]
            table.grow(rows, order)
        _tables[D] = table
        return table


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


# Measured costs in microseconds (CPython 3.11, one x86-64 core): one
# term (a + n)^-s of a sum (a class's Hurwitz sum has N + 12 of them), and
# per jet one scaled term of its Euler-Maclaurin sum and its fixed work.
_COST_TERM = 0.34
_COST_JET_TERM = 0.38
_COST_JET = 12.0

# The order J the short head's tail bound asks for: 38 once |s| > 30,
# between 30 and 57 below, and never less than 1 - Re s.
_MOMENT_ORDER = 38

# The short head is taken where its estimate is below 1/_SWITCH_GAIN of
# the per-class one.  The margin is not a measured crossover: it keeps
# the short head from the mid-size moduli, where it can be farther from
# the true value than the per-class sums (see dirichlet_l).
_SWITCH_GAIN = 1.5

# The long head's least phi(|D|) and greatest |Im s| (see dirichlet_l).
# Fitted to in-process timings on one core (medians of 5 runs), it saves
# about 3.1 us of each class's fixed work (its (N + 1)th term, 12-term tail,
# pole term and share of two fsums) and costs about 40 us, its plan 4.7 us
# and 8 unshifted jets of 4.6 us among them (J is 13 to 17), whatever N:
# the fit crosses at phi = 13, and at phi = 12 it was the slower in 11 of 15.
_LONG_CLASSES = 16
_LONG_HEIGHT = 50.0

# The moment series' bounds, relative to phi(q) x^-sigma (see dirichlet_l).
TAIL_BOUND = 2.0**-56
GROWTH_BOUND = 2.0**8


def _order(s: complex, x: float) -> tuple[int, float]:
    # The order J and growth G of the Taylor series at x = M + 1/2: the
    # smallest J >= 1 - sigma after which the tail bound falls below
    # TAIL_BOUND, and G = sum_{j<=J} t_j, where
    # t_j = (|(s)_j| + x |(s)_{j-1}|) / (j! (2x)^j).  G is inf once a partial
    # sum passes GROWTH_BOUND (_moment_plan refuses it), or where 1/(j! (2x)^j)
    # first drops below the normal range, by j = 140 at x >= 3/2.
    size = abs(s)
    lowest = max(1, math.ceil(1.0 - s.real))
    poch, scale = size, 1.0 / (2.0 * x)  # |(s)_j| and 1 / (j! (2x)^j) at j = 1
    term = (poch + x) * scale  # t_j at j = 1
    growth = 0.0
    j = 1
    while True:
        growth += term
        poch_prev, poch = poch, poch * abs(s + j)
        scale /= 2.0 * x * (j + 1)
        if not growth <= GROWTH_BOUND or scale < sys.float_info.min:
            return j, math.inf
        term = (poch + x * poch_prev) * scale  # t_{j+1}, which the tail bound below needs
        if j >= lowest and term <= TAIL_BOUND:
            # the terms after j fall at least by ratio each
            ratio = max(size + j + 1, j + 2) / (2.0 * x * (j + 2))
            if ratio < 1.0 and term <= TAIL_BOUND * (1.0 - ratio):
                return j, growth
        j += 1


def _moment_plan(s: complex, count: int, shift: int) -> tuple[int, int, int] | None:
    """The plan of dirichlet_l at s for count = phi(|D|) classes and shift
    count N: None for the per-class sums, else (M, J, T), the moment
    series with head M, order J and its jets' shift count T (see
    dirichlet_l for which plan is taken where)."""
    class_cost = count * (shift + 12) * _COST_TERM
    jets = max(_MOMENT_ORDER, 1.0 - s.real) // 2
    # The head M at which the growth of the moment series, about
    # exp(|s| / (2M + 1)), is within GROWTH_BOUND.
    head = max(1, round(abs(s) / 11.0))
    short_cost = count * head * _COST_TERM + jets * (shift * _COST_JET_TERM + _COST_JET)
    if _SWITCH_GAIN * short_cost < class_cost:
        # the least such M and its J at x = M + 1/2; None if it passes N + 12
        while head > 1 and _order(s, head - 0.5)[1] <= GROWTH_BOUND:
            head -= 1
        order, growth = _order(s, head + 0.5)
        while growth > GROWTH_BOUND:
            head += 1
            if head > shift + 12:
                return None
            order, growth = _order(s, head + 0.5)
        return head, order, shift
    if count >= _LONG_CLASSES and 0.0 < s.real < 1.0 and abs(s.imag) <= _LONG_HEIGHT:
        order, growth = _order(s, shift + 0.5)
        return None if growth > GROWTH_BOUND else (shift, order, 0)
    return None


def _class_sum(s: complex, table: _Table, shift: int, weights: tuple[complex, ...]) -> tuple[list, list]:
    # The parts of q^s L(s, chi) of the classes with chi(r) = +1 and of
    # those with -1: one Hurwitz sum per class, each sign block's powers
    # (a + n)^-s for n <= N taken in one pass, class i's in column i.
    neg_s = -s
    one_minus_s = 1.0 - s
    plus, minus = [], []
    for sums, tops, logs in zip((plus, minus), (table.plus, table.minus), table.heads):
        count = len(tops)
        powers = list(map(cmath.exp, map(neg_s.__mul__, logs[: count * (shift + 1)])))
        for i, a in enumerate(tops):
            lx = logs[count * shift + i]
            reg = _hurwitz_regular(weights, powers[i::count], a + shift)
            pole = -lx * _phi_expm1_ratio(one_minus_s * lx)
            sums.append(reg + pole)
    return plus, minus


def _real_power(p: float, z: complex) -> complex:
    # p^z for p > 0 with the modulus p^Re(z) from pow, whose error does not
    # grow with |Re z| log p as that of exp(z log p) does
    return p ** z.real * cmath.exp(complex(0.0, z.imag * math.log(p)))


def moment_sum(s: complex, table: _Table, head: int, order: int, shift: int) -> tuple[list, list]:
    """The parts of q^s L(s, chi) by moments, those with chi(r) = +1 and -1.

    The first list holds the head terms (a_c + n)^-s, n < head, of the
    classes with chi = +1 and, since the jets carry their sign in mu_j,
    for each j <= order of the parity of chi(-1) = (-1)^j the Taylor term
      (-1)^j mu_j [(s)_j/j! R_j + (s)_{j-1}/j! X^(1-s-j)],
    where R_j is zeta_H(s + j, x), x = head + 1/2, less its pole term
    X^(1-s-j)/(s+j-1), by Euler-Maclaurin with X = x + shift; the second
    the head terms of the classes with chi = -1.

    Per call: the head exps, the real and imaginary parts of
    (x + n)^-s for n < shift, and X^(1-2k) for k = 1..K.  Per jet: the
    regular sum of (x + n)^-(s+j) as two fsums of those parts times the
    float column (x + n)^-j, and the tail, each weight added as it is formed.
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
    steps, xp = [], 1.0 / big_x  # (B_2k/(2k)!, 2k - 1, X^(1-2k)), k = 1..K
    for bern, k_odd in _EM_STEPS:
        steps.append((bern, k_odd, xp))
        xp *= inv_x2
    odd = table.modulus < 0
    sign = -1.0 if odd else 1.0
    first = 1 if odd else 2
    scaled = inv if odd else inv2
    coef = complex(1.0) if odd else s  # (s)_{j-1} / (j-1)! at j = first
    moments = table.moments
    for j in range(first, order + 1, 2):
        pole_coef = coef / j  # (s)_{j-1} / j!
        coef *= (s + (j - 1)) / j  # (s)_j / j!
        mu = sign * moments[j]
        regular = complex(math.fsum(map(mul, re, scaled)), math.fsum(map(mul, im, scaled)))
        x_sj = x_s * big_x**-j
        # _tail_weights' operations at s + j, left to right: sum() is
        # compensated from CPython 3.12 on
        sj = s + j
        em, poch = 0.5, sj
        for bern, k_odd, xp in steps:
            em += bern * poch * xp
            poch = poch * (sj + k_odd) * (sj + (k_odd + 1))
        plus.append(mu * (coef * (regular + x_sj * em) + pole_coef * big_x * x_sj))
        scaled = list(map(mul, scaled, inv2))
        coef *= (s + j) / (j + 1)  # (s)_{j+1} / (j+1)!
    return plus, minus


def dirichlet_l(s, chi: KroneckerCharacter) -> complex:
    """L(s, chi_D) = |D|^-s * sum_r chi(r) zeta_H(s, r/|D|), continued.

    Entire for D != 1; the principal case D = 1 degenerates to the
    Riemann zeta and keeps its PoleError near s = 1.  Write q = |D|, a_r = r/q
    and N for hurwitz_zeta's shift count at s.  One of three plans
    evaluates it:

    * Per class: one Euler-Maclaurin Hurwitz sum of N terms for each of
      the phi(q) classes r coprime to q, their pole terms x^(1-s)/(s-1)
      recombined through (x^(1-s) - 1)/(s-1), which is regular at s = 1
      because the chi values sum to zero over a period.
    * By moments (Arb's acb_dirichlet_hurwitz_precomp, arXiv:1309.2877):
      with a head of M terms, x = M + 1/2 and mu_j = sum_r chi(r) (a_r - 1/2)^j,
        q^s L = sum_r chi(r) sum_{n<M} (a_r + n)^-s
                + sum_{j<=J} (-1)^j (s)_j/j! zeta_H(s + j, x) mu_j.
      mu_j vanishes unless (-1)^j = chi(-1), and the jets zeta_H(s + j, x)
      come from one Euler-Maclaurin pass of T terms, each pole term
      folded into (-1)^j (s)_{j-1}/j! X^(1-s-j), X = x + T, so that
      s = 1 - j stays regular.  With |mu_j| <= phi(q) 2^-j and
      |zeta_H(s + j, x)| <= x^-(sigma+j) + x^(1-sigma-j)/(sigma+j-1),
      the j-th term is at most phi(q) x^-sigma t_j, where
      t_j = (|(s)_j| + x |(s)_{j-1}|) / (j! (2x)^j), and for j >= 1 - sigma
      the terms after j fall at least by max(|s| + j + 1, j + 2) /
      (2x (j + 2)) each.  J is the first j >= 1 - sigma at which that
      tail bound is below 2^-56 (TAIL_BOUND), and the growth
      sum_{j<=J} t_j, which bounds the cancellation among the terms, is
      at most 2^8 (GROWTH_BOUND).  Each jet's tail weights are
      those of a Hurwitz sum at s + j.  There are two heads:
      - short: M the smallest head that meets the growth bound (about
        |s|/11, at most N + 12), and T = N.  It is taken where an
        estimate of its cost, phi(q) M head terms plus max(38, 1 - sigma)/2
        jets of N terms, is below 2/3 of the per-class phi(q) (N + 12)
        terms, and such an M exists: every phi(q) >= 78 on 0 < Re s < 1,
        |Im s| <= 50, none below 52, and no |D| <= 40 anywhere.  The
        margin of 3/2 is not a measured crossover: re-measured costs
        would move mid-size moduli to the short head, which is farther
        from the true value than the per-class sums at many of them
        (L(-2.91 + 33.47i, chi_-104): 6.0e-14 per class, 7.4e-13 by
        moments; L(0.27 + 37.88i, chi_-56): 2.2e-15 and 1.6e-14).
      - long: M = N, J 13 to 17, and T = 0, in place of the per-class
        sums from phi(q) = 16 on (where it becomes the cheaper, see
        _LONG_CLASSES) on the critical strip 0 < Re s < 1 up to
        |Im s| = 50.  It keeps their N terms and their accuracy: every
        jet j <= J, weighted by |(s)_j| / (j! 2^j), meets the remainder
        bound 2^-50 of hurwitz_zeta, 4 |(s+j)_24| / (2 pi)^24
        X^-(sigma+j+23) / (sigma+j+23), at X = N + 1/2 (_moment_plan).
        On Re s > 0 that bound decides N, so jet 0 meets it there with
        room (N/X)^(sigma+23), and jet j + 1's weighted bound is jet j's
        times |s + j + 24| (sigma + j + 23) / (2 (j + 1) X (sigma + j + 24)),
        at most (|s| + j + 24) / (2 (j + 1) X), a ratio that falls with j;
        on the strip the room covers the product of the ratios above 1 (a
        seeded test checks each jet's bound there for |Im s| up to near
        MAX_ABS_S).  Left of it N can be 0 because (s)_24 = 0, which says
        nothing about the jets s + j.  Above |Im s| = 50 its saving is a
        few percent of a call, while the rounding of the sums' logs passes
        the oracle grid's kappa: L(0.49 - 262.56i, chi_-52) is 1.1721e-12
        off by the long head and 1.1704e-12 per class.  On the paper's
        box every |D| <= 15, and 20, 21, 24 and 28, stay per class, and
        every other |D| <= 40 takes the long head.

    Only the plan chosen searches for its M, J and T.  Values are a pure
    function of (s, D) whatever the cache holds.  Only work that depends
    on s is done per call: the offsets a_r, their logs log(a_r + n) and
    the exact moments are kept in one table per modulus, which every plan
    reads (see MAX_TABLE_ENTRIES).  Raises DomainError, before any work,
    when |s| exceeds MAX_ABS_S, the call's table would exceed
    MAX_TABLE_ENTRIES, or a term, |D|^-s times the sum included, could
    pass exp(MAX_LOG_TERM).
    """
    s = _as_complex(s)
    D = chi.modulus
    if D == 1:
        return riemann_zeta(s)
    q = abs(D)
    shift, weights = _em_weights(s)
    table = _tables.get(D)
    count = _totient(q) if table is None else len(table.plus) + len(table.minus)
    # Both paths meet the part (1/q)^-s and a pole term x^(1-s) with
    # x >= 1 + N; the phi(q) parts are summed and the sum is scaled by
    # q^-s.  Checked before the plan, so that a point far left of the
    # strip is refused before any search for M and J (a class's x^((s-1)/2) stays
    # below it: N >= 9 only for Re s < 79, and 9^((sigma-1)/2) < 3^sigma).
    sigma, log_q, log_x = s.real, math.log(q), math.log(1.0 + shift)
    spread = math.log(count) + max(0.0, -sigma) * log_q
    _require_log_term(s, max(sigma * log_q, (1.0 - sigma) * log_x) + spread)
    plan = _moment_plan(s, count, shift)
    rows, order, jet_shift = plan or (shift + 1, -1, 0)
    need = count * (rows + 1) + order + 1
    if need > MAX_TABLE_ENTRIES:
        raise DomainError(
            f"dirichlet_l: phi(|D|) * (rows + 1) + len(moments) = {need} exceeds "
            f"MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES} (D = {D}, N = {shift}, plan = {plan})"
        )
    if plan is None:
        plus, minus = _class_sum(s, _cached_table(D, rows), shift, weights)
    else:
        # Each part is at most GROWTH_BOUND times the larger of (1/q)^-s
        # (the head) and X^(1-s) (the jets, X = M + 1/2 + T).
        largest = max(sigma * log_q, (1.0 - sigma) * math.log(rows + 0.5 + jet_shift))
        _require_log_term(s, largest + math.log(GROWTH_BOUND) + spread)
        plus, minus = moment_sum(s, _cached_table(D, rows, order), rows, order, jet_shift)
    # fsum is correctly rounded, so the order of the parts is immaterial
    total = complex(math.fsum(chain(map(_REAL, plus), map(neg, map(_REAL, minus)))),
                    math.fsum(chain(map(_IMAG, plus), map(neg, map(_IMAG, minus)))))
    return cmath.exp(-s * log_q) * total
