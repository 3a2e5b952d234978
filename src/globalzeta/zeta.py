"""Dedekind zeta, archimedean Gamma factor, and the completed product.

For a number field the completed value is

    Z(s) = (pi^(-s/2) Gamma(s/2))^r1 * ((2 pi)^(1-s) Gamma(s))^r2 * zeta_k(s),

with zeta_k the product of its L-factors through the kernel: zeta(s) for
Q, zeta(s) * L(s, chi_D) for Q(sqrt d), chi_D cached per discriminant.
For a function field the Gamma factor is 1 and zeta_k is the closed form
P(q^-s) / ((1 - q^-s)(1 - q^(1-s))).

Pole model: the actual poles of Z are s = 0 and s = 1 (number fields)
or the two lattices k*2*pi*i/log q and 1 + k*2*pi*i/log q (function
fields).  The Gamma poles at negative integers m are cancelled by
trivial zeros of the L-factors: zeta(s) vanishes at even m, L(s, chi_D)
at even m for D > 0 and at odd m for D < 0.  Within GAMMA_CANCEL_RADIUS
of such an m the record flags precision_cliff and reports deflated
factors: the Gamma part times (s - m)^r, r the order of the cancelled
pole, through the recurrence, and zeta_k(s) / (s - m)^r as a contour mean
on a circle around m.  Their product is the completed value bit for bit.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

from .arith import POLE_EXCLUSION_RADIUS, KroneckerCharacter, _as_complex
from .errors import DomainError, PoleError
from .fields import FieldDescriptor, FunctionFieldDescriptor, NumberFieldDescriptor, _require_abs_s
from .kernel import _LOG_2PI, _LOG_PI, _log_gamma_impl, _require_finite, _require_log_term, dirichlet_l, riemann_zeta

#: Inside this radius of a cancelled Gamma pole the record is flagged and
#: its factors deflated; s stays 0.115 from every contour node.
GAMMA_CANCEL_RADIUS = 1e-2
#: The deflated zeta_k's contour around the pole: its radius and node count.
_CONTOUR_RADIUS = 0.125
_CONTOUR_NODES = 16
#: chi_D per discriminant, as KroneckerCharacter validates D by trial division.
_character = lru_cache(maxsize=256)(KroneckerCharacter)


class EvaluationRecord(NamedTuple):
    """One completed-zeta evaluation; completed = gamma_factor * zeta bit for bit."""

    s: complex
    zeta_value: complex
    gamma_factor_value: complex
    completed_value: complex
    pole_distance: float
    precision_cliff: bool = False


class PoleSet(NamedTuple):
    """Poles of the completed zeta: base points, plus an imaginary period
    (2*pi/log q) in positive characteristic."""

    bases: tuple[float, ...]
    period: float | None


def pole_set(field: FieldDescriptor) -> PoleSet:
    """The actual poles of Z: {0, 1}, periodically repeated for function fields."""
    if isinstance(field, FunctionFieldDescriptor):
        return PoleSet(bases=(0.0, 1.0), period=2.0 * math.pi / math.log(field.q))
    return PoleSet(bases=(0.0, 1.0), period=None)


def pole_distance(field: FieldDescriptor, s) -> float:
    """Distance from s to the pole set of the completed zeta (see pole_set)."""
    s = _as_complex(s)
    if isinstance(field, FunctionFieldDescriptor):
        period = pole_set(field).period
        dy = s.imag - round(s.imag / period) * period
        return min(math.hypot(s.real, dy), math.hypot(s.real - 1.0, dy))
    return min(abs(s), abs(s - 1.0))


def _require_off_poles(field: FieldDescriptor, s: complex) -> float:
    dist = pole_distance(field, s)
    if dist < POLE_EXCLUSION_RADIUS:
        raise PoleError(
            f"{s!r} is within {POLE_EXCLUSION_RADIUS} of a pole of the completed zeta"
        )
    return dist


def _function_field_zeta(field: FunctionFieldDescriptor, s: complex) -> complex:
    _require_abs_s(s)
    log_t = -s * math.log(field.q)
    _require_log_term(s, log_t.real)
    # P(t) is summed in binary64, so each coefficient must fit there too
    _require_log_term(s, math.log(max(map(abs, field.lpoly.coefficients))))
    t = cmath.exp(log_t)
    return field.lpoly(t) / ((1.0 - t) * (1.0 - field.q * t))


def _number_field_zeta(field: NumberFieldDescriptor, s: complex) -> complex:
    # zeta(s), times L(s, chi_D) unless D = 1 (a product from 1.0 can flip a zero's sign)
    value, D = riemann_zeta(s), field.discriminant
    return value if D == 1 else value * dirichlet_l(s, _character(D))


def zeta(field: FieldDescriptor, s) -> complex:
    """The meromorphically continued Dedekind zeta of the field.

    Raises DomainError naming MAX_LOG_TERM where q^-s or the value
    itself would leave binary64, and naming MAX_ABS_S where |s| exceeds it.
    """
    s = _as_complex(s)
    _require_off_poles(field, s)
    if isinstance(field, FunctionFieldDescriptor):
        return _require_finite(s, _function_field_zeta(field, s))
    return _require_finite(s, _number_field_zeta(field, s))


def _nearest_gamma_pole(field: NumberFieldDescriptor, s: complex) -> int:
    # Nearest pole of the Gamma factor: even nonpositive integers for a
    # real signature, all nonpositive integers for an imaginary one.
    if field.r1:
        return min(0, 2 * round(s.real / 2.0))
    return min(0, round(s.real))


def gamma_factor(field: FieldDescriptor, s) -> complex:
    """(pi^(-s/2) Gamma(s/2))^r1 * ((2 pi)^(1-s) Gamma(s))^r2, in log space.

    Identically 1 for function fields.  Raises PoleError within the
    exclusion radius of a Gamma pole (s in {0,-2,-4,...} when r1 > 0,
    s in {0,-1,-2,...} when r2 > 0), and DomainError naming
    MAX_LOG_TERM where the log of the factor passes it.
    """
    s = _as_complex(s)
    if isinstance(field, FunctionFieldDescriptor):
        return complex(1.0)
    m = _nearest_gamma_pole(field, s)
    if abs(s - m) < POLE_EXCLUSION_RADIUS:
        raise PoleError(
            f"gamma_factor: {s!r} is within {POLE_EXCLUSION_RADIUS} of the Gamma pole at {m}"
        )
    acc = complex(0.0)
    if field.r1:
        acc += field.r1 * (-(s / 2.0) * _LOG_PI + _log_gamma_impl(s / 2.0))
    if field.r2:
        acc += field.r2 * ((1.0 - s) * _LOG_2PI + _log_gamma_impl(s))
    _require_log_term(s, acc.real)
    value = cmath.exp(acc)
    return value if s.imag else complex(value.real, s.imag)


# ---------------------------------------------------------------------------
# Deflated evaluation near cancelled Gamma poles
# ---------------------------------------------------------------------------

def _gamma_linear_deflated(z: complex, z0: int) -> complex:
    # Gamma(z) * (z - z0) for a nonpositive integer z0, via the
    # recurrence Gamma(z) = Gamma(z + K) / (z (z+1) ... (z+K-1)) with
    # the vanishing factor (z - z0) cancelled symbolically.
    k_up = -z0 + 1
    num = cmath.exp(_log_gamma_impl(z + k_up))
    den = complex(1.0)
    for j in range(k_up):
        if j != -z0:
            den *= z + j
    return num / den


@lru_cache(maxsize=256)
def _contour_values(field: NumberFieldDescriptor, m: int) -> tuple:
    # The upper contour nodes z around m and zeta_k(z) / nodes, shared by every s
    # near m; a node that raises leaves nothing cached
    nodes = [m + cmath.rect(_CONTOUR_RADIUS, math.pi * (2 * k + 1) / _CONTOUR_NODES)
             for k in range(_CONTOUR_NODES // 2)]
    return tuple((z, _number_field_zeta(field, z) / _CONTOUR_NODES) for z in nodes)


def _deflated_zeta(field: NumberFieldDescriptor, s: complex, m: int) -> complex:
    # zeta_k(s) / (s - m)^r, r = r1 + r2 (a real field's m is even), by Cauchy's
    # formula: the mean over nodes z on a circle around m of zeta_k(z) / ((z - m)^(r-1)
    # (z - s)), off by about (|s - m| / radius)^nodes.  Values are scaled first (exactly),
    # so the sum overflows only where the mean nearly does, and paired with the lower
    # nodes' conjugate ones: a real s gets Im 0, conj s the conjugate bit for bit.
    try:
        nodes = _contour_values(field, m)
    except DomainError as exc:
        raise DomainError(f"at s = {s!r} the contour mean around the cancelled Gamma pole at {m} "
                          f"fails at a node: {exc}") from exc
    r = field.r1 + field.r2
    total = complex(0.0)
    for z, value in nodes:
        total += (value / ((z - m) ** (r - 1) * (z - s))
                  + value.conjugate() / ((z.conjugate() - m) ** (r - 1) * (z.conjugate() - s)))
    return total


def _deflated_gamma(field: NumberFieldDescriptor, s: complex, m: int) -> complex:
    # the Gamma factor times (s - m)^r1, or (s - m) if r1 = 0, by the recurrence
    log_power = -(s / 2.0) * _LOG_PI if field.r1 else (1.0 - s) * _LOG_2PI
    _require_log_term(s, log_power.real)
    if field.r1:
        core = 2.0 * _gamma_linear_deflated(s / 2.0, m // 2)
        return (cmath.exp(log_power) * core) ** field.r1
    return cmath.exp(log_power) * _gamma_linear_deflated(s, m)


def completed_zeta(field: FieldDescriptor, s) -> EvaluationRecord:
    """Evaluate Z(s) = gamma_factor * zeta with the explicit pole model.

    Near a cancelled Gamma pole (a negative integer where a trivial
    zero of zeta_k absorbs the Gamma pole) the returned record carries
    the deflated factor pair and precision_cliff=True; elsewhere the
    factors are the literal gamma_factor and zeta values.  A factor or
    product that would leave binary64 raises DomainError naming
    MAX_LOG_TERM instead of returning inf or nan, and |s| > MAX_ABS_S
    raises DomainError naming it.
    """
    s = _as_complex(s)
    if not s.imag and math.copysign(1.0, s.imag) < 0.0:  # Z(x - 0i) = conj Z(x + 0i) bit for bit
        rec = completed_zeta(field, s.conjugate())  # its three values are fields 1..3
        return rec._replace(s=s, **{name: getattr(rec, name).conjugate() for name in rec._fields[1:4]})
    dist = _require_off_poles(field, s)
    m = _nearest_gamma_pole(field, s) if isinstance(field, NumberFieldDescriptor) else 0
    cliff = m <= -1 and abs(s - m) < GAMMA_CANCEL_RADIUS
    if cliff:
        g, z = _deflated_gamma(field, s, m), _deflated_zeta(field, s, m)
    else:
        g, z = gamma_factor(field, s), zeta(field, s)
    # inf or nan in either factor leaves the product non-finite too
    completed = _require_finite(s, g * z)
    if not s.imag and isinstance(field, NumberFieldDescriptor):
        completed = complex(completed.real, 0.0)  # a real value, printed with Im 0
    return EvaluationRecord(s=s, zeta_value=z, gamma_factor_value=g, completed_value=completed,
                            pole_distance=dist, precision_cliff=cliff)
