"""Verification of the functional equation Z(1-s) = beta^(2s-1) Z(s).

check_point and sweep compare both sides numerically with a relative
residual; exact_check_function_field verifies the equivalent integer
statement in positive characteristic (the coefficient symmetry of the
L-polynomial); euler_consistency_check compares the closed form against
the truncated Euler product inside the convergence half-plane.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .arith import POLE_EXCLUSION_RADIUS, _as_complex
from .errors import DomainError
from .fields import (FieldDescriptor, FunctionFieldDescriptor, enumerate_places, field_spec_string, log_covolume,
                     truncated_euler_product)
from .kernel import _require_finite, _require_log_term
from .zeta import completed_zeta, pole_distance, zeta

STATUS_OK = "ok"
STATUS_SKIPPED = "near_pole_skipped"
STATUS_FAILED = "failed"

#: Floor inside the relative residual, guarding 0/0 at zeros of Z.
RESIDUAL_FLOOR = 1e-300
#: Largest node count of a sweep grid.  Each node costs at most two
#: completed zeta values (0.1 ms for Q, tens of ms for |D| in the
#: thousands) and keeps one report; the sweep's memo of evaluated points
#: holds at most two complex values per node.
MAX_GRID_NODES = 10**5


class FunctionalEquationReport(NamedTuple):
    """One verification record.  lhs = Z(1-s), rhs = beta^(2s-1) Z(s);
    all three value fields are None when the node was skipped near a pole."""

    s: complex
    lhs: complex | None
    rhs: complex | None
    relative_residual: float | None
    pole_distance_min: float
    status: str


class GridSpec(NamedTuple):
    re_min: float
    re_max: float
    re_steps: int
    im_min: float
    im_max: float
    im_steps: int

    def describe(self) -> str:
        return (
            f"re[{self.re_min:g}:{self.re_max:g}:{self.re_steps}] "
            f"im[{self.im_min:g}:{self.im_max:g}:{self.im_steps}]"
        )


class SweepSummary(NamedTuple):
    field: str
    grid: str
    count_ok: int
    count_skipped: int
    count_failed: int
    max_residual: float


class ExactCheckResult(NamedTuple):
    holds: bool
    witness: int | None


class EulerConsistencyReport(NamedTuple):
    closed_form: complex
    truncated: complex
    gap: float
    tail_bound: float
    passed: bool


def check_point(field: FieldDescriptor, s, tolerance: float) -> FunctionalEquationReport:
    """Compare Z(1-s) against beta^(2s-1) Z(s) at one point.

    Pole proximity (of s or 1-s) yields status near_pole_skipped rather
    than an error; otherwise status is ok or failed by comparing the
    relative residual |lhs - rhs| / max(|lhs|, |rhs|, floor) with the
    tolerance.  When both sides underflow to exactly 0 they cannot be
    compared, and DomainError is raised instead of a vacuous ok; so is
    it where beta^(2s-1) or the right side would leave binary64.
    This is the one-node case of sweep: on Re s = 1/2 off the real
    axis, 1 - s is conj(s), so Z is evaluated once.
    """
    return _check_nodes(field, [_as_complex(s)], tolerance)[0]


def _check_nodes(
    field: FieldDescriptor, nodes: list[complex], tolerance: float
) -> list[FunctionalEquationReport]:
    # Each distinct point is evaluated once, keyed by its value and the
    # signs of its parts (as kernel._em_weights is; 0.0 == -0.0).
    # Z(conj s) is served as conj Z(s), which completed_zeta returns bit
    # for bit, on the real axis too, where Z(x - 0i) is conj Z(x + 0i)
    # (both pinned in tests/test_zeta.py).  At most two values per node.
    if not 0 < tolerance < math.inf:  # an infinite one would make every verdict ok
        raise DomainError(f"check_point: tolerance must be positive and finite, got {tolerance!r}")
    memo: dict[tuple[complex, float, float], complex] = {}

    def value(s: complex) -> complex:
        sign_re, sign_im = math.copysign(1.0, s.real), math.copysign(1.0, s.imag)
        key = (s, sign_re, sign_im)
        if key not in memo:
            conj = (s.conjugate(), sign_re, -sign_im)
            if conj in memo:
                memo[key] = memo[conj].conjugate()
            else:
                memo[key] = completed_zeta(field, s).completed_value
        return memo[key]

    log_beta = log_covolume(field)
    reports = []
    for s in nodes:
        dist = min(pole_distance(field, s), pole_distance(field, 1.0 - s))
        if dist < POLE_EXCLUSION_RADIUS:
            reports.append(FunctionalEquationReport(s, None, None, None, dist, STATUS_SKIPPED))
            continue
        lhs = value(1.0 - s)
        log_beta_power = (2.0 * s - 1.0) * log_beta
        _require_log_term(s, log_beta_power.real)
        rhs = _require_finite(s, cmath.exp(log_beta_power) * value(s))
        if lhs == 0 and rhs == 0:
            raise DomainError(
                f"check_point: both sides underflow to 0 at s = {s!r}; binary64 cannot compare them"
            )
        residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), RESIDUAL_FLOOR)
        status = STATUS_OK if residual <= tolerance else STATUS_FAILED
        reports.append(FunctionalEquationReport(s, lhs, rhs, residual, dist, status))
    return reports


def _axis(lo: float, hi: float, steps: int, what: str) -> list[float]:
    # hi - lo is not finite for an inf or nan bound, and for a span
    # beyond binary64: the nodes would hold nan (0 * inf) or inf.
    if not math.isfinite(hi - lo):
        raise DomainError(f"sweep: {what} range [{lo}, {hi}] is not a finite interval")
    if hi < lo:
        raise DomainError(f"sweep: inverted {what} range [{lo}, {hi}]")
    if steps == 1:
        return [lo]
    if hi == lo:
        raise DomainError(f"sweep: empty {what} range [{lo}, {hi}] with {steps} steps")
    step = (hi - lo) / (steps - 1)
    return [lo + k * step for k in range(steps)]


def sweep(
    field: FieldDescriptor, grid: GridSpec, tolerance: float
) -> tuple[list[FunctionalEquationReport], SweepSummary]:
    """check_point at every grid node, row-major (ascending re, then im).

    Each distinct point is evaluated once per call: where 1 - s, or its
    conjugate off the real axis, is a point already evaluated, its value
    is reused, so the reports equal those of check_point node by node.
    A step count below 1, more than MAX_GRID_NODES nodes, or a bound
    that is not finite raise DomainError before any node is laid out.
    """
    for steps, what in ((grid.re_steps, "re"), (grid.im_steps, "im")):
        if steps < 1:
            raise DomainError(f"sweep: {what} steps must be >= 1")
    if grid.re_steps * grid.im_steps > MAX_GRID_NODES:
        raise DomainError(f"sweep: {grid.re_steps} * {grid.im_steps} nodes exceed MAX_GRID_NODES = {MAX_GRID_NODES}")
    res = _axis(grid.re_min, grid.re_max, grid.re_steps, "re")
    ims = _axis(grid.im_min, grid.im_max, grid.im_steps, "im")
    reports = _check_nodes(field, [complex(x, y) for x in res for y in ims], tolerance)
    return reports, summarize_reports(field_spec_string(field), grid.describe(), reports)


def summarize_reports(
    field: str, grid: str, reports: list[FunctionalEquationReport]
) -> SweepSummary:
    """Count the reports by status; max_residual is the largest ok residual (0.0 if none)."""
    statuses = [r.status for r in reports]
    return SweepSummary(
        field=field,
        grid=grid,
        count_ok=statuses.count(STATUS_OK),
        count_skipped=statuses.count(STATUS_SKIPPED),
        count_failed=statuses.count(STATUS_FAILED),
        max_residual=max(
            (r.relative_residual for r in reports if r.status == STATUS_OK), default=0.0
        ),
    )


def exact_check_function_field(field: FunctionFieldDescriptor) -> ExactCheckResult:
    """Exact integer form of the functional equation in positive characteristic.

    Checks the L-polynomial symmetry a[2g-i] == q^(g-i) * a[i] for all i
    and returns the first violating index as witness.  Genus 0 holds by
    the fixed identity zeta(1-s) = q^(1-2s) zeta(s) of the rational
    function field, so the trivial L-polynomial passes vacuously.  Every
    constructor already enforces the symmetry, so this fails only for a
    descriptor built directly rather than through
    make_curve_function_field.
    """
    if not isinstance(field, FunctionFieldDescriptor):
        raise DomainError("exact_check_function_field: not a function field")
    witness = field.lpoly.symmetry_violation(field.q)
    return ExactCheckResult(holds=witness is None, witness=witness)


def euler_consistency_check(
    field: FieldDescriptor, s, norm_bound: int
) -> EulerConsistencyReport:
    """Closed form vs truncated Euler product, Re s > 1.

    The tail envelope is the crude Dirichlet-series bound
    4 * sum_{n > B} n^-sigma, estimated by the integral comparison
    B^(1-sigma)/(sigma-1); passing means the gap sits inside it.  A bound
    below every q_v, whose product is the empty 1, raises DomainError.
    """
    s = _as_complex(s)
    if s.real <= 1.0:
        raise DomainError("euler_consistency_check: requires Re s > 1")
    sigma = s.real
    closed = zeta(field, s)
    truncated = truncated_euler_product(field, s, norm_bound)
    # the least q_v is at most 4 (a place above 2) in a number field and q in GF(q)(T)
    least = field.q if isinstance(field, FunctionFieldDescriptor) else 4
    if norm_bound < least and not enumerate_places(field, norm_bound):
        raise DomainError(f"euler_consistency_check: no place has q_v <= bound = {norm_bound}; the product is empty")
    gap = abs(closed - truncated)
    tail_bound = 4.0 * norm_bound ** (1.0 - sigma) / (sigma - 1.0)
    return EulerConsistencyReport(
        closed_form=closed,
        truncated=truncated,
        gap=gap,
        tail_bound=tail_bound,
        passed=gap <= tail_bound,
    )
