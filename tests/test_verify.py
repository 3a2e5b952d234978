"""Verifier tests: check_point, sweep, exact positive-characteristic check,
Euler consistency, involution structure of the residual."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from globalzeta import (
    DomainError,
    FunctionFieldDescriptor,
    GridSpec,
    LPolynomial,
    check_point,
    completed_zeta,
    euler_consistency_check,
    exact_check_function_field,
    log_covolume,
    make_curve_function_field,
    make_quadratic,
    make_rational_function_field,
    make_rationals,
    parse_field_spec,
    pole_distance,
    sweep,
)
from globalzeta import verify as verify_mod
from globalzeta.cli import parse_and_dispatch
from globalzeta.arith import _require_finite, _require_log_term

Q = make_rationals()
QI = make_quadratic(-1)
F5 = make_rational_function_field(5)
CURVE_5_1 = make_curve_function_field(5, [1, 3, 5])
CURVE_2_2 = make_curve_function_field(2, [1, 0, 0, 0, 4])

STANDARD_GRID = GridSpec(0.1, 0.9, 5, 0.0, 10.0, 5)


class TestCheckPoint:
    def test_rationals_at_two(self):
        rep = check_point(Q, 2, 1e-9)
        assert rep.status == "ok"
        assert rep.relative_residual <= 1e-10
        assert abs(rep.lhs - math.pi / 6.0) <= 1e-12 * (math.pi / 6.0)
        assert abs(rep.rhs - math.pi / 6.0) <= 1e-12 * (math.pi / 6.0)

    def test_gaussian_covolume_power_eight(self):
        rep = check_point(QI, 2, 1e-9)
        assert rep.status == "ok"
        assert rep.relative_residual <= 1e-9
        # rhs = beta^3 Z(2) with beta = 2 exactly
        z2 = completed_zeta(QI, 2).completed_value
        assert abs(rep.rhs / z2 - 8.0) <= 1e-13 * 8.0
        assert abs(rep.lhs / z2 - 8.0) <= 1e-9 * 8.0

    def test_genus_zero_exact_ratio(self):
        rep = check_point(F5, 2, 1e-12)
        assert rep.status == "ok"
        assert rep.relative_residual <= 1e-13
        z2 = completed_zeta(F5, 2).completed_value
        factor = rep.rhs / z2
        assert abs(factor - float(Fraction(1, 125))) <= 1e-14

    def test_near_pole_skip(self):
        rep = check_point(Q, 1, 1e-9)
        assert rep.status == "near_pole_skipped"
        assert rep.lhs is None and rep.rhs is None and rep.relative_residual is None
        assert rep.pole_distance_min == 0.0
        # 1 - s at a pole also skips
        assert check_point(Q, 1.0005, 1e-9).status == "near_pole_skipped"

    def test_tolerance_validation(self):
        with pytest.raises(DomainError):
            check_point(Q, 2, 0.0)

    def test_both_sides_tiny_reported_ok(self, monkeypatch):
        class _Rec:
            completed_value = complex(1e-150, 0.0)

        monkeypatch.setattr(verify_mod, "completed_zeta", lambda f, s: _Rec())
        rep = check_point(Q, 0.4, 1e-9)
        assert rep.status == "ok"
        assert rep.relative_residual == 0.0

    def test_tiny_sides_get_their_true_residual(self, monkeypatch):
        values = iter([complex(1e-150, 0.0), complex(2e-150, 0.0)])

        class _Rec:
            def __init__(self):
                self.completed_value = next(values)

        monkeypatch.setattr(verify_mod, "completed_zeta", lambda f, s: _Rec())
        rep = check_point(Q, 0.4, 1e-9)
        assert rep.status == "failed"
        assert rep.relative_residual == 0.5

    def test_high_on_the_critical_line_is_not_vacuous(self):
        # |Z| is about 2e-103 at t = 300: the residual is measured, not 0
        rep = check_point(Q, 0.5 + 300j, 1e-9)
        assert rep.status == "ok"
        assert 0.0 < rep.relative_residual < 1e-11

    def test_both_sides_underflowing_to_zero_is_refused(self):
        with pytest.raises(DomainError, match="underflow"):
            check_point(Q, 0.5 + 1000j, 1e-9)

    def test_involution_of_residuals(self):
        rng = random.Random(777)
        for field in (Q, QI, F5, CURVE_5_1):
            for _ in range(8):
                s = complex(rng.uniform(-1.5, 2.5), rng.uniform(0.0, 8.0))
                a = check_point(field, s, 1e-6)
                b = check_point(field, 1.0 - s, 1e-6)
                if a.status != "ok" or b.status != "ok":
                    assert a.status == b.status == "near_pole_skipped"
                    continue
                assert abs(a.relative_residual - b.relative_residual) <= 1e-12

    def test_covolume_factors_cancel_exactly(self):
        for field in (Q, QI, F5, CURVE_5_1):
            logb = log_covolume(field)
            for s in (0.3, 2.0, 0.5 + 7j, -1.2 + 3j):
                total = (2 * s - 1) * logb + (2 * (1 - s) - 1) * logb
                assert abs(total) <= 1e-14


class TestSweep:
    def test_standard_grid_counts(self):
        reports, summary = sweep(Q, STANDARD_GRID, 1e-9)
        assert len(reports) == 25
        assert summary.count_ok + summary.count_skipped + summary.count_failed == 25
        assert summary.count_failed == 0
        assert summary.count_ok == 25
        # covolume 1: the pure symmetry Z(1-s) = Z(s) holds extra tightly
        assert summary.max_residual <= 1e-10
        assert summary.field == "Q"

    def test_row_major_order(self):
        reports, _ = sweep(Q, GridSpec(0.2, 0.4, 2, 0.0, 3.0, 3), 1e-9)
        got = [(round(r.s.real, 6), round(r.s.imag, 6)) for r in reports]
        assert got == [
            (0.2, 0.0), (0.2, 1.5), (0.2, 3.0),
            (0.4, 0.0), (0.4, 1.5), (0.4, 3.0),
        ]

    def test_grid_node_at_pole_is_skipped(self):
        reports, summary = sweep(Q, GridSpec(0.5, 1.0, 2, 0.0, 0.0, 1), 1e-9)
        statuses = [r.status for r in reports]
        assert statuses == ["ok", "near_pole_skipped"]
        assert summary.count_skipped == 1

    def test_function_field_real_line(self):
        grid = GridSpec(-2.0, 3.0, 11, 0.0, 0.0, 1)
        for field in (make_rational_function_field(3), F5, CURVE_5_1):
            reports, summary = sweep(field, grid, 1e-12)
            assert summary.count_failed == 0
            assert summary.count_skipped == 2  # the pole bases 0 and 1
            assert summary.max_residual <= 1e-12

    def test_range_validation(self):
        with pytest.raises(DomainError):
            sweep(Q, GridSpec(0.9, 0.1, 5, 0.0, 1.0, 2), 1e-9)
        with pytest.raises(DomainError):
            sweep(Q, GridSpec(0.1, 0.9, 0, 0.0, 1.0, 2), 1e-9)
        with pytest.raises(DomainError):
            sweep(Q, GridSpec(0.1, 0.1, 3, 0.0, 1.0, 2), 1e-9)

    def test_deterministic(self):
        a = sweep(QI, STANDARD_GRID, 1e-9)
        b = sweep(QI, STANDARD_GRID, 1e-9)
        assert a == b

    def test_no_failures_on_fixture_fields(self):
        for field in (Q, QI, make_quadratic(-3), make_quadratic(5), make_quadratic(2)):
            _, summary = sweep(field, STANDARD_GRID, 1e-9)
            assert summary.count_failed == 0


def _unmemoized_check(field, s, tolerance):
    # check_point node by node with both sides evaluated afresh: the
    # reference for the sweep's memo of evaluated points.
    dist = min(pole_distance(field, s), pole_distance(field, 1.0 - s))
    if dist < 1e-3:
        return (s, None, None, None, "near_pole_skipped")
    lhs = completed_zeta(field, 1.0 - s).completed_value
    log_beta_power = (2.0 * s - 1.0) * log_covolume(field)
    _require_log_term(s, log_beta_power.real)
    rhs = _require_finite(s, cmath.exp(log_beta_power) * completed_zeta(field, s).completed_value)
    if lhs == 0 and rhs == 0:
        raise DomainError(
            f"check_point: both sides underflow to 0 at s = {s!r}; binary64 cannot compare them"
        )
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return (s, lhs, rhs, residual, "ok" if residual <= tolerance else "failed")


def _bits(row):
    # a report's s, lhs, rhs and residual in float.hex (signed zeros
    # distinct), and its status
    def hexed(x):
        if x is None:
            return None
        if isinstance(x, complex):
            return (x.real.hex(), x.imag.hex())
        return x.hex()

    s, lhs, rhs, residual, status = row
    return (hexed(s), hexed(lhs), hexed(rhs), hexed(residual), status)


def _reference_sweep(field, grid, tolerance):
    res = verify_mod._axis(grid.re_min, grid.re_max, grid.re_steps, "re")
    ims = verify_mod._axis(grid.im_min, grid.im_max, grid.im_steps, "im")
    return [_unmemoized_check(field, complex(x, y), tolerance) for x in res for y in ims]


class TestOneEvaluationPerPoint:
    @pytest.mark.parametrize(
        "spec, grid",
        [
            ("Q(sqrt=-163)", GridSpec(0.1, 0.9, 5, 0.0, 10.0, 5)),
            ("Q(sqrt=997)", GridSpec(0.1, 0.9, 3, -20.0, 20.0, 5)),  # moment path
            ("Fq(T)?q=5", GridSpec(0.0, 1.0, 3, 0.0, 4.0, 3)),
            ("Q", GridSpec(-5.0, -3.0, 5, 0.0, 0.0, 1)),
            ("Q", GridSpec(-0.5, 1.5, 9, -0.0, 0.0, 1)),
            ("Fq(T)?q=5", GridSpec(-0.5, 1.5, 9, -0.0, 0.0, 1)),
        ],
        ids=["d-163", "d997-symmetric", "fq5", "q-left-real", "q-minus-zero", "fq5-minus-zero"],
    )
    def test_sweep_equals_per_node_evaluation(self, spec, grid):
        field = parse_field_spec(spec)
        reports, _ = sweep(field, grid, 1e-9)
        got = [_bits((r.s, r.lhs, r.rhs, r.relative_residual, r.status)) for r in reports]
        assert got == [_bits(row) for row in _reference_sweep(field, grid, 1e-9)]
        if grid.im_min == 0.0 and math.copysign(1.0, grid.im_min) < 0:
            assert all(math.copysign(1.0, r.s.imag) < 0 for r in reports)

    def test_later_node_raises_the_same_error(self):
        # 0.5 + 500i compares; at 0.5 + 1000i both sides underflow to 0
        grid = GridSpec(0.5, 0.5, 1, 0.0, 1000.0, 3)
        with pytest.raises(DomainError) as ref:
            _reference_sweep(Q, grid, 1e-9)
        with pytest.raises(DomainError) as got:
            sweep(Q, grid, 1e-9)
        assert str(got.value) == str(ref.value)
        assert "1000j" in str(got.value)

    def _count_calls(self, monkeypatch):
        calls = []
        original = verify_mod.completed_zeta

        def counted(field, s):
            calls.append(s)
            return original(field, s)

        monkeypatch.setattr(verify_mod, "completed_zeta", counted)
        return calls

    def test_acceptance_grid_evaluates_each_point_once(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        sweep(make_quadratic(-163), STANDARD_GRID, 1e-9)
        assert len(calls) < 50
        keys = {(s.real.hex(), s.imag.hex()) for s in calls}
        assert len(keys) == len(calls)
        # no point is evaluated along with its conjugate off the real axis
        assert not any(s.imag and (s.real.hex(), (-s.imag).hex()) in keys for s in calls)

    @pytest.mark.parametrize("spec", ["Q", "Q(sqrt=-3)", "Fq(T)?q=5"])
    def test_real_axis_folds_conjugates(self, monkeypatch, spec):
        # the nodes x - 0i and the points 1 - s = (1 - x) + 0i meet at each
        # real x: Z(x - 0i) is served as conj Z(x + 0i), so each x is
        # evaluated once (the values equal a fresh evaluation, as
        # test_sweep_equals_per_node_evaluation checks)
        calls = self._count_calls(monkeypatch)
        sweep(parse_field_spec(spec), GridSpec(-0.5, 1.5, 9, -0.0, 0.0, 1), 1e-9)
        assert len(calls) == len({s.real for s in calls}) == 7

    def test_check_on_the_critical_line_evaluates_once(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        code, _ = parse_and_dispatch(["check", "--field", "Q", "--s=0.5,14"])
        assert code == 0
        assert calls == [complex(0.5, -14.0)]


class TestExactCheck:
    def test_fixtures_hold(self):
        for field in (
            make_rational_function_field(2),
            make_rational_function_field(3),
            make_rational_function_field(5),
            CURVE_5_1,
            CURVE_2_2,
        ):
            result = exact_check_function_field(field)
            assert result.holds
            assert result.witness is None

    def test_constructed_violation(self):
        # bypass the validating constructor on purpose
        broken = FunctionFieldDescriptor(q=5, genus=1, lpoly=LPolynomial((1, 3, 7)))
        result = exact_check_function_field(broken)
        assert not result.holds
        assert result.witness == 0

    def test_mutation_flips_exact_and_numeric(self):
        # one-coefficient mutation: exact check fails AND the numeric
        # functional-equation residual at s = 2 blows past 1e-6
        broken = FunctionFieldDescriptor(q=5, genus=1, lpoly=LPolynomial((1, 3, 7)))
        assert not exact_check_function_field(broken).holds
        rep = check_point(broken, 2, 1e-9)
        assert rep.status == "failed"
        assert rep.relative_residual > 1e-6
        # and the unbroken fixture passes both at machine precision
        good = check_point(CURVE_5_1, 2, 1e-12)
        assert good.status == "ok"

    def test_requires_function_field(self):
        with pytest.raises(DomainError):
            exact_check_function_field(Q)


class TestEulerConsistency:
    def test_rationals_s3(self):
        rec = euler_consistency_check(Q, 3, 100)
        assert rec.passed
        assert rec.gap < 5.1e-5
        assert rec.gap <= rec.tail_bound
        assert abs(rec.tail_bound - 4.0 * 100 ** -2 / 2.0) < 1e-15

    def test_gaussian_s2(self):
        rec = euler_consistency_check(QI, 2, 500)
        assert rec.passed
        assert rec.gap <= rec.tail_bound

    def test_f5_s2(self):
        rec = euler_consistency_check(F5, 2, 25)
        assert rec.passed
        assert rec.gap <= rec.tail_bound

    def test_slow_convergence_near_abscissa_documented(self):
        # near Re s = 1 the report is returned, pass not asserted
        rec = euler_consistency_check(Q, 1.01, 50)
        assert math.isfinite(rec.gap)
        assert math.isfinite(rec.tail_bound)
        assert rec.passed in (True, False)

    def test_domain(self):
        with pytest.raises(DomainError):
            euler_consistency_check(Q, 1.0, 100)
        with pytest.raises(DomainError):
            euler_consistency_check(Q, 0.5 + 2j, 100)
