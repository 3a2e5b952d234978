"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

from globalzeta import (
    FunctionFieldDescriptor,
    GridSpec,
    LPolynomial,
    check_point,
    completed_zeta,
    covolume,
    euler_consistency_check,
    exact_check_function_field,
    make_curve_function_field,
    make_quadratic,
    make_rational_function_field,
    make_rationals,
    sweep,
)
from globalzeta.cli import parse_and_dispatch
from globalzeta.arith import KroneckerCharacter
from globalzeta.kernel import (
    dirichlet_l,
    log_gamma,
    riemann_zeta,
)

import oracles

STANDARD_GRID = GridSpec(0.1, 0.9, 5, 0.0, 10.0, 5)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {label}")
        raise
    print(f"criterion {number}: PASS - {label}")


def test_criterion_1_functional_equation_rationals():
    with criterion(1, "functional equation over Q (beta = 1), anchors at pi/6"):
        start = time.perf_counter()
        q = make_rationals()
        reports, summary = sweep(q, STANDARD_GRID, 1e-9)
        assert len(reports) == 25
        assert summary.count_failed == 0
        for r in reports:
            if r.status == "ok":
                assert r.relative_residual <= 1e-9
        anchor = math.pi / 6.0
        z2 = completed_zeta(q, 2).completed_value
        zm1 = completed_zeta(q, -1).completed_value
        assert abs(z2 - anchor) <= 1e-12 * anchor
        assert abs(zm1 - anchor) <= 1e-12 * anchor
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"runtime {elapsed:.3f}s"


def test_criterion_2_functional_equation_quadratics():
    with criterion(2, "functional equation over Q(i), Q(sqrt-3), Q(sqrt5), Q(sqrt2)"):
        start = time.perf_counter()
        for d in (-1, -3, 5, 2):
            field = make_quadratic(d)
            reports, summary = sweep(field, STANDARD_GRID, 1e-9)
            assert summary.count_failed == 0, f"d={d}"
            for r in reports:
                if r.status == "ok":
                    assert r.relative_residual <= 1e-9, f"d={d}, s={r.s}"
        gaussian = make_quadratic(-1)
        ratio = (
            completed_zeta(gaussian, -1).completed_value
            / completed_zeta(gaussian, 2).completed_value
        )
        assert abs(ratio - 8.0) <= 1e-9 * 8.0  # 8 = 2^(2*2-1), beta = 2
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"runtime {elapsed:.3f}s"


def test_criterion_3_covolume_closed_forms():
    with criterion(3, "covolumes: sqrt|D| and q^(g-1), exact where stated"):
        assert covolume(make_quadratic(-1)) == 2
        sqrt5 = covolume(make_quadratic(5))
        assert abs(sqrt5 - math.sqrt(5)) <= 1e-15 * math.sqrt(5)
        for q in (2, 3, 4, 5):
            assert covolume(make_rational_function_field(q)) == Fraction(1, q)
        assert covolume(make_curve_function_field(5, [1, 3, 5])) == 1


def test_criterion_4_exact_positive_characteristic():
    with criterion(4, "exact coefficient symmetry and 1e-12 sweeps in char p"):
        fixtures = [
            make_rational_function_field(2),
            make_rational_function_field(3),
            make_rational_function_field(5),
            make_curve_function_field(5, [1, 3, 5]),
            make_curve_function_field(2, [1, 0, 0, 0, 4]),
        ]
        grid = GridSpec(-2.0, 3.0, 11, 0.0, 0.0, 1)
        for field in fixtures:
            assert exact_check_function_field(field).holds
            reports, summary = sweep(field, grid, 1e-12)
            assert len(reports) == 11
            assert summary.count_failed == 0
            for r in reports:
                if r.status == "ok":
                    assert r.relative_residual <= 1e-12
        # single-coefficient mutation flips the exact check and pushes
        # the numeric residual past 1e-6 (constructor bypassed on purpose)
        broken = FunctionFieldDescriptor(q=5, genus=1, lpoly=LPolynomial((1, 3, 7)))
        flipped = exact_check_function_field(broken)
        assert not flipped.holds and flipped.witness == 0
        rep = check_point(broken, 2, 1e-9)
        assert rep.status == "failed" and rep.relative_residual > 1e-6


def test_criterion_5_kernel_oracle_suite():
    with criterion(5, "kernel vs summation/Bernoulli/Leibniz/quadrature oracles"):
        start = time.perf_counter()

        zeta2, bound2 = oracles.zeta_series(2.0, 4000)
        v = riemann_zeta(2)
        assert abs(v - zeta2) <= bound2 + 1e-11 * abs(v)

        v0 = riemann_zeta(0)
        exact0 = float(oracles.hurwitz_at_negative_integer(0, Fraction(1)))
        assert abs(v0 - exact0) <= 1e-11 * abs(exact0)

        vm1 = riemann_zeta(-1)
        exactm1 = float(oracles.hurwitz_at_negative_integer(1, Fraction(1)))
        assert abs(vm1 - exactm1) <= 1e-11 * abs(exactm1)

        chi = KroneckerCharacter(-4)
        l1 = dirichlet_l(1, chi)
        leib, leib_bound = oracles.leibniz_quarter_pi(100000)
        assert abs(l1 - leib) <= leib_bound + 1e-11 * abs(l1)
        assert abs(l1 - math.pi / 4.0) <= 1e-11 * (math.pi / 4.0)

        l2 = dirichlet_l(2, chi)
        cat, cat_bound = oracles.catalan_type_series(2.0, 20000)
        assert abs(l2 - cat) <= cat_bound + 1e-11 * abs(l2)

        import cmath
        import random

        rng = random.Random(20240531)
        for _ in range(100):
            s = complex(rng.uniform(0.1, 10.0), rng.uniform(-20.0, 20.0))
            ratio = cmath.exp(log_gamma(s + 1) - log_gamma(s)) / s
            assert abs(ratio - 1.0) <= 1e-12

        gamma_half, quad_bound = oracles.gamma_half_by_quadrature()
        assert abs(cmath.exp(log_gamma(0.5)) - gamma_half) <= quad_bound + 1e-12

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"runtime {elapsed:.3f}s"


def test_criterion_6_euler_product_convergence():
    with criterion(6, "Euler products inside the declared tail envelopes"):
        cases = [
            (make_rationals(), 3, 100),
            (make_quadratic(-1), 2, 500),
            (make_rational_function_field(5), 2, 25),
        ]
        for field, s, bound in cases:
            rec = euler_consistency_check(field, s, bound)
            assert rec.passed
            assert rec.gap <= rec.tail_bound


def test_criterion_7_cli_determinism():
    with criterion(7, "identical sweep invocations are byte-identical"):
        argv = [
            "sweep",
            "--field", "Q(sqrt=-1)",
            "--grid", "0.1:0.9:5,0:10:5",
            "--tol", "1e-9",
            "--format", "json",
        ]
        first = parse_and_dispatch(argv)
        second = parse_and_dispatch(argv)
        assert first == second
        assert first[0] == 0
        payload = json.loads(first[1])
        assert payload["summary"]["failed"] == 0
        third = parse_and_dispatch(argv[:-1] + ["csv"])
        fourth = parse_and_dispatch(argv[:-1] + ["csv"])
        assert third == fourth
