"""Kernel tests: log-gamma, Hurwitz/Riemann zeta, Kronecker characters, L functions.

Expected values are frozen from the oracles in oracles.py (direct
summation with tail bounds, exact Bernoulli rationals, Simpson
quadrature, brute-force residue symbols).
"""

import cmath
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from globalzeta import (
    DomainError,
    KroneckerCharacter,
    PoleError,
    dirichlet_l,
    hurwitz_zeta,
    is_fundamental_discriminant,
    kronecker_chi,
    log_gamma,
    riemann_zeta,
)
from globalzeta import kernel
from globalzeta.kernel import hurwitz_shift_gap

import oracles

# frozen oracle outputs (see oracles.py for the bounds)
ZETA2_ORACLE, ZETA2_BOUND = 1.644934066849528, 2.6e-12      # zeta_series(2.0, 4000)
PI_4_ORACLE, PI_4_BOUND = 0.7853981633988373, 2.8e-12       # leibniz_quarter_pi(300000)
CATALAN_ORACLE, CATALAN_BOUND = 0.9159655941772346, 3.2e-14  # catalan_type_series(2.0, 20000)
LOG_SQRT_PI = 0.5723649429247001                             # log of quadrature Gamma(1/2)

FIXTURE_DISCRIMINANTS = (1, -4, 5, -3, 8, -8, 12, -20, -7, 13)


def rel_err(value, reference):
    return abs(value - reference) / abs(reference)


# ---------------------------------------------------------------------------
# log_gamma
# ---------------------------------------------------------------------------

class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1)) < 1e-14

    def test_at_five(self):
        assert abs(log_gamma(5) - math.log(24)) < 1e-13

    def test_at_half_against_quadrature(self):
        value, bound = oracles.gamma_half_by_quadrature()
        assert abs(cmath.exp(log_gamma(0.5)) - value) <= bound + 1e-13
        assert abs(log_gamma(0.5) - LOG_SQRT_PI) < 1e-13
        assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-13

    def test_pole_errors(self):
        for bad in (0, -1, -2, -7, 1e-4, -1 + 5e-4j, -3.0004):
            with pytest.raises(PoleError):
                log_gamma(bad)

    def test_nonfinite_input(self):
        with pytest.raises(DomainError):
            log_gamma(complex(float("nan"), 0))

    def test_recurrence_on_random_strip(self):
        # exp(log_gamma(s+1)) = s * exp(log_gamma(s)) to 1e-12 relative
        rng = random.Random(20240531)
        for _ in range(100):
            s = complex(rng.uniform(0.1, 10.0), rng.uniform(-20.0, 20.0))
            ratio = cmath.exp(log_gamma(s + 1) - log_gamma(s)) / s
            assert abs(ratio - 1.0) < 1e-12

    def test_conjugation_symmetry(self):
        rng = random.Random(5)
        for _ in range(50):
            s = complex(rng.uniform(-5.0, 10.0), rng.uniform(0.1, 20.0))
            assert abs(log_gamma(s.conjugate()) - log_gamma(s).conjugate()) < 1e-12 * max(
                1.0, abs(log_gamma(s))
            )

    def test_continuity_off_the_cut(self):
        # crossing the real axis right of 0 must be continuous
        for x in (0.3, 1.7, 6.0):
            up = log_gamma(complex(x, 1e-9))
            down = log_gamma(complex(x, -1e-9))
            assert abs(up - down) < 1e-7

    def test_reflection_region_value(self):
        # Gamma(-0.5) = -2 sqrt(pi); the branch takes its boundary value
        # from above, so exp recovers the negative real value
        g = cmath.exp(log_gamma(-0.5))
        assert abs(g - (-2.0 * math.sqrt(math.pi))) < 1e-12


# ---------------------------------------------------------------------------
# hurwitz_zeta / riemann_zeta
# ---------------------------------------------------------------------------

class TestHurwitzZeta:
    def test_basel_point(self):
        v, bound = oracles.zeta_series(2.0, 4000)
        assert abs(v - ZETA2_ORACLE) <= 1e-12  # oracle reproducibility
        assert abs(hurwitz_zeta(2, 1.0) - v) <= bound + 1e-12

    def test_shift_example(self):
        # zeta_H(2, 2) = zeta(2) - 1
        shifted = hurwitz_zeta(2, 1.0) - 1.0
        assert abs(shifted - 0.6449340668) < 1e-10
        assert hurwitz_shift_gap(2, 1.0) < 1e-13

    def test_negative_integer_against_bernoulli(self):
        assert rel_err(hurwitz_zeta(-1, 1.0), float(oracles.hurwitz_at_negative_integer(1, Fraction(1)))) < 1e-11
        for n in (0, 1, 2):
            for num, den in ((1, 4), (1, 3), (1, 2), (3, 4), (1, 1)):
                exact = float(oracles.hurwitz_at_negative_integer(n, Fraction(num, den)))
                got = hurwitz_zeta(-n, num / den)
                assert abs(got - exact) < 1e-11 * max(1.0, abs(exact))
        for n in (3, 4):
            for num, den in ((1, 4), (1, 2), (1, 1)):
                # documented continuation loss: absolute error up to
                # ~100 eps (a+N)^n from cancellation in the shifted sum
                cancellation = 100 * 1.1e-16 * (21 + n) ** n
                exact = float(oracles.hurwitz_at_negative_integer(n, Fraction(num, den)))
                assert abs(hurwitz_zeta(-n, num / den) - exact) < cancellation

    def test_pole_and_domain_errors(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1, 0.5)
        with pytest.raises(PoleError):
            hurwitz_zeta(1 + 5e-4j, 1.0)
        for bad_a in (0.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                hurwitz_zeta(2, bad_a)

    def test_shift_gap_at_zero_of_the_function(self):
        # zeta_H(0, 1/2) = 0 exactly; the gap must be scaled by the
        # identity's terms, not by the vanishing value
        assert hurwitz_shift_gap(0, 0.5) < 1e-13

    @settings(max_examples=150, deadline=None)
    @given(
        re=st.floats(0.0, 30.0),
        im=st.floats(-30.0, 30.0),
        a=st.floats(0.05, 1.0),
    )
    def test_shift_identity_random(self, re, im, a):
        s = complex(re, im)
        if abs(s - 1) < 0.01:
            return
        assert hurwitz_shift_gap(s, a) < 1e-12


class TestRiemannZeta:
    def test_examples(self):
        v, bound = oracles.zeta_series(2.0, 4000)
        assert abs(riemann_zeta(2) - v) <= bound + 1e-12
        assert rel_err(riemann_zeta(0), float(oracles.hurwitz_at_negative_integer(0, Fraction(1)))) < 1e-12
        assert rel_err(riemann_zeta(-1), -1.0 / 12.0) < 1e-11
        assert abs(riemann_zeta(-1) - (-0.0833333333)) < 1e-10

    def test_pole(self):
        with pytest.raises(PoleError):
            riemann_zeta(1)


# ---------------------------------------------------------------------------
# Kronecker characters
# ---------------------------------------------------------------------------

class TestKronecker:
    def test_examples(self):
        assert kronecker_chi(-4, 3) == -1
        assert kronecker_chi(-4, 2) == 0
        assert kronecker_chi(5, 2) == -1

    def test_against_brute_force(self):
        for D in FIXTURE_DISCRIMINANTS:
            for n in range(1, 400):
                assert kronecker_chi(D, n) == oracles.brute_kronecker(D, n), (D, n)

    def test_periodicity(self):
        for D in (-4, 5, -3, 8):
            period = abs(D)
            for n in range(1, 10 * period + 1):
                assert kronecker_chi(D, n) == kronecker_chi(D, n + period)

    def test_complete_multiplicativity(self):
        for D in (-4, 5, -8):
            chi = [kronecker_chi(D, n) for n in range(1, 201)]
            for n in range(1, 201):
                for m in range(1, 201):
                    assert kronecker_chi(D, n * m) == chi[n - 1] * chi[m - 1]

    def test_vanishing_exactly_on_common_factors(self):
        for D in (-4, 12, -3):
            for n in range(1, 200):
                assert (kronecker_chi(D, n) == 0) == (math.gcd(n, abs(D)) != 1)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            kronecker_chi(-4, 0)
        with pytest.raises(DomainError):
            kronecker_chi(5, -3)

    def test_character_validation(self):
        for good in FIXTURE_DISCRIMINANTS:
            KroneckerCharacter(good)
        for bad in (0, 2, 3, -1, 20, -12, 9):
            assert not is_fundamental_discriminant(bad)
            with pytest.raises(DomainError):
                KroneckerCharacter(bad)

    def test_character_call(self):
        chi = KroneckerCharacter(-4)
        assert [chi(n) for n in range(1, 5)] == [1, 0, -1, 0]


# ---------------------------------------------------------------------------
# Dirichlet L
# ---------------------------------------------------------------------------

class TestDirichletL:
    def test_leibniz_point(self):
        chi = KroneckerCharacter(-4)
        value = dirichlet_l(1, chi)
        oracle, bound = oracles.leibniz_quarter_pi(100000)
        assert abs(value - oracle) <= bound + 1e-11
        assert rel_err(value, math.pi / 4.0) < 1e-11
        assert abs(value - 0.7853981634) < 1e-10

    def test_catalan_point(self):
        chi = KroneckerCharacter(-4)
        value = dirichlet_l(2, chi)
        oracle, bound = oracles.catalan_type_series(2.0, 20000)
        assert abs(value - oracle) <= bound + 1e-11
        assert abs(value - 0.9159655942) < 1e-10

    def test_principal_character_reduces_to_zeta(self):
        chi1 = KroneckerCharacter(1)
        assert dirichlet_l(2, chi1) == riemann_zeta(2)
        with pytest.raises(PoleError):
            dirichlet_l(1, chi1)

    def test_entire_through_s_equals_one(self):
        # D != 1: no pole; values move continuously through s = 1
        chi = KroneckerCharacter(-4)
        center = dirichlet_l(1, chi)
        for eps in (1e-12, 1e-9, 1e-6, 1e-4):
            for sgn in (1, -1):
                v = dirichlet_l(1 + sgn * eps, chi)
                assert abs(v - center) < 1e-3
        assert abs(dirichlet_l(1 + 1e-9, chi) - center) < 1e-9

    def test_euler_product_convergence(self):
        # |L - prod_{p<=P}| shrinks inside the Dirichlet tail envelope
        primes = [p for p in range(2, 1000) if all(p % d for d in range(2, p)) ]
        for D in (-4, 5, -3, 8):
            chi = KroneckerCharacter(D)
            for s in (2.0, 2.5 + 1.0j):
                sigma = s.real if isinstance(s, complex) else s
                value = dirichlet_l(s, chi)
                gaps = []
                for bound_p in (50, 200, 800):
                    prod = 1.0 + 0.0j
                    for p in primes:
                        if p > bound_p:
                            break
                        c = chi(p)
                        if c:
                            prod /= 1.0 - c * cmath.exp(-s * math.log(p))
                    gap = abs(value - prod)
                    envelope = 4.0 * bound_p ** (1.0 - sigma) / (sigma - 1.0)
                    assert gap <= envelope
                    gaps.append(gap)
                assert gaps[2] <= gaps[0] + 1e-12

    def test_at_negative_point_against_bernoulli_sum(self):
        # L(-1, chi_-4) = 4 * sum_r chi(r) zeta_H(-1, r/4), all exact
        chi = KroneckerCharacter(-4)
        exact = 4 * sum(
            oracles.brute_kronecker(-4, r) * oracles.hurwitz_at_negative_integer(1, Fraction(r, 4))
            for r in range(1, 5)
        )
        assert exact == 0  # trivial zero
        assert abs(dirichlet_l(-1, chi)) < 1e-12

    def test_table_reuse_matches_fresh_tables(self, monkeypatch):
        # One slot holds the last modulus's classes and log table: grow it
        # for A, replace it by B, rebuild A at a smaller shift.  Every value
        # must equal one computed from a freshly built table.
        a, b = KroneckerCharacter(-1299), KroneckerCharacter(1001)
        steps = ((a, 0.5 + 3j), (a, 0.5 + 45j), (b, 0.3 + 7j), (a, 0.5 + 3j))
        depths = (20, 46, 20, 20)
        monkeypatch.setattr(kernel, "_table", None)
        reused = []
        for (chi, s), depth in zip(steps, depths):
            reused.append(dirichlet_l(s, chi))
            assert (kernel._table.modulus, kernel._table.depth) == (chi.modulus, depth)
            if chi is a:
                a_logs = weakref.ref(kernel._table.classes[0][2])
            else:
                # B's table replaced A's: A's arrays are freed
                assert a_logs() is None
        fresh = []
        for chi, s in steps:
            monkeypatch.setattr(kernel, "_table", None)
            fresh.append(dirichlet_l(s, chi))
        assert reused == fresh


class TestCostLimits:
    # Inputs just over each limit; the checks run before any loop or table.
    OVER_S = complex(0.5, kernel.MAX_ABS_S)

    def test_abs_s_limit(self):
        assert abs(self.OVER_S) > kernel.MAX_ABS_S
        for evaluate in (
            lambda: riemann_zeta(self.OVER_S),
            lambda: hurwitz_zeta(self.OVER_S, 0.5),
            lambda: hurwitz_shift_gap(self.OVER_S, 0.5),
            lambda: dirichlet_l(self.OVER_S, KroneckerCharacter(-4)),
        ):
            with pytest.raises(DomainError, match="MAX_ABS_S"):
                evaluate()

    def test_table_size_limit(self):
        before = kernel._table
        # phi(12487) * (20 + 1) = 262206 and phi(164) * (3276 + 1) = 262160,
        # both just over MAX_TABLE_ENTRIES = 2**18 = 262144
        assert kernel.MAX_TABLE_ENTRIES == 2**18
        for D, s in ((-12487, 2.0), (-164, 3275.5)):
            with pytest.raises(DomainError, match="MAX_TABLE_ENTRIES"):
                dirichlet_l(s, KroneckerCharacter(D))
        assert kernel._table is before

    def test_log_term_limit(self):
        # Each evaluator at the edge of MAX_LOG_TERM: finite just inside,
        # DomainError just outside.  The parts that reach the edge are the
        # pole term x^(1-s) at x = 1 + 142 (Riemann zeta) and x = 2 + 142
        # (second sum of the shift gap); a^-s at a = 1e-6; for D = -4,
        # (1 + 115)^(1-s) * 4^-s * phi(4), with phi(4) = 2; for D = -3, the
        # pole ratio's (1 + 256)^((s-1)/2) * phi(3), with phi(3) = 2.
        top = kernel.MAX_LOG_TERM
        assert 707 < top < math.log(1.8e308)
        chi4, chi3 = KroneckerCharacter(-4), KroneckerCharacter(-3)
        edges = (
            (riemann_zeta, 1.0 - top / math.log(143.0), -1),
            (lambda s: hurwitz_shift_gap(s, 1.0), 1.0 - top / math.log(144.0), -1),
            (lambda s: hurwitz_zeta(s, 1e-6), top / math.log(1e6), 1),
            (lambda s: dirichlet_l(s, chi4), 1.0 - (top + math.log(2.0)) / math.log(4.0 * 116.0), -1),
            (lambda s: dirichlet_l(s, chi3), 1.0 + 2.0 * (top - math.log(2.0)) / math.log(257.0), 1),
        )
        for evaluate, edge, outward in edges:
            inside = evaluate(edge - outward * 1e-9)
            assert math.isfinite(abs(inside))
            with pytest.raises(DomainError, match="MAX_LOG_TERM"):
                evaluate(edge + outward * 1e-9)

    def test_factorization_limit(self):
        from globalzeta.ffield import factor_prime_power

        over = kernel.MAX_FACTOR_INPUT + 1
        for n in (over, -over):
            for helper in (kernel._factorization, kernel._is_squarefree):
                with pytest.raises(DomainError, match="MAX_FACTOR_INPUT"):
                    helper(n)
        for helper in (kernel._totient, factor_prime_power):
            with pytest.raises(DomainError, match="MAX_FACTOR_INPUT"):
                helper(over)

    def test_norm_bound_limit(self):
        from globalzeta import enumerate_places, make_rational_function_field, make_rationals
        from globalzeta.fields import MAX_NORM_BOUND

        for field in (make_rationals(), make_rational_function_field(2)):
            with pytest.raises(DomainError, match="MAX_NORM_BOUND"):
                enumerate_places(field, MAX_NORM_BOUND + 1)

    def test_grid_node_limit(self):
        from globalzeta import GridSpec, make_rationals, sweep
        from globalzeta.verify import MAX_GRID_NODES

        # 317 * 316 = 100172 nodes, just over 10^5
        assert MAX_GRID_NODES == 10**5
        with pytest.raises(DomainError, match="MAX_GRID_NODES"):
            sweep(make_rationals(), GridSpec(0.1, 0.9, 317, 0.0, 10.0, 316), 1e-9)
