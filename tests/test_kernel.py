"""Kernel tests: log-gamma, Hurwitz/Riemann zeta, Kronecker characters, L functions.

Expected values are frozen from the oracles in oracles.py (direct
summation with tail bounds, exact Bernoulli rationals, Simpson
quadrature, brute-force residue symbols).
"""

import cmath
import hashlib
import math
import random
import re
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
from globalzeta import arith, kernel

import oracles

# frozen oracle outputs (see oracles.py for the bounds)
ZETA2_ORACLE, ZETA2_BOUND = 1.644934066849528, 2.6e-12      # zeta_series(2.0, 4000)
PI_4_ORACLE, PI_4_BOUND = 0.7853981633988373, 2.8e-12       # leibniz_quarter_pi(300000)
CATALAN_ORACLE, CATALAN_BOUND = 0.9159655941772346, 3.2e-14  # catalan_type_series(2.0, 20000)
LOG_SQRT_PI = 0.5723649429247001                             # log of quadrature Gamma(1/2)

FIXTURE_DISCRIMINANTS = (1, -4, 5, -3, 8, -8, 12, -20, -7, 13)


def rel_err(value, reference):
    return abs(value - reference) / abs(reference)


def duplication_gap(s, a):
    # Relative gap in zeta_H(s, a/2) + zeta_H(s, (a+1)/2) = 2^s zeta_H(s, a),
    # every argument in (0, 1].  Scaled by the identity's largest term:
    # zeta_H itself has zeros, so a residual relative to the value alone
    # would blow up at them.
    s = complex(s)
    low, high = hurwitz_zeta(s, 0.5 * a), hurwitz_zeta(s, 0.5 * (a + 1.0))
    doubled = cmath.exp(s * math.log(2.0)) * hurwitz_zeta(s, a)
    return abs(low + high - doubled) / max(abs(low), abs(high), abs(doubled), 1e-300)


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

    def test_stirling_remainder_bound(self):
        # DLMF 5.11(ii): after the terms k <= 12 the remainder is at most
        # sec^26(arg(w)/2) |B_26| / (26 * 25 |w|^25), sec^2(arg(w)/2) being
        # 2|w| / (|w| + Re w).  The bound falls as |w| or Re w grows, so the
        # worst w the shift admits has |w| = 8 and Re w = 1/2.
        bernoulli = oracles.bernoulli_number
        assert kernel._STIRLING_COEF == tuple(
            float(bernoulli(2 * k) / (2 * k * (2 * k - 1))) for k in range(12, 0, -1)
        )
        assert bernoulli(26) == Fraction(8553103, 6)
        r, x = Fraction(kernel._STIRLING_MIN_ABS), Fraction(1, 2)
        bound = (2 * r / (r + x)) ** 13 * abs(bernoulli(26)) / (26 * 25 * r**25)
        stated = re.search(r"that is below (\S+)\.", " ".join(log_gamma.__doc__.split())).group(1)
        assert bound <= Fraction(stated)

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
        assert duplication_gap(2, 1.0) < 1e-13

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

    def test_duplication_at_zero_of_the_function(self):
        # zeta_H(0, 1/2) = 0 exactly; the gap must be scaled by the
        # identity's terms, not by the vanishing value
        assert duplication_gap(0, 0.5) < 1e-13

    @settings(max_examples=150, deadline=None)
    @given(
        re=st.floats(0.0, 30.0),
        im=st.floats(-30.0, 30.0),
        a=st.floats(0.05, 1.0),
    )
    def test_duplication_identity_random(self, re, im, a):
        s = complex(re, im)
        if abs(s - 1) < 0.01:
            return
        assert duplication_gap(s, a) < 1e-12


def test_em_weights_interleaved_with_another_thread(monkeypatch):
    # _em_weights keeps the weights of the last s.  A patched _EM_STEPS
    # runs _em_weights at another point t in a second thread partway
    # through the loop at s.  Both calls, and the calls after them, must
    # return the weights computed alone.
    import threading

    s, t, u = 0.5 + 14j, 0.3 + 7j, 2.5 + 0j
    alone = {z: kernel._em_weights(z) for z in (s, t, u)}  # u's are kept last
    coef, seen = kernel._EM_STEPS, []

    class Interleaved:
        done = False

        def __iter__(self):
            for k, c in enumerate(coef):
                if k == len(coef) // 2 and not self.done:
                    self.done = True
                    other = threading.Thread(target=lambda: seen.append(kernel._em_weights(t)))
                    other.start()
                    other.join(timeout=60)
                yield c

    monkeypatch.setattr(kernel, "_EM_STEPS", Interleaved())
    assert kernel._em_weights(s) == alone[s]
    assert seen == [alone[t]]
    assert kernel._em_weights(t) == alone[t]
    assert kernel._em_weights(s) == alone[s]


def test_one_em_weights_lookup_per_call(monkeypatch):
    # each evaluation takes its shift count N and its weights from one
    # _em_weights call: the Hurwitz and Riemann zeta, and dirichlet_l per
    # class, by the long head and by the short head
    assert [plan_kind(0.5 + 3j, -7), plan_kind(0.5 + 30j, 37), plan_kind(0.5 + 30j, -2351)] == ["class", "long", "short"]
    em_weights, calls = kernel._em_weights, []

    def counting(z):
        calls.append(z)
        return em_weights(z)

    monkeypatch.setattr(kernel, "_em_weights", counting)
    for name, evaluate in (
        ("hurwitz", lambda: hurwitz_zeta(0.5 + 3j, 0.3)),
        ("riemann", lambda: riemann_zeta(0.5 + 3j)),
        ("class", lambda: dirichlet_l(0.5 + 3j, KroneckerCharacter(-7))),
        ("long", lambda: dirichlet_l(0.5 + 30j, KroneckerCharacter(37))),
        ("short", lambda: dirichlet_l(0.5 + 30j, KroneckerCharacter(-2351))),
    ):
        calls.clear()
        evaluate()
        assert len(calls) == 1, (name, calls)


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


# Ordinates t of the first ten zeros of zeta(1/2 + it) and of the first of
# L(1/2 + it, chi_-4), from mpmath at 40 digits, rounded to binary64.
ZETA_ZEROS = (14.134725141734695, 21.022039638771556, 25.01085758014569, 30.424876125859512,
              32.93506158773919, 37.586178158825675, 40.9187190121475, 43.327073280915,
              48.00515088116716, 49.7738324776723)
L_MINUS_4_ZERO = 6.020948904697597


def test_critical_line_zeros():
    # The kernel's claim, an error of at most 1e-12 max(1, |value|), is
    # absolute here: at these t the true values are below 7e-15, and the
    # computed ones, off by the rounding of the sums' parts, at most 2.1e-14.
    for t in ZETA_ZEROS:
        assert abs(riemann_zeta(complex(0.5, t))) <= 1e-13, t
    assert abs(dirichlet_l(complex(0.5, L_MINUS_4_ZERO), KroneckerCharacter(-4))) <= 1e-13


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
        # The cache holds several moduli: grow A's tables, add B, go back
        # to A.  Every value must equal one computed from fresh tables.
        # Under a limit that holds A's largest tables alone, adding B
        # evicts A and frees its arrays; A then comes back beside B.
        a, b = KroneckerCharacter(-1299), KroneckerCharacter(1001)
        steps = ((a, 0.5 + 3j), (a, 0.5 + 45j), (b, 0.3 + 7j), (a, 0.5 + 3j))
        monkeypatch.setattr(kernel, "_tables", {})
        fresh = []
        for chi, s in steps:
            kernel._tables.clear()
            fresh.append(dirichlet_l(s, chi))
            assert len(kernel._tables) == 1
        kernel._tables.clear()
        reused = [dirichlet_l(s, chi) for chi, s in steps[:2]]
        (key_a, table_a), = kernel._tables.items()
        assert key_a == a.modulus
        monkeypatch.setattr(kernel, "MAX_TABLE_ENTRIES", table_a.size())
        a_heads = weakref.ref(table_a.heads[0])
        del table_a
        reused.append(dirichlet_l(steps[2][1], b))
        assert list(kernel._tables) == [b.modulus]
        assert a_heads() is None
        reused.append(dirichlet_l(steps[3][1], a))
        assert list(kernel._tables) == [b.modulus, a.modulus]
        assert reused == fresh

    def test_class_path_table_grows_with_shift(self, monkeypatch):
        # on the per-class path the table of a small modulus keeps
        # log(a + n) for n up to the largest shift count N it has needed
        chi = KroneckerCharacter(-7)
        monkeypatch.setattr(kernel, "_tables", {})
        for s, depth in ((0.5 + 3j, 7), (0.5 + 45j, 32), (0.5 + 3j, 32)):
            dirichlet_l(s, chi)
            (key, table), = kernel._tables.items()
            assert key == -7 and table.rows - 1 == depth

    # float.hex of dirichlet_l on the per-class path, re-recorded when the
    # shift count came from the Euler-Maclaurin remainder bound (the
    # largest change was 6.0e-14 relative); these moduli stay on that path.
    # D = 37 and -40, which take a moment series on the strip since the
    # long head exists, are in LONG_HEAD_DIGEST.
    PINNED_POINTS = (0.1 + 0j, 0.5 + 14j, 0.9 + 33j, 0.3 - 48j, 2.5 + 7j)
    PINNED = {
        -3: (
            ("0x1.754ebed895b68p-2", "0x0.0p+0"),
            ("0x1.6241b6d82c0a6p+1", "-0x1.33902d60011bcp+0"),
            ("0x1.4f631d2970817p+0", "-0x1.35bf4364705bfp+0"),
            ("-0x1.8836c373dc10fp+0", "-0x1.c1531471d6006p+0"),
            ("0x1.e3df900b29c13p-1", "-0x1.7c0a16a601d21p-3"),
        ),
        -7: (
            ("0x1.0aa799d3a37ffp+0", "0x0.0p+0"),
            ("0x1.f82db0adb79a4p+0", "-0x1.cff355328d9b0p-4"),
            ("0x1.abc4243acb38cp-1", "0x1.9e38874f1d41ep-3"),
            ("0x1.a28411fbf7d27p+1", "-0x1.e1befa79b9567p+0"),
            ("0x1.ed852780fd6c8p-1", "0x1.c467cf1661944p-3"),
        ),
        13: (
            ("0x1.cbee8172fa56dp-4", "0x0.0p+0"),
            ("0x1.a03463ebed84ep+1", "-0x1.a04b477924627p+0"),
            ("0x1.c9057e5c33d40p+0", "0x1.43adf49f519a9p-2"),
            ("-0x1.afffc6228fd15p+0", "-0x1.3c75d00c9f5fep-1"),
            ("0x1.de293c97ad0f7p-1", "-0x1.dfe1292bcfd74p-3"),
        ),
    }

    @pytest.mark.parametrize("D", sorted(PINNED))
    def test_class_path_values_pinned(self, D):
        chi = KroneckerCharacter(D)
        for s, expected in zip(self.PINNED_POINTS, self.PINNED[D]):
            assert plan_of(s, D) is None
            value = dirichlet_l(s, chi)
            assert (value.real.hex(), value.imag.hex()) == expected

    @staticmethod
    def moment_path_points():
        # 300 seeded (D, s) that dirichlet_l evaluates by the short head: 53,
        # -59 and 22 seeded discriminants of both signs up to |D| = 4000, each
        # at s = -24 and -23 (no Euler-Maclaurin shift) where the path takes
        # them, and the rest on Re s in [-30, 5] with |Im s| up to 10, 60 or
        # 300; chosen by margin_plan_of, the rule they were recorded under
        rng = random.Random(20)
        discriminants = [D for D in range(-4000, 4001) if abs(D) >= 53 and is_fundamental_discriminant(D)]
        chosen = sorted([-59, 53] + rng.sample([D for D in discriminants if D < 0], 11)
                        + rng.sample([D for D in discriminants if D > 0], 11))
        points = [(D, complex(n)) for D in chosen for n in (-24, -23) if margin_plan_of(n, D) is not None]
        while len(points) < 300:
            D, height = rng.choice(chosen), rng.choice((10.0, 60.0, 300.0))
            s = complex(rng.uniform(-30.0, 5.0), rng.uniform(-height, height))
            if margin_plan_of(s, D) is not None:
                points.append((D, s))
        return sorted(points, key=lambda p: (p[0], abs(p[1])))  # each table grows once

    # sha256 of the float.hex of the real and imaginary parts of
    # dirichlet_l, or the DomainError message, at each of moment_path_points
    MOMENT_PATH_DIGEST = "b42a056400514d997857c7cd72320b22bc2a26bf467b027123e404b9db6bf1f4"

    def test_moment_path_values_pinned(self):
        # each point keeps the short head, (M, J) and the jets' shift N, that
        # margin_plan_of gave it, so its bits stay
        parts = []
        for D, s in self.moment_path_points():
            assert plan_of(s, D) == (*margin_plan_of(s, D), kernel._em_weights(s)[0]), (D, s)
            try:
                value = dirichlet_l(s, KroneckerCharacter(D))
            except DomainError as exc:
                parts.append(str(exc))
            else:
                parts += [value.real.hex(), value.imag.hex()]
        assert hashlib.sha256(" ".join(parts).encode()).hexdigest() == self.MOMENT_PATH_DIGEST

    def test_small_moduli_plans(self):
        # every field of the paper's own sweep (|D| <= 40), at the five
        # points where the 3/2 margin kept them all per class: per class
        # below the crossover phi = 16, above it the long head on the
        # critical strip and per class off it
        small = [D for D in range(-40, 41) if D != 1 and is_fundamental_discriminant(D)]
        kinds = set()
        for D in small:
            count = arith._totient(abs(D))
            for s in (0.1 + 0j, 0.5 + 14j, 0.9 + 50j, -0.9 + 50j, 2.5 + 60j):
                kind = plan_kind(s, D)
                kinds.add(kind)
                if count < 16:
                    assert kind == "class", (D, s)
                else:
                    assert kind == ("long" if 0.0 < s.real < 1.0 else "class"), (D, s)
        assert kinds == {"class", "long"}
        # on the 25-node box of the acceptance sweeps (--grid 0.1:0.9:5,0:10:5)
        # these |D| stay per class at every node, and every other one takes the long head
        box = [complex(0.1 + k * 0.2, j * 2.5) for k in range(5) for j in range(5)]
        box_kinds = {D: {plan_kind(s, D) for s in box} for D in small}
        per_class = {3, 4, 5, 7, 8, 11, 12, 13, 15, 20, 21, 24, 28}
        assert {abs(D) for D in small if box_kinds[D] == {"class"}} == per_class
        assert all(box_kinds[D] == {"long"} for D in small if abs(D) not in per_class)

    def test_plans_move_only_to_the_long_head(self):
        # every call keeps the plan margin_plan_of gives it, except that
        # the long head replaces the per-class sums on 0 < Re s < 1 with
        # |Im s| <= 50 from phi(|D|) = 16 on
        rng = random.Random(24)
        fields = [D for D in range(-500, 501) if D != 1 and is_fundamental_discriminant(D)]
        for _ in range(3000):
            x = rng.choice((rng.uniform(-12.0, 0.0), rng.uniform(0.0, 1.0), rng.uniform(1.0, 6.0),
                            float(-rng.randrange(24)), 0.0, 1.0))
            D, s = rng.choice(fields), complex(x, rng.choice((0.0, rng.uniform(-60.0, 60.0), rng.uniform(-500, 500))))
            count, shift = arith._totient(abs(D)), kernel._em_weights(s)[0]
            margin = margin_plan_of(s, D)
            if margin is not None:
                expected = (*margin, shift)
            elif 0.0 < s.real < 1.0 and abs(s.imag) <= 50.0 and count >= 16:
                expected = long_head_plan(s, shift)
            else:
                expected = None
            assert plan_of(s, D) == expected, (D, s)

    @staticmethod
    def long_head_points():
        # the five points of PINNED_POINTS for D = 37 and -40, and 150 seeded
        # (D, s) where the long head runs: a field of the paper's sweep with
        # phi(|D|) >= 16, Re s in [0.1, 0.9] and |Im s| <= 50
        points = [(D, complex(s)) for D in (37, -40) for s in TestDirichletL.PINNED_POINTS]
        fields = [D for D in range(-40, 41) if is_fundamental_discriminant(D) and arith._totient(abs(D)) >= 16]
        rng = random.Random(22)
        while len(points) < 160:
            D, s = rng.choice(fields), complex(rng.uniform(0.1, 0.9), rng.uniform(-50.0, 50.0))
            if plan_kind(s, D) == "long":
                points.append((D, s))
        return points

    # sha256 of the float.hex of the real and imaginary parts of
    # dirichlet_l at each of long_head_points, recorded once the strip
    # points of the oracle grid for 16 <= phi(|D|) <= 72 passed (the
    # largest change from the per-class values was 1.9e-14 relative, D = 37
    # at 0.1)
    LONG_HEAD_DIGEST = "cb6b0774413e2daeb9d5642f788fc8cf20ea3be80a64056e40502ea8a3377883"

    def test_long_head_values_pinned(self):
        parts = []
        for D, s in self.long_head_points():
            value = dirichlet_l(s, KroneckerCharacter(D))
            parts += [value.real.hex(), value.imag.hex()]
        assert hashlib.sha256(" ".join(parts).encode()).hexdigest() == self.LONG_HEAD_DIGEST

    @staticmethod
    def plan_points():
        # 1,031 seeded (D, s), each D a fundamental discriminant with
        # |D| <= 4000: 500 s on the critical strip with |Im s| up to 10, 60
        # or 300, 500 with Re s in [-40, 10] and |Im s| up to 10 or 60, and
        # s = -n for n <= 30
        rng = random.Random(25)
        fields = [D for D in range(-4000, 4001) if D != 1 and is_fundamental_discriminant(D)]
        strip = [complex(rng.uniform(0.0, 1.0), rng.uniform(-h, h)) for h in rng.choices((10.0, 60.0, 300.0), k=500)]
        wide = [complex(rng.uniform(-40.0, 10.0), rng.uniform(-h, h)) for h in rng.choices((10.0, 60.0), k=500)]
        return [(rng.choice(fields), s) for s in strip + wide + [complex(-n) for n in range(31)]]

    # sha256 of, at each of plan_points, _moment_plan(s, phi(|D|), N) and, for
    # x in {M - 1/2 (M > 1), M + 1/2, N + 1/2} with M = max(1, round(|s| / 11)),
    # _order(s, x)'s J and growth.hex() where the growth is within
    # GROWTH_BOUND, else "over"; recorded before _order stopped at the bound
    PLAN_DIGEST = "c2a8fa8491fd2785a7732f2577c49c142e87db68d33594dfc833f0af544f8ca3"

    def test_plans_pinned(self):
        parts = []
        for D, s in self.plan_points():
            shift, head = kernel._em_weights(s)[0], max(1, round(abs(s) / 11.0))
            parts.append(repr(kernel._moment_plan(s, arith._totient(abs(D)), shift)))
            for x in (head + 0.5, shift + 0.5) if head == 1 else (head - 0.5, head + 0.5, shift + 0.5):
                order, growth = kernel._order(s, x)
                parts.append(f"{order} {growth.hex()}" if growth <= kernel.GROWTH_BOUND else "over")
        assert hashlib.sha256(" ".join(parts).encode()).hexdigest() == self.PLAN_DIGEST

    @staticmethod
    def short_head_real_points():
        # seeded (D, s) on the short head at real s, each at Im s = +0.0 and
        # -0.0: four fundamental discriminants of each sign with 500 <= |D|
        # <= 4000, at s = -n for n <= 24 and at 12 seeded x in [-12, 6]
        rng = random.Random(26)
        fields = [D for D in range(-4000, 4001) if abs(D) >= 500 and is_fundamental_discriminant(D)]
        chosen = sorted(rng.sample([D for D in fields if D < 0], 4) + rng.sample([D for D in fields if D > 0], 4))
        points = []
        for D in chosen:
            xs = sorted([float(-n) for n in range(25)] + [rng.uniform(-12.0, 6.0) for _ in range(12)], key=abs)
            points += [(D, complex(x, y)) for x in xs for y in (0.0, -0.0) if plan_kind(x, D) == "short"]
        return points

    # sha256 of the float.hex of the real and imaginary parts of
    # dirichlet_l and of each jet's part of moment_sum (the value rounds
    # their fsum once, which can hide a moved part) at each of
    # short_head_real_points, recorded before each jet summed its tail in
    # its own loop
    SHORT_HEAD_REAL_DIGEST = "0af0bc9f15f31820e2a1fa4448fe995b316cc7241f4ac168d508348699a1941d"

    def test_short_head_real_values_pinned(self):
        points = self.short_head_real_points()
        assert len(points) >= 250
        parts = []
        for D, s in points:
            value = dirichlet_l(s, KroneckerCharacter(D))
            head, order, shift = plan_of(s, D)
            table = kernel._tables[D]
            jets = kernel.moment_sum(s, table, head, order, shift)[0][len(table.plus) * head:]
            parts += [value.real.hex(), value.imag.hex()] + [f"{z.real.hex()} {z.imag.hex()}" for z in jets]
        assert hashlib.sha256(" ".join(parts).encode()).hexdigest() == self.SHORT_HEAD_REAL_DIGEST

    def test_exact_moments_match_the_fraction_oracle(self):
        # mu_j from the table's classes, rounded once, bit for bit
        for D in range(-600, 601):
            if D != 1 and is_fundamental_discriminant(D):
                expected = [float(mu) for mu in oracles.character_moments(D, 45)]
                assert kernel.exact_moments(kernel._Table(D), 45) == expected, D

    def test_large_modulus_takes_moment_path(self):
        head, order, jet_shift = plan_of(0.5 + 30j, -2351)
        assert 1 <= head <= 5 and order < 80 and jet_shift == kernel._em_weights(0.5 + 30j)[0]

    def test_cache_state_does_not_change_values(self, monkeypatch):
        # a rotation of three moduli (moment, moment, per-class), twice,
        # against a fresh cache before every call
        steps = [
            (KroneckerCharacter(D), s)
            for D, s in ((-2351, 0.5 + 30j), (997, 0.1 + 48j), (-7, 0.9 + 3j))
            * 2
            for s in (s, s.conjugate() + 0.25)
        ]
        monkeypatch.setattr(kernel, "_tables", {})
        warm = [dirichlet_l(s, chi) for chi, s in steps]
        fresh = []
        for chi, s in steps:
            kernel._tables.clear()
            fresh.append(dirichlet_l(s, chi))
        assert [(v.real.hex(), v.imag.hex()) for v in warm] == [
            (v.real.hex(), v.imag.hex()) for v in fresh
        ]

    def test_threads_share_the_cache(self, monkeypatch):
        # Four threads evaluate a rotation of moduli under a limit too
        # small for all their tables, with a short switch interval, so
        # tables are grown, dropped and rebuilt under each other's calls.
        # Every value must equal the one computed alone.
        import sys
        import threading

        steps = [
            (KroneckerCharacter(D), s)
            for D, s in ((-1299, 0.5 + 30j), (1001, 0.1 + 8j), (-7, 0.9 + 3j), (-163, 0.5 + 45j))
        ]
        monkeypatch.setattr(kernel, "_tables", {})
        alone = [dirichlet_l(s, chi) for chi, s in steps]
        monkeypatch.setattr(kernel, "MAX_TABLE_ENTRIES", 4000)
        kernel._tables.clear()
        results, errors = [], []

        def worker(offset):
            try:
                for k in range(12):
                    i = (offset + k) % len(steps)
                    chi, s = steps[i]
                    results.append((i, dirichlet_l(s, chi)))
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(results) == 48
        assert all(value == alone[i] for i, value in results)
        assert sum(t.size() for t in kernel._tables.values()) <= 4000

    def test_table_grown_and_evicted_under_a_paused_call(self, monkeypatch):
        # Thread A holds the table of D = -7 and waits as it enters
        # _class_sum, after _cached_table returns and before the table is
        # read.  Meanwhile the main thread grows that table and then
        # evicts it under a limit that holds one table.  A's value must
        # equal the one computed alone.
        import threading

        chi, s = KroneckerCharacter(-7), 0.5 + 3j
        monkeypatch.setattr(kernel, "_tables", {})
        alone = dirichlet_l(s, chi)
        kernel._tables.clear()
        class_sum, paused, resume = kernel._class_sum, threading.Event(), threading.Event()

        def pausing(*args):
            if threading.current_thread() is thread_a:
                paused.set()
                resume.wait(timeout=60)
            return class_sum(*args)

        monkeypatch.setattr(kernel, "_class_sum", pausing)
        result = []
        thread_a = threading.Thread(target=lambda: result.append(dirichlet_l(s, chi)))
        thread_a.start()
        try:
            assert paused.wait(timeout=60)
            table = kernel._tables[-7]
            rows = table.rows
            dirichlet_l(0.5 + 45j, chi)
            assert kernel._tables[-7] is table and table.rows > rows
            monkeypatch.setattr(kernel, "MAX_TABLE_ENTRIES", table.size())
            dirichlet_l(s, KroneckerCharacter(-8))
            assert list(kernel._tables) == [-8]
        finally:
            resume.set()
            thread_a.join(timeout=60)
        assert not thread_a.is_alive() and result == [alone]

    def test_moment_path_regular_at_one_minus_j(self):
        # s = -n = 1 - j meets the pole of zeta_H(s + j, x): the folded pole
        # term keeps that jet finite.  Where L(-n, chi) does not vanish it
        # matches the exact rational (tests/test_oracle_grid.py holds the
        # error to the reference kernel's).
        for D in (-2351, 997):
            chi = KroneckerCharacter(D)
            for n in range(6):
                assert plan_of(-n, D) is not None
                value = dirichlet_l(-n, chi)
                assert math.isfinite(value.real) and value.imag == 0.0
                if (n % 2 == 0) == (D < 0):
                    exact = float(oracles.l_at_negative(n, D))
                    assert abs(value.real - exact) <= 1e-6 * abs(exact)


def plan_of(s, D):
    s = complex(s)
    return kernel._moment_plan(s, arith._totient(abs(D)), kernel._em_weights(s)[0])


def long_head_plan(s, shift):
    # the long head's plan (M, J, T) = (N, J, 0) in kernel._moment_plan,
    # None where the growth passes GROWTH_BOUND
    order, growth = kernel._order(s, shift + 0.5)
    return None if growth > kernel.GROWTH_BOUND else (shift, order, 0)


def plan_kind(s, D):
    # the short head's jets take the shift count N, the long head's none
    plan = plan_of(s, D)
    if plan is None:
        return "class"
    return "short" if plan[2] == kernel._em_weights(complex(s))[0] else "long"


def margin_plan_of(s, D):
    # The rule MOMENT_PATH_DIGEST was recorded under: the short head's (M, J)
    # where its estimate, with the costs then measured (0.34 us a term, per
    # jet 0.38 us a shift term and 12 us), was below 2/3 of phi(|D|) (N + 12)
    # terms, else None
    s = complex(s)
    count, shift = arith._totient(abs(D)), kernel._em_weights(s)[0]
    jets = max(38, 1.0 - s.real) // 2
    if 1.5 * (count * max(1, round(abs(s) / 11.0)) * 0.34 + jets * (shift * 0.38 + 12.0)) >= count * (shift + 12) * 0.34:
        return None
    plan = kernel._moment_plan(s, count, shift)  # the short head: its test is the same float expression
    return None if plan is None else plan[:2]


class TestCostLimits:
    # Inputs just over each limit; the checks run before any loop or table.
    OVER_S = complex(0.5, kernel.MAX_ABS_S)

    def test_abs_s_limit(self):
        assert abs(self.OVER_S) > kernel.MAX_ABS_S
        for evaluate in (
            lambda: riemann_zeta(self.OVER_S),
            lambda: hurwitz_zeta(self.OVER_S, 0.5),
            lambda: dirichlet_l(self.OVER_S, KroneckerCharacter(-4)),
        ):
            with pytest.raises(DomainError, match="MAX_ABS_S"):
                evaluate()

    def test_table_size_limit(self, monkeypatch):
        # Just over MAX_TABLE_ENTRIES = 2**18 = 262144 on each path.  A
        # table holds phi(|D|) * (rows + 1) + len(moments) entries.  The
        # per-class path takes rows = N + 1 and no moments: 28 * 9363 =
        # 262164 for D = 29 at |s| just under N = 9361, left of the strip,
        # where the shift count is max(20, ceil|s|).  The short head takes
        # rows = M and J + 1 moments: 131058 * 2 + 39 + 1 = 262156 for
        # D = -131059 at s = 2, 12486 * 21 + 37 + 1 = 262244 for
        # D = -12487 at s = 0.5 + 213i.  The long head (rows N) is chosen
        # only below phi(|D|) = 14 where N passes 9000, so it stays under.
        assert kernel.MAX_TABLE_ENTRIES == 2**18
        monkeypatch.setattr(kernel, "_tables", {})
        cases = (
            (29, -10 + 9360.9j, None, 262164),
            (-131059, 2.0, (1, 39, 7), 262156),
            (-12487, 0.5 + 213j, (20, 37, 149), 262244),
        )
        for D, s, plan, need in cases:
            assert plan_of(s, D) == plan
            count = arith._totient(abs(D))
            if plan is None:
                assert count * (kernel._em_weights(complex(s))[0] + 2) == need
            else:
                assert count * (plan[0] + 1) + plan[1] + 1 == need
            what = "phi(|D|) * (rows + 1) + len(moments)"
            with pytest.raises(DomainError, match=re.escape(f"{what} = {need} exceeds MAX_TABLE_ENTRIES")):
                dirichlet_l(s, KroneckerCharacter(D))
        assert kernel._tables == {}

    def test_far_left_refused_before_planning(self):
        # At Re s = -300 the growth of the moment series passes
        # GROWTH_BOUND within its first terms, whatever the head: the walk
        # for J stops there with G = inf and the search for M gives up
        # instead of looping, and dirichlet_l refuses such points by
        # MAX_LOG_TERM before it plans at all.
        assert kernel._order(complex(-300.0), 1.5)[1] == math.inf
        assert kernel._moment_plan(complex(-300.0), 10**6, 300) is None
        chi = KroneckerCharacter(-2351)
        for s in (-300.0, complex(-75.5, 9990.0)):
            with pytest.raises(DomainError, match="MAX_LOG_TERM"):
                dirichlet_l(s, chi)

    def test_log_term_limit(self):
        # Each evaluator at the edge of MAX_LOG_TERM: finite just inside,
        # DomainError just outside.  The parts that reach the edge are the
        # pole term x^(1-s) at x = 1 + 142 (Riemann zeta); a^-s at a = 1e-6;
        # for D = -4, (1 + 115)^(1-s) * 4^-s * phi(4), with phi(4) = 2; for
        # D = -3 on the per-class path, 3^s * phi(3), with phi(3) = 2 (a
        # class's pole ratio (1 + N)^((s-1)/2) stays far below: N = 2
        # there); for D = -2351, on the moment path, 2351^s * phi(2351)
        # * GROWTH_BOUND.
        top = kernel.MAX_LOG_TERM
        assert 707 < top < math.log(1.8e308)
        chi4, chi3, chi2351 = KroneckerCharacter(-4), KroneckerCharacter(-3), KroneckerCharacter(-2351)
        moment_edge = (top - math.log(2350.0 * kernel.GROWTH_BOUND)) / math.log(2351.0)
        assert plan_of(moment_edge, -2351) is not None
        class_edge = (top - math.log(2.0)) / math.log(3.0)
        assert plan_of(class_edge, -3) is None and kernel._em_weights(complex(class_edge))[0] == 2
        edges = (
            (riemann_zeta, 1.0 - top / math.log(143.0), -1),
            (lambda s: hurwitz_zeta(s, 1e-6), top / math.log(1e6), 1),
            (lambda s: dirichlet_l(s, chi4), 1.0 - (top + math.log(2.0)) / math.log(4.0 * 116.0), -1),
            (lambda s: dirichlet_l(s, chi3), class_edge, 1),
            (lambda s: dirichlet_l(s, chi2351), moment_edge, 1),
        )
        for evaluate, edge, outward in edges:
            inside = evaluate(edge - outward * 1e-9)
            assert math.isfinite(abs(inside))
            with pytest.raises(DomainError, match="MAX_LOG_TERM"):
                evaluate(edge + outward * 1e-9)

    def test_factorization_limit(self):
        from globalzeta.ffield import factor_prime_power

        over = arith.MAX_FACTOR_INPUT + 1
        for n in (over, -over):
            for helper in (arith._factorization, arith._is_squarefree):
                with pytest.raises(DomainError, match="MAX_FACTOR_INPUT"):
                    helper(n)
        for helper in (arith._totient, factor_prime_power):
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


def test_tail_weights_against_exact_values():
    # _EM_COEF[k - 1] is B_2k/(2k)! correctly rounded, and _tail_weights(s)
    # gives B_2k/(2k)! (s)_{2k-1}, k <= 12, and (s)_24 within the 2k and
    # 23 roundings of their products, at dyadic real s with Im s = +0.0 or
    # -0.0; so (s)_24, which decides N(s), is exactly 0 at s = -n, n <= 23
    bernoulli = oracles.bernoulli_number
    coefs = [bernoulli(2 * k) / math.factorial(2 * k) for k in range(1, 13)]
    assert kernel._EM_COEF == tuple(map(float, coefs))
    unit = Fraction(2) ** -53
    points = [Fraction(-n) for n in range(25)] + [Fraction(1, 2), Fraction(-37, 4), Fraction(105, 8), Fraction(-3, 1024)]
    for x in points:
        rising = [Fraction(1)]  # (x)_m, m <= 24
        for m in range(24):
            rising.append(rising[-1] * (x + m))
        expected = [(coef * rising[2 * k - 1], 2 * k) for k, coef in enumerate(coefs, start=1)] + [(rising[24], 23)]
        for zero in (0.0, -0.0):
            weights, even = kernel._tail_weights(complex(float(x), zero))
            for value, (exact, roundings) in zip([*weights, even], expected, strict=True):
                assert value.imag == 0.0, (x, zero)
                assert abs(Fraction(value.real) - exact) <= 1.01 * roundings * unit * abs(exact), (x, zero)
            if x.denominator == 1 and x > -24:
                assert even == 0, (x, zero)


def em_bound(s: complex, x: float) -> float:
    # Johansson's Euler-Maclaurin remainder bound (arXiv:1309.2877, Thm. 1)
    # for K = 12 Bernoulli terms at x = a + N, from |(s)_24| as a product
    # of moduli rather than the kernel's complex product
    rate = s.real + 23.0
    poch = math.prod(abs(s + k) for k in range(24))
    return 0.0 if poch == 0 else 4.0 * poch / (2.0 * math.pi) ** 24 * x**-rate / rate


class TestShiftCount:
    # N(s), the shift count of every Euler-Maclaurin sum at s: the least N
    # with em_bound(s, N) <= 2^-50, at most max(20, ceil|s|)
    BUDGET = 2.0**-50
    GRID = [complex(x, y) for x in (-10.0, -7.5, -3.3, -1.0, 0.0, 0.1, 0.5, 0.9, 1.5, 3.0)
            for y in (0.0, 0.5, -3.0, 10.0, 33.0, -50.0, 120.0, 400.0, -400.0)]

    @staticmethod
    def cap(s: complex) -> int:
        return max(20, math.ceil(abs(s)))

    def test_least_count_meeting_the_bound(self):
        for s in self.GRID:
            n = kernel._em_weights(s)[0]
            assert 0 <= n <= self.cap(s), s
            if n < self.cap(s):
                assert em_bound(s, n) <= self.BUDGET * (1 + 1e-9), s
            if n > 1:
                assert em_bound(s, n - 1) > self.BUDGET * (1 - 1e-9), s

    def test_strip_counts(self):
        counts = [kernel._em_weights(s)[0] for s in (0.5, 0.5 + 10j, 0.1 + 20j, 0.9 + 30j, 0.5 + 50j)]
        assert counts == [6, 11, 17, 21, 35]

    @pytest.mark.parametrize("a", [1.0, 1.0 / 3.0, 1.0 / 40.0])
    def test_sum_moves_within_the_bound(self, monkeypatch, a):
        # zeta_H at N(s) and at N(s) + 8 differ by at most the bound at
        # N(s) plus the rounding of their parts, wherever the bound decides
        # N(s) (at the cap the rounding of terms of size x^-Re(s) rules)
        weights = kernel._em_weights
        eps = 2.0**-52
        decided = [s for s in self.GRID if kernel._em_weights(s)[0] < self.cap(s)]
        assert len(decided) >= 60
        for s in decided:
            n = kernel._em_weights(s)[0]
            at_n = hurwitz_zeta(s, a)
            monkeypatch.setattr(kernel, "_em_weights", lambda z: (n + 8, weights(z)[1]))
            at_n8 = hurwitz_zeta(s, a)
            monkeypatch.setattr(kernel, "_em_weights", weights)
            x = a + n + 8
            parts = sum((a + k) ** -s.real for k in range(n + 9))
            parts += x ** (1.0 - s.real) / abs(s - 1.0) + x ** -s.real * sum(
                abs(w) * x ** (1 - 2 * k) for k, w in enumerate(weights(s)[1], start=1))
            assert abs(at_n - at_n8) <= em_bound(s, a + n) + 64 * eps * parts, (s, a)

    STRIP = [complex(x, y) for x in (0.01, 0.1, 0.5, 0.9, 0.99) for y in (0.0, 3.0, -14.0, 50.0, 400.0, -3000.0)]

    def test_moment_jets_within_the_budget(self):
        # each jet zeta_H(s + j, x) of a moment series, weighted by its
        # share |(s)_j / j!| 2^-j of the series, meets the budget at
        # X = M + 1/2 + T wherever the bound decides N(s): the short head's
        # T = N, the long head's T = 0
        checked = {"short": 0, "long": 0}
        for D in (-2351, 997, -131, 1001, -3851, 37, -23, 17):
            count = arith._totient(abs(D))
            for s in self.GRID + self.STRIP:
                n = kernel._em_weights(s)[0]
                plan = kernel._moment_plan(s, count, n)
                if plan is None or n == self.cap(s):
                    continue
                head, order, jet_shift = plan
                weight = 1.0
                for j in range(1, order + 1):
                    weight *= abs(s + (j - 1)) / (2 * j)
                    assert weight * em_bound(s + j, head + 0.5 + jet_shift) <= self.BUDGET, (D, s, j)
                checked[plan_kind(s, D)] += 1
        assert checked["short"] >= 100 and checked["long"] >= 20, checked

    def test_bound_decides_the_count_right_of_zero(self):
        # the long head of kernel._moment_plan takes em_bound(s, N) <= 2^-50
        # as given on Re s > 0: N(s) is below its cap there, for |s| up to
        # nearly MAX_ABS_S
        rng = random.Random(5)
        for _ in range(2000):
            x = rng.choice((1e-9, 0.1, 0.5, 0.9, rng.uniform(0.0, 60.0)))
            s = complex(x, rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(0, 3.99))
            n = kernel._em_weights(s)[0]
            assert n < self.cap(s) and em_bound(s, n) <= self.BUDGET * (1 + 1e-9), s

    def test_long_head_jets_need_no_shift(self):
        # the long head of kernel._moment_plan gives its jets no shift on
        # 0 < Re s < 1: each jet's weighted bound meets the budget at X = N + 1/2
        rng = random.Random(23)
        for _ in range(1000):
            x = rng.choice((1e-9, rng.uniform(0.0, 1.0), 1.0 - 1e-9))
            s = complex(x, rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(0, 3.99))
            n = kernel._em_weights(s)[0]
            plan = long_head_plan(s, n)
            if plan is None:
                continue
            head, order, jet_shift = plan
            assert head == n and jet_shift == 0
            weight = 1.0
            for j in range(1, order + 1):
                weight *= abs(s + (j - 1)) / (2 * j)
                assert weight * em_bound(s + j, n + 0.5) <= self.BUDGET, (s, j)

    def test_long_head_only_on_the_critical_strip(self):
        # N(s) = 0 at s = -n says nothing about the jets s + j, and right of
        # the strip the jets need a shift; the long head runs on 0 < Re s < 1,
        # up to the height of the paper's box
        for D in (17, -23, 37, 53, -59):
            for x in (-2.0, -0.5, 0.0, 1.0, 1.5, 2.5):
                for y in (0.0, 7.0, -30.0):
                    assert plan_kind(complex(x, y), D) != "long", (D, x, y)
            assert plan_kind(0.5 + 7j, D) == "long"
        for D in (17, -23, 37):
            assert plan_kind(0.5 - 50j, D) == "long" and plan_kind(0.5 + 50.01j, D) == "class"

    def test_negative_integers(self):
        # (s)_24 = 0 at s = -n, n <= 23: no shift, the sum is exact; at
        # s = -24 the count is the cap, and the moment path alone still
        # takes no shift, where each of its jets s + j is exact
        assert [kernel._em_weights(complex(-n))[0] for n in range(24)] == [0] * 24
        assert kernel._em_weights(complex(-24))[0] == 24
        assert plan_of(-24, -2351) is not None
        exact = float(oracles.l_at_negative(24, -2351))
        assert abs(dirichlet_l(-24, KroneckerCharacter(-2351)) - exact) <= 1e-8 * abs(exact)

    @pytest.mark.parametrize("n, D", [(9, 5), (5, 13), (5, 33), (5, 41)])
    def test_class_path_negative_integer_anchors(self, n, D):
        # each class's sum is exact with no shift (about 1e-5 to 0.27 off
        # at N = 20, where its parts cancel)
        assert plan_of(-n, D) is None
        exact = float(oracles.l_at_negative(n, D))
        assert abs(dirichlet_l(-n, KroneckerCharacter(D)) - exact) <= 1e-12 * abs(exact)
