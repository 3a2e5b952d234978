"""Engine tests: Dedekind zeta, Gamma factor, completed values, pole model."""

import cmath
import hashlib
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from globalzeta import (
    DomainError,
    PoleError,
    check_point,
    completed_zeta,
    gamma_factor,
    hurwitz_zeta,
    make_curve_function_field,
    make_quadratic,
    make_rational_function_field,
    make_rationals,
    parse_field_spec,
    pole_distance,
    pole_set,
    riemann_zeta,
    truncated_euler_product,
    zeta,
)

import oracles

Q = make_rationals()
QI = make_quadratic(-1)
Q_SQRT5 = make_quadratic(5)
Q_SQRT2 = make_quadratic(2)
Q_SQRTM3 = make_quadratic(-3)
F5 = make_rational_function_field(5)
CURVE_5_1 = make_curve_function_field(5, [1, 3, 5])

# Catalan's constant G = L(2, chi_-4)
CATALAN = 0.91596559417721901505
# zeta(2) * L(2, chi_-4), frozen from dedekind_zeta_qi_series(2.0, 20000)
ZETA_QI_2_ORACLE, ZETA_QI_2_BOUND = 1.50670300992302, 7.1e-14


class TestZeta:
    def test_function_field_abs_s_edge(self):
        # the kernel's MAX_ABS_S holds for function fields too: at |s| =
        # MAX_ABS_S the phase Im(s) log q of q^-s is still about 1e-12 off
        from globalzeta import arith, kernel

        assert kernel.MAX_ABS_S == arith.MAX_ABS_S == 1e4
        top = arith.MAX_ABS_S
        over = math.nextafter(top, math.inf)
        cases = (
            (zeta, 1j * top, 1j * over),
            (lambda f, s: completed_zeta(f, s).completed_value, 1j * top, 1j * over),
            (lambda f, s: truncated_euler_product(f, s, 25), complex(2.0, math.sqrt(top**2 - 4.0)),
             complex(2.0, math.sqrt(over**2 - 4.0) * (1 + 2**-52))),
        )
        for evaluate, inside, outside in cases:
            assert abs(inside) <= top < abs(outside)
            assert cmath.isfinite(evaluate(F5, inside))
            with pytest.raises(DomainError, match="MAX_ABS_S"):
                evaluate(F5, outside)

    def test_rationals_basel(self):
        v, bound = oracles.zeta_series(2.0, 4000)
        assert abs(zeta(Q, 2) - v) <= bound + 1e-12

    def test_gaussian_product(self):
        value = zeta(QI, 2)
        assert abs(value - ZETA_QI_2_ORACLE) <= ZETA_QI_2_BOUND + 1e-11
        v, bound = oracles.dedekind_zeta_qi_series(2.0, 20000)
        assert abs(value - v) <= bound + 1e-11

    def test_function_field_closed_form(self):
        value = zeta(F5, 2)
        assert abs(value - 125.0 / 96.0) < 1e-14
        # cross-check against the truncated Euler product
        trunc = truncated_euler_product(F5, 2, 25)
        assert abs(value - trunc) < 5e-3

    def test_pole_errors(self):
        with pytest.raises(PoleError):
            zeta(Q, 1)
        with pytest.raises(PoleError):
            zeta(Q, 5e-4)
        with pytest.raises(PoleError):
            zeta(F5, complex(1.0, 2.0 * math.pi / math.log(5.0)))

    def test_reality_on_real_axis(self):
        for field in (Q, QI, Q_SQRT5, F5, CURVE_5_1):
            for x in (-2.5, -0.7, 0.3, 0.5, 0.9, 2.0, 6.0):
                if pole_distance(field, x) < 1e-3:
                    continue
                assert abs(zeta(field, x).imag) < 1e-12
                assert abs(completed_zeta(field, x).completed_value.imag) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(re=st.floats(-1.5, 6.0), im=st.floats(0.01, 20.0))
    def test_conjugation_symmetry(self, re, im):
        s = complex(re, im)
        for field in (Q, QI, F5):
            if pole_distance(field, s) < 0.01:
                continue
            a = zeta(field, s.conjugate())
            b = zeta(field, s).conjugate()
            assert abs(a - b) <= 1e-12 * max(abs(b), 1e-30)

    @settings(max_examples=40, deadline=None)
    @given(re=st.floats(-2.0, 3.0), im=st.floats(-10.0, 10.0))
    def test_function_field_periodicity(self, re, im):
        s = complex(re, im)
        for field in (F5, make_rational_function_field(3)):
            period = 2.0 * math.pi / math.log(field.q)
            if pole_distance(field, s) < 0.01:
                continue
            a = zeta(field, s + complex(0.0, period))
            b = zeta(field, s)
            assert abs(a - b) <= 1e-12 * max(abs(b), 1e-30)

    def test_factorization_against_truncated_product(self):
        rng = random.Random(314159)
        for field in (Q, QI, Q_SQRT5, Q_SQRT2, Q_SQRTM3):
            for _ in range(10):
                s = complex(rng.uniform(1.05, 3.0), rng.uniform(-5.0, 5.0))
                sigma = s.real
                gap = abs(zeta(field, s) - truncated_euler_product(field, s, 2000))
                envelope = 4.0 * 2000.0 ** (1.0 - sigma) / (sigma - 1.0)
                assert gap <= envelope


class TestGammaFactor:
    def test_rationals_at_two(self):
        assert abs(gamma_factor(Q, 2) - 1.0 / math.pi) < 1e-14

    def test_gaussian_at_one(self):
        assert abs(gamma_factor(QI, 1) - 1.0) < 1e-14

    def test_function_field_is_one(self):
        assert gamma_factor(F5, 2 + 3j) == 1.0
        assert gamma_factor(CURVE_5_1, -1.5) == 1.0

    def test_pole_errors(self):
        with pytest.raises(PoleError):
            gamma_factor(Q, -2)
        with pytest.raises(PoleError):
            gamma_factor(Q, 0)
        with pytest.raises(PoleError):
            gamma_factor(QI, -1)
        with pytest.raises(PoleError):
            gamma_factor(Q_SQRT5, -4 + 5e-4j)
        # odd negative integers are not Gamma poles for real signatures
        assert abs(gamma_factor(Q, -1)) > 0
        assert abs(gamma_factor(Q_SQRT5, -3)) > 0

    def test_closed_form_points(self):
        # Gamma(2) = 1, Gamma(3/2) = sqrt(pi)/2 give closed products
        assert abs(gamma_factor(QI, 2) - 1.0 / (2.0 * math.pi)) < 1e-14
        assert abs(gamma_factor(Q_SQRT5, 3) - 1.0 / (4.0 * math.pi ** 2)) < 1e-14

    def test_exponent_multiplicity(self):
        # the r1 = 2 factor is the square of the r1 = 1 factor
        s = 0.75 + 6.0j
        single = gamma_factor(Q, s)
        double = gamma_factor(Q_SQRT5, s)
        assert abs(double - single * single) <= 1e-13 * abs(double)


class TestCompletedZeta:
    def test_rationals_at_two(self):
        rec = completed_zeta(Q, 2)
        assert abs(rec.completed_value - math.pi / 6.0) <= 1e-12 * (math.pi / 6.0)
        assert rec.completed_value == rec.gamma_factor_value * rec.zeta_value
        assert not rec.precision_cliff

    def test_rationals_at_minus_one(self):
        # pi^(1/2) Gamma(-1/2) zeta(-1) = sqrt(pi) (-2 sqrt(pi)) (-1/12) = pi/6
        rec = completed_zeta(Q, -1)
        assert abs(rec.completed_value - math.pi / 6.0) <= 1e-12 * (math.pi / 6.0)
        assert not rec.precision_cliff

    def test_function_field(self):
        rec = completed_zeta(F5, 2)
        assert rec.gamma_factor_value == 1.0
        assert abs(rec.completed_value - 125.0 / 96.0) < 1e-14
        assert rec.completed_value == rec.gamma_factor_value * rec.zeta_value

    def test_record_product_is_bitwise(self):
        pts = [0.3, 0.5 + 4j, 2.0, -1.0, -1.003, -2.5, 0.9 + 10j]
        for field in (Q, QI, Q_SQRT5, F5):
            for s in pts:
                if pole_distance(field, s) < 1e-3:
                    continue
                rec = completed_zeta(field, s)
                assert rec.completed_value == rec.gamma_factor_value * rec.zeta_value

    @pytest.mark.parametrize(
        "spec",
        ["Q", "Q(sqrt=-1)", "Q(sqrt=-3)", "Q(sqrt=5)", "Q(sqrt=-163)", "Q(sqrt=997)",
         "Q(sqrt=-2351)", "Fq(T)?q=5", "curve?q=5&L=1,3,5"],
    )
    def test_conjugate_point_gives_conjugate_value_bit_for_bit(self, spec):
        # verify's sweep serves Z(conj s) as conj Z(s) off the real axis,
        # so its reports stay bit-identical only while this holds.
        field = parse_field_spec(spec)
        rng = random.Random(f"conjugate/{spec}")
        points = [complex(rng.uniform(0.1, 0.9), rng.uniform(0.05, 50.0)) for _ in range(6)]
        points += [complex(rng.uniform(-8.0, -0.01), rng.uniform(-20.0, 20.0)) for _ in range(6)]
        points += [
            complex(rng.uniform(0.1, 0.9), sign * rng.uniform(100.0, 400.0))
            for sign in (1, -1, 1, -1)
        ]
        for m in range(-1, -7, -1):  # around the cancelled Gamma poles
            for lo, hi in ((1e-5, 1e-2), (1e-8, 1e-5)):
                angle = rng.uniform(0.1, math.pi - 0.1) * rng.choice((1, -1))
                points.append(m + cmath.rect(rng.uniform(lo, hi), angle))
        for s in points:
            assert s.imag != 0
            a = completed_zeta(field, s.conjugate()).completed_value
            b = completed_zeta(field, s).completed_value.conjugate()
            assert (a.real.hex(), a.imag.hex()) == (b.real.hex(), b.imag.hex()), s

    @pytest.mark.parametrize(
        "spec",
        ["Q", "Q(sqrt=-1)", "Q(sqrt=-3)", "Q(sqrt=5)", "Q(sqrt=-163)", "Q(sqrt=997)",
         "Q(sqrt=-2351)", "Fq(T)?q=5", "curve?q=5&L=1,3,5"],
    )
    def test_real_point_gives_real_value_conjugate_bit_for_bit(self, spec):
        # a real s has real values, and Z(x - 0i) is conj Z(x + 0i) bit for
        # bit, so verify folds conjugates on the real axis too; a number
        # field's completed value prints Im 0, not -0
        field = parse_field_spec(spec)
        for x in (-7.5, -5.5, -3.3, -2.005, -1.003, -0.5, 0.3, 0.7, 2.0, 3.5, -4.000003, 6.0):
            up, down = completed_zeta(field, complex(x, 0.0)), completed_zeta(field, complex(x, -0.0))
            for a, b in zip(up[1:4], down[1:4]):
                assert a.imag == 0.0, (x, a)
                assert (a.real.hex(), (-a.imag).hex()) == (b.real.hex(), b.imag.hex()), (x, a, b)
            if spec.startswith("Q"):
                assert math.copysign(1.0, up.completed_value.imag) == 1.0
            if not up.precision_cliff:
                assert gamma_factor(field, x).imag == 0.0 == gamma_factor(field, complex(x, -0.0)).imag

    def test_pole_distance_recorded(self):
        rec = completed_zeta(Q, 2)
        assert rec.pole_distance == 1.0

    def test_gaussian_cancelled_pole_value(self):
        # Z(-1) is finite: the Gamma pole at -1 cancels the trivial zero
        # of L(chi_-4).  Closed form: Z(-1) = Z(2) = 2 pi G / 3 with
        # Catalan's constant G (the finite-difference deflation was 2.5e-12 off)
        rec = completed_zeta(QI, -1)
        assert rec.precision_cliff
        closed = 2.0 * math.pi * CATALAN / 3.0
        assert abs(rec.completed_value - closed) <= 1e-13 * closed

    def test_cliff_flag_zones(self):
        assert completed_zeta(QI, -1.0 + 0.005).precision_cliff
        assert not completed_zeta(QI, -1.0 + 0.02).precision_cliff
        assert completed_zeta(Q, -2.0 + 0.005).precision_cliff
        assert not completed_zeta(Q, -1.0).precision_cliff  # odd: no Gamma pole

    def test_cliff_matches_plain_outside(self):
        # the deflated path must join the plain path continuously
        inner = completed_zeta(QI, -1.0 + 0.009).completed_value
        outer = completed_zeta(QI, -1.0 + 0.011).completed_value
        assert abs(inner - outer) < 2e-2 * abs(outer)

    def test_finiteness_near_trivial_zero_cancellations(self):
        # Gamma poles at negative even integers cancel against trivial
        # zeros: Z stays bounded near s = -2
        for field in (Q, Q_SQRT5):
            for h in (0.005, -0.005, 0.009, 0.02):
                rec = completed_zeta(field, -2.0 + h)
                v = rec.completed_value
                assert cmath.isfinite(v)
                assert abs(v) < 10.0

    def test_contour_evaluates_eight_nodes_once(self, monkeypatch):
        # inside GAMMA_CANCEL_RADIUS the deflated zeta is a contour mean
        # over 16 nodes 1/8 from m, of which it evaluates the 8 upper ones
        # (the lower ones are their conjugates), never s itself; the value
        # is pinned by float.hex (the Gamma factor's since log Gamma became
        # Stirling's series)
        calls = []

        def counted(s):
            calls.append(s)
            return riemann_zeta(s)

        # the package exports the function zeta under the module's name;
        # the node values are memoised per (field, m), so start from none
        zeta_module = sys.modules["globalzeta.zeta"]
        zeta_module._contour_values.cache_clear()
        monkeypatch.setattr(zeta_module, "riemann_zeta", counted)
        s = -4.000003
        rec = completed_zeta(Q, s)
        assert rec.precision_cliff
        assert len(calls) == len(set(calls)) == 8 and s not in calls
        assert all(z.imag > 0 and abs(abs(z + 4) - 0.125) <= 1e-15 for z in calls)
        assert rec.zeta_value.real.hex() == "0x1.059cfe0ee21e6p-7"
        assert rec.gamma_factor_value.real.hex() == "0x1.3bd3d37ff1f21p+3"
        assert rec.completed_value.real.hex() == "0x1.42c0a524dc083p-4"
        assert rec.zeta_value.imag == rec.completed_value.imag == 0.0
        # zeta(s)/(s + 4) by mpmath at 40 digits; the finite-difference
        # derivatives at -4 gave 0x1.059cfdf2cbd70p-7, 6.3e-9 off (now 8.8e-11)
        exact = 0.00798380284412869
        assert abs(rec.zeta_value.real - exact) <= 1e-9 * exact
        # a second point near the same m reuses the 8 node values
        assert completed_zeta(Q, -3.995).precision_cliff and len(calls) == 8

    def test_pole_error(self):
        with pytest.raises(PoleError):
            completed_zeta(Q, 1.0 + 1e-4j)
        with pytest.raises(PoleError):
            completed_zeta(F5, 0)


class TestPoleModel:
    def test_number_field_pole_set(self):
        ps = pole_set(Q)
        assert ps.bases == (0.0, 1.0)
        assert ps.period is None

    def test_function_field_pole_set(self):
        ps = pole_set(F5)
        assert ps.bases == (0.0, 1.0)
        assert abs(ps.period - 2.0 * math.pi / math.log(5.0)) < 1e-15

    def test_distances(self):
        assert pole_distance(Q, 2) == 1.0
        assert pole_distance(Q, 0.5) == 0.5
        assert abs(pole_distance(Q, 0.5 + 10j) - math.hypot(0.5, 10)) < 1e-12
        period = 2.0 * math.pi / math.log(5.0)
        assert pole_distance(F5, complex(1.0, period)) < 1e-15
        assert abs(pole_distance(F5, complex(1.0, period / 2.0)) - period / 2.0) < 1e-12
        assert abs(pole_distance(F5, complex(1.0, 7 * period)) ) < 1e-12


# ---------------------------------------------------------------------------
# One evaluation, pinned bit for bit: values and errors
# ---------------------------------------------------------------------------

# Strip nodes up to |Im s| = 50, the real axis, Re s in [-8, 0), and the
# deflated zone around -1 .. -6, from the poles themselves to 0.005 off.
PIN_POINTS = [complex(x, y) for x in (0.1, 0.5, 0.9) for y in (0.0, 3.5, 14.134725, -21.0, 50.0)]
PIN_POINTS += [2.0, 3.5, 1.5, 12.0, -0.5, -7.5, complex(-7.9, 2.0), complex(-3.3, 0.4), complex(-0.2, 1.0),
               complex(-5.5, -7.0)]
for _m in range(-1, -7, -1):
    PIN_POINTS += [_m + 0j, _m + 0.005, complex(_m, -0.004), _m - 3e-6, complex(_m, 2e-6), _m + 0.02]

# sha256 of the float.hex of the real and imaginary parts of zeta_value,
# gamma_factor_value and completed_value at each of PIN_POINTS, recorded
# before the evaluation layers shared their per-s and per-field work, and
# for number fields again when the Euler-Maclaurin shift count came from
# its remainder bound (values moved by up to 0.031 relative, at the
# deflated -5.995, toward the oracle: 0.032 -> 1.1e-6 off for Q(sqrt 10)),
# and when the deflated zeta became a contour mean (only precision_cliff
# zeta and completed values moved, by up to 1.2e-6 relative at -6 - 0.004i;
# no gamma_factor_value moved), and for number fields again when log Gamma
# became Stirling's series (only gamma_factor and completed values moved,
# by up to 3.2e-14 relative; tests/oracle_grid.json holds each log Gamma),
# and Q(sqrt 10) again when dirichlet_l took the long head on the strip
# (its 13 strip points moved, zeta and completed values by up to 4.2e-15
# relative, at 0.1; tests/oracle_grid.json holds L(s, chi_40) on the box).
# |D| <= 15 takes dirichlet_l's per-class path, D = 40 its long head on
# the strip, |D| of about 130 and 3,000 its short head.
PIN_DIGESTS = {
    "Q": "1b48ca233180806ab5b4a828ba25376fafcff0bfdc9216af01dca80b85cf9d9a",
    "Q(sqrt=-1)": "a85c75110aadaf842c3b9442072bc45892e4690c6139753b6b2aed9ef6288e01",
    "Q(sqrt=-3)": "31547b68409c285ba7b1bf4370c6a3d7fb1a2ae314c0a0e1aacf3acdf980123e",
    "Q(sqrt=5)": "a5dd016bbfd154138d597f063f464f667b5cad42c3fc5514f2a2ad8111fc53c8",
    "Q(sqrt=10)": "aee807502718c96c76e327d4444546a3b33b91d050f0e8e2d55d95f2be595deb",
    "Q(sqrt=-131)": "3d9d849d44ab9780a7665d6e997af0ec05341452a4b39e2cbb94070c48cb4a59",
    "Q(sqrt=129)": "a23d9ed730405e219960936af71d76845beac70fc9c94c0e13ccc87b1a0614ef",
    "Q(sqrt=-2999)": "f83d898bde4c737a3aa8f42ccb348e1be4f8a0a8d99a336e206b694af8993f3a",
    "Q(sqrt=3001)": "7492bfa4f3057f31ceb3b1cbb3e363a38155c0052f2d43a1bfeb2c31b2890310",
    "Fq(T)?q=5": "0bb2259d115655e483fe0e94d7cb83c27c81784df6fd63a38b3caa3814047bf7",
    "curve?q=5&L=1,3,5": "af3e7692defb0dd1206f7b5b370fe58e046b911c4e96356dc6198bbbbe148e74",
}


@pytest.mark.parametrize("spec", sorted(PIN_DIGESTS))
def test_completed_values_pinned_bit_for_bit(spec):
    field = parse_field_spec(spec)
    hexes = []
    for s in PIN_POINTS:
        rec = completed_zeta(field, s)
        for z in (rec.zeta_value, rec.gamma_factor_value, rec.completed_value):
            hexes += [z.real.hex(), z.imag.hex()]
    assert hashlib.sha256(" ".join(hexes).encode()).hexdigest() == PIN_DIGESTS[spec]


def test_riemann_zeta_is_hurwitz_at_one_bit_for_bit():
    # riemann_zeta keeps its own logs and checks rather than calling hurwitz_zeta
    for s in PIN_POINTS:
        a, b = riemann_zeta(s), hurwitz_zeta(s, 1.0)
        assert (a.real.hex(), a.imag.hex()) == (b.real.hex(), b.imag.hex()), s


PERIOD_5 = 2.0 * math.pi / math.log(5.0)

# (function, field spec, s, exception, message), recorded before the
# evaluation layers shared their checks: poles, Gamma poles, non-finite
# s, MAX_ABS_S and MAX_LOG_TERM, called directly and through check_point.
# The deflated zeta at -150 and -160 is refused at its first contour node;
# the message names s and m first (re-recorded when the node values were
# memoised per field and m).
ERROR_CASES = [
    (completed_zeta, "Q", 1e-4, PoleError,
     '(0.0001+0j) is within 0.001 of a pole of the completed zeta'),
    (zeta, "Q", 1e-4, PoleError,
     '(0.0001+0j) is within 0.001 of a pole of the completed zeta'),
    (gamma_factor, "Q", 1e-4, PoleError,
     'gamma_factor: (0.0001+0j) is within 0.001 of the Gamma pole at 0'),
    (completed_zeta, "Q", 1 + 1e-4j, PoleError,
     '(1+0.0001j) is within 0.001 of a pole of the completed zeta'),
    (zeta, "Q", 1 + 1e-4j, PoleError,
     '(1+0.0001j) is within 0.001 of a pole of the completed zeta'),
    (riemann_zeta, "Q", 1 + 1e-4j, PoleError,
     'hurwitz_zeta: (1+0.0001j) is within 0.001 of the pole s=1'),
    (completed_zeta, "Fq(T)?q=5", complex(1.0, 3 * PERIOD_5) + 2e-4, PoleError,
     '(1.0002+11.71188759498703j) is within 0.001 of a pole of the completed zeta'),
    (zeta, "Fq(T)?q=5", complex(1.0, 3 * PERIOD_5) + 2e-4, PoleError,
     '(1.0002+11.71188759498703j) is within 0.001 of a pole of the completed zeta'),
    (completed_zeta, "Fq(T)?q=5", complex(0.0, -PERIOD_5), PoleError,
     '-3.903962531662343j is within 0.001 of a pole of the completed zeta'),
    (zeta, "Fq(T)?q=5", complex(0.0, -PERIOD_5), PoleError,
     '-3.903962531662343j is within 0.001 of a pole of the completed zeta'),
    (gamma_factor, "Q", -2 + 1e-4j, PoleError,
     'gamma_factor: (-2+0.0001j) is within 0.001 of the Gamma pole at -2'),
    (gamma_factor, "Q(sqrt=-1)", -3 - 1e-4, PoleError,
     'gamma_factor: (-3.0001+0j) is within 0.001 of the Gamma pole at -3'),
    (gamma_factor, "Q(sqrt=5)", -4 + 5e-4, PoleError,
     'gamma_factor: (-3.9995+0j) is within 0.001 of the Gamma pole at -4'),
    (completed_zeta, "Q", math.nan, DomainError,
     's must be finite, got (nan+0j)'),
    (zeta, "Q", math.nan, DomainError,
     's must be finite, got (nan+0j)'),
    (gamma_factor, "Q", math.nan, DomainError,
     's must be finite, got (nan+0j)'),
    (riemann_zeta, "Q", math.nan, DomainError,
     's must be finite, got (nan+0j)'),
    (check_point, "Q", math.nan, DomainError,
     's must be finite, got (nan+0j)'),
    (completed_zeta, "Q(sqrt=-1)", complex(0.5, math.inf), DomainError,
     's must be finite, got (0.5+infj)'),
    (zeta, "Q(sqrt=-1)", complex(0.5, math.inf), DomainError,
     's must be finite, got (0.5+infj)'),
    (gamma_factor, "Q(sqrt=-1)", complex(0.5, math.inf), DomainError,
     's must be finite, got (0.5+infj)'),
    (check_point, "Q(sqrt=-1)", complex(0.5, math.inf), DomainError,
     's must be finite, got (0.5+infj)'),
    (completed_zeta, "Q", 2e4j, DomainError,
     '|s| = 20000 exceeds MAX_ABS_S = 10000; the Euler-Maclaurin shift count grows with |s|'),
    (zeta, "Q", 2e4j, DomainError,
     '|s| = 20000 exceeds MAX_ABS_S = 10000; the Euler-Maclaurin shift count grows with |s|'),
    (riemann_zeta, "Q", 2e4j, DomainError,
     '|s| = 20000 exceeds MAX_ABS_S = 10000; the Euler-Maclaurin shift count grows with |s|'),
    (check_point, "Q", 2e4j, DomainError,
     '|s| = 20000.000025000001 exceeds MAX_ABS_S = 10000; the Euler-Maclaurin shift count grows with |s|'),
    (completed_zeta, "Q(sqrt=5)", complex(0.5, -1.5e4), DomainError,
     '|s| = 15000.000008333333 exceeds MAX_ABS_S = 10000; the Euler-Maclaurin shift count grows with |s|'),
    (zeta, "Q(sqrt=5)", complex(0.5, -1.5e4), DomainError,
     '|s| = 15000.000008333333 exceeds MAX_ABS_S = 10000; the Euler-Maclaurin shift count grows with |s|'),
    (check_point, "Q(sqrt=5)", complex(0.5, -1.5e4), DomainError,
     '|s| = 15000.000008333333 exceeds MAX_ABS_S = 10000; the Euler-Maclaurin shift count grows with |s|'),
    (completed_zeta, "Q", 2e4, DomainError,
     'at s = (20000+0j) the terms reach exp(70652.4), past MAX_LOG_TERM = 707.7 (binary64 overflow)'),
    (zeta, "Q", 2e4, DomainError,
     '|s| = 20000 exceeds MAX_ABS_S = 10000; the Euler-Maclaurin shift count grows with |s|'),
    (gamma_factor, "Q", 2e4, DomainError,
     'at s = (20000+0j) the terms reach exp(70652.4), past MAX_LOG_TERM = 707.7 (binary64 overflow)'),
    (riemann_zeta, "Q", 2e4, DomainError,
     '|s| = 20000 exceeds MAX_ABS_S = 10000; the Euler-Maclaurin shift count grows with |s|'),
    (check_point, "Q", 2e4, DomainError,
     '|s| = 19999 exceeds MAX_ABS_S = 10000; the Euler-Maclaurin shift count grows with |s|'),
    (completed_zeta, "Q", 500, DomainError,
     'at s = (500+0j) the terms reach exp(842.3), past MAX_LOG_TERM = 707.7 (binary64 overflow)'),
    (gamma_factor, "Q", 500, DomainError,
     'at s = (500+0j) the terms reach exp(842.3), past MAX_LOG_TERM = 707.7 (binary64 overflow)'),
    (check_point, "Q", 500, DomainError,
     'at s = (-499+0j) the terms reach exp(3107.3), past MAX_LOG_TERM = 707.7 (binary64 overflow)'),
    (completed_zeta, "Q(sqrt=-1)", -150, DomainError,
     'at s = (-150+0j) the contour mean around the cancelled Gamma pole at -150 fails at a node: '
     'at s = (-149.87740183994958+0.02438629025201603j) the terms reach exp(757.0), past MAX_LOG_TERM = 707.7 (binary64 overflow)'),
    (zeta, "Q(sqrt=-1)", -150, DomainError,
     'at s = (-150+0j) the terms reach exp(757.6), past MAX_LOG_TERM = 707.7 (binary64 overflow)'),
    (gamma_factor, "Q(sqrt=-1)", -150, PoleError,
     'gamma_factor: (-150+0j) is within 0.001 of the Gamma pole at -150'),
    (check_point, "Q(sqrt=-1)", -150, DomainError,
     'at s = (-150+0j) the contour mean around the cancelled Gamma pole at -150 fails at a node: '
     'at s = (-149.87740183994958+0.02438629025201603j) the terms reach exp(757.0), past MAX_LOG_TERM = 707.7 (binary64 overflow)'),
    (completed_zeta, "Q", -160, DomainError,
     'at s = (-160+0j) the contour mean around the cancelled Gamma pole at -160 fails at a node: '
     'at s = (-159.87740183994958+0.02438629025201603j) the terms reach exp(817.5), past MAX_LOG_TERM = 707.7 (binary64 overflow)'),
    (zeta, "Q", -160, DomainError,
     'at s = (-160+0j) the terms reach exp(818.1), past MAX_LOG_TERM = 707.7 (binary64 overflow)'),
    (gamma_factor, "Q", -160, PoleError,
     'gamma_factor: (-160+0j) is within 0.001 of the Gamma pole at -160'),
    (riemann_zeta, "Q", -160, DomainError,
     'at s = (-160+0j) the terms reach exp(818.1), past MAX_LOG_TERM = 707.7 (binary64 overflow)'),
    (check_point, "Q", -160, DomainError,
     'at s = (-160+0j) the contour mean around the cancelled Gamma pole at -160 fails at a node: '
     'at s = (-159.87740183994958+0.02438629025201603j) the terms reach exp(817.5), past MAX_LOG_TERM = 707.7 (binary64 overflow)'),
    (completed_zeta, "Fq(T)?q=5", -500, DomainError,
     'at s = (-500+0j) the terms reach exp(804.7), past MAX_LOG_TERM = 707.7 (binary64 overflow)'),
    (zeta, "Fq(T)?q=5", -500, DomainError,
     'at s = (-500+0j) the terms reach exp(804.7), past MAX_LOG_TERM = 707.7 (binary64 overflow)'),
    (check_point, "Fq(T)?q=5", -500, DomainError,
     'at s = (-500+0j) the terms reach exp(1611.0), past MAX_LOG_TERM = 707.7 (binary64 overflow)'),
]


@pytest.mark.parametrize("fn, spec, s, error, message", ERROR_CASES)
def test_errors_unchanged(fn, spec, s, error, message):
    field = parse_field_spec(spec)
    args = (s,) if fn is riemann_zeta else (field, s, 1e-9) if fn is check_point else (field, s)
    with pytest.raises(error) as caught:
        fn(*args)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "spec", ["Q", "Q(sqrt=-1)", "Q(sqrt=5)", "Q(sqrt=-163)", "Q(sqrt=-2351)", "Q(sqrt=3001)", "Q(sqrt=-3999)"]
)
def test_cancelled_pole_refusal_edge(spec):
    # On and near every cancelled Gamma pole m >= -159 the values are
    # finite or the evaluation raises DomainError naming MAX_LOG_TERM.
    # Near that edge a contour node's value, or a term of the mean, leaves
    # binary64; that must not leak OverflowError, ValueError, inf or nan.
    field = parse_field_spec(spec)
    step = 1 if field.r2 else 2
    for m in range(-step, -160, -step):
        for s in (m + 0.0, m + 0.005, m - 0.009):
            try:
                rec = completed_zeta(field, s)
            except DomainError as exc:
                assert "MAX_LOG_TERM" in str(exc), (s, exc)
            else:
                assert rec.precision_cliff and all(cmath.isfinite(z) for z in rec[1:4]), s


@pytest.mark.parametrize("spec, s", [("Q", 1e-4), ("Q", 1 + 1e-4j), ("Fq(T)?q=5", complex(1.0, 3 * PERIOD_5) + 2e-4),
                                     ("Fq(T)?q=5", complex(0.0, -PERIOD_5))])
def test_check_point_skips_what_completed_zeta_refuses(spec, s):
    assert check_point(parse_field_spec(spec), s, 1e-9).status == "near_pole_skipped"


def test_threads_share_the_evaluation_caches():
    # Four threads evaluate the same fields and points in the same order
    # with a short switch interval, so the per-s weights, the characters
    # and the Riemann zeta's log table are read and replaced under each
    # other's calls.  Every value must equal the one computed alone, bit
    # for bit.  A smoke test: the race windows are a few bytecodes wide,
    # so a racy cache can pass it; the weights stay safe by construction
    # (one tuple of key and weights, read once and replaced whole).
    import threading

    steps = [(parse_field_spec(spec), s) for spec, s in (
        ("Q", 0.5 + 14j), ("Q(sqrt=5)", 0.2 + 3j), ("Q(sqrt=-131)", 0.7 + 40j),
        ("Q(sqrt=-1)", -1.003 + 0j), ("Q", 0.9 - 33j), ("Q(sqrt=-3)", 0.5 + 0j),
    )]
    alone = [completed_zeta(field, s).completed_value for field, s in steps]
    results, errors = [], []

    def worker():
        try:
            for k in range(24):
                i = k % len(steps)
                results.append((i, completed_zeta(*steps[i]).completed_value))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert len(results) == 96
    assert all((v.real.hex(), v.imag.hex()) == (alone[i].real.hex(), alone[i].imag.hex()) for i, v in results)
