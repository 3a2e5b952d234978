"""The oracle grid: L(s, chi_D) and zeta(s) against independent oracle values.

tests/oracle_grid.json holds each point's oracle value and the relative
error a reference kernel made there (see make_oracle_grid.py, which
wrote it).  The kernel must stay within max(reference error, kappa),
kappa = 2^-50 (1 + |s| log|D|) being the relative error that rounding
log|D| alone puts into |D|^-s.

The zeta points (stored with D = 1, where that kappa is 2^-50) are held
to max(2 reference error, 2^-50 (1 + |s|)) each, and to a geometric mean
of error / reference error of at most 1.  Their errors on and near the
strip are the rounding of the sum's parts, and a different shift count
moves it by up to that much at a fixed s: zeta(0.1 + 32i) is 1.3e-15 off
at the reference kernel's N = 33 and 3e-15 to 8.5e-15 off at every N
from 19 to 32.  Left of the strip the rounding grows with the parts,
(a + N)^-Re(s): zeta(-5.01) is 1.7e-9 off at N = 20 and 2.6e-9 to 1.5e-5
at every other N up to 21.

The cliff points, zeta_k(s) / (s - m)^r near the cancelled Gamma poles m
of seven fields, are the deflated zeta_value of completed_zeta.  Each is
held to max(4 reference error, kappa), their geometric mean of error /
reference error to at most 0.01, and the worst error around each (field,
m) to a hundredth of the reference kernel's there: that kernel divided
the computed zeta_k(s) by (s - m), or took finite-difference derivatives
at m, and lost up to 6.2e-4 relative (Q at m = -8) to the cancellation.

The gamma points are log Gamma(z) (stored with D = 0), and their error is
the absolute error of the log, i.e. the relative error of Gamma(z).  Each
is held to max(reference error, gamma_kappa(z)): one unit in the last
place, 2^-52 relative, of each part that the evaluation adds.  Those are
the parts of Stirling's series at w = v + n, (w - 1/2) log w and w, the
logs of the shift factors v + j, j < n, and, where Re z < 1/2 takes
v = 1 - z by reflection, log pi, log 2 - i pi/2, pi |z| and
log(1 - e^(2 pi i z)) with the phase rounding 2 pi |z| |q / (1 - q)|,
q = e^(2 pi i z), that the last carries near the poles.  n is the even shift count of
kernel.log_gamma (pairs of factors until |w| >= 8).  The reference kernel,
a 15-term Lanczos fit, made errors of at most 0.85 times that kappa at
these points.
"""

import cmath
import json
import math
import os
from functools import lru_cache

import pytest

from globalzeta import KroneckerCharacter, completed_zeta, dirichlet_l, make_quadratic, make_rationals, riemann_zeta
from globalzeta import arith, kernel
from globalzeta.kernel import _log_gamma_impl

with open(os.path.join(os.path.dirname(__file__), "oracle_grid.json")) as fh:
    POINTS = json.load(fh)["points"]

KINDS = ("l1", "negint", "strip")


def kappa(s: complex, D: int) -> float:
    return 2.0**-50 * (1.0 + abs(s) * math.log(abs(D)))


@lru_cache(maxsize=None)
def evaluated(kind: str) -> list:
    # (point, s, D, relative error, taken by the moment path) per point
    out = []
    for point in POINTS:
        if point["kind"] == kind:
            s, D = complex(*point["s"]), point["D"]
            value = complex(*point["value"])
            error = abs(dirichlet_l(s, KroneckerCharacter(D)) - value) / abs(value)
            plan = kernel._moment_plan(s, arith._totient(abs(D)), kernel._em_weights(s)[0])
            out.append((point, s, D, error, plan is not None))
    return out


def gamma_kappa(z: complex) -> float:
    z = complex(z.real, abs(z.imag))
    reflected = z.real < 0.5
    w = 1.0 - z if reflected else z
    parts = 0.0
    while abs(w) < 8.0:
        parts += abs(cmath.log(w)) + abs(cmath.log(w + 1.0))
        w += 2.0
    parts += abs((w - 0.5) * cmath.log(w)) + abs(w)
    if reflected:
        q = cmath.exp(2j * math.pi * z)
        parts += math.log(math.pi) + abs(complex(math.log(2.0), -0.5 * math.pi)) + math.pi * abs(z)
        parts += abs(cmath.log(1.0 - q)) + 2.0 * math.pi * abs(z * q / (1.0 - q))
    return 2.0**-52 * parts


def test_grid_covers_each_kind():
    counts = {kind: sum(p["kind"] == kind for p in POINTS) for kind in (*KINDS, "zeta", "cliff", "gamma")}
    assert counts["l1"] >= 300 and counts["negint"] >= 900 and counts["strip"] >= 200 and counts["zeta"] >= 250
    assert counts["cliff"] >= 300 and counts["gamma"] >= 500
    assert min(p["D"] for p in POINTS) <= -3999 and max(p["D"] for p in POINTS) >= 3997


@pytest.mark.parametrize("kind", KINDS)
def test_no_worse_than_reference(kind):
    worse = [
        (D, s, error, point["reference_error"])
        for point, s, D, error, _ in evaluated(kind)
        if not error <= max(point["reference_error"], kappa(s, D))
    ]
    assert worse == []


def test_zeta_no_worse_than_reference():
    worse, log_ratios = [], []
    for point in POINTS:
        if point["kind"] == "zeta":
            s, value, reference = complex(*point["s"]), complex(*point["value"]), point["reference_error"]
            error = abs(riemann_zeta(s) - value) / abs(value)
            if not error <= max(2.0 * reference, 2.0**-50 * (1.0 + abs(s))):
                worse.append((s, error, reference))
            log_ratios.append(math.log(max(error, 2.0**-53) / max(reference, 2.0**-53)))
    assert worse == []
    assert sum(log_ratios) <= 0.0


def test_kernel_meets_documented_accuracy():
    # the kernel's claim, an error of at most 1e-12 max(1, |value|) on
    # Re s >= 0, |s| <= 50, at every value of L(s, chi_D) and zeta(s) on
    # the grid in that domain
    misses, count = [], 0
    for point in POINTS:
        s, D = complex(*point["s"]), point["D"]
        if point["kind"] in (*KINDS, "zeta") and s.real >= 0.0 and abs(s) <= 50.0:
            value = complex(*point["value"])
            got = riemann_zeta(s) if point["kind"] == "zeta" else dirichlet_l(s, KroneckerCharacter(D))
            count += 1
            if not abs(got - value) <= 1e-12 * max(1.0, abs(value)):
                misses.append((D, s))
    assert count >= 1400 and misses == []


@pytest.mark.parametrize("kind", KINDS)
def test_moment_path_meets_documented_accuracy(kind):
    # 1e-12 relative, tighter than the kernel's claim, on Re s >= 0,
    # |s| <= 50 at every grid point that the moment path evaluates, and
    # finite values elsewhere
    moment = [(s, D, error) for _, s, D, error, on_moment in evaluated(kind) if on_moment]
    assert len(moment) >= 200
    assert all(math.isfinite(error) for _, _, error in moment)
    assert [(D, s, e) for s, D, e in moment if s.real >= 0 and abs(s) <= 50 and e > 1e-12] == []


def test_cliff_points_beat_the_reference():
    worse, log_ratios, worst = [], [], {}
    for point in POINTS:
        if point["kind"] == "cliff":
            s, D, reference = complex(*point["s"]), point["D"], point["reference_error"]
            field = make_rationals() if D == 1 else make_quadratic(D // 4 if D % 4 == 0 else D)
            value = complex(*point["value"])
            error = abs(completed_zeta(field, s).zeta_value - value) / abs(value)
            if not error <= max(4.0 * reference, kappa(s, D)):
                worse.append((D, s, error, reference))
            log_ratios.append(math.log(max(error, 2.0**-53) / max(reference, 2.0**-53)))
            errors, references = worst.setdefault((D, round(s.real)), ([], []))
            errors.append(error)
            references.append(reference)
    assert worse == []
    assert math.exp(sum(log_ratios) / len(log_ratios)) <= 0.01
    assert [key for key, (e, r) in worst.items() if not max(e) <= max(r) / 100.0] == []


def test_gamma_no_worse_than_reference():
    worse = []
    for point in POINTS:
        if point["kind"] == "gamma":
            z, value, reference = complex(*point["s"]), complex(*point["value"]), point["reference_error"]
            error = abs(_log_gamma_impl(z) - value)
            if not error <= max(reference, gamma_kappa(z)):
                worse.append((z, error, reference))
    assert worse == []
