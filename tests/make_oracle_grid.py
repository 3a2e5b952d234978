"""Write tests/oracle_grid.json: L(s, chi_D), zeta(s) and the deflated zeta_k
at fixed points, each with an independent oracle value and the error a
reference kernel makes there.

    python3 tests/make_oracle_grid.py [--src DIR] [--jobs N] [--out PATH]

The oracle values do not use the package:

* l1: L(1, chi_D) from the finite closed forms
  -pi |D|^(-3/2) sum_{a<|D|} a chi(a) for D < 0 and
  -D^(-1/2) sum_{a<D} chi(a) log sin(pi a / D) for D > 0, in mpmath;
* negint: L(-n, chi_D) = -B_{n+1,chi}/(n+1) exactly (oracles.py), for
  n = 0..5 of the parity where it does not vanish;
* strip: |D|^-s sum_r chi(r) zeta_H(s, r/|D|) in mpmath at 30 digits
  (mpmath's dirichlet(s, chi) sum), on a fixed strip grid, at every
  L-value that the golden sweeps of tests/test_cli.py ask for (s and
  1 - s at each node), and for every fundamental D with |D| <= 40, the
  paper's own fields, at Re s in {0.1, 0.3, 0.5, 0.7, 0.9} with a seeded
  spread of Im s in [0, 50], and at seeded (D, s) with 16 <= phi(|D|) <= 72,
  the moduli that can take either moment head or the per-class sums on the
  strip, at Re s in [0.01, 0.99] and 1 <= |Im s| <= 1000.  Values at
  Im s < 0 are the conjugates of those at conj(s): chi_D is real;
* zeta: the Riemann zeta (stored with D = 1) by mpmath.zeta at 30
  digits, at the nodes of the golden number-field sweeps (s and 1 - s),
  on Re s in [-10, 0) off the integers with |Im s| <= 50, and at offsets
  1e-6 to 1e-2 from the negative integers -1 .. -8;
* cliff: zeta_k(s) / (s - m)^r for the number field of discriminant D
  (Q for D = 1), m a negative integer where r trivial zeros of zeta_k
  cancel Gamma poles, at offsets s - m up to 1e-2 (inside
  GAMMA_CANCEL_RADIUS).  Each L-factor that vanishes at m is divided by
  (s - m) in mpmath at 50 digits, so the cancellation in its sum costs
  nothing at 30; at s = m the quotient is its derivative there;
* gamma: log Gamma(z) by mpmath.loggamma at 30 digits (the branch
  continuous on the plane cut along (-inf, 0], boundary values from
  above; z with Im z = -0.0 takes the conjugate of its twin's), at every
  argument that the Gamma factors of the number fields of
  tests/test_zeta.py's PIN_DIGESTS pass to the kernel's log Gamma at
  PIN_POINTS, at every one that tests/test_cli.py's GOLDEN_COMMANDS and
  the acceptance box's sweeps (tests/test_acceptance.py) pass, and on a
  grid with Re z in [-30, 30] and |Im z| <= 60.  These points are stored
  with D = 0.

Each point also stores ``reference_error``: the relative error of
``dirichlet_l`` (``riemann_zeta`` for zeta points,
``completed_zeta(field, s).zeta_value`` for cliff points; for gamma
points the absolute error of ``kernel._log_gamma_impl``, which is the
relative error of Gamma(z) and shows a wrong branch as a multiple of
2 pi) imported from ``--src`` (default: this checkout's src/).  Run it
against the commit whose errors the gate should hold later changes to;
tests/test_oracle_grid.py holds the current kernel's error at each point
to a multiple of reference_error or kappa, by a rule per kind (see its
docstring).  A point already in
``--out`` keeps its value and reference_error, so a grid extended later
records only its new points against ``--src``; ``--fresh`` recomputes
every point, and ``--rerecord KIND`` records reference_error again at the
points of KIND already in ``--out``, their values kept.  Needs mpmath;
the strip points take 0.5-8 s each, so use --jobs 2 or more.

``--rerecord negint`` was run once the shift count came from the
remainder bound: the kernel before it left L(-n, chi_D) up to nine
digits farther off (L(-3, chi_376) 3.2e-9, exact since), and a reference
error that large lets a regression of as many digits pass.
"""

from __future__ import annotations

import argparse
import cmath
import importlib
import json
import math
import os
import random
import sys
from multiprocessing import Pool

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402

DPS = 30

# every fundamental discriminant 1 < |D| <= 500, plus a spread up to 4000
SMALL_LIMIT = 500
SPREAD = (-3999, -3851, -3299, -2995, -2351, -1999, -1299, -1003, -763,
          761, 997, 1001, 1297, 1753, 2005, 3001, 3469, 3997)

STRIP_DISCRIMINANTS = (-163, 173, 997, 1001, -1299, -2351)
STRIP_RE = (0.1, 0.5, 0.9, 2.5)
STRIP_IM = (0.0, 14.0, 33.0, 48.0)
# the paper's box for its own fields, |D| <= 40: SMALL_STRIP_PER_RE values
# of Im s in [0, 50] per (D, Re s), drawn from random.Random(SMALL_STRIP_SEED)
SMALL_STRIP_LIMIT = 40
SMALL_STRIP_RE = (0.1, 0.3, 0.5, 0.7, 0.9)
SMALL_STRIP_PER_RE = 4
SMALL_STRIP_SEED = 22
# MID_STRIP_COUNT seeded (D, s) on the rest of the strip for every
# fundamental D with phi(|D|) in MID_STRIP_PHI, from random.Random(MID_STRIP_SEED)
MID_STRIP_PHI = (16, 72)
MID_STRIP_COUNT = 200
MID_STRIP_SEED = 23

# the golden sweeps whose L-values go through the moment path: the field's
# D, the re axis and the im axis as (lo, hi, steps)
GOLDEN_SWEEPS = (
    (-163, (0.1, 0.9, 5), (0.0, 10.0, 5)),
    (-1299, (0.1, 0.9, 4), (0.0, 33.0, 3)),
    (1001, (0.1, 0.9, 3), (0.0, 48.0, 4)),
)
# every golden sweep of a number field evaluates zeta at its nodes
ZETA_SWEEPS = GOLDEN_SWEEPS + ((1, (-5.0, -3.0, 5), (0.0, 0.0, 1)),)
ZETA_LEFT_RE = (-9.5, -8.75, -7.3, -6.5, -5.2, -4.5, -3.7, -2.5, -1.5, -0.8, -0.25)
ZETA_LEFT_IM = (0.0, 3.0, -7.5, 14.0, -22.0, 30.0, 50.0)
ZETA_OFFSETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
ZETA_DIRECTIONS = (1.0, -1.0, cmath.rect(1.0, math.pi / 3.0))
# (D, lowest cancelled pole) of the cliff fields: Q, Q(sqrt -1), Q(sqrt -3),
# Q(sqrt 5), Q(sqrt 2), Q(sqrt -7) and Q(sqrt -163), the last on the moment path
CLIFF_FIELDS = ((1, -8), (-4, -4), (-3, -4), (5, -6), (8, -6), (-7, -4), (-163, -4))
CLIFF_OFFSETS = (0.0, 1e-7, -3e-6, 1e-5, -3e-5, 1e-4, 1e-3, -5e-3, 9.9e-3,
                 2e-6j, 0.004j, -0.004j, cmath.rect(0.007, math.pi / 3.0))
CLIFF_DPS = 50
# the gamma kind's regular grid: Re z off the poles, both signs of Im z
GAMMA_RE = tuple(-29.75 + 1.5 * k for k in range(40))
GAMMA_IM = (0.0, 0.5, -2.0, 7.0, -16.0, 33.0, -60.0, 60.0)


def _squarefree(n: int) -> bool:
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def fundamental(D: int) -> bool:
    if D % 4 == 1:
        return _squarefree(D)
    if D % 4 == 0:
        return (D // 4) % 4 in (2, 3) and _squarefree(D // 4)
    return False


def _axis(lo: float, hi: float, steps: int) -> list[float]:
    # the sweep's own node layout: lo + k * step
    if steps == 1:
        return [lo]
    step = (hi - lo) / (steps - 1)
    return [lo + k * step for k in range(steps)]


def l1_value(D: int) -> complex:
    mpmath.mp.dps = DPS
    f = abs(D)
    if D < 0:
        total = sum(a * oracles.euler_kronecker(D, a) for a in range(1, f))
        return complex(-mpmath.pi * mpmath.mpf(f) ** mpmath.mpf(-1.5) * total)
    total = mpmath.fsum(
        oracles.euler_kronecker(D, a) * mpmath.log(mpmath.sin(mpmath.pi * a / f))
        for a in range(1, f)
    )
    return complex(-total / mpmath.sqrt(f))


def strip_value(job: tuple[int, complex]) -> complex:
    D, s = job
    mpmath.mp.dps = DPS
    f = abs(D)
    flip = s.imag < 0
    z = mpmath.mpc(s.real, -s.imag if flip else s.imag)
    total = mpmath.fsum(
        c * mpmath.zeta(z, mpmath.mpf(r) / f)
        for r in range(1, f)
        for c in (oracles.euler_kronecker(D, r),)
        if c
    )
    value = complex(mpmath.power(f, -z) * total)
    return value.conjugate() if flip else value


def zeta_value(s: complex) -> complex:
    mpmath.mp.dps = DPS
    return complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))


def cancelled_poles(D: int, lowest: int) -> list[int]:
    # a real field's Gamma poles are the even m, an imaginary one's every m
    return list(range(-1 if D < 0 else -2, lowest - 1, -1 if D < 0 else -2))


def _l_over_zero(D: int, s: complex, m: int):
    # L(s, chi_D), or L(s, chi_D) / (s - m) where it has a trivial zero at m
    # (D = 1: the Riemann zeta, zero at even m; D < 0 at odd m, D > 0 at even m)
    z = mpmath.mpc(s.real, s.imag)
    f = abs(D)
    terms = [(1, mpmath.mpf(1))] if D == 1 else [
        (c, mpmath.mpf(r) / f) for r in range(1, f) for c in (oracles.euler_kronecker(D, r),) if c
    ]
    if m % 2 != int(D < 0):
        return mpmath.power(f, -z) * mpmath.fsum(c * mpmath.zeta(z, a) for c, a in terms)
    h = z - m
    if h:
        return mpmath.power(f, -z) * mpmath.fsum(c * mpmath.zeta(z, a) for c, a in terms) / h
    # the derivative of f^-s sum c zeta_H(s, a) at its zero: the sum vanishes
    return mpmath.power(f, -m) * mpmath.fsum(c * mpmath.zeta(m, a, 1) for c, a in terms)


def cliff_value(job: tuple[int, complex]) -> complex:
    D, s = job
    mpmath.mp.dps = CLIFF_DPS
    m = round(s.real)
    value = _l_over_zero(1, s, m)
    if D != 1:
        value *= _l_over_zero(D, s, m)
    return complex(value)


def gamma_value(z: complex) -> complex:
    mpmath.mp.dps = DPS
    if math.copysign(1.0, z.imag) < 0.0:
        return gamma_value(z.conjugate()).conjugate()
    return complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))


def gamma_arguments() -> list[complex]:
    # Every z that globalzeta.zeta passes to the kernel's log Gamma on the
    # pins, the golden commands and the acceptance box, then the regular grid
    from globalzeta import completed_zeta, parse_field_spec, sweep
    from globalzeta.cli import parse_and_dispatch
    from test_acceptance import STANDARD_GRID
    from test_cli import GOLDEN_COMMANDS
    from test_zeta import PIN_DIGESTS, PIN_POINTS

    zeta = importlib.import_module("globalzeta.zeta")
    seen = []
    inner = zeta._log_gamma_impl

    def record(z: complex) -> complex:
        seen.append(z)
        return inner(z)

    zeta._log_gamma_impl = record
    try:
        for spec in PIN_DIGESTS:
            if spec.startswith("Q"):
                field = parse_field_spec(spec)
                for s in PIN_POINTS:
                    completed_zeta(field, s)
        for name, field, *rest in GOLDEN_COMMANDS:
            parse_and_dispatch([name, "--field", field, *rest])
        for spec in ("Q", "Q(sqrt=-1)", "Q(sqrt=-3)", "Q(sqrt=5)", "Q(sqrt=2)"):
            field = parse_field_spec(spec)
            sweep(field, STANDARD_GRID, 1e-9)
            for s in (2.0, -1.0):
                completed_zeta(field, s)
    finally:
        zeta._log_gamma_impl = inner
    seen += [complex(x, y) for x in GAMMA_RE for y in GAMMA_IM]
    return sorted(set(seen), key=lambda z: (z.real, z.imag))


def grid_points() -> list[tuple[str, int, complex]]:
    small = [D for n in range(2, SMALL_LIMIT + 1) for D in (-n, n) if fundamental(D)]
    l1_set = sorted(set(small) | set(SPREAD) | set(STRIP_DISCRIMINANTS), key=lambda d: (abs(d), d))
    points = [("l1", D, complex(1.0)) for D in l1_set]
    for D in l1_set:
        for n in range(6):
            # L(-n, chi_D) vanishes unless chi_D(-1) = (-1)^(n+1)
            if (n % 2 == 0) == (D < 0):
                points.append(("negint", D, complex(-n)))
    seen = set()
    for D in STRIP_DISCRIMINANTS:
        for x in STRIP_RE:
            for y in STRIP_IM:
                for t in {y, -y}:
                    seen.add((D, complex(x, t)))
    for D, re_axis, im_axis in GOLDEN_SWEEPS:
        for x in _axis(*re_axis):
            for y in _axis(*im_axis):
                s = complex(x, y)
                seen.update({(D, s), (D, 1.0 - s)})
    rng = random.Random(SMALL_STRIP_SEED)
    for D in sorted((D for D in small if abs(D) <= SMALL_STRIP_LIMIT), key=lambda d: (abs(d), d)):
        for x in SMALL_STRIP_RE:
            seen.update((D, complex(x, round(rng.uniform(0.0, 50.0), 2))) for _ in range(SMALL_STRIP_PER_RE))
    rng = random.Random(MID_STRIP_SEED)
    # phi(n) > 72 for every n > 270
    mid = [D for n in range(3, 1000) for D in (-n, n) if fundamental(D)
           and MID_STRIP_PHI[0] <= sum(math.gcd(r, n) == 1 for r in range(n)) <= MID_STRIP_PHI[1]]
    for _ in range(MID_STRIP_COUNT):
        y = round(10 ** rng.uniform(0.0, 3.0), 2)
        seen.add((rng.choice(mid), complex(round(rng.uniform(0.01, 0.99), 2), rng.choice((y, -y)))))
    points += [("strip", D, s) for D, s in sorted(seen, key=lambda p: (abs(p[0]), p[0], p[1].real, p[1].imag))]
    zeros = set()
    for _, re_axis, im_axis in ZETA_SWEEPS:
        for x in _axis(*re_axis):
            for y in _axis(*im_axis):
                zeros.update({complex(x, y), 1.0 - complex(x, y)})
    zeros.update(complex(x, y) for x in ZETA_LEFT_RE for y in ZETA_LEFT_IM)
    zeros.update(m + r * u for m in range(-1, -9, -1) for r in ZETA_OFFSETS for u in ZETA_DIRECTIONS)
    # zeta vanishes at the even negative integers, where no relative error exists
    zeros = {s for s in zeros if not (s.imag == 0 and s.real.is_integer() and s.real < 0 and s.real % 2 == 0)}
    points += [("zeta", 1, s) for s in sorted(zeros, key=lambda s: (s.real, s.imag))]
    points += [("cliff", D, m + h) for D, lowest in CLIFF_FIELDS for m in cancelled_poles(D, lowest)
               for h in CLIFF_OFFSETS]
    return points


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(HERE, os.pardir, "src"))
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--out", default=os.path.join(HERE, "oracle_grid.json"))
    parser.add_argument("--fresh", action="store_true", help="recompute the points already in --out")
    parser.add_argument("--rerecord", action="append", default=[], metavar="KIND",
                        help="record reference_error again at the points of KIND already in --out")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from globalzeta import (KroneckerCharacter, completed_zeta, dirichlet_l, make_quadratic, make_rationals,
                            riemann_zeta)
    from globalzeta.kernel import _log_gamma_impl

    kept = {}
    if not args.fresh and os.path.exists(args.out):
        with open(args.out) as fh:
            kept = {(row["kind"], row["D"], *row["s"]): row for row in json.load(fh)["points"]}
    if args.rerecord and not kept:
        parser.error(f"--rerecord needs the points of {args.out}, which --fresh or a missing file drops")
    points = grid_points() + [("gamma", 0, z) for z in gamma_arguments()]
    for D in {D for kind, D, _ in points if kind != "gamma"}:
        KroneckerCharacter(D)  # every D is fundamental, before any long work
    def jobs(kind: str) -> list[tuple[int, complex]]:
        return [(D, s) for k, D, s in points if k == kind and (k, D, s.real, s.imag) not in kept]

    with Pool(args.jobs) as pool:
        strip_values = iter(pool.map(strip_value, jobs("strip"), chunksize=1))
        cliff_values = iter(pool.map(cliff_value, jobs("cliff"), chunksize=4))
    rows = []
    for kind, D, s in points:
        row = kept.get((kind, D, s.real, s.imag))
        if row is not None and kind not in args.rerecord:
            rows.append(row)
            continue
        if row is not None:
            value = complex(*row["value"])
        elif kind == "l1":
            value = l1_value(D)
        elif kind == "negint":
            value = complex(float(oracles.l_at_negative(int(-s.real), D)))
        elif kind == "zeta":
            value = zeta_value(s)
        elif kind == "cliff":
            value = next(cliff_values)
        elif kind == "gamma":
            value = gamma_value(s)
        else:
            value = next(strip_values)
        if kind == "cliff":
            field = make_rationals() if D == 1 else make_quadratic(D // 4 if D % 4 == 0 else D)
            computed = completed_zeta(field, s).zeta_value
        elif kind == "gamma":
            computed = _log_gamma_impl(s)
        else:
            computed = riemann_zeta(s) if kind == "zeta" else dirichlet_l(s, KroneckerCharacter(D))
        rows.append({
            "kind": kind,
            "D": D,
            "s": [s.real, s.imag],
            "value": [value.real, value.imag],
            "reference_error": abs(computed - value) / (1.0 if kind == "gamma" else abs(value)),
        })
    with open(args.out, "w") as fh:
        fh.write('{"dps": %d, "points": [\n' % DPS)
        fh.write(",\n".join(json.dumps(row) for row in rows))
        fh.write("\n]}\n")
    print(f"{len(rows)} points written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
