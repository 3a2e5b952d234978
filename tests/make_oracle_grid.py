"""Write tests/oracle_grid.json: L(s, chi_D) at fixed points, each with an
independent oracle value and the error a reference kernel makes there.

    python3 tests/make_oracle_grid.py [--src DIR] [--jobs N] [--out PATH]

The oracle values do not use the package:

* l1: L(1, chi_D) from the finite closed forms
  -pi |D|^(-3/2) sum_{a<|D|} a chi(a) for D < 0 and
  -D^(-1/2) sum_{a<D} chi(a) log sin(pi a / D) for D > 0, in mpmath;
* negint: L(-n, chi_D) = -B_{n+1,chi}/(n+1) exactly (oracles.py), for
  n = 0..5 of the parity where it does not vanish;
* strip: |D|^-s sum_r chi(r) zeta_H(s, r/|D|) in mpmath at 30 digits,
  on a fixed strip grid and at every L-value that the golden sweeps
  of tests/test_cli.py ask for (s and 1 - s at each node).  Values at
  Im s < 0 are the conjugates of those at conj(s): chi_D is real.

Each point also stores ``reference_error``: the relative error of
``dirichlet_l`` imported from ``--src`` (default: this checkout's src/).
Run it against the commit whose errors the gate should hold later
changes to; tests/test_oracle_grid.py asserts that the current kernel's
error is at most max(reference_error, kappa) at every point.  Needs
mpmath; the strip points take 0.5-8 s each, so use --jobs 2 or more.
"""

from __future__ import annotations

import argparse
import json
import math
import os
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

# the golden sweeps whose L-values go through the moment path: the field's
# D, the re axis and the im axis as (lo, hi, steps)
GOLDEN_SWEEPS = (
    (-163, (0.1, 0.9, 5), (0.0, 10.0, 5)),
    (-1299, (0.1, 0.9, 4), (0.0, 33.0, 3)),
    (1001, (0.1, 0.9, 3), (0.0, 48.0, 4)),
)


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
    points += [("strip", D, s) for D, s in sorted(seen, key=lambda p: (abs(p[0]), p[0], p[1].real, p[1].imag))]
    return points


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(HERE, os.pardir, "src"))
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--out", default=os.path.join(HERE, "oracle_grid.json"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from globalzeta import KroneckerCharacter, dirichlet_l

    points = grid_points()
    for D in {D for _, D, _ in points}:
        KroneckerCharacter(D)  # every D is fundamental, before any long work
    strip_jobs = [(D, s) for kind, D, s in points if kind == "strip"]
    with Pool(args.jobs) as pool:
        strip_values = iter(pool.map(strip_value, strip_jobs, chunksize=1))
    rows = []
    for kind, D, s in points:
        if kind == "l1":
            value = l1_value(D)
        elif kind == "negint":
            value = complex(float(oracles.l_at_negative(int(-s.real), D)))
        else:
            value = next(strip_values)
        computed = dirichlet_l(s, KroneckerCharacter(D))
        rows.append({
            "kind": kind,
            "D": D,
            "s": [s.real, s.imag],
            "value": [value.real, value.imag],
            "reference_error": abs(computed - value) / abs(value),
        })
    with open(args.out, "w") as fh:
        fh.write('{"dps": %d, "points": [\n' % DPS)
        fh.write(",\n".join(json.dumps(row) for row in rows))
        fh.write("\n]}\n")
    print(f"{len(rows)} points written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
