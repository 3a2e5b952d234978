"""How fast the shared machine runs right now, to scale request times by.

The benchmark runs on a few vCPUs of a shared host whose speed flips
between a fast and a slow state (about 2x apart) for seconds to
minutes, and the share of time spent slow differs from run to run, so
raw wall times of two runs of the same code can differ by a third.  A
fixed stdlib kernel, timed in the process that waits for a request
just before and just after it, tracks those states: request time
scaled by ``REFERENCE_MS`` over the mean of the two kernel times is the
request's time at the reference speed.  The kernel uses no code of the
package, so a change to the package cannot change it.
"""

from __future__ import annotations

import cmath
import math
import time

#: Kernel time, in ms, on the 2-vCPU x86-64 host the benchmark was tuned
#: on, in its fast state; scaled times read as wall times there.
REFERENCE_MS = 3.2

_CLASSES = 400
_TERMS = 20


def _power(s: complex, x: float) -> complex:
    return cmath.exp(-s * math.log(x))


def kernel_ms() -> float:
    """Wall time of one fixed sum of Hurwitz-style partial sums, in ms.

    It has the shape of the package's hot loop (a call per term, lists
    of parts, ``math.fsum``), because a kernel of bare complex
    arithmetic slowed more than the package did when the host was busy.
    """
    s = complex(0.5, 14.134725)
    total = 0j
    start = time.perf_counter()
    for r in range(1, _CLASSES + 1):
        a = r / _CLASSES
        re_parts, im_parts = [], []
        for n in range(_TERMS):
            t = _power(s, a + n)
            re_parts.append(t.real)
            im_parts.append(t.imag)
        total += complex(math.fsum(re_parts), math.fsum(im_parts))
    ms = (time.perf_counter() - start) * 1e3
    if not cmath.isfinite(total):
        raise ArithmeticError("the calibration kernel did not return a finite sum")
    return ms


def scale(ms: float, before: float, after: float) -> float:
    """``ms`` at the reference speed, given kernel times just before and after it."""
    return ms * 2.0 * REFERENCE_MS / (before + after)
