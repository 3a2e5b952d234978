"""Seeded request generators for the benchmark workloads.

A workload is an endless sequence of blocks.  Block ``index`` of
workload ``name`` under ``seed`` is always the same list of requests,
so the process that runs the requests and the process that checks them
can each rebuild it.  Every block of a workload has the same design
(which fields, grid shapes and request kinds it holds); the seed draws
the values inside that design.  A run therefore holds whole blocks of
one fixed cost mix, whatever the seed.

A request is a dict: ``argv`` (the CLI arguments), ``kind`` (sweep,
eval, places or euler), ``D`` (discriminant, 1 for Q) or ``q`` (for
GF(q)(T)), ``fmt``, and the parameters the checks need.
"""

from __future__ import annotations

import random

from reference import discriminant, is_squarefree, totient

NAMES = ("strip-small-disc", "strip-large-disc", "outside-box", "exact-cold")

#: The workload whose requests are fresh ``python -m globalzeta.cli`` processes.
COLD = "exact-cold"

#: The percentile req_tail_ms reports: the highest of p99/p95/p90/p85/p75
#: that leaves at least ten requests beyond it in a 30 s run at the seed
#: commit.  It is fixed, so runs of different lengths report the same
#: percentile.  On strip-large-disc, whose blocks hold one request from
#: each of nine cost classes, p85 lies inside the eighth class, away from
#: a class boundary, where one slow request would move it.
TAIL_PERCENTILE = {"strip-small-disc": 95.0, "strip-large-disc": 85.0,
                   "outside-box": 99.0, "exact-cold": 75.0}

TOL = 1e-9

#: Fq(T) constant fields and the largest place degree with q^d <= ~7k.
FQ_DEGREES = {2: 12, 3: 8, 4: 6, 5: 5, 7: 4, 8: 4, 9: 4}
FQ_BOUND_CAP = 7200

#: Log-spaced |D| levels of the strip-large-disc pool, the grid shape
#: (re steps, im steps) each level gets, and the ninth of [10, 50] its
#: Im extent T is drawn from.  Nine levels put the median request in the
#: middle of a cost class, not on the boundary between two.
LARGE_LEVELS = (126, 189, 283, 423, 634, 949, 1421, 2128, 3182)
LARGE_SHAPES = ((5, 5), (5, 4), (4, 4), (4, 4), (4, 3), (3, 4), (3, 3), (3, 3), (3, 3))
LARGE_T_NINTHS = (8, 3, 6, 1, 5, 0, 7, 2, 4)


def _quadratic_ds(lo: int, hi: int) -> list[int]:
    """Squarefree d (not 0, 1) with lo <= |disc Q(sqrt d)| <= hi, ascending d."""
    return [
        d
        for d in range(-hi, hi + 1)
        if d not in (0, 1) and is_squarefree(d) and lo <= abs(discriminant(d)) <= hi
    ]


SMALL_DS = tuple(_quadratic_ds(3, 40))


def _number_field(d: int | None) -> dict:
    """Q for d None, else Q(sqrt d): its discriminant and CLI spec."""
    if d is None:
        return {"D": 1, "spec": "Q"}
    return {"D": discriminant(d), "spec": f"Q(sqrt={d})"}


def _function_field(q: int) -> dict:
    return {"q": q, "spec": f"Fq(T)?q={q}"}


def _large_pool(seed: int) -> list[int]:
    # One field per level.  An L-value costs one Hurwitz sum per class
    # coprime to D, so the seed picks among the six fields near the level
    # whose count of such classes is nearest 0.6 * level: the pool's cost
    # is then the same for every seed.
    rng = random.Random(f"strip-large-disc/{seed}/pool")
    pool = []
    for level in LARGE_LEVELS:
        near = _quadratic_ds(int(level * 0.8), int(level * 1.25))
        near.sort(key=lambda d: (abs(totient(abs(discriminant(d))) - 0.6 * level), d))
        pool.append(rng.choice(near[:6]))
    return pool


def fields(name: str, seed: int) -> list[str]:
    """Field specs a workload uses; set-up builds their descriptors."""
    if name == "strip-large-disc":
        return [_number_field(d)["spec"] for d in _large_pool(seed)]
    specs = [_number_field(d)["spec"] for d in (None, *SMALL_DS)]
    if name == COLD:
        specs += [_function_field(q)["spec"] for q in FQ_DEGREES]
    return specs


def _num(x: float) -> str:
    return repr(x) if x != int(x) else str(int(x))


def _sweep(field: dict, grid: tuple, fmt: str) -> dict:
    re_min, re_max, re_steps, im_min, im_max, im_steps = grid
    text = f"{_num(re_min)}:{_num(re_max)}:{re_steps},{_num(im_min)}:{_num(im_max)}:{im_steps}"
    return {
        **field,
        "kind": "sweep",
        "fmt": fmt,
        "grid": grid,
        "tol": TOL,
        "symmetric": grid[0] + grid[1] == 1.0,
        "argv": ["sweep", "--field", field["spec"], f"--grid={text}",
                 f"--tol={TOL!r}", "--format", fmt],
    }


def _strip_grid(rng: random.Random, re_steps: int, im_steps: int, t_max: float) -> tuple:
    # The acceptance shape, Re 0.1..0.9 and Im 0..T; half the grids are
    # cut short on one side, so they are not symmetric about Re = 1/2.
    re_min, re_max = 0.1, 0.9
    if rng.random() < 0.5:
        if rng.random() < 0.5:
            re_max = round(rng.uniform(0.55, 0.85), 3)
        else:
            re_min = round(rng.uniform(0.15, 0.45), 3)
    return (re_min, re_max, re_steps, 0.0, t_max, im_steps)


def _fmt(rng: random.Random) -> str:
    return rng.choice(("json", "csv"))


def _block_strip_small(rng: random.Random, seed: int, index: int) -> list[dict]:
    ds = [None, *SMALL_DS]
    rng.shuffle(ds)
    out = []
    for d in ds:
        grid = _strip_grid(rng, 5, rng.randint(5, 11), round(rng.uniform(10.0, 50.0), 3))
        out.append(_sweep(_number_field(d), grid, _fmt(rng)))
    return out


def _block_strip_large(rng: random.Random, seed: int, index: int) -> list[dict]:
    out = []
    for d, (re_steps, im_steps), ninth in zip(_large_pool(seed), LARGE_SHAPES, LARGE_T_NINTHS):
        t_max = round(10.0 + 40.0 / 9.0 * (ninth + rng.random()), 3)
        grid = _strip_grid(rng, re_steps, im_steps, t_max)
        out.append(_sweep(_number_field(d), grid, _fmt(rng)))
    rng.shuffle(out)
    return out


def _cancelled_poles(D: int) -> list[int]:
    # Gamma poles that a trivial zero cancels: even m for real fields
    # (Q, D > 0), every negative m for imaginary ones.
    return [m for m in range(-1, -7, -1) if D < 0 or m % 2 == 0]


def _eval(field: dict, s: float, fmt: str) -> dict:
    return {
        **field,
        "kind": "eval",
        "fmt": fmt,
        "s": [float(s), 0.0],
        "argv": ["eval", "--field", field["spec"], f"--s={_num(s)}", "--format", fmt],
    }


def _block_outside_box(rng: random.Random, seed: int, index: int) -> list[dict]:
    small = [None, *SMALL_DS]
    real = [d for d in SMALL_DS if d > 0]
    out = []
    for _ in range(2):  # Re s in [-8, 0), |Im s| <= 50
        grid = (round(rng.uniform(-8.0, -4.0), 3), round(rng.uniform(-1.0, -0.1), 3), rng.randint(4, 8),
                round(rng.uniform(-50.0, -10.0), 3), round(rng.uniform(10.0, 50.0), 3), rng.randint(3, 5))
        out.append(_sweep(_number_field(rng.choice(small)), grid, _fmt(rng)))
    for lo, hi, steps in ((2e-3, 9.5e-3, (5, 7, 9, 11)), (2e-6, 9.5e-6, (3, 5, 7))):
        # Real-line grids centred on a cancelled Gamma pole: the deflated
        # zone (|s - m| < 1e-2), then the finite-difference zone (< 1e-5).
        field = _number_field(rng.choice(small))
        m = rng.choice(_cancelled_poles(field["D"]))
        delta = float(format(rng.uniform(lo, hi), ".3g"))
        out.append(_sweep(field, (m - delta, m + delta, rng.choice(steps), 0.0, 0.0, 1), _fmt(rng)))
    for _ in range(2):  # strip nodes high up, |Im s| in [100, 400]
        lo, hi = round(rng.uniform(100.0, 250.0), 3), round(rng.uniform(300.0, 400.0), 3)
        if rng.random() < 0.5:
            lo, hi = -hi, -lo
        out.append(_sweep(_number_field(rng.choice(small)), (0.1, 0.9, 3, lo, hi, rng.randint(3, 4)), _fmt(rng)))
    # Evaluations at points with exact references.
    q_field = _number_field(None)
    out.append(_eval(q_field, -rng.choice((1, 3, 5, 7)), _fmt(rng)))
    out.append(_eval(q_field, 2 * rng.randint(1, 25), _fmt(rng)))
    out.append(_eval(q_field, rng.choice((2, -1)), _fmt(rng)))  # pi/6 anchors
    out.append(_eval(_number_field(-1), rng.choice((2, -1)), _fmt(rng)))  # ratio-8 anchor
    real_field = _number_field(rng.choice(real))
    out.append(_eval(real_field, -rng.choice((1, 3, 5, 7)), _fmt(rng)))
    out.append(_eval(real_field, 2 * rng.randint(1, 10), _fmt(rng)))
    rng.shuffle(out)
    return out


def _fq_bound(rng: random.Random, q: int) -> int:
    d = FQ_DEGREES[q]
    return rng.randint(q ** d, min(q ** (d + 1) - 1, FQ_BOUND_CAP))


def _euler_s(rng: random.Random) -> list[float]:
    sigma = round(rng.uniform(1.5, 4.0), 3)
    return [sigma, 0.0] if rng.random() < 0.5 else [sigma, round(rng.uniform(-20.0, 20.0), 3)]


def _places(field: dict, bound: int, fmt: str) -> dict:
    return {**field, "kind": "places", "fmt": fmt, "bound": bound,
            "argv": ["places", "--field", field["spec"], "--bound", str(bound), "--format", fmt]}


def _euler(field: dict, s: list[float], bound: int, fmt: str) -> dict:
    s_text = _num(s[0]) if s[1] == 0.0 else f"{_num(s[0])},{_num(s[1])}"
    return {**field, "kind": "euler", "fmt": fmt, "bound": bound, "s": s,
            "argv": ["euler-check", "--field", field["spec"], f"--s={s_text}",
                     "--bound", str(bound), "--format", fmt]}


def _block_exact_cold(rng: random.Random, seed: int, index: int) -> list[dict]:
    # Number-field bounds stay within 10% of 1e5, so the count of places,
    # which sets the cost of a request, hardly depends on the seed.
    out = []
    for q in FQ_DEGREES:
        out.append(_places(_function_field(q), _fq_bound(rng, q), _fmt(rng)))
    for d in (None, rng.choice(SMALL_DS), rng.choice(SMALL_DS)):
        out.append(_places(_number_field(d), rng.randint(90_000, 100_000), _fmt(rng)))
    for q in (3, 5):
        out.append(_euler(_function_field(q), _euler_s(rng), _fq_bound(rng, q), _fmt(rng)))
    # Q at s = 2, where the closed form is known exactly; a quadratic field
    # at a drawn point.
    out.append(_euler(_number_field(None), [2.0, 0.0], rng.randint(90_000, 100_000), _fmt(rng)))
    out.append(_euler(_number_field(rng.choice(SMALL_DS)), _euler_s(rng), rng.randint(90_000, 100_000), _fmt(rng)))
    rng.shuffle(out)
    return out


_BLOCKS = {
    "strip-small-disc": _block_strip_small,
    "strip-large-disc": _block_strip_large,
    "outside-box": _block_outside_box,
    "exact-cold": _block_exact_cold,
}


def block(name: str, seed: int, index: int) -> list[dict]:
    """Requests of block ``index``; the same arguments give the same list."""
    return _BLOCKS[name](random.Random(f"{name}/{seed}/{index}"), seed, index)
