"""Checks of each CLI output against the request and independent references.

A request fails when it crashes or exits 2, when its exit code
disagrees with its own statuses, when its output does not parse, when
its row count differs from the grid, when a printed residual or status
differs from the one recomputed from the printed lhs/rhs, when an eval
misses an exact reference by more than the README's tolerance for its
region, or when a place list differs from the necklace count or from
the prime sieve.  Errors where the README states no tolerance go into
``max_rel_err`` only.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import Counter

import reference as ref

POLE_RADIUS = 1e-3  # README: every evaluator refuses points within 1e-3 of a pole
RESIDUAL_FLOOR = 1e-300
STRIP_TOLERANCE = 1e-12  # README: kernel accuracy on Re s >= 0, |s| <= 50
MAX_MESSAGES = 10


class Tally:
    """Outcome of checking a run's requests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.points = 0  # sweep nodes plus eval points
        self.places = 0  # places enumerated
        self.nodes_checked = 0
        self.nodes_failed = 0
        self.max_residual = 0.0
        self.residual_mismatches = 0
        self.references = 0
        self.max_rel_err = 0.0
        self.sweeps = 0
        self.symmetric_sweeps = 0
        self.euler_not_passed = 0

    def add(self, index: int, request: dict, code, text: str) -> None:
        self.attempted += 1
        if code == "crash":
            problems = ["crashed: " + text.strip().splitlines()[-1]]
        elif code == 2:
            problems = ["exit code 2"]
        else:
            try:
                problems = _CHECKS[request["kind"]](self, request, code, text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"output does not parse: {exc!r}"]
        if problems:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(f"request {index} ({' '.join(request['argv'])}): {problems[0]}")

    def rel_err(self, got: complex, want: complex) -> float:
        err = ref.relative_error(got, want)
        self.references += 1
        self.max_rel_err = max(self.max_rel_err, err)
        return err


def _value(v):
    return None if v in (None, "", "null") else float(v)


def _csv(text: str) -> tuple[list[dict], dict]:
    """Rows of a CSV report as dicts, and the ``# key=value,...`` trailer."""
    lines = text.split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","), strict=True)) for line in lines[1:] if not line.startswith("#")]
    trailer = {}
    for line in lines[1:]:
        if line.startswith("#"):
            trailer.update(item.split("=", 1) for item in line[1:].strip().split(","))
    return rows, trailer


def _single_row(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    rows, _ = _csv(text)
    if len(rows) != 1:
        raise ValueError(f"{len(rows)} rows, expected 1")
    return rows[0]


def _axis(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo + k * (hi - lo) / (steps - 1) for k in range(steps)]


def _exit_code(code, want: int) -> list[str]:
    return [] if code == want else [f"exit code {code}, but its output implies {want}"]


def _check_sweep(t: Tally, req: dict, code, text: str) -> list[str]:
    if req["fmt"] == "json":
        doc = json.loads(text)
        rows, summary = doc["reports"], doc["summary"]
    else:
        rows, summary = _csv(text)
    re_min, re_max, re_steps, im_min, im_max, im_steps = req["grid"]
    nodes = [complex(x, y) for x in _axis(re_min, re_max, re_steps) for y in _axis(im_min, im_max, im_steps)]
    if len(rows) != len(nodes):
        return [f"{len(rows)} rows for {len(nodes)} grid nodes"]
    t.points += len(nodes)
    t.sweeps += 1
    t.symmetric_sweeps += req["symmetric"]
    tol = req["tol"]
    problems = []
    statuses = Counter()
    ok_residuals = []
    for row, node in zip(rows, nodes):
        s = complex(float(row["s_re"]), float(row["s_im"]))
        status = row["status"]
        statuses[status] += 1
        if abs(s - node) > 1e-9 * max(1.0, abs(node)):
            problems.append(f"row s = {s} is not grid node {node}")
            continue
        if min(abs(s), abs(s - 1.0)) < POLE_RADIUS:
            if status != "near_pole_skipped":
                problems.append(f"s = {s}: status {status} within {POLE_RADIUS} of a pole")
            continue
        lhs = complex(float(row["lhs_re"]), float(row["lhs_im"]))
        rhs = complex(float(row["rhs_re"]), float(row["rhs_im"]))
        residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), RESIDUAL_FLOOR)
        printed = _value(row["residual"])
        t.nodes_checked += 1
        t.nodes_failed += status == "failed"
        t.max_residual = max(t.max_residual, residual)
        if status == "ok":
            ok_residuals.append(printed)
        if printed is None or abs(printed - residual) > 1e-15 + 1e-2 * max(printed, residual):
            t.residual_mismatches += 1
            problems.append(f"s = {s}: residual {printed!r} printed, {residual!r} from lhs/rhs")
        want = "ok" if residual <= tol else "failed"
        if status != want and abs(residual - tol) > 1e-2 * tol:
            problems.append(f"s = {s}: status {status}, residual {residual!r} at tol {tol!r}")
    for key, status in (("ok", "ok"), ("skipped", "near_pole_skipped"), ("failed", "failed")):
        if int(summary[key]) != statuses[status]:
            problems.append(f"summary {key}={summary[key]} but {statuses[status]} rows")
    if float(summary["max_residual"]) != max(ok_residuals, default=0.0):
        problems.append(f"summary max_residual={summary['max_residual']} is not the rows' maximum")
    return problems + _exit_code(code, 1 if statuses["failed"] else 0)


def eval_references(D: int, s: complex) -> list[tuple[str, float]]:
    """(quantity, exact value) pairs known at s, a whole number."""
    n = int(s.real)
    out = []
    if D == 1:
        if n < 0 and n % 2:
            out.append(("zeta", float(ref.zeta_at_negative(-n))))
        if n > 0 and n % 2 == 0:
            out.append(("zeta", ref.zeta_at_even(n // 2)))
        if n in (2, -1):
            out.append(("completed", math.pi / 6.0))  # Z_Q(2) = Z_Q(-1) = pi/6
    elif D > 0:
        if n < 0 and n % 2:
            out.append(("zeta", float(ref.zeta_at_negative(-n) * ref.l_at_negative(-n, D))))
        if n > 0 and n % 2 == 0:
            out.append(("zeta", ref.zeta_at_even(n // 2) * ref.l_at_positive(n, D)))
    elif D == -4 and n in (2, -1):
        # Z_Q(i)(2) = pi G / 12, and Z_Q(i)(-1) = 8 Z_Q(i)(2).
        out.append(("completed", math.pi * ref.CATALAN / 12.0 * (8.0 if n == -1 else 1.0)))
    return out


def _check_eval(t: Tally, req: dict, code, text: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    row = _single_row(text, req["fmt"])
    s = complex(*req["s"])
    if complex(float(row["s_re"]), float(row["s_im"])) != s:
        return [f"evaluated at {row['s_re']},{row['s_im']}, asked for {s}"]
    t.points += 1
    problems = []
    gated = s.real >= 0.0 and abs(s) <= 50.0
    for quantity, want in eval_references(req["D"], s):
        got = complex(float(row[f"{quantity}_re"]), float(row[f"{quantity}_im"]))
        err = t.rel_err(got, want)
        if gated and err > STRIP_TOLERANCE:
            problems.append(f"{quantity} = {got!r}, exact {want!r}: relative error {err:.3g}")
    return problems


def number_field_places(D: int, bound: int) -> list[tuple[int, str]]:
    """(q_v, label) of every place with q_v <= bound, in the CLI's order."""
    out = []
    for p in ref.primes_up_to(bound):
        split = 0 if D == 1 else ref.chi_prime(D, p)
        if split == 1:
            out += [(p, p, 1, f"{p}#1"), (p, p, 2, f"{p}#2")]
        elif split == -1:
            if p * p <= bound:
                out.append((p * p, p, 0, str(p)))
        else:
            out.append((p, p, 0, str(p)))
    out.sort()
    return [(qv, label) for qv, _, _, label in out]


def _degree_counts(q: int, bound: int) -> dict[int, int]:
    out, d = {}, 1
    while q**d <= bound:
        out[d] = ref.irreducible_count(q, d)
        d += 1
    return out


def _poly_degree(label: str, q: int) -> int:
    """Degree of a monic label such as ``T^3+2T+1``; raises ValueError on a malformed one."""
    terms = []
    for term in label.split("+"):
        coeff, t, power = term.partition("T")
        terms.append((0 if not t else int(power[1:]) if power else 1, int(coeff) if coeff else 1))
    degrees = [d for d, _ in terms]
    if degrees != sorted(set(degrees), reverse=True) or terms[0][1] != 1:
        raise ValueError(f"{label!r} is not a monic polynomial")
    if not all(1 <= c < q for _, c in terms):
        raise ValueError(f"{label!r} has a coefficient outside GF({q})")
    return degrees[0]


def _check_places(t: Tally, req: dict, code, text: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    if req["fmt"] == "json":
        doc = json.loads(text)
        places, count = doc["places"], int(doc["count"])
    else:
        places, trailer = _csv(text)
        count = int(trailer["count"])
    listed = [(int(p["qv"]), p["kind"], p["label"]) for p in places]
    if count != len(listed):
        return [f"count {count} but {len(listed)} places listed"]
    t.places += count
    bound = req["bound"]
    if "q" not in req:
        want = number_field_places(req["D"], bound)
        got = [(qv, label) for qv, kind, label in listed if kind == "rational_prime"]
        if len(got) != len(listed) or got != want:
            return [f"{len(listed)} places, the sieve gives {len(want)} (first difference "
                    f"{next(((g, w) for g, w in zip(got, want) if g != w), None)})"]
        return []
    q = req["q"]
    if [qv for qv, _, _ in listed] != sorted(qv for qv, _, _ in listed):
        return ["places are not in ascending q_v"]
    infinite = [(qv, label) for qv, kind, label in listed if kind == "infinite"]
    if infinite != [(q, "inf")]:
        return [f"infinite places {infinite}, expected [({q}, 'inf')]"]
    labels = [(qv, label) for qv, kind, label in listed if kind == "monic_irreducible"]
    if len(labels) + 1 != len(listed) or len({label for _, label in labels}) != len(labels):
        return ["unknown place kinds or repeated polynomials"]
    degrees = Counter()
    for qv, label in labels:
        d = _poly_degree(label, q)
        if qv != q**d:
            return [f"{label} has q_v {qv}, expected {q}^{d}"]
        degrees[d] += 1
    want = _degree_counts(q, bound)
    if dict(degrees) != want:
        return [f"irreducibles per degree {dict(degrees)}, necklace formula gives {want}"]
    return []


def _euler_product(req: dict, s: complex) -> tuple[int, complex]:
    """(number of places, truncated Euler product) up to the request's bound."""
    if "q" in req:
        q = req["q"]
        counts = _degree_counts(q, req["bound"])
        out = 1.0 / (1.0 - cmath.exp(-s * math.log(q)))  # the infinite place, q_v = q
        for d, count in counts.items():
            out /= (1.0 - cmath.exp(-s * d * math.log(q))) ** count
        return 1 + sum(counts.values()), out
    places = number_field_places(req["D"], req["bound"])
    out = complex(1.0)
    for qv, _ in places:
        out /= 1.0 - cmath.exp(-s * math.log(qv))
    return len(places), out


def _closed_form(req: dict, s: complex) -> complex | None:
    if "q" in req:
        return ref.function_field_zeta(req["q"], s)
    if s == 2.0 and req["D"] == 1:
        return ref.zeta_at_even(1)
    if s == 2.0 and req["D"] > 0:
        return ref.zeta_at_even(1) * ref.l_at_positive(2, req["D"])
    return None


def _check_euler(t: Tally, req: dict, code, text: str) -> list[str]:
    row = _single_row(text, req["fmt"])
    s = complex(*req["s"])
    if complex(float(row["s_re"]), float(row["s_im"])) != s or int(row["norm_bound"]) != req["bound"]:
        return ["s or norm_bound differ from the request"]
    closed = complex(float(row["closed_re"]), float(row["closed_im"]))
    truncated = complex(float(row["truncated_re"]), float(row["truncated_im"]))
    gap, tail = float(row["gap"]), float(row["tail_bound"])
    passed = row["pass"] in (True, "true")
    count, product = _euler_product(req, s)
    t.places += count
    t.euler_not_passed += not passed
    problems = []
    if abs(abs(closed - truncated) - gap) > 1e-12 * gap:
        problems.append(f"gap {gap!r} printed, {abs(closed - truncated)!r} from closed/truncated")
    if passed != (gap <= tail):
        problems.append(f"pass={row['pass']} with gap {gap!r} and tail bound {tail!r}")
    t.rel_err(truncated, product)
    want = _closed_form(req, s)
    if want is not None:
        t.rel_err(closed, want)
    return problems + _exit_code(code, 0 if passed else 1)


_CHECKS = {
    "sweep": _check_sweep,
    "eval": _check_eval,
    "places": _check_places,
    "euler": _check_euler,
}
