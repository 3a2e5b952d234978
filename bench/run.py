"""The globalzeta benchmark: one workload, one run, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  One client sends one request at a time (a closed loop).
A worker process (``worker.py``) sends the requests: in-process
``parse_and_dispatch`` calls, or fresh ``python -m globalzeta.cli``
processes on ``exact-cold``.  Every output is checked (see
``checks.py``).  Request times are scaled to a reference machine speed
(``speed.py``); the report also gives the wall times.

With ``--trace 0`` the run measures the end-to-end metrics for S
seconds.  With ``--trace 1`` it runs the workload for S/2 seconds
untraced, then the same requests with a span around each call into a
layer, and reports the per-layer metrics.  The second-to-last stdout
line is a JSON report with every metric, the environment and the
failures; the last is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import checks
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11
REQUEST_TIMEOUT_S = 60.0
PASS_TIMEOUT_S = 150.0

# Set-up: a fresh process imports the CLI and builds the workload's fields.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
import globalzeta.cli
from globalzeta.fields import parse_field_spec
for spec in sys.argv[1:]:
    parse_field_spec(spec)
print(time.perf_counter() - start, globalzeta.cli.__file__)
"""


class BenchError(RuntimeError):
    """The run could not be carried out; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(workload: str, seed: int, env: dict) -> tuple[float, float]:
    """Set-up time of SETUP_REPEATS fresh processes, after one untimed warm-up.

    Returns the median scaled to the reference speed, and the median wall time.
    """
    specs = workloads.fields(workload, seed)
    scaled, wall = [], []
    kernel_before = speed.kernel_ms()
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, *specs], env=env,
                              capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        kernel_after = speed.kernel_ms()
        seconds, where = proc.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC):
            raise BenchError(f"globalzeta was imported from {where}, not {SRC}")
        if i:
            wall.append(float(seconds))
            scaled.append(speed.scale(float(seconds), kernel_before, kernel_after))
        kernel_before = kernel_after
    return statistics.median(scaled), statistics.median(wall)


def run_pass(workload: str, seed: int, env: dict, seconds: float | None = None,
             blocks: int | None = None, trace: bool = False):
    """Run whole blocks for ``seconds``, or exactly ``blocks`` of them, in a worker."""
    limit = ["--seconds", repr(seconds)] if blocks is None else ["--blocks", str(blocks)]
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), *limit]
    if trace:
        cmd.append("--trace")
    results, info = [], None
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                record = json.loads(line)
                if record.get("done"):
                    info = record
                else:
                    results.append(record)
        finally:
            watchdog.cancel()
            proc.wait()
    if proc.returncode != 0 or info is None:
        raise BenchError(f"worker exited with {proc.returncode} after {len(results)} requests")
    return results, info


def check_pass(workload: str, seed: int, results: list[dict], blocks: int):
    """Tally of the checks, and the sha256 of the first block's outputs."""
    tally = checks.Tally()
    digest = hashlib.sha256()
    requests = []
    for b in range(blocks):
        requests += workloads.block(workload, seed, b)
    if len(requests) != len(results):
        raise BenchError(f"{len(results)} results for {len(requests)} requests")
    first_block = len(workloads.block(workload, seed, 0))
    for request, result in zip(requests, results):
        tally.add(result["i"], request, result["code"], result["out"])
        if result["i"] < first_block:
            digest.update(result["out"].encode() + b"\n")
    return tally, digest.hexdigest()


def tail_latency(times: list[float], pct: float) -> tuple[float, int]:
    """The nearest-rank ``pct`` percentile, and how many requests lie beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def environment(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "globalzeta").glob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit,
            "seed": seed, "src_lines": src_lines}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def scaled_ms(results: list[dict]) -> list[float]:
    """Each request's time at the reference speed (see ``speed.py``)."""
    return [speed.scale(r["ms"], *r["kernel_ms"]) for r in results]


def untraced_run(workload: str, seed: int, seconds: float, env: dict):
    setup_s, setup_wall_s = measure_setup(workload, seed, env)
    results, info = run_pass(workload, seed, env, seconds=seconds)
    tally, digest = check_pass(workload, seed, results, info["blocks"])
    work = tally.points + tally.places
    times = scaled_ms(results)
    wall = [r["ms"] for r in results]
    pct = workloads.TAIL_PERCENTILE[workload]
    tail, beyond = tail_latency(times, pct)
    end_to_end = {
        "setup_s": metric(setup_s, "s"),
        "req_p50_ms": metric(statistics.median(times), "ms"),
        "req_tail_ms": metric(tail, "ms"),
        "work_per_s": metric(work / (sum(times) / 1e3), "1/s"),
        "peak_rss_mb": metric(info["rss_kb"] / 1024.0, "MB"),
    }
    unscaled = {
        "setup_wall_s": metric(setup_wall_s, "s"),
        "req_p50_wall_ms": metric(statistics.median(wall), "ms"),
        "req_tail_wall_ms": metric(tail_latency(wall, pct)[0], "ms"),
        "work_per_wall_s": metric(work / (sum(wall) / 1e3), "1/s"),
        "speed_factor": metric(sum(wall) / sum(times), "ratio"),
    }
    accuracy = {
        "error_rate": metric(tally.failed / tally.attempted, "ratio"),
        "fe_fail_ratio": metric(ratio(tally.nodes_failed, tally.nodes_checked), "ratio"),
        "max_residual": metric(tally.max_residual, "ratio"),
        "max_rel_err": metric(tally.max_rel_err, "ratio"),
    }
    details = {
        "requests": len(times),
        "blocks": info["blocks"],
        "req_tail_percentile": pct,
        "requests_beyond_tail": beyond,
        "work_units": "places enumerated" if workload == workloads.COLD else "sweep nodes + eval points",
        "work": work,
        "nodes_checked": tally.nodes_checked,
        "nodes_failed": tally.nodes_failed,
        "residual_mismatches": tally.residual_mismatches,
        "references_compared": tally.references,
        "symmetric_sweep_share": ratio(tally.symmetric_sweeps, tally.sweeps),
        "euler_checks_not_passed": tally.euler_not_passed,
        "first_block_sha256": digest,
    }
    return tally, end_to_end, {**end_to_end, **unscaled, **accuracy}, details


def traced_run(workload: str, seed: int, seconds: float, env: dict):
    plain, plain_info = run_pass(workload, seed, env, seconds=seconds / 2.0)
    blocks = plain_info["blocks"]
    traced, info = run_pass(workload, seed, env, blocks=blocks, trace=True)
    tally, _ = check_pass(workload, seed, plain, blocks)
    traced_tally, digest = check_pass(workload, seed, traced, blocks)
    tally.attempted += traced_tally.attempted
    tally.failed += traced_tally.failed
    tally.messages += traced_tally.messages
    totals = info["trace"]
    fn = totals["fn"]
    requests = totals["requests"]
    completed = totals["completed"]
    traced_ms = sum(r["ms"] for r in traced)
    per_layer, self_ms = {}, {}
    for name, (calls, self_s) in fn.items():
        per_layer[f"{name}.calls_per_req"] = metric(ratio(calls, requests), "count")
        per_layer[f"{name}.self_share"] = metric(ratio(self_s * 1e3, traced_ms), "ratio")
        self_ms[f"{name}.self_ms_per_req"] = metric(ratio(self_s * 1e3, requests), "ms")
    dl_calls, dl_self = fn["kernel.dirichlet_l"]
    mi_self = fn["ffield.monic_irreducibles"][1]
    per_layer.update({
        "cli.parse_and_dispatch.self_ms_per_req": self_ms["cli.parse_and_dispatch.self_ms_per_req"],
        "zeta.completed_zeta.calls_per_node": metric(ratio(completed, traced_tally.points), "ratio"),
        "zeta.completed_zeta.repeat_ratio": metric(ratio(totals["repeats"], completed), "ratio"),
        "zeta.completed_zeta.cliff_ratio": metric(ratio(totals["cliffs"], completed), "ratio"),
        "kernel.riemann_zeta.calls_per_eval": metric(ratio(fn["kernel.riemann_zeta"][0], completed), "ratio"),
        "kernel.dirichlet_l.calls_per_eval": metric(ratio(dl_calls, completed), "ratio"),
        "kernel.dirichlet_l.us_per_class": metric(ratio(dl_self * 1e6, totals["dl_classes"]), "us"),
        "ffield.monic_irreducibles.candidates_per_ms": metric(ratio(totals["mi_candidates"], mi_self * 1e3), "1/ms"),
        "process.import_ms": metric(info["import_ms"], "ms"),
        "trace.req_ms": metric(ratio(traced_ms, requests), "ms"),
        "trace.overhead_ratio": metric(sum(scaled_ms(traced)) / sum(scaled_ms(plain)), "ratio"),
    })
    details = {
        "requests": requests,
        "blocks": blocks,
        "dominant_self_time": max(fn, key=lambda name: fn[name][1]),
        "computed": ["kernel.dirichlet_l.us_per_class", "ffield.monic_irreducibles.candidates_per_ms"],
        "first_block_sha256": digest,
    }
    return tally, per_layer, {**per_layer, **self_ms}, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "globalzeta" / "cli.py").is_file():
        print(f"run.py: no globalzeta package under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    run = traced_run if args.trace else untraced_run
    try:
        tally, declared, every, details = run(args.workload, args.seed, args.seconds, env)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    report = {
        "benchmark": "globalzeta",
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed),
        "metrics": every,
        "details": details,
        "failures": tally.messages,
    }
    print(json.dumps(report))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": declared}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
