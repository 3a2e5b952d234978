"""Runs one workload's requests, one at a time, and streams the results.

    python3 bench/worker.py WORKLOAD SEED (--seconds S | --blocks N) [--trace]

A request of an in-process workload is a
``globalzeta.cli.parse_and_dispatch`` call; one of ``exact-cold`` is a
fresh ``python -m globalzeta.cli`` process (``coldboot.py`` when
traced).  Each is timed on its own and followed by a run of the speed
kernel (``speed.py``); the result and the kernel times just before and
after the request go to stdout as one JSON line after the timer stops.
Whole blocks run until ``--seconds`` have passed, or exactly
``--blocks`` of them.  The last line carries the import time, the peak
resident memory of the process that did the work and, with
``--trace``, the per-layer totals.  The package must come from the
``src/`` next to this directory.

On ``exact-cold`` this process holds no outputs, so it stays smaller
than the request processes: Linux counts a child's size at the fork in
the child's peak memory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads
from coldboot import MARK

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

REQUEST_TIMEOUT_S = 60.0


class InProcess:
    """Requests as ``parse_and_dispatch`` calls in this process."""

    def __init__(self, tracer: tracing.Tracer | None, totals: dict) -> None:
        start = time.perf_counter()
        self.cli = importlib.import_module("globalzeta.cli")
        self.import_ms = (time.perf_counter() - start) * 1e3
        if not Path(self.cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"globalzeta was imported from {self.cli.__file__}, not {SRC}")
        self.tracer, self.totals = tracer, totals
        if tracer:
            tracer.install()

    def __call__(self, index: int, argv: list[str]):
        if self.tracer:
            self.tracer.request = index
        t0 = time.perf_counter()
        try:
            code, text = self.cli.parse_and_dispatch(argv)
        except Exception:  # a crash is a failed request, reported with its traceback
            code, text = "crash", traceback.format_exc()
        ms = (time.perf_counter() - t0) * 1e3
        if self.tracer:
            self.tracer.fold(self.totals)
            self.totals["requests"] += 1
        return code, text, ms

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Cold:
    """Requests as fresh CLI processes; traced ones report their totals on stderr."""

    def __init__(self, trace: bool, totals: dict) -> None:
        self.base = [sys.executable, str(BENCH / "coldboot.py")] if trace else [sys.executable, "-m", "globalzeta.cli"]
        self.trace, self.totals = trace, totals
        self.imports: list[float] = []

    @property
    def import_ms(self) -> float | None:
        return statistics.median(self.imports) if self.imports else None

    def __call__(self, index: int, argv: list[str]):
        t0 = time.perf_counter()
        proc = subprocess.run(self.base + argv, capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S)
        ms = (time.perf_counter() - t0) * 1e3
        if "Traceback (most recent call last)" in proc.stderr:
            return "crash", proc.stderr, ms
        if self.trace:
            lines = [x for x in proc.stderr.splitlines() if x.startswith(MARK)]
            if not lines:
                raise RuntimeError(f"traced request left no trace: {proc.stderr.strip()}")
            record = json.loads(lines[-1][len(MARK):])
            self.imports.append(record["import_ms"])
            tracing.merge(self.totals, record["trace"])
        text = proc.stdout[:-1] if proc.stdout.endswith("\n") else proc.stdout
        return proc.returncode, text, ms

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=workloads.NAMES)
    parser.add_argument("seed", type=int)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--blocks", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    totals = tracing.new_totals()
    try:
        if args.workload == workloads.COLD:
            run = Cold(args.trace, totals)
        else:
            run = InProcess(tracing.Tracer() if args.trace else None, totals)
    except RuntimeError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2

    out = sys.stdout
    index = blocks = 0
    start = time.perf_counter()
    kernel_before = speed.kernel_ms()
    while True:
        for request in workloads.block(args.workload, args.seed, blocks):
            code, text, ms = run(index, request["argv"])
            kernel_after = speed.kernel_ms()
            out.write(json.dumps({"i": index, "code": code, "out": text, "ms": ms,
                                  "kernel_ms": [kernel_before, kernel_after]}) + "\n")
            kernel_before = kernel_after
            index += 1
        blocks += 1
        if args.blocks is not None:
            if blocks >= args.blocks:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
    out.write(json.dumps({"done": True, "blocks": blocks, "import_ms": run.import_ms,
                          "rss_kb": run.peak_rss_kb(), "trace": totals if args.trace else None}) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
