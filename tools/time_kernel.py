"""In-process per-call times of dirichlet_l's moment series, for two source trees.

    python3 tools/time_kernel.py --parent PARENT/src --change src

Each of RUNS runs starts one fresh process per tree, the parent first on
even runs and the change first on odd ones.  A process takes 60 seeded s
on the critical strip (Re s in [0.1, 0.9], |Im s| <= 50) and times, with
warm tables, for each D of SHORT at the points where dirichlet_l takes the
short head: _moment_plan, moment_sum and dirichlet_l; and for LONG at the
points where it takes the long head: _moment_plan and dirichlet_l.  Each
time is the least of REPEATS passes over the points, in microseconds per
call.  The output, one JSON document, keeps every run's times per side,
their medians, the ratio of the medians (change over parent) and whether
the two trees returned the same bits (sha256 of the float.hex of every
value and the repr of every plan).  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import subprocess
import sys
import time

SHORT = [129, 524, 1605, -3832]  # moduli on the short head
LONG = [37]  # moduli on the long head
RUNS = 5
REPEATS = 15


def measure(src: str) -> dict:
    """{name: microseconds per call} and the digest of every result, in one process."""
    sys.path.insert(0, src)
    from globalzeta import KroneckerCharacter, arith, dirichlet_l, kernel

    rng = random.Random(25)
    points = [complex(rng.uniform(0.1, 0.9), rng.uniform(-50.0, 50.0)) for _ in range(60)]
    times, digest = {}, hashlib.sha256()

    def timed(name, call, args):
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            results = [call(*a) for a in args]
            best = min(best, time.perf_counter() - start)
        times[name] = round(best / len(args) * 1e6, 2)
        for value in results:
            digest.update((f"{value.real.hex()} {value.imag.hex()}" if isinstance(value, complex)
                           else repr(value)).encode())

    for D, kind in [(D, "short") for D in SHORT] + [(D, "long") for D in LONG]:
        chi, count = KroneckerCharacter(D), arith._totient(abs(D))
        plans = [(s, kernel._em_weights(s)[0]) for s in points]
        plans = [(s, n, kernel._moment_plan(s, count, n)) for s, n in plans]
        plans = [(s, n, p) for s, n, p in plans if p is not None and (p[2] == n) == (kind == "short")]
        for s, _, _ in plans:
            dirichlet_l(s, chi)  # grows the table
        timed(f"_moment_plan D={D}", kernel._moment_plan, [(s, count, n) for s, n, _ in plans])
        if kind == "short":
            table = kernel._tables[D]
            timed(f"moment_sum D={D}", lambda s, p: kernel.moment_sum(s, table, *p)[0][-1],
                  [(s, p) for s, _, p in plans])
        timed(f"dirichlet_l D={D}", dirichlet_l, [(s, chi) for s, _, _ in plans])
        times[f"points D={D}"] = len(plans)
    return {"us_per_call": times, "digest": digest.hexdigest()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="src directory of the parent")
    parser.add_argument("--change", help="src directory of the change")
    parser.add_argument("--one", help=argparse.SUPPRESS)  # measure one tree and print its JSON
    args = parser.parse_args()
    if args.one:
        print(json.dumps(measure(args.one)))
        return
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for run in range(RUNS):
        for side in ("parent", "change") if run % 2 == 0 else ("change", "parent"):
            proc = subprocess.run([sys.executable, __file__, "--one", sides[side]],
                                  check=True, capture_output=True, text=True)
            runs[side].append(json.loads(proc.stdout))
    names = [k for k in runs["parent"][0]["us_per_call"] if not k.startswith("points")]
    report = {"runs": RUNS, "repeats": REPEATS,
              "points": {k.split(" ", 1)[1]: v for k, v in runs["parent"][0]["us_per_call"].items()
                         if k.startswith("points")},
              "same_bits": len({r["digest"] for side in runs.values() for r in side}) == 1,
              "us_per_call": {}}
    for name in names:
        entry = {side: [r["us_per_call"][name] for r in runs[side]] for side in runs}
        medians = {side: statistics.median(entry[side]) for side in runs}
        entry.update({f"{side}_median": medians[side] for side in runs})
        entry["median_ratio"] = round(medians["change"] / medians["parent"], 4)
        report["us_per_call"][name] = entry
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
