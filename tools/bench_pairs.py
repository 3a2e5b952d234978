"""Paired benchmark runs of two versions of the repository, summarised as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --pr N --parent HEAD --change WORKTREE \\
        --workloads strip-small-disc,strip-large-disc,exact-cold \\
        --pairs 10 --seconds 30 \\
        --trace strip-large-disc:1:kernel.dirichlet_l.us_per_class

Each side is exported into a fresh directory under --scratch: a git ref
through ``git archive``, or WORKTREE for the files of the working tree
that git tracks or would track (``git ls-files -co --exclude-standard``);
the BENCH file's ``command`` names each side's commit (``git rev-parse
--short``), HEAD's plus "working tree" for WORKTREE.
For each workload and seed 1..--pairs, ``bench/run.py`` runs once in each
directory, the parent first on odd seeds and the change first on even
ones, so that a drift of the host does not favour one side.  The output
keeps, per workload and end-to-end metric of the parent's BENCHMARK.json,
every run in seed order, the median and quartiles (inclusive method) of
each side, ``change_wins`` (pairs where the change is better) and
``median_ratio`` (change over parent), as well as error rates, the
``correct`` flags and whether the first block's output digest agreed on
every seed.  Each --trace WORKLOAD:SEEDS:METRIC,... adds ``--trace 1``
pairs on seeds 1..SEEDS and keeps the named per-layer metrics.  The
file is rewritten after every pair, so an interrupted run keeps what it
measured.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(ref: str, dest: Path) -> Path:
    """A clean copy of ``ref`` (a git ref, or WORKTREE) in ``dest``."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if ref == "WORKTREE":
        listing = subprocess.run(
            ["git", "ls-files", "-co", "--exclude-standard", "-z"],
            cwd=ROOT, check=True, capture_output=True,
        ).stdout.decode()
        for name in filter(None, listing.split("\0")):
            source = ROOT / name
            if source.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, dest / name)
        return dest
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(dest)
    return dest


def commit_of(ref: str) -> str:
    """The short commit of ``ref``; for WORKTREE, HEAD's commit plus "working tree"."""
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD" if ref == "WORKTREE" else ref],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    return f"{commit} working tree" if ref == "WORKTREE" else commit


def src_lines(checkout: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in (checkout / "src").rglob("*.py"))


def src_modules(checkout: Path) -> int:
    return sum(1 for _ in (checkout / "src").rglob("*.py"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(report, result) from the last two stdout lines of one bench/run.py run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], better: str, unit: str) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    return {"unit": unit, "better": better, "parent": p, "change": c, "change_wins": wins,
            "median_ratio": c["median"] / p["median"] if p["median"] else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True)
    parser.add_argument("--parent", default="HEAD", help="git ref of the parent")
    parser.add_argument("--change", default="WORKTREE", help="git ref of the change, or WORKTREE")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="append", default=[], metavar="WORKLOAD:SEEDS:METRIC,...")
    parser.add_argument("--note", default="", help="one line on what the change is")
    parser.add_argument("--hardware", default="", help="one line on the machine the runs used")
    parser.add_argument("--scratch", default=None, help="directory for the two exports")
    parser.add_argument("--out", default=None, help="default: BENCH_<pr>.json in the repository root")
    args = parser.parse_args()

    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="bench_pairs_"))
    sides = {"parent": export(args.parent, scratch / "parent"),
             "change": export(args.change, scratch / "change")}
    declared = json.loads((sides["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    out = Path(args.out or ROOT / f"BENCH_{args.pr}.json")
    result = {
        "pr": int(args.pr) if args.pr.isdigit() else args.pr,
        "change": args.note,
        "hardware": args.hardware,
        "command": f"python3 bench/run.py --workload W --seed N --seconds {args.seconds:g} --trace 0|1, "
                   f"run from clean exports of {commit_of(args.parent)} (parent) and "
                   f"{commit_of(args.change)} (change)",
        "method": f"pairs of {args.seconds:g} s runs on seeds 1..N, the parent first on odd seeds and the "
                  "change first on even ones; timings are scaled to the reference speed by bench/speed.py; "
                  "runs are listed in seed order; medians and quartiles (inclusive method) over the runs "
                  "of each side; change_wins counts pairs where the change is better",
        "workloads": {},
        "traced": {},
        "src_lines": {side: src_lines(path) for side, path in sides.items()},
        "src_modules": {side: src_modules(path) for side, path in sides.items()},
    }

    def play(workload: str, seeds: int, trace: int, keep, store: dict) -> None:
        runs = {"parent": [], "change": []}
        for seed in range(1, seeds + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                report, line = run_once(sides[side], workload, seed, args.seconds, trace)
                runs[side].append((report, line))
                print(f"{workload} seed {seed} {side}: correct={line['correct']}", file=sys.stderr, flush=True)
            store.update(keep(runs, seed))
            out.write_text(json.dumps(result, indent=1) + "\n")

    def end_to_end(runs: dict, seed: int) -> dict:
        digests = {side: [r["details"]["first_block_sha256"] for r, _ in runs[side]] for side in runs}
        return {
            "seeds": list(range(1, seed + 1)),
            "pairs": seed,
            "metrics": {
                m["name"]: compare(*([line["metrics"][m["name"]]["value"] for _, line in runs[side]]
                                     for side in ("parent", "change")), m["better"], m["unit"])
                for m in declared
            },
            "error_rate": {side: max(r["metrics"]["error_rate"]["value"] for r, _ in runs[side]) for side in runs},
            "correct": {side: all(line["correct"] for _, line in runs[side]) for side in runs},
            "same_first_block_sha256": digests["parent"] == digests["change"],
        }

    for workload in args.workloads.split(","):
        result["workloads"][workload] = {}
        play(workload, args.pairs, 0, end_to_end, result["workloads"][workload])

    for spec in args.trace:
        workload, seeds, names = spec.split(":")

        def per_layer(runs: dict, seed: int, names=names.split(",")) -> dict:
            return {
                "seeds": list(range(1, seed + 1)),
                "correct": all(line["correct"] for side in runs for _, line in runs[side]),
                "metrics": {
                    name: {"unit": runs["parent"][0][0]["metrics"][name]["unit"],
                           **{side: summary([r["metrics"][name]["value"] for r, _ in runs[side]]) for side in runs}}
                    for name in names
                },
            }

        result["traced"][workload] = {}
        play(workload, int(seeds), 1, per_layer, result["traced"][workload])
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
