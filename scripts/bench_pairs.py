#!/usr/bin/env python3
"""Alternating end-to-end pairs of the benchmark: this checkout against another.

    python3 scripts/bench_pairs.py --against ../parent --workload schur-identity --seed 1
    python3 scripts/bench_pairs.py --against ../parent --workload theta-sweep --seed 1 --pairs 3

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``,
T the ``run_seconds`` of this checkout's ``BENCHMARK.json``, once in this
checkout and once in the checkout at PATH, each in a child
process whose working directory is its checkout, so each side runs its own
harness on its own ``src``.  The side that runs first alternates from pair
to pair, starting with this checkout.  One line per run goes to standard
error; standard output is one JSON line:

- ``runs``: per pair, the side that ran first and, per side, ``correct``,
  ``failed``, the revision the run reported and its end-to-end metric values;
- ``metrics``: per end-to-end metric of this checkout's ``BENCHMARK.json``,
  each side's median and quartiles (q1, q3) and ``this_wins``, the number of
  pairs in which this checkout is better in the metric's direction (a tie
  counts for neither side);
- ``revision`` and ``against_revision``: the revisions of the two sides, and
  ``roots``: the path of each side's checkout, which tells the sides apart
  when an uncommitted tree and its parent report the same revision;
- ``all_correct``: whether every run is ``correct`` with ``failed`` 0.

The exit status is 0 when ``all_correct`` holds, else 1.
Standard library only; nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("this", "against")


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in the checkout at root, read from its output."""
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "revision": "unknown", "metrics": {},
                "error": result.stderr.strip()[-500:]}
    record = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {"correct": record["correct"], "failed": record["failed"],
            "revision": env.get("ellgen_rev", "unknown"),
            "metrics": {name: m["value"] for name, m in record["metrics"].items()}}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is all three)."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def report(runs: list[dict], end_to_end: list[dict]) -> tuple[dict, int]:
    """The JSON record of the pairs and the exit status."""
    metrics = {}
    for m in end_to_end:
        name = m["name"]
        pairs = [(run["this"]["metrics"][name], run["against"]["metrics"][name]) for run in runs
                 if name in run["this"]["metrics"] and name in run["against"]["metrics"]]
        if not pairs:
            continue
        sign = 1 if m["better"] == "higher" else -1
        metrics[name] = {
            **{side: spread([pair[i] for pair in pairs]) for i, side in enumerate(SIDES)},
            "this_wins": sum(sign * (t - a) > 0 for t, a in pairs),
        }
    ok = all(run[side]["correct"] and run[side]["failed"] == 0 for run in runs for side in SIDES)
    record = {
        "runs": runs, "metrics": metrics,
        "revision": runs[0]["this"]["revision"],
        "against_revision": runs[0]["against"]["revision"],
        "all_correct": ok,
    }
    return record, 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="PATH", type=Path, required=True,
                        help="the other checkout, for example a clone of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if not (args.against / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {args.against}")
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    roots = {"this": ROOT, "against": args.against.resolve()}
    runs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        run = {"first": order[0]}
        for side in order:
            run[side] = run_side(roots[side], args.workload, args.seed, bench["run_seconds"])
            jobs = run[side]["metrics"].get("jobs_per_s")
            print(f"pair {i + 1}/{args.pairs} {side}: jobs_per_s {jobs}, "
                  f"correct {run[side]['correct']}", file=sys.stderr, flush=True)
        runs.append(run)
    record, status = report(runs, bench["end_to_end"])
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": bench["run_seconds"], **record,
                      "roots": {side: str(root) for side, root in roots.items()}}))
    return status


if __name__ == "__main__":
    sys.exit(main())
