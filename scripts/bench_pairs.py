#!/usr/bin/env python3
"""Alternating end-to-end pairs of the benchmark: this checkout against another.

    python3 scripts/bench_pairs.py --against ../parent --workload schur-identity --seed 1
    python3 scripts/bench_pairs.py --against ../parent --workload theta-sweep --seed 1 --pairs 3
    python3 scripts/bench_pairs.py --against ../parent --cli "cancel12 --rank 2"

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

``--cli "ARGS"`` pairs one-shot commands instead of a workload: each pair runs
``python -m ellgen.cli ARGS`` once in each checkout, in a child process whose
working directory is that checkout and whose ``PYTHONPATH`` is that checkout's
``src``, the side that runs first alternating as above.  The JSON line then
holds, per pair, each side's wall time in seconds, exit code and the SHA-256
digests of its stdout and stderr; ``wall_s``, each side's median and quartiles
and ``this_wins``, the pairs in which this checkout took less time; and
``identical``, whether stdout, stderr and the exit code were byte-identical in
every run of both sides.  The exit status is 0 when all three were, else 1.

Standard library only; nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
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


def run_cli(root: Path, argv: list[str]) -> dict:
    """One one-shot ``python -m ellgen.cli argv`` in the checkout at root, on its own src."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "ellgen.cli", *argv],
                            cwd=root, env=env, capture_output=True)
    return {"wall_s": time.perf_counter() - start, "exit_code": result.returncode,
            **{name: hashlib.sha256(data).hexdigest()
               for name, data in (("stdout", result.stdout), ("stderr", result.stderr))}}


def alternating(pairs: int, run_one, summary) -> list[dict]:
    """``pairs`` pairs of ``run_one(side)``, the side that runs first alternating from pair to
    pair, starting with this checkout; one ``summary(result)`` line per run to stderr."""
    runs = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        run = {"first": order[0]}
        for side in order:
            run[side] = run_one(side)
            print(f"pair {i + 1}/{pairs} {side}: {summary(run[side])}", file=sys.stderr, flush=True)
        runs.append(run)
    return runs


def cli_pairs(argv: list[str], roots: dict, pairs: int) -> tuple[dict, int]:
    """The JSON record of alternating one-shot pairs of one command, and the exit status."""
    runs = alternating(pairs, lambda side: run_cli(roots[side], argv),
                       lambda r: f"{r['wall_s']:.4f} s, exit {r['exit_code']}")
    wall = {side: spread([run[side]["wall_s"] for run in runs]) for side in SIDES}
    wall["this_wins"] = sum(run["this"]["wall_s"] < run["against"]["wall_s"] for run in runs)
    identical = {key: len({run[side][key] for run in runs for side in SIDES}) == 1
                 for key in ("stdout", "stderr", "exit_code")}
    record = {"runs": runs, "wall_s": wall, "identical": identical}
    return record, 0 if all(identical.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="PATH", type=Path, required=True,
                        help="the other checkout, for example a clone of the parent commit")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--cli", metavar="ARGS",
                        help="pair one-shot `python -m ellgen.cli ARGS` runs instead of a workload")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    roots = {"this": ROOT, "against": args.against.resolve()}
    if args.cli is not None:
        if not (args.against / "src" / "ellgen" / "cli.py").is_file():
            parser.error(f"no src/ellgen/cli.py under {args.against}")
        record, status = cli_pairs(shlex.split(args.cli), roots, args.pairs)
        print(json.dumps({"cli": args.cli, **record,
                          "roots": {side: str(root) for side, root in roots.items()}}))
        return status
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required without --cli")
    if not (args.against / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {args.against}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_one(side):
        return run_side(roots[side], args.workload, args.seed, bench["run_seconds"])

    def summary(result):
        return f"jobs_per_s {result['metrics'].get('jobs_per_s')}, correct {result['correct']}"

    runs = alternating(args.pairs, run_one, summary)
    record, status = report(runs, bench["end_to_end"])
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": bench["run_seconds"], **record,
                      "roots": {side: str(root) for side, root in roots.items()}}))
    return status


if __name__ == "__main__":
    sys.exit(main())
