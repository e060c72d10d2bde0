"""Write the benchmark's stored reference digests or its baseline results.

    python3 perfbench/record.py reference   # perfbench/reference.json
    python3 perfbench/record.py baseline    # perfbench/baseline.json

``reference`` runs every round variant of every workload once at its
default seed, requires every check to pass, and stores the digest of each
exact output.  ``baseline`` runs run.py on the default and the held-out seed
of every workload, untraced and traced, and stores the results with the
environment: the first point of the benchmark trajectory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, WORK_DIR, environment, run_rounds, set_up  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def write_reference() -> None:
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        seed = workload.spec["default_seed"]
        workdir = WORK_DIR / f"reference-{name}"
        try:
            prog, rounds, ctx, _ = set_up(workload, seed, 1, workdir)
            res = run_rounds(workload, prog, ctx, rounds, count=len(rounds))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        failures = res.failures + [
            (None, k, o.failure) for k, o in ctx.setup_outcomes.items() if o.failure
        ]
        if failures:
            raise SystemExit(f"{name}: checks failed, no reference written: {failures[:5]}")
        digests = {k: o.digest for k, o in ctx.setup_outcomes.items()}
        digests.update({k: d for k, d in res.digests.items() if d is not None})
        out[name] = dict(sorted(digests.items()))
        print(f"{name}: {len(out[name])} digests", flush=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


def run_once(name: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"report": lines[:-1], "result": json.loads(lines[-1])}


def write_baseline() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {"environment": environment(), "run_seconds": seconds, "workloads": {}}
    for name, cls in WORKLOADS.items():
        spec = cls().spec
        runs = {}
        for label in ("default_seed", "heldout_seed"):
            seed = spec[label]
            runs[label] = {"seed": seed}
            for trace in (0, 1):
                runs[label]["traced" if trace else "untraced"] = run_once(name, seed, trace,
                                                                         seconds)
                print(f"{name} {label} trace={trace} done", flush=True)
        out["workloads"][name] = runs
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    actions = {"reference": write_reference, "baseline": write_baseline}
    if len(sys.argv) != 2 or sys.argv[1] not in actions:
        raise SystemExit(__doc__)
    actions[sys.argv[1]]()
