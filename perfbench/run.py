"""ellgen benchmark: one seeded workload, closed loop, exact output checks.

    python3 perfbench/run.py --workload theta-sweep --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; ellgen is imported from its ``src``.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics from a traced run of a fixed number of
rounds, followed by an untraced replay of the same rounds for the tracing
overhead.  Human-readable lines come first; the last line of standard output
is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import SpeedLog, probe, scale  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SPEC, WORKLOADS, Outcome  # noqa: E402

MODULES = ("qseries", "cohring", "theta", "bundleops", "genera", "modcheck", "cli")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_ABOVE_TAIL = 10
WORK_DIR = HERE / "_work"
REFERENCE = HERE / "reference.json"


class SetupError(RuntimeError):
    pass


def load_program() -> SimpleNamespace:
    """Import ellgen afresh from ROOT/src (earlier copies are dropped first)."""
    src = ROOT / "src"
    if not (src / "ellgen" / "__init__.py").is_file():
        raise SetupError(f"no ellgen package under {src}")
    for key in [k for k in sys.modules if k == "ellgen" or k.startswith("ellgen.")]:
        del sys.modules[key]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"ellgen.{name}") for name in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"ellgen was imported from {mods['cli'].__file__}, not {src}")
    return SimpleNamespace(**mods)


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)  # reference-speed seconds
    raw_latencies: list = field(default_factory=list)  # wall seconds
    rounds: int = 0
    failures: list = field(default_factory=list)  # (round, job key, reason)
    digests: dict = field(default_factory=dict)
    orders: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.raw_latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_rounds(workload, prog, ctx, rounds, *, seconds=None, count=None, reference=None,
               tracer=None) -> LoopResult:
    """Closed loop over whole rounds.

    Stops after ``count`` rounds, or at the first round boundary at which the
    summed job time reaches ``seconds`` (reference-speed seconds, so the
    amount of work does not follow host drift).  Only the ellgen call of each
    job is timed; checks and speed probes run between jobs.
    """
    res = LoopResult()
    speed = SpeedLog()
    clock = time.perf_counter
    busy_estimate = 0.0
    while (res.rounds < count) if count is not None else (busy_estimate < seconds):
        jobs = rounds[res.rounds % len(rounds)]
        outcomes = {}
        for job in jobs:
            if speed.due():
                speed.probe(res.attempted)
            if tracer is not None:
                tracer.job = job.key
            t0 = clock()
            try:
                raw = workload.run(prog, ctx, job)
            except Exception as exc:  # a failed job is counted, and the loop goes on
                raw, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            dt = clock() - t0
            res.raw_latencies.append(dt)
            busy_estimate += dt * speed.latest_scale()
            if "order" in job.args:
                res.orders[job.args["order"]] += 1
            outcome = Outcome(error) if error else checked(workload, job, raw)
            apply_reference(job.key, outcome, reference)
            outcomes[job.key] = outcome
            res.digests[job.key] = outcome.digest
        for key, why in workload.check_round(jobs, outcomes).items():
            outcomes[key].failure = outcomes[key].failure or why
        res.failures += [(res.rounds, k, o.failure) for k, o in outcomes.items() if o.failure]
        res.rounds += 1
    speed.probe(res.attempted)
    res.latencies = [t * f for t, f in zip(res.raw_latencies, speed.scales(res.attempted))]
    return res


def checked(workload, job, raw) -> Outcome:
    try:
        return workload.check(job, raw)
    except Exception as exc:  # output the checks cannot read is a failed job
        return Outcome(f"unreadable output: {type(exc).__name__}: {exc}")


def apply_reference(key: str, outcome: Outcome, reference: dict | None) -> None:
    if reference is None or outcome.failure or outcome.digest is None:
        return
    if reference.get(key) != outcome.digest:
        outcome.failure = "exact coefficients differ from the stored reference digest"


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A Beta-weighted mean of the order statistics: unlike a single order
    statistic it does not jump between the clusters of a job mix when one
    job lands on the other side of the rank.  Weights beyond ten standard
    deviations of the rank are below double precision and are skipped.
    """
    v = sorted(values)
    n = len(v)
    q = p / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    reach = 10.0 * math.sqrt(q * (1.0 - q) / n) + 1.0 / n
    lo, hi = max(0, int((q - reach) * n)), min(n, int((q + reach) * n) + 1)
    cdf = [betainc(a, b, j / n) for j in range(lo, hi + 1)]
    return sum((cdf[k + 1] - cdf[k]) * v[lo + k] for k in range(hi - lo))


def tail(latencies, preferred: float):
    """(percentile, value) of the tail latency.

    The workload fixes its percentile so that the figure does not jump when a
    run holds a few more samples; should fewer than 10 samples lie above it,
    the highest ladder percentile that leaves 10 is used instead.
    """
    n = len(latencies)
    for p in (preferred,) + TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_ABOVE_TAIL:
            return p, quantile(latencies, p)
    return 50.0, quantile(latencies, 50.0)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "ellgen_rev": git_revision(),
    }


def git_revision() -> str:
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(workload, seed: int, repeats: int, workdir: Path):
    """Run the whole setup ``repeats`` times; keep the last, time every one.

    A setup is timed in CPU seconds of this process (at reference speed):
    its wall time also holds waits on the host's shared disk, which grow
    with the file churn of earlier runs and say nothing about ellgen.
    """
    times = []
    for i in range(repeats):
        before = probe()
        t0 = time.process_time()
        prog = load_program()
        rounds = workload.generate(seed)
        ctx = workload.prepare(prog, seed, rounds, workdir / f"setup{i}")
        workload.warm_up(prog, ctx, rounds)
        cpu = time.process_time() - t0
        times.append(cpu * scale(before, probe()))
    return prog, rounds, ctx, times


def traced_run(args, bench, workload, prog, ctx, rounds, reference):
    """Per-layer metrics from ``trace_rounds`` traced rounds and their untraced replay."""
    count = workload.spec["trace_rounds"]
    tracer = Tracer()
    try:
        tracer.install()
        res = run_rounds(workload, prog, ctx, rounds, count=count, reference=reference,
                         tracer=tracer)
    finally:
        tracer.uninstall()
    plain = run_rounds(workload, prog, ctx, rounds, count=count)
    overhead = res.busy_s / plain.busy_s
    # layer times are wall seconds; report them at reference speed like the jobs
    to_reference = res.busy_s / sum(res.raw_latencies)
    metrics = {}
    for m in bench["per_layer"]:
        value = overhead if m["name"] == "trace.overhead_ratio" else tracer.value(m["name"])
        if m["unit"] == "s":
            value *= to_reference
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    expect = workload.spec["trace_expect"]
    gaps = [n for n in expect["nonzero"] if not tracer.value(n) > 0]
    gaps += [n for n in expect["zero"] if tracer.value(n) != 0]
    WORK_DIR.mkdir(exist_ok=True)
    spans_file = WORK_DIR / f"spans-{workload.name}-seed{args.seed}.json"
    spans_file.write_text(json.dumps(tracer.span_records()))
    lines = [f"trace self-check FAILED: {n} = {tracer.value(n)}" for n in gaps]
    lines.append(f"traced {res.rounds} rounds ({res.attempted} jobs) in {res.busy_s:.3f} s, "
                 f"untraced replay {plain.busy_s:.3f} s; spans in {spans_file.relative_to(ROOT)}")
    return res, metrics, lines, not gaps and not plain.failures


def untraced_run(args, bench, workload, prog, ctx, rounds, reference, setup_times):
    """End-to-end metrics from whole rounds filling ``--seconds`` of job time."""
    res = run_rounds(workload, prog, ctx, rounds, seconds=args.seconds, reference=reference)
    p_tail, v_tail = tail(res.latencies, workload.spec["tail_percentile"])
    values = {
        "jobs_per_s": res.attempted / res.busy_s,
        "job_p50_ms": quantile(res.latencies, 50.0) * 1e3,
        "job_tail_ms": v_tail * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    wall = sum(res.raw_latencies)
    lines = [
        f"{res.rounds} rounds, {res.attempted} jobs, {res.busy_s:.3f} reference-speed s of job "
        f"time ({wall:.3f} s wall, host at {res.busy_s / wall:.3f}x reference speed)",
        f"wall-clock jobs_per_s {res.attempted / wall:.6g} 1/s, job_p50_ms "
        f"{statistics.median(res.raw_latencies) * 1e3:.6g} ms",
        f"job_tail_ms is p{p_tail:g} of {res.attempted} samples",
        f"setup_s is the median of {len(setup_times)} setups: "
        + ", ".join(f"{t:.4f}" for t in setup_times),
    ]
    return res, metrics, lines, True


def measure(args, bench, workload, reference, workdir: Path):
    prog, rounds, ctx, setup_times = set_up(workload, args.seed, SPEC["setup_repeats"], workdir)
    setup_failures = []
    for key, outcome in ctx.setup_outcomes.items():
        apply_reference(key, outcome, reference)
        if outcome.failure:
            setup_failures.append((key, outcome.failure))
    lines = [f"workload {workload.name}, seed {args.seed}: {SPEC['loop']}"]
    lines += [f"setup check FAILED {key}: {why}" for key, why in setup_failures]
    if args.trace:
        res, metrics, more, ok = traced_run(args, bench, workload, prog, ctx, rounds, reference)
    else:
        res, metrics, more, ok = untraced_run(args, bench, workload, prog, ctx, rounds,
                                              reference, setup_times)
    lines += more
    failed = len({(r, k) for r, k, _ in res.failures})
    lines.append(f"fail_ratio {failed / res.attempted:.6g} failed/attempted "
                 f"({failed} of {res.attempted})")
    lines += [f"job FAILED round {r} {k}: {why}" for r, k, why in res.failures[:20]]
    lines.append("orders " + json.dumps({str(k): v for k, v in sorted(res.orders.items())}))
    lines.append("env " + json.dumps(environment()))
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": ok and not setup_failures and failed == 0,
        "attempted": res.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        print(f"error: {bench_file} is missing", file=sys.stderr)
        return 1
    bench = json.loads(bench_file.read_text())
    workload = WORKLOADS[args.workload]()
    reference = None
    if args.seed == workload.spec["default_seed"]:
        reference = json.loads(REFERENCE.read_text())[workload.name]
    workdir = WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        lines, result = measure(args, bench, workload, reference, workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
