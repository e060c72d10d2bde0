"""Per-layer tracing of ellgen, applied from outside the package.

Each layer is a set of public functions or methods; every one is replaced by
a timing wrapper in every ellgen namespace that binds it (modules bind names
such as ``exp_nilpotent`` or ``elliptic_factor`` directly, so patching only
the defining module would silently miss calls).  After installing, the
tracer scans the namespaces again and refuses to run if an unwrapped
reference is left.

Self time of a call is its duration minus the durations of the wrapped calls
it made.  Hot leaf kernels are aggregated in memory (counts and sums);
only the coarse layers named in ``SPAN_LAYERS`` keep one span per call.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter
from itertools import accumulate

# layer name -> (module, attribute path) pairs; "Class.attr" patches a class
LAYERS = {
    "qseries.mul": [("qseries", "HalfQSeries.__mul__"), ("qseries", "HalfQSeries.__rmul__"),
                    ("qseries", "mul")],
    "qseries.add": [("qseries", "HalfQSeries.__add__"), ("qseries", "HalfQSeries.__radd__"),
                    ("qseries", "add")],
    "qseries.invert": [("qseries", "HalfQSeries.invert"), ("qseries", "invert")],
    "qseries.eta_like_product": [("qseries", "eta_like_product")],
    "qseries.eval_numeric": [("qseries", "HalfQSeries.eval_numeric"), ("qseries", "eval_numeric")],
    "cohring.mul": [("cohring", "CohElement.__mul__"), ("cohring", "CohElement.__rmul__"),
                    ("cohring", "ring_mul")],
    "cohring.exp_nilpotent": [("cohring", "exp_nilpotent")],
    "cohring.integrate": [("cohring", "integrate")],
    "theta.elliptic_factor": [("theta", "elliptic_factor")],
    "theta.at_class": [("theta", "FactorSeries.at_class")],
    "theta.factor_ops": [("theta", "FactorSeries.__mul__"), ("theta", "FactorSeries.__rmul__"),
                         ("theta", "FactorSeries.invert"), ("theta", "FactorSeries.exp")],
    "theta.numeric": [("theta", "theta_numeric"), ("theta", "theta_numeric_dv")],
    "bundleops.graded_decompose": [("bundleops", "graded_decompose")],
    "bundleops.gch": [("bundleops", "gch"), ("bundleops", "gch_closed_form")],
    "bundleops.characters": [("bundleops", name) for name in (
        "ch", "exp_class", "adams_power_sum", "log_lambda_sum", "witten_bundle_ch", "det_sqrt_ch")],
    "bundleops.schur": [("bundleops", "schur_character"),
                        ("bundleops", "tensor_exterior_identity_check")],
    "genera.pell": [("genera", "pell")],
    "genera.pell_theta": [("genera", "_pell_theta_product")],
    "genera.pell_definition": [("genera", "_pell_definition")],
    "genera.cancel12": [("genera", "cancellation12_check")],
    "modcheck.check_numeric": [("modcheck", "check_numeric")],
    "modcheck.cross_transform": [("modcheck", "cross_transform")],
    "cli.main": [("cli", "main")],
    "cli.load_manifest": [("cli", "load_manifest")],
}

SPAN_LAYERS = frozenset({
    "cli.main", "genera.pell", "genera.pell_theta", "genera.pell_definition",
    "genera.cancel12", "bundleops.graded_decompose", "bundleops.schur",
    "modcheck.check_numeric", "modcheck.cross_transform",
})

MAX_SPANS = 50_000
PACKAGE = "ellgen"


class TracingGap(RuntimeError):
    """A layer function is still reachable without its wrapper."""


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "errors", "extra", "keys", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = Counter()
        self.extra = Counter()
        self.keys = set()
        self.samples = []


def _bits(c) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _hook_qseries_mul(stat, args, result, _dur):
    if result is NotImplemented:
        return
    a, b = args
    coeffs = result.coeffs
    n = len(coeffs) - 1
    ax = stat.extra
    ax["muls"] += 1
    ax["order_sum"] += n
    nz_a = [c != 0 for c in a.coeffs[: n + 1]]
    if hasattr(b, "coeffs"):
        cum = list(accumulate(c != 0 for c in b.coeffs[: n + 1]))
        ax["madds"] += sum(cum[n - i] for i, nz in enumerate(nz_a) if nz)
    else:
        ax["madds"] += sum(nz_a)
    bits = max(map(_bits, coeffs), default=0)
    if bits > ax["bits_max"]:
        ax["bits_max"] = bits


def _hook_cohring_mul(stat, args, result, _dur):
    if result is NotImplemented:
        return
    a, b = args
    other_terms = len(b.coeffs) if hasattr(b, "presentation") else 1
    stat.extra["pairs"] += len(a.coeffs) * other_terms
    stat.extra["out_terms"] += len(result.coeffs)


def _hook_repeat(key_of):
    def hook(stat, args, result, _dur):
        key = key_of(args)
        if key in stat.keys:
            stat.extra["repeats"] += 1
        else:
            stat.keys.add(key)
    return hook


_repeat_decompose = _hook_repeat(lambda args: tuple(args[:3]))


def _hook_graded_decompose(stat, args, result, dur):
    stat.extra["entries"] += len(result.entries)
    _repeat_decompose(stat, args, result, dur)


def _hook_pell_theta(stat, args, result, dur):
    stat.samples.append((args[3], dur))


HOOKS = {
    "qseries.mul": _hook_qseries_mul,
    "cohring.mul": _hook_cohring_mul,
    "theta.elliptic_factor": _hook_repeat(lambda args: tuple(args[:3])),
    "bundleops.graded_decompose": _hook_graded_decompose,
    "genera.pell_theta": _hook_pell_theta,
}


class Tracer:
    """Wraps the LAYERS of a loaded ellgen package; undone by ``uninstall``."""

    def __init__(self) -> None:
        self.stats = {name: Stat() for name in LAYERS}
        self.spans = []
        self.job = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        stat = self.stats[name]
        hook = HOOKS.get(name)
        stack = self._stack
        spans = self.spans if name in SPAN_LAYERS else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                stat.errors[type(exc).__name__] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if spans is not None and len(spans) < MAX_SPANS:
                    parent = stack[-1][1] if stack else None
                    spans.append((name, parent, self.job, t0, t1))
            if hook is not None:
                hook(stat, args, result, dur)
                if stack:
                    # the hook is tracing cost: keep it out of the parent's self time
                    stack[-1][0] += clock() - t1
            return result

        traced.__wrapped_layer__ = name
        return traced

    def install(self) -> None:
        modules = {
            key: mod for key, mod in sys.modules.items()
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        }
        originals = {}
        for name, targets in LAYERS.items():
            for mod_name, path in targets:
                owner = modules[f"{PACKAGE}.{mod_name}"]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr]
                if id(fn) not in originals:
                    originals[id(fn)] = (fn, self._wrap(name, fn))
                self._patch(owner, attr, originals[id(fn)][1])
        # every module namespace that binds an original gets the wrapper too
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        self._verify(modules, originals)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @staticmethod
    def _verify(modules, originals):
        left = []
        for mod_name, mod in modules.items():
            spaces = [(mod_name, vars(mod))] + [
                (f"{mod_name}.{k}", vars(v)) for k, v in vars(mod).items()
                if isinstance(v, type) and v.__module__ == mod.__name__
            ]
            for where, space in spaces:
                for attr, value in space.items():
                    hit = originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        left.append(f"{where}.{attr}")
        if left:
            raise TracingGap("unwrapped layer functions remain: " + ", ".join(sorted(left)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- per-layer metrics -------------------------------------------------

    def value(self, metric: str) -> float:
        """The value of one per-layer metric named ``<layer>.<stat>``."""
        layer, _, stat_name = metric.rpartition(".")
        if metric == "qseries.coeff_bits_max":
            return self.stats["qseries.mul"].extra["bits_max"]
        if metric == "modcheck.tail_refusals":
            return sum(self.stats[n].errors["TailTooLarge"]
                       for n in ("modcheck.check_numeric", "modcheck.cross_transform"))
        stat = self.stats[layer]
        ax = stat.extra
        if stat_name == "calls":
            return stat.calls
        if stat_name == "self_s":
            return stat.self_s
        if stat_name == "madds":
            return ax["madds"]
        if stat_name == "mean_order":
            return ax["order_sum"] / ax["muls"] if ax["muls"] else 0.0
        if stat_name == "pairs":
            return ax["pairs"]
        if stat_name == "yield":
            return ax["out_terms"] / ax["pairs"] if ax["pairs"] else 0.0
        if stat_name == "entries":
            return ax["entries"]
        if stat_name == "repeat_share":
            return ax["repeats"] / stat.calls if stat.calls else 0.0
        if stat_name == "n_exponent":
            return growth_exponent(stat.samples)
        raise KeyError(f"no per-layer metric {metric!r}")

    def span_records(self):
        return [
            {"name": n, "parent": p, "job": j, "start": t0, "end": t1}
            for n, p, j, t0, t1 in self.spans
        ]


def growth_exponent(samples) -> float:
    """Least-squares slope of log(mean time) against log(order).

    ``samples`` holds (order, seconds) pairs; fewer than two distinct
    positive orders give 0.
    """
    by_order = {}
    for order, dur in samples:
        if order > 0:
            by_order.setdefault(order, []).append(dur)
    if len(by_order) < 2:
        return 0.0
    xs = [math.log(n) for n in by_order]
    ys = [math.log(sum(d) / len(d)) for d in by_order.values()]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
