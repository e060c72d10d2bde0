"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py

The negative controls feed a perturbed coefficient and a swapped engine
result through the same loop and checks the benchmark uses, and require
both to be counted as failed jobs.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import load_program, run_rounds, tail  # noqa: E402
from tracer import LAYERS, Tracer, TracingGap, growth_exponent  # noqa: E402
from workloads import WORKLOADS, DualEngine, Job, ThetaSweep  # noqa: E402

BUNDLE = {"rank": 2, "roots": [{"x": "1"}, {"x": "-1/2"}], "twist_b": {"x": "1/3"}}


@pytest.fixture(scope="module")
def prog():
    return load_program()


def compute_job(name, genus, order=12):
    manifest = {"manifold": "CP2", "bundle": BUNDLE, "order": order}
    return Job(f"v0/{name}", "compute", {"genus": genus, "order": order, "manifest": manifest})


class PerturbedSweep(ThetaSweep):
    """theta-sweep on one small round; ``perturb`` names a job whose u^2
    coefficient is changed before the checks see it."""

    perturb = None

    def generate(self, seed):
        return [[compute_job("cp2-n12-pell1", "pell1"), compute_job("cp2-n12-pell2", "pell2"),
                 compute_job("cp2-n12-pell3", "pell3")]]

    def run(self, prog, ctx, job):
        code, text = super().run(prog, ctx, job)
        if job.key.endswith("/" + str(self.perturb)):
            payload = json.loads(text)
            coeff = payload["coefficients"][2]
            coeff["value"] = str(Fraction(coeff["value"]) + 1)
            text = json.dumps(payload)
        return code, text


def loop(workload, prog, tmp_path, reference=None):
    rounds = workload.generate(0)
    ctx = workload.prepare(prog, 0, rounds, tmp_path)
    return run_rounds(workload, prog, ctx, rounds, count=1, reference=reference)


def test_perturbed_coefficient_counts_as_failed(prog, tmp_path):
    clean = loop(PerturbedSweep(), prog, tmp_path)
    assert clean.failures == [] and clean.attempted == 3
    reference = clean.digests

    w = PerturbedSweep()
    w.perturb = "cp2-n12-pell1"
    res = loop(w, prog, tmp_path, reference)
    assert [k for _, k, _ in res.failures] == ["v0/cp2-n12-pell1"]
    assert "reference digest" in res.failures[0][2]

    # without a stored reference the half-period exchange still catches pell2
    w.perturb = "cp2-n12-pell2"
    res = loop(w, prog, tmp_path)
    assert [k for _, k, _ in res.failures] == ["v0/cp2-n12-pell3"]
    assert len(res.failures) / res.attempted == pytest.approx(1 / 3)


class SwappedEngines(DualEngine):
    """dual-engine on one job whose definition result is that of another genus."""

    swap = False

    def generate(self, seed):
        manifest = {"manifold": "CP2", "bundle": BUNDLE, "order": 8}
        return [[Job("v0/cp2-n8-r2", "dual", {"genus": "pell2", "order": 8,
                                              "manifest": manifest})]]

    def run(self, prog, ctx, job):
        by_theta, by_definition = super().run(prog, ctx, job)
        if self.swap:
            by_definition = self.cli(prog, ["compute", "--input", ctx.paths[job.key],
                                            "--genus", "pell3", "--order", "8", "--json"])
        return by_theta, by_definition


def test_swapped_engine_result_counts_as_failed(prog, tmp_path):
    w = SwappedEngines()
    assert loop(w, prog, tmp_path).failures == []
    w.swap = True
    res = loop(w, prog, tmp_path)
    assert res.attempted == 1
    assert [why for _, _, why in res.failures] == ["theta-product and definition engines differ"]


def test_generation_is_seeded():
    for cls in WORKLOADS.values():
        w = cls()
        first, again, other = w.generate(5), w.generate(5), w.generate(6)
        assert [[(j.key, repr(j.args)) for j in r] for r in first] == \
               [[(j.key, repr(j.args)) for j in r] for r in again]
        if w.name != "schur-identity" or len(first[0]) > 1:
            assert [[repr(j.args) for j in r] for r in first] != \
                   [[repr(j.args) for j in r] for r in other]


def test_modular_bundles_are_curvature_matched():
    w = WORKLOADS["modular-numeric"]()
    for spec, given in zip(w.bundle_specs(3), w.params["bundles"]):
        base = [float(c) for c in given["sphere_base"]]
        assert sum(c * c for c in spec["shifted"]) == round(sum(c * c for c in base))


def test_tracer_wraps_every_binding(prog):
    tracer = Tracer()
    tracer.install()
    try:
        assert prog.genera.exp_nilpotent is prog.cohring.exp_nilpotent
        assert prog.bundleops.exp_nilpotent.__wrapped_layer__ == "cohring.exp_nilpotent"
        assert prog.genera.elliptic_factor.__wrapped_layer__ == "theta.elliptic_factor"
        assert prog.qseries.HalfQSeries.__mul__.__wrapped_layer__ == "qseries.mul"
        m = prog.cohring.builtin_manifold("CP2")
        x = prog.cohring.LinearClass.generator(m.presentation, "x")
        e = prog.bundleops.ProjBundle(rank=1, roots=(x,), twist_b=x.scale(0))
        prog.genera.pell(m, e, prog.genera.GenusKind.PELL1, prog.genera.DEFINITION, 6)
        for name in ("genera.pell", "genera.pell_definition", "bundleops.graded_decompose",
                     "cohring.exp_nilpotent", "cohring.mul", "qseries.mul"):
            assert tracer.value(f"{name}.calls") > 0, name
        assert tracer.value("genera.pell_theta.calls") == 0
        total = sum(s.self_s for s in tracer.stats.values())
        assert total <= tracer.stats["genera.pell"].total_s * 1.001
    finally:
        tracer.uninstall()
    assert not hasattr(prog.cohring.exp_nilpotent, "__wrapped_layer__")
    assert not hasattr(prog.qseries.HalfQSeries.__mul__, "__wrapped_layer__")


def test_tracer_refuses_an_unwrapped_binding(prog):
    holder = prog.cli.Manifest  # a class namespace the installer does not patch
    holder.stray = prog.cohring.integrate
    tracer = Tracer()
    try:
        with pytest.raises(TracingGap, match="stray"):
            tracer.install()
    finally:
        tracer.uninstall()
        del holder.stray


def test_every_layer_target_exists(prog):
    for name, targets in LAYERS.items():
        for mod_name, path in targets:
            owner = getattr(prog, mod_name)
            for part in path.split("."):
                owner = getattr(owner, part)
            assert callable(owner), (name, path)


def test_tail_keeps_ten_samples_above():
    values = list(range(100))
    assert tail(values, 75.0)[0] == 75.0
    assert tail(values[:30], 75.0)[0] == 50.0
    assert tail(values, 99.0)[0] == 90.0


def test_growth_exponent_recovers_a_power_law():
    samples = [(n, 3e-6 * n**2) for n in (80, 160, 320) for _ in range(2)]
    assert growth_exponent(samples) == pytest.approx(2.0)
    assert growth_exponent([(20, 1.0)]) == 0.0
