"""Seeded workloads: input generation, the timed job call, and output checks.

Parameters, why-sentences and seeds live in ``workloads.json``.  A workload
generates ``variants`` rounds from its seed; every round has the same
composition and differs only in the drawn inputs and the job order.  Jobs
see only generated inputs: manifests written in setup for CLI jobs, and
objects built in setup for package-API jobs.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())

PELL_KINDS = ("pell", "pell1", "pell2", "pell3")
# genera whose series the construction places in Q[[q]] (odd u-powers vanish)
INTEGRAL_GENERA = frozenset({"pell", "pell1", "witten"})


@dataclass
class Job:
    key: str  # "<variant>/<name>", unique within the pool of rounds
    kind: str
    args: dict


@dataclass
class Outcome:
    failure: str | None = None
    digest: str | None = None
    value: object = None


@dataclass
class Context:
    """What setup hands to the timed jobs."""

    paths: dict = field(default_factory=dict)  # job key -> manifest path
    series: dict = field(default_factory=dict)
    bundles: list = field(default_factory=list)
    setup_outcomes: dict = field(default_factory=dict)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def series_outcome(values: list[str], genus: str, order: int) -> Outcome:
    """Exact checks shared by every genus series: length, integrality."""
    if len(values) != order + 1:
        return Outcome(f"{len(values)} coefficients, expected {order + 1}")
    coeffs = [Fraction(v) for v in values]
    if genus in INTEGRAL_GENERA and any(c != 0 for c in coeffs[1::2]):
        return Outcome(f"{genus} series has a nonzero half-integral q-power")
    return Outcome(digest=digest("\n".join(values)), value=coeffs)


def half_period_failure(p2: list[Fraction], p3: list[Fraction]) -> str | None:
    """pell2 at tau+1 (u -> -u) must equal pell3 exactly."""
    if len(p2) != len(p3) or any(b != (-a if k % 2 else a) for k, (a, b) in
                                 enumerate(zip(p2, p3))):
        return "pell2 at tau+1 differs from pell3"
    return None


class Deck:
    """Seeded draws without replacement from reshuffled copies of ``values``.

    Every value turns up about equally often within a round, so the cost of a
    round (which grows with the denominators drawn) varies little by seed.
    """

    def __init__(self, rng: random.Random, values) -> None:
        self.rng = rng
        self.values = list(values)
        self.pile = []

    def draw(self):
        if not self.pile:
            self.pile = self.values[:]
            self.rng.shuffle(self.pile)
        return self.pile.pop()


class BundleDraws:
    """Manifest bundle entries with seeded roots and twist on the generator x."""

    def __init__(self, rng: random.Random, params: dict) -> None:
        self.roots = Deck(rng, params["root_values"])
        self.twists = Deck(rng, params["twist_values"])

    def __call__(self, rank: int) -> dict:
        return {
            "rank": rank,
            "roots": [{"x": self.roots.draw()} for _ in range(rank)],
            "twist_b": {"x": self.twists.draw()},
        }


def parse_compute(code: int, text: str, genus: str, order: int) -> Outcome:
    if code != 0:
        return Outcome(f"exit code {code}")
    payload = json.loads(text)
    return series_outcome([c["value"] for c in payload["coefficients"]], genus, order)


def text_outcome(code: int, text: str, needle: str) -> Outcome:
    if code != 0:
        return Outcome(f"exit code {code}")
    if needle not in text:
        return Outcome(f"output lacks {needle!r}")
    return Outcome(digest=digest(text))


class Workload:
    """One workload of ``workloads.json``; subclasses fill in the jobs."""

    name = ""
    warm_up_job = ""

    def __init__(self) -> None:
        self.spec = SPEC["workloads"][self.name]
        self.params = self.spec["params"]

    def rng(self, seed: int, stream: str = "") -> random.Random:
        return random.Random(f"{self.name}:{seed}:{stream}")

    def generate(self, seed: int) -> list[list[Job]]:
        rounds = []
        for v in range(self.params["variants"]):
            rng = self.rng(seed, f"v{v}")
            jobs = self.round_jobs(rng, f"v{v}")
            rng.shuffle(jobs)
            rounds.append(jobs)
        return rounds

    def round_jobs(self, rng: random.Random, variant: str) -> list[Job]:
        raise NotImplementedError

    def prepare(self, prog, seed: int, rounds, workdir: Path) -> Context:
        """Write manifests for every job that takes one."""
        workdir.mkdir(parents=True, exist_ok=True)
        ctx = Context()
        for jobs in rounds:
            for job in jobs:
                manifest = job.args.get("manifest")
                if manifest is not None:
                    path = workdir / (job.key.replace("/", "_") + ".json")
                    path.write_text(json.dumps(manifest))
                    ctx.paths[job.key] = str(path)
        return ctx

    def warm_up(self, prog, ctx: Context, rounds) -> None:
        job = next(j for j in rounds[0] if j.key.endswith("/" + self.warm_up_job))
        self.run(prog, ctx, job)

    def run(self, prog, ctx: Context, job: Job):
        """The timed call into ellgen; returns what ``check`` inspects."""
        raise NotImplementedError

    def check(self, job: Job, raw) -> Outcome:
        raise NotImplementedError

    def check_round(self, jobs, outcomes: dict) -> dict:
        """Checks across jobs of one round: job key -> failure."""
        return {}

    @staticmethod
    def cli(prog, argv: list[str]):
        out = io.StringIO()
        code = prog.cli.main(argv, out=out)
        return code, out.getvalue()


class ThetaSweep(Workload):
    name = "theta-sweep"
    warm_up_job = "cp2-n80-witten"

    def round_jobs(self, rng, variant):
        p = self.params
        draw_bundle = BundleDraws(rng, p)
        jobs = []
        for manifold in p["manifolds"]:
            for order in p["orders"]:
                cell = f"{variant}/{manifold.lower()}-n{order}"
                ranks = rng.sample(p["ranks"], len(p["ranks"]))
                pell_b, pell1_b, pair_b = (draw_bundle(r) for r in ranks)
                for genus in p["genera"]:
                    bundle = {"pell": pell_b, "pell1": pell1_b, "witten": None}.get(genus, pair_b)
                    manifest = {"manifold": manifold, "bundle": bundle, "order": order}
                    jobs.append(Job(f"{cell}-{genus}", "compute",
                                    {"genus": genus, "order": order, "manifest": manifest}))
        for order in p["jacobi_orders"]:
            jobs.append(Job(f"{variant}/jacobi-n{order}", "jacobi", {"order": order}))
        return jobs

    def run(self, prog, ctx, job):
        a = job.args
        if job.kind == "jacobi":
            return self.cli(prog, ["verify", "--suite", "jacobi", "--order", str(a["order"])])
        return self.cli(prog, ["compute", "--input", ctx.paths[job.key], "--genus", a["genus"],
                               "--order", str(a["order"]), "--json"])

    def check(self, job, raw):
        code, text = raw
        if job.kind == "jacobi":
            return text_outcome(code, text, "all checks passed")
        return parse_compute(code, text, job.args["genus"], job.args["order"])

    def check_round(self, jobs, outcomes):
        failures = {}
        for job in jobs:
            if job.args.get("genus") != "pell3":
                continue
            mate = outcomes.get(job.key[: -len("pell3")] + "pell2")
            mine = outcomes[job.key]
            if mate is None or mate.failure or mine.failure:
                continue
            why = half_period_failure(mate.value, mine.value)
            if why:
                failures[job.key] = why
        return failures


class DualEngine(Workload):
    name = "dual-engine"
    warm_up_job = "cancel12-r2"

    def round_jobs(self, rng, variant):
        p = self.params
        draw_bundle = BundleDraws(rng, p)
        jobs = []
        cells = [(o, r) for o in p["orders"] for r in p["ranks"]]
        genera = p["genera"] * math.ceil(len(cells) / len(p["genera"]))
        rng.shuffle(genera)

        def dual(name, manifold, order, rank, genus):
            manifest = {"manifold": manifold, "bundle": draw_bundle(rank), "order": order}
            jobs.append(Job(f"{variant}/{name}", "dual",
                            {"genus": genus, "order": order, "manifest": manifest}))

        for (order, rank), genus in zip(cells, genera):
            dual(f"{p['manifold'].lower()}-n{order}-r{rank}", p["manifold"], order, rank, genus)
        ranks = rng.sample(p["extra_ranks"], len(p["extra_ranks"]))
        for order, rank in zip(p["extra_orders"], ranks):
            dual(f"{p['extra_manifold'].lower()}-n{order}-r{rank}", p["extra_manifold"], order,
                 rank, rng.choice(p["genera"]))
        ranks = rng.sample(p["decompose_ranks"], len(p["decompose_ranks"]))
        for order, rank in zip(p["decompose_orders"], ranks):
            kind = rng.choice(p["decompose_kinds"])
            manifest = {"manifold": p["manifold"], "bundle": draw_bundle(rank), "order": order}
            jobs.append(Job(f"{variant}/decompose-n{order}", "decompose",
                            {"kind": kind, "order": order, "manifest": manifest}))
        for rank in p["cancel12_ranks"]:
            jobs.append(Job(f"{variant}/cancel12-r{rank}", "cancel12", {"rank": rank}))
        return jobs

    def run(self, prog, ctx, job):
        a = job.args
        if job.kind == "cancel12":
            return self.cli(prog, ["cancel12", "--rank", str(a["rank"])])
        path = ctx.paths[job.key]
        if job.kind == "decompose":
            return self.cli(prog, ["decompose", "--input", path, "--kind", a["kind"],
                                   "--order", str(a["order"])])
        return tuple(
            self.cli(prog, ["compute", "--input", path, "--genus", a["genus"], "--order",
                            str(a["order"]), "--method", method, "--json"])
            for method in ("theta", "definition")
        )

    def check(self, job, raw):
        if job.kind == "cancel12":
            return text_outcome(*raw, "equal: yes")
        if job.kind == "decompose":
            return text_outcome(*raw, "gch == closed form: yes")
        genus, order = job.args["genus"], job.args["order"]
        by_theta, by_definition = (parse_compute(code, text, genus, order) for code, text in raw)
        if by_theta.failure or by_definition.failure:
            return Outcome(f"theta: {by_theta.failure}; definition: {by_definition.failure}")
        if by_theta.value != by_definition.value:
            return Outcome("theta-product and definition engines differ")
        return by_theta


class SchurIdentity(Workload):
    name = "schur-identity"
    warm_up_job = "1x1-n1"

    def round_jobs(self, rng, variant):
        top = self.params["rank_max"]
        return [
            Job(f"{variant}/{ru}x{rv}-n{n}", "schur", {"ru": ru, "rv": rv, "n": n})
            for ru in range(1, top + 1)
            for rv in range(1, top + 1)
            for n in range(1, min(self.params["n_max"], ru * rv) + 1)
        ]

    def run(self, prog, ctx, job):
        a = job.args
        return prog.bundleops.tensor_exterior_identity_check(a["ru"], a["rv"], a["n"])

    def check(self, job, raw):
        if raw is not True:
            return Outcome(f"identity check returned {raw!r}")
        return Outcome()


class ModularNumeric(Workload):
    name = "modular-numeric"
    warm_up_job = "b0-pell1"

    def bundle_specs(self, seed: int) -> list[dict]:
        """Bundles whose shifted roots satisfy sum w^2 = the tangent p1.

        The shifted roots are a rational point of the sphere through
        ``sphere_base``, reached along a seeded integer direction.
        """
        p = self.params
        rng = self.rng(seed, "bundles")
        out = []
        for spec in p["bundles"]:
            base = [Fraction(c) for c in spec["sphere_base"]]
            span = range(-p["direction_range"], p["direction_range"] + 1)
            direction = [0] * len(base)
            while not any(direction):
                direction = [rng.choice(span) for _ in base]
            t = Fraction(-2 * sum(a * d for a, d in zip(base, direction)),
                         sum(d * d for d in direction))
            shifted = [a + t * d for a, d in zip(base, direction)]
            twist = Fraction(rng.choice(p["twist_values"]))
            out.append({"manifold": spec["manifold"], "shifted": shifted, "twist": twist})
        return out

    def _taus(self, rng, count):
        region = self.params["tau_region"]
        taus = []
        for _ in range(count):
            x = rng.uniform(*region["re"])
            low = max(region["im"][0], math.sqrt(max(region["min_abs"] ** 2 - x * x, 0.0)))
            taus.append(complex(x, rng.uniform(low, region["im"][1])))
        return taus

    def round_jobs(self, rng, variant):
        p = self.params
        k = p["samples_per_job"]
        jobs = []
        for b in range(len(p["bundles"])):
            for genus, group in p["group_of_genus"].items():
                jobs.append(Job(f"{variant}/b{b}-{genus}", "group",
                                {"bundle": b, "genus": genus, "group": group,
                                 "taus": self._taus(rng, k)}))
            jobs.append(Job(f"{variant}/b{b}-cross", "cross",
                            {"bundle": b, "taus": self._taus(rng, k)}))
        vr = p["v_region"]
        samples = [(complex(rng.uniform(*vr["re"]), rng.uniform(*vr["im"])), tau)
                   for tau in self._taus(rng, k)]
        jobs.append(Job(f"{variant}/laws", "laws", {"samples": samples}))
        return jobs

    def prepare(self, prog, seed, rounds, workdir):
        """Exact pell..pell3 series of every bundle, checked like any output."""
        ctx = Context()
        order = self.params["order"]
        genera = prog.genera
        for b, spec in enumerate(self.bundle_specs(seed)):
            manifold = prog.cohring.builtin_manifold(spec["manifold"])
            x = prog.cohring.LinearClass.generator(manifold.presentation, "x")
            twist = spec["twist"]
            bundle = prog.bundleops.ProjBundle(
                rank=len(spec["shifted"]),
                roots=tuple(x.scale(w - twist) for w in spec["shifted"]),
                twist_b=x.scale(twist),
            )
            ctx.bundles.append((manifold, bundle))
            for genus in PELL_KINDS:
                kind = genera.GenusKind(genus)
                series = genera.pell(manifold, bundle, kind, genera.THETA_PRODUCT, order).series
                ctx.series[(b, genus)] = series
                outcome = series_outcome([f"{c.numerator}/{c.denominator}" for c in series.coeffs],
                                         genus, order)
                ctx.setup_outcomes[f"setup/b{b}-{genus}"] = outcome
            pair = [ctx.setup_outcomes[f"setup/b{b}-{g}"] for g in ("pell2", "pell3")]
            if not any(o.failure for o in pair):
                pair[1].failure = half_period_failure(pair[0].value, pair[1].value)
        return ctx

    def run(self, prog, ctx, job):
        a = job.args
        tol = SPEC["tol"]
        if job.kind == "laws":
            return prog.theta.transformation_law_table(a["samples"])
        manifold, bundle = ctx.bundles[a["bundle"]]
        if job.kind == "cross":
            return prog.modcheck.cross_transform(
                ctx.series[(a["bundle"], "pell1")], ctx.series[(a["bundle"], "pell2")],
                weight=manifold.weight, multiplier=2**bundle.rank, tau_samples=a["taus"],
                tol=tol)
        return prog.modcheck.check_group(
            ctx.series[(a["bundle"], a["genus"])], prog.modcheck.GroupSpec[a["group"]],
            manifold.weight, a["taus"], tol)

    def check(self, job, raw):
        if job.kind == "laws":
            worst = max(resid for _, _, resid in raw)
            if not worst < SPEC["tol"]:
                return Outcome(f"theta law residual {worst:.3e}")
            return Outcome()
        if not raw.passed:
            return Outcome(f"numeric {job.kind} check did not pass")
        return Outcome()


WORKLOADS = {w.name: w for w in (ThetaSweep, DualEngine, SchurIdentity, ModularNumeric)}
