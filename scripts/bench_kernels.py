#!/usr/bin/env python3
"""Time the exact kernels of ellgen and print one JSON line.

    python3 scripts/bench_kernels.py
    python3 scripts/bench_kernels.py --only cohring.mul.free > BENCH_x.json
    python3 scripts/bench_kernels.py --only bundleops.exp_class --against ../parent

``--only NAME`` times just the case named NAME when there is one, and
otherwise every case whose name contains NAME, so one case can be timed
alone in its own process, with no earlier case filling caches or the heap
before it.  ellgen is imported from the ``src`` directory
next to this script, so the file times the checkout it sits in.

``--against PATH`` pairs this checkout with the one at PATH (for example a
clone of the parent commit): for each selected case it runs PAIRS pairs of
child processes, one process per case and side, the side that runs first
alternating from pair to pair.  Each child is this script with ``--only``
the case name and ``ELLGEN_BENCH_SRC`` naming the side's ``src``, so both
sides run the same case code and the same calibration; the pairs are run by
``alternating`` of ``bench_pairs.py``, which writes one line per child to
standard error.  The JSON line then holds, per case instead of ``kernels``,
each side's times, the side that ran first in each pair, each side's median,
``this_faster_pairs`` and ``quartiles``: each side's median, q1 and q3, as
``bench_pairs.py`` computes them.  Cases:

- ``HalfQSeries`` multiply and invert at N = 20, 80, 320, on dense operands
  (every coefficient a random nonzero rational) and on sparse ones (random
  rationals at u^0, u^1, u^(N/2) and u^N only; a product takes one sparse
  and one dense operand, and a sparse series has a dense inverse);
- one ``HalfQSeries`` product of dense operands with 256-bit numerators at
  N = 80 (``qseries.mul.dense_big.N80``);
- ``elliptic_factor`` of the kinds THETA and THETA2 at z-degree 4 and
  N = 80, 320, timed through ``elliptic_factor.__wrapped__`` with the
  ``factor_log`` cache cleared, so that the factor and its log are built
  every time rather than read from their caches;
- ``factor_log`` of the kind THETA at z-degree 4 and N = 320
  (``theta.factor_log.THETA.z4.N320``), the log whose exp that factor is,
  built every time through ``inspect.unwrap`` (a checkout whose
  ``factor_log`` has no cache times the same call);
- ``CohElement`` multiply on CP2 and CP4 (every surviving monomial, N = 20)
  and on the free ring (every monomial up to degree 12, N = 0);
- ``sum_of_products`` of the 3 pairs (s_lam(U), s_lam'(V)), lam a partition
  of 4 in the 3 x 3 box, on the six-generator ring of
  ``tensor_exterior_identity_check(3, 3, 4)`` at order 0
  (``cohring.sum_of_products.schur6``): its right side in one pass;
- ``exp_nilpotent`` of the generator u1 of that ring at order 0
  (``cohring.schur6.exp_nilpotent.generator``), the ring's own exp that the
  check compares each closed-form exp with: six one-monomial products and the
  power series' one sum;
- ``power_sums`` of the three shifted roots of a twisted rank-3 bundle on CP4
  up to k = 4 (``cohring.power_sums.CP4.rank3.k4``), the power sums the
  theta-product engine reads a bundle side's factor log at;
- ``CohElement.invert`` of a unit on CP4 with a random dense series on every
  monomial at N = 80 (``cohring.invert.CP4.N80``);
- ``at_class`` of the odd factor (THETA, z-degree 4) at the class 4x/3 on
  CP4 at N = 320 (``theta.at_class.CP4.N320``), the substitution z -> root
  of the theta-product engine;
- pell's per-root bundle factor at z-degree 4 and N = 320, built through
  ``bundle_root_factor.__wrapped__`` with the THETA factor read from its
  cache (``genera.bundle_root_factor.z4.N320.cold``): the inverse, z-shift
  and sign that make the odd factor;
- ``graded_decompose`` of kind W for a rank-3 bundle on CP2 at N = 24
  (``bundleops.graded_decompose.W.rank3.N24``);
- ``gch`` of kinds W and B for that bundle at N = 24
  (``bundleops.gch.{W,B}.rank3.N24``): the graded character the definition
  engine multiplies into its integrand;
- ``resum_graded`` of that table, the sum of its twisted weights
  (``bundleops.resum_graded.W.rank3.N24``);
- ``graded_decompose`` and ``gch`` of kind W for a twisted rank-6 bundle on
  CP4 at N = 24, the largest table inside the guards
  (``bundleops.graded_decompose.W.rank6.CP4.N24``,
  ``bundleops.gch.W.rank6.CP4.N24``): the growth of the root product in rank;
- one warm theta-product ``pell`` of ``pell1`` for a twisted rank-3 bundle
  on CP4 at N = 320 (``genera.pell_theta.CP4.pell1.rank3.N320``): the
  universal polynomial is cached, so this times the bundle's share of the
  genus, its characteristic numbers and one sum of series;
- the same warm ``pell`` of ``pell2`` for a twisted rank-1 bundle on CP2 at
  N = 80 (``genera.pell_theta.CP2.pell2.rank1.N80``): the fixed cost of a
  small job, whose characteristic numbers are the two power sums themselves;
- that universal polynomial of ``pell2`` at z-degree 4 and 8 and N = 320,
  and at z-degree 12 and N = 80, built every time through
  ``_universal_genus.__wrapped__`` with the factor logs read from their cache
  (``genera.universal_genus.z{4,8}.N320.cold``,
  ``genera.universal_genus.z12.N80.cold``): the cost a process pays once per
  kind, z-degree and order; a checkout without ``_universal_genus`` cannot
  run these cases;
- the two universal polynomials that ``cancel12`` reads, of ``pell1`` and
  ``pell2`` at z-degree 6 and N = 1, built the same way in one call
  (``genera.universal_genus.z6.N1.cold``);
- ``exp_nilpotent`` of that genus's log integrand in the ring of CP4, the
  tangent log plus the THETA1 factor log at the shifted roots' power sums,
  built in setup (``cohring.exp_nilpotent.CP4.pell1.rank3.N320``): the
  per-manifold exp that the universal polynomial replaced;
- ``exp_class`` of the two shifted roots of that twisted rank-2 bundle on CP4
  at N = 24 (``bundleops.exp_class.CP4.rank2.N24``), the exp every character
  of the definition engine starts from;
- one warm ``pell(..., method="definition")`` of ``pell1`` for a twisted
  rank-2 bundle on CP4 at N = 24, the definition engine's top order
  (``genera.pell_definition.CP4.pell1.rank2.N24``);
- ``log_lambda_sum`` of the 6 roots of a twisted rank-3 bundle on CP4 and
  its conjugate, at half levels and N = 24
  (``bundleops.log_lambda_sum.CP4.rank3.half.N24``), the bundle side of
  ``gch_closed_form`` of kind B;
- the bundle-free part of the definition integrand on CP4 at N = 24 and
  N = 160, built cold through ``_definition_tangent_part.__wrapped__``
  (``genera.definition_tangent_part.CP4.N{24,160}.cold``);
- ``gch_closed_form`` of kind B for the twisted rank-2 bundle on CP4 at
  N = 80 (``bundleops.gch_closed_form.B.rank2.CP4.N80``), the closed form
  that ``decompose`` and the tests compare ``gch`` against;
- ``schur_character`` of the shape (3, 2, 1) for a twisted rank-3 bundle on
  CP4 at N = 8;
- ``tensor_exterior_identity_check(3, 3, 4)``, the largest case of
  ``verify --suite schur``;
- the whole round of that check's 27 cases (ranks 1-3, n <= min(4, rank_u *
  rank_v)), as the schur-identity benchmark workload runs them, in one call
  (``bundleops.tensor_exterior_identity_check.round27``);
- one warm ``cli.main compute --json`` of ``pell1`` for a twisted rank-2
  bundle on CP4 at N = 320 (``cli.compute_json.CP4.pell1.N320``): the
  memoized manifold- and order-only factors are filled by the first call,
  so this times the bundle's share of the genus plus the rendering;
- one warm ``cli.main decompose --kind W`` of a twisted rank-2 bundle on CP2
  at N = 12, as dual-engine's decompose jobs run it
  (``cli.decompose.W.rank2.N12``): the weight table, its check against the
  closed form and the rendered table;
- one warm ``cli.main cancel12 --rank 2``, as dual-engine's cancel12 jobs run
  it (``cli.cancel12.rank2``): the degree-12 check with s2T := s2E imposed
  and its rendered report;
- ``cancellation12_check`` at rank 4 with ``impose_relation=False``
  (``genera.cancellation12_check.rank4.no_relation``): the free residual and
  the matched one that decides its divisibility;
- ``load_manifest`` of that twisted rank-3 bundle on the builtin CP4, read
  from a JSON file (``cli.load_manifest.CP4.rank3``);
- the parse alone of a theta-sweep ``compute --json`` command line
  (``cli.parse_args.compute``), with the parser built once per process;
- the render alone of that job's coefficient block, 321 coefficients
  written from the integer numerators (``cli.render_coefficients.N320``);
- ``HalfQSeries.eval_numeric`` of the exact ``pell3`` series of that bundle
  at N = 80, 160, 320, at the sample u = e^(i pi tau) for tau = 0.3 + 1.2i
  (``qseries.eval_numeric.N...``);
- ``theta_numeric`` of the kind THETA at v = 0.13 + 0.04i, tau = 0.3 + 1.2i
  with 60 product terms (``theta.theta_numeric.THETA.terms60``);
- ``transformation_law_table`` at ``DEFAULT_LAW_SAMPLES`` with 60 product
  terms (``theta.transformation_law_table.default``): all eight theta laws;
- ``check_group`` over Gamma0(2) of the exact ``pell1`` series at N = 160 of
  a twisted rank-2 bundle on CP4 whose shifted roots x and 2x match the
  tangent p1, built in setup, at three tau samples
  (``modcheck.check_group.Gamma0_2.CP4.N160``);
- warm in-process ``cli.main verify`` of every suite, as the README runs
  them (``cli.verify.<suite>``): jacobi at N = 20, theta-laws, consistency
  on ``manifests/cp2_rank2.json`` at N = 12, half-period on
  ``manifests/cp2_o1.json``, s-transform on ``manifests/cp2_matched.json``
  and schur (its 27 tensor-exterior identity cases).

``case_table`` maps each case name to a setup that builds the case's operands
and returns the call to time.  Random operands come from a generator seeded
by the case name, so a case times the same call alone or among the others.

Each case reports the median over REPEATS timed batches of the time per call,
in reference-speed microseconds; a batch repeats the call until it has run
for BATCH_S seconds.  The calibration kernel of ``perfbench/speed.py`` is
timed just before and just after each batch, and ``speed.scale`` converts
the batch's wall time to the host speed at which that kernel takes
``speed.REFERENCE_S``, so drift of the host's speed between batches and
between runs cancels.  ``exponents`` holds the least-squares slope of
log(time) against log(N) for each series case and for
``qseries.eval_numeric``, when at least two of its orders were timed.

The JSON line also records the git revision of the checkout (read from
``.git`` as ``perfbench/run.py`` reads it, "unknown" outside a work tree)
and ``bytecode_written``: whether this interpreter writes ``.pyc`` files,
since compiling the sources on every import moves setup timings.
"""

from __future__ import annotations

import argparse
import cmath
import inspect
import io
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC_ENV = "ELLGEN_BENCH_SRC"
SRC = Path(os.environ.get(SRC_ENV) or ROOT / "src")
sys.path.insert(0, str(SRC))
sys.path.append(str(ROOT / "perfbench"))
sys.path.append(str(ROOT / "scripts"))

import speed  # noqa: E402  (perfbench/speed.py, read only)
from bench_pairs import SIDES, alternating, spread  # noqa: E402
from ellgen import cli, genera  # noqa: E402
from ellgen.bundleops import (  # noqa: E402
    GradedKind,
    ProjBundle,
    exp_class,
    gch,
    gch_closed_form,
    conjugate_partition,
    graded_decompose,
    log_lambda_sum,
    partitions_in_box,
    resum_graded,
    schur_character,
    tensor_exterior_identity_check,
)
from ellgen.cohring import (  # noqa: E402
    CohElement,
    LinearClass,
    RingPresentation,
    builtin_manifold,
    exp_nilpotent,
    power_sums,
    sum_of_products,
)
from ellgen.genera import DEFINITION, GenusKind, pell  # noqa: E402
from ellgen.modcheck import GroupSpec, check_group  # noqa: E402
from ellgen.qseries import HalfQSeries  # noqa: E402
from ellgen.theta import (  # noqa: E402
    DEFAULT_LAW_SAMPLES,
    ThetaKind,
    elliptic_factor,
    factor_log,
    theta_numeric,
    transformation_law_table,
)

ORDERS = (20, 80, 320)
EVAL_ORDERS = (80, 160, 320)
REPEATS = 5
BATCH_S = 0.2
PAIRS = 10
TAU = 0.3 + 1.2j
GROUP_TAUS = (1.1j, 0.3 + 1.2j, -0.2 + 1.15j)
VERIFY_ARGS = {
    "jacobi": ["--order", "20"],
    "theta-laws": [],
    "consistency": ["--input", str(ROOT / "manifests" / "cp2_rank2.json"), "--order", "12"],
    "half-period": ["--input", str(ROOT / "manifests" / "cp2_o1.json")],
    "s-transform": ["--input", str(ROOT / "manifests" / "cp2_matched.json")],
    "schur": [],
}


def time_call(fn) -> float:
    """Median reference-speed seconds per call of ``fn`` over REPEATS batches."""
    fn()
    per_call = []
    for _ in range(REPEATS):
        calls = 0
        before = speed.probe()
        t0 = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= BATCH_S:
                break
        per_call.append(elapsed / calls * speed.scale(before, speed.probe()))
    return statistics.median(per_call)


def rational(rng: random.Random, top: int = 9) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, 6))


def dense_series(rng: random.Random, order: int, top: int = 9) -> HalfQSeries:
    return HalfQSeries(order, [rational(rng, top) for _ in range(order + 1)])


def sparse_series(rng: random.Random, order: int) -> HalfQSeries:
    cs = [Fraction(0)] * (order + 1)
    for k in (0, 1, order // 2, order):
        cs[k] = rational(rng)
    return HalfQSeries(order, cs)


def full_element(rng: random.Random, manifold, order: int) -> CohElement:
    """An element with a random series on every monomial of degree <= top."""
    pres = manifold.presentation
    bounds = [pres.top_degree // deg for _, deg in pres.generators]
    coeffs = {
        mono: dense_series(rng, order)
        for mono in product(*(range(b + 1) for b in bounds))
        if not pres.is_zero_monomial(mono)
    }
    return CohElement(pres, order, coeffs)


def slope(points: dict[int, float]) -> float:
    xs = [math.log(n) for n in points]
    ys = [math.log(t) for t in points.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def cp2_rank3():
    """CP2 and a twisted rank-3 bundle on it."""
    cp2 = builtin_manifold("CP2")
    x = LinearClass.generator(cp2.presentation, "x")
    return cp2, ProjBundle(
        rank=3, roots=(x, x.scale(-1), x.scale(Fraction(1, 2))), twist_b=x.scale(Fraction(1, 3))
    )


def cp4_bundles():
    """CP4 with a twisted rank-2 bundle (the ``cp4_rank2.json`` manifest) and a rank-3 one."""
    cp4 = builtin_manifold("CP4")
    x = LinearClass.generator(cp4.presentation, "x")
    twist = x.scale(Fraction(1, 3))
    rank2 = ProjBundle(rank=2, roots=(x, x.scale(Fraction(-1, 2))), twist_b=twist)
    rank3 = ProjBundle(rank=3, roots=(x, x.scale(-1), x.scale(Fraction(1, 2))), twist_b=twist)
    return cp4, rank2, rank3


def cp4_rank6():
    """A twisted rank-6 bundle on CP4, with a zero root and roots of denominator 2."""
    x = LinearClass.generator(builtin_manifold("CP4").presentation, "x")
    values = (1, -1, Fraction(1, 2), 2, Fraction(-3, 2), 0)
    return ProjBundle(rank=6, roots=tuple(x.scale(v) for v in values), twist_b=x.scale(Fraction(1, 3)))


def schur6():
    """The six-generator ring of ``tensor_exterior_identity_check(3, 3, 4)`` and its generators."""
    names = ("u1", "u2", "u3", "v1", "v2", "v3")
    pres = RingPresentation(generators=tuple((name, 2) for name in names), top_degree=12)
    return pres, [LinearClass.generator(pres, name) for name in names]


def case_table(tmp: Path) -> dict:
    """Case name -> setup: a function that builds the operands and returns the timed call.

    ``tmp`` is a directory for the manifests that the ``cli.compute_json`` and
    ``cli.load_manifest`` cases read.
    """
    table = {}

    def case(name):
        def register(setup):
            table[name] = setup
            return setup
        return register

    for kind in ("mul.dense", "mul.sparse", "invert.dense", "invert.sparse"):
        for n in ORDERS:
            @case(f"qseries.{kind}.N{n}")
            def _(kind=kind, n=n):
                rng = random.Random(f"qseries.{kind}.N{n}")
                a, b, s = dense_series(rng, n), dense_series(rng, n), sparse_series(rng, n)
                return {
                    "mul.dense": lambda: a * b,
                    "mul.sparse": lambda: s * a,
                    "invert.dense": a.invert,
                    "invert.sparse": s.invert,
                }[kind]

    @case("qseries.mul.dense_big.N80")
    def _():
        rng = random.Random("qseries.mul.dense_big.N80")
        a, b = dense_series(rng, 80, 2**256), dense_series(rng, 80, 2**256)
        return lambda: a * b

    for kind in (ThetaKind.THETA, ThetaKind.THETA2):
        for n in (80, 320):
            @case(f"theta.elliptic_factor.{kind.name}.z4.N{n}")
            def _(kind=kind, n=n):
                def build():
                    factor_log.cache_clear()
                    return elliptic_factor.__wrapped__(kind, 4, n)
                return build

    @case("theta.factor_log.THETA.z4.N320")
    def _():
        return lambda: inspect.unwrap(factor_log)(ThetaKind.THETA, 4, 320)

    for manifold_name, order in (("CP2", 20), ("CP4", 20), ("free", 0)):
        @case(f"cohring.mul.{manifold_name}.N{order}")
        def _(manifold_name=manifold_name, order=order):
            rng = random.Random(f"cohring.mul.{manifold_name}.N{order}")
            manifold = builtin_manifold(manifold_name)
            x, y = full_element(rng, manifold, order), full_element(rng, manifold, order)
            return lambda: x * y

    @case("cohring.sum_of_products.schur6")
    def _():
        pres, roots = schur6()
        zero = LinearClass.zero(pres)
        u = ProjBundle(rank=3, roots=tuple(roots[:3]), twist_b=zero)
        v = ProjBundle(rank=3, roots=tuple(roots[3:]), twist_b=zero)
        pairs = [(schur_character(lam, u, 0), schur_character(conjugate_partition(lam), v, 0))
                 for lam in partitions_in_box(4, 3, 3)]
        return lambda: sum_of_products(pairs)

    @case("cohring.schur6.exp_nilpotent.generator")
    def _():
        generator = schur6()[1][0].as_element(0)
        return lambda: exp_nilpotent(generator)

    @case("cohring.power_sums.CP4.rank3.k4")
    def _():
        cp4, _, rank3 = cp4_bundles()
        shifted = rank3.shifted_roots()
        return lambda: power_sums(shifted, cp4.presentation, 4)

    @case("cohring.invert.CP4.N80")
    def _():
        unit = full_element(random.Random("cohring.invert.CP4.N80"), builtin_manifold("CP4"), 80)
        return unit.invert

    @case("theta.at_class.CP4.N320")
    def _():
        cp4 = builtin_manifold("CP4")
        factor = elliptic_factor(ThetaKind.THETA, 4, 320)
        root = LinearClass.generator(cp4.presentation, "x", Fraction(4, 3))
        return lambda: factor.at_class(root)

    @case("genera.bundle_root_factor.z4.N320.cold")
    def _():
        return lambda: genera.bundle_root_factor.__wrapped__(4, 320)

    @case("bundleops.graded_decompose.W.rank3.N24")
    def _():
        _, bundle = cp2_rank3()
        return lambda: graded_decompose(GradedKind.W, bundle, 24)

    for kind in (GradedKind.W, GradedKind.B):
        @case(f"bundleops.gch.{kind.value}.rank3.N24")
        def _(kind=kind):
            _, bundle = cp2_rank3()
            return lambda: gch(kind, bundle, 24)

    @case("bundleops.graded_decompose.W.rank6.CP4.N24")
    def _():
        bundle = cp4_rank6()
        return lambda: graded_decompose(GradedKind.W, bundle, 24)

    @case("bundleops.gch.W.rank6.CP4.N24")
    def _():
        bundle = cp4_rank6()
        return lambda: gch(GradedKind.W, bundle, 24)

    @case("bundleops.resum_graded.W.rank3.N24")
    def _():
        cp2, bundle = cp2_rank3()
        graded = graded_decompose(GradedKind.W, bundle, 24)
        return lambda: resum_graded(graded, cp2.presentation)

    @case("genera.pell_theta.CP4.pell1.rank3.N320")
    def _():
        cp4, _, rank3 = cp4_bundles()
        return lambda: pell(cp4, rank3, GenusKind.PELL1, order=320)

    @case("genera.pell_theta.CP2.pell2.rank1.N80")
    def _():
        cp2 = builtin_manifold("CP2")
        x = LinearClass.generator(cp2.presentation, "x")
        rank1 = ProjBundle(rank=1, roots=(x,), twist_b=x.scale(Fraction(1, 3)))
        return lambda: pell(cp2, rank1, GenusKind.PELL2, order=80)

    for z_degree, order in ((4, 320), (8, 320), (12, 80)):
        @case(f"genera.universal_genus.z{z_degree}.N{order}.cold")
        def _(z_degree=z_degree, order=order):
            return lambda: genera._universal_genus.__wrapped__(GenusKind.PELL2, z_degree, order)

    @case("genera.universal_genus.z6.N1.cold")
    def _():
        build = genera._universal_genus.__wrapped__
        return lambda: (build(GenusKind.PELL1, 6, 1), build(GenusKind.PELL2, 6, 1))

    @case("cohring.exp_nilpotent.CP4.pell1.rank3.N320")
    def _():
        cp4, _, rank3 = cp4_bundles()
        sums = power_sums(rank3.shifted_roots(), cp4.presentation, 4)
        bundle_log = factor_log(ThetaKind.THETA1, 4, 320).at_power_sums(sums)
        log = factor_log(ThetaKind.THETA, 4, 320).at_power_sums(cp4.tangent_power_sums) + bundle_log
        return lambda: exp_nilpotent(log)

    @case("bundleops.exp_class.CP4.rank2.N24")
    def _():
        _, rank2, _ = cp4_bundles()
        shifted = rank2.shifted_roots()
        return lambda: [exp_class(w, 24) for w in shifted]

    @case("genera.pell_definition.CP4.pell1.rank2.N24")
    def _():
        cp4, rank2, _ = cp4_bundles()
        return lambda: pell(cp4, rank2, GenusKind.PELL1, DEFINITION, 24)

    @case("bundleops.log_lambda_sum.CP4.rank3.half.N24")
    def _():
        cp4, _, rank3 = cp4_bundles()
        shifted = rank3.shifted_roots()
        six = shifted + tuple(-w for w in shifted)
        return lambda: log_lambda_sum(six, -1, "half", 24, cp4.presentation)

    for n in (24, 160):
        @case(f"genera.definition_tangent_part.CP4.N{n}.cold")
        def _(n=n):
            cp4 = builtin_manifold("CP4")
            return lambda: genera._definition_tangent_part.__wrapped__(cp4, n)

    @case("bundleops.gch_closed_form.B.rank2.CP4.N80")
    def _():
        _, rank2, _ = cp4_bundles()
        return lambda: gch_closed_form(GradedKind.B, rank2, 80)

    @case("bundleops.schur_character.321.CP4.rank3.N8")
    def _():
        _, _, rank3 = cp4_bundles()
        return lambda: schur_character((3, 2, 1), rank3, 8)

    @case("bundleops.tensor_exterior_identity_check.3x3.n4")
    def _():
        return lambda: tensor_exterior_identity_check(3, 3, 4)

    @case("bundleops.tensor_exterior_identity_check.round27")
    def _():
        cases = [(ru, rv, n) for ru in range(1, 4) for rv in range(1, 4)
                 for n in range(1, min(4, ru * rv) + 1)]
        return lambda: all([tensor_exterior_identity_check(*case) for case in cases])

    @case("cli.compute_json.CP4.pell1.N320")
    def _():
        path = tmp / "cp4_rank2.json"
        path.write_text(json.dumps({
            "manifold": "CP4",
            "bundle": {"rank": 2, "roots": [{"x": "1"}, {"x": "-1/2"}],
                       "twist_b": {"x": "1/3"}},
            "order": 320,
        }), encoding="utf-8")
        argv = ["compute", "--input", str(path), "--genus", "pell1", "--json"]
        return lambda: cli.main(argv, out=io.StringIO())

    @case("cli.decompose.W.rank2.N12")
    def _():
        path = tmp / "cp2_rank2.json"
        path.write_text(json.dumps({
            "manifold": "CP2",
            "bundle": {"rank": 2, "roots": [{"x": "3/2"}, {"x": "-1"}],
                       "twist_b": {"x": "1/3"}},
        }), encoding="utf-8")
        argv = ["decompose", "--input", str(path), "--kind", "W", "--order", "12"]
        return lambda: cli.main(argv, out=io.StringIO())

    @case("cli.cancel12.rank2")
    def _():
        return lambda: cli.main(["cancel12", "--rank", "2"], out=io.StringIO())

    @case("genera.cancellation12_check.rank4.no_relation")
    def _():
        return lambda: genera.cancellation12_check(4, impose_relation=False)

    @case("cli.load_manifest.CP4.rank3")
    def _():
        path = tmp / "cp4_rank3.json"
        path.write_text(json.dumps({
            "manifold": "CP4",
            "bundle": {"rank": 3, "roots": [{"x": "1"}, {"x": "-1"}, {"x": "1/2"}],
                       "twist_b": {"x": "1/3"}},
            "order": 320,
        }), encoding="utf-8")
        return lambda: cli.load_manifest(str(path))

    @case("cli.parse_args.compute")
    def _():
        argv = ["compute", "--input", str(tmp / "cp4_rank2.json"), "--genus", "pell1",
                "--order", "320", "--json"]
        return lambda: cli.parse_args(argv)

    @case("cli.render_coefficients.N320")
    def _():
        cp4, rank2, _ = cp4_bundles()
        series = pell(cp4, rank2, GenusKind.PELL1, order=320).series
        return lambda: cli.compute_json({"coefficients": series})

    for n in EVAL_ORDERS:
        @case(f"qseries.eval_numeric.N{n}")
        def _(n=n):
            cp4, rank2, _ = cp4_bundles()
            f = pell(cp4, rank2, GenusKind.PELL3, order=n).series
            u = cmath.exp(1j * cmath.pi * TAU)
            return lambda: f.eval_numeric(u)

    @case("theta.theta_numeric.THETA.terms60")
    def _():
        return lambda: theta_numeric(ThetaKind.THETA, 0.13 + 0.04j, TAU, 60)

    @case("theta.transformation_law_table.default")
    def _():
        return lambda: transformation_law_table(DEFAULT_LAW_SAMPLES, 60)

    @case("modcheck.check_group.Gamma0_2.CP4.N160")
    def _():
        cp4 = builtin_manifold("CP4")
        x = LinearClass.generator(cp4.presentation, "x")
        twist = Fraction(1, 3)
        # shifted roots x and 2x: 1 + 4 = 5, the tangent p1 of CP4 in units of x^2
        bundle = ProjBundle(rank=2, roots=(x.scale(1 - twist), x.scale(2 - twist)),
                            twist_b=x.scale(twist))
        f = pell(cp4, bundle, GenusKind.PELL1, order=160).series
        return lambda: check_group(f, GroupSpec.Gamma0_2, cp4.weight, GROUP_TAUS)

    for suite, extra in VERIFY_ARGS.items():
        @case(f"cli.verify.{suite}")
        def _(argv=("verify", "--suite", suite, *extra)):
            return lambda: cli.main(list(argv), out=io.StringIO())

    return table


def exponents(kernels: dict[str, float]) -> dict[str, float]:
    """Slope of log(time) against log(N) per series case with at least two orders timed."""
    groups: dict[str, dict[int, float]] = {}
    for name, t in kernels.items():
        hit = re.fullmatch(r"(qseries\.(?:(?:mul|invert)\.(?:dense|sparse)|eval_numeric))\.N(\d+)",
                           name)
        if hit:
            groups.setdefault(hit[1], {})[int(hit[2])] = t
    return {group: round(slope(points), 3) for group, points in groups.items() if len(points) > 1}


def git_revision(root: Path = ROOT) -> str:
    """HEAD of the checkout at root if it is a git work tree, else "unknown"."""
    git = root / ".git"
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


def child_time(name: str, src: Path) -> float:
    """The time of the one case ``name`` in a new process importing ellgen from src."""
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--only", name],
        env={**os.environ, SRC_ENV: str(src)}, capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])["kernels"][name]


def paired(names: list[str], against: Path) -> dict:
    """Per case, PAIRS pairs of child times for this checkout and the one at
    ``against``, the side that runs first alternating from pair to pair
    (``bench_pairs.alternating``), with each side's median and quartiles."""
    srcs = {"this": ROOT / "src", "against": against / "src"}
    out = {}
    for name in names:
        runs = alternating(PAIRS, lambda side: child_time(name, srcs[side]), lambda t: f"{t} us")
        times = {side: [run[side] for run in runs] for side in SIDES}
        quartiles = {side: spread(times[side]) for side in SIDES}
        out[name] = {
            **times, "first_in_pair": [run["first"] for run in runs],
            "this_median": quartiles["this"]["median"],
            "against_median": quartiles["against"]["median"],
            "this_faster_pairs": sum(t < a for t, a in zip(times["this"], times["against"])),
            "quartiles": quartiles,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time the exact kernels of ellgen.")
    parser.add_argument("--only", metavar="NAME",
                        help="time only the case NAME, or else the cases whose names contain NAME")
    parser.add_argument("--against", metavar="PATH", type=Path,
                        help="pair this checkout with the checkout at PATH, case by case")
    args = parser.parse_args(argv)
    if args.against and not (args.against / "src" / "ellgen" / "__init__.py").is_file():
        parser.error(f"no ellgen package under {args.against / 'src'}")
    with tempfile.TemporaryDirectory() as tmp:
        table = case_table(Path(tmp))
        names = [args.only] if args.only in table else [
            name for name in table if args.only is None or args.only in name]
        if not names:
            parser.error(f"no case name contains {args.only!r}")
        if args.against:
            record = {"pairs": paired(names, args.against.resolve()),
                      "against_revision": git_revision(args.against.resolve())}
        else:
            kernels = {name: round(time_call(table[name]()) * 1e6, 2) for name in names}
            record = {"kernels": kernels, "exponents": exponents(kernels)}
    line = json.dumps({
        "unit": "reference-speed us per call, median of batches",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "revision": git_revision(SRC.parent),
        "bytecode_written": not sys.dont_write_bytecode,
        **record,
    })
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
