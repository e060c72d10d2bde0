"""The reach map of the two engines: what both may run.

The theta-product and definition engines cross-check each other only where they
run different code.  This test records, with `sys.setprofile`, every `ellgen`
function each engine reaches for pell..pell3 of `manifests/cp2_rank2.json` and
`manifests/cp4_rank2.json` at N = 8, every engine cache cleared first, and
asserts that the functions both reach lie in `SHARED`.  A function that a change
makes shared fails the test until it is listed there with its reason.  Nested
functions and comprehensions count as the function that encloses them.
"""

import os
import sys
from pathlib import Path

import pytest

import ellgen
from ellgen import cli, genera, qseries, theta
from ellgen.genera import DEFINITION, THETA_PRODUCT, GenusKind, pell

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="code objects carry co_qualname from Python 3.11 on")
MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
KINDS = (GenusKind.PELL, GenusKind.PELL1, GenusKind.PELL2, GenusKind.PELL3)
ENGINE_CACHES = (theta.z_ring, theta.factor_log, theta.elliptic_factor, genera._tangent_core,
                 genera.bundle_root_factor, genera._universal_genus,
                 genera._definition_tangent_part, qseries.eta_like_product)

SHARED = {
    # ring elements and their construction, sums, products, exp and integration: exact
    # arithmetic with no genus in it, checked against brute force in test_cohring.py
    # and test_packed_elements.py
    "cohring.CohElement.__add__", "cohring.CohElement.__init__", "cohring.CohElement.__mul__",
    "cohring.CohElement.__neg__", "cohring.CohElement.__sub__", "cohring.CohElement._hold",
    "cohring.CohElement._of", "cohring.CohElement.coefficient", "cohring.CohElement.from_packed",
    "cohring.CohElement.is_zero", "cohring.CohElement.one", "cohring.CohElement.packed",
    "cohring.CohElement.scalar", "cohring.CohElement.scalar_part", "cohring.CohElement.scaled",
    "cohring.CohElement.zero", "cohring._power_series", "cohring._ring_and_order",
    "cohring.exp_nilpotent", "cohring.integrate", "cohring.sum_of_elements",
    "cohring.sum_of_products",
    # the ring presentation's monomial table and integration weights: the manifold input
    "cohring.RingPresentation.integral_of", "cohring.RingPresentation.is_zero_monomial",
    "cohring.RingPresentation.unit_monomial", "cohring._PackedKeys.__missing__",
    # degree-2 classes: the Chern roots as given, their sums (b shifts each bundle root) and
    # their text in the report
    "cohring.LinearClass.__add__", "cohring.LinearClass.__hash__",
    "cohring.LinearClass.__init__", "cohring.LinearClass.__str__",
    # the manifold input: the tangent roots' power sums, in integer closed form, and the
    # report's weight
    "cohring.Manifold.tangent_power_sums", "cohring.Manifold.weight",
    "cohring.power_sum_numerators", "cohring.power_sums",
    # truncated q-series arithmetic, checked against Fraction convolution in test_qseries.py
    # and test_qseries_integer.py
    "qseries.HalfQSeries.__init__", "qseries.HalfQSeries.__mul__",
    "qseries.HalfQSeries.coefficient", "qseries.HalfQSeries.coeffs",
    "qseries.HalfQSeries.constant", "qseries.HalfQSeries.invert", "qseries.HalfQSeries.is_zero",
    "qseries.HalfQSeries.one", "qseries.HalfQSeries.truncate", "qseries.HalfQSeries.u_power",
    "qseries.HalfQSeries.zero", "qseries._bias", "qseries._digit_bytes", "qseries._int_product",
    "qseries._kronecker_product", "qseries._pack", "qseries._series", "qseries._unpack",
    "qseries.from_numerators", "qseries.sum_of_numerators",
    # the bundle input: its ring, the shifted roots y_j + b, and its text in the report
    "bundleops.ProjBundle.describe", "bundleops.ProjBundle.presentation",
    "bundleops.ProjBundle.shifted_roots",
    # the sign and level of a theta kind's product, data that each engine reads to build its
    # own factor: no theta factor is evaluated by both
    "theta.ThetaKind.half", "theta.ThetaKind.sign",
    # the public entry point, which dispatches to one engine
    "genera.pell",
}


def _reach(cases, method) -> set[str]:
    """module.qualname of every ellgen function that pell..pell3 reach by `method`, cold."""
    for cache in ENGINE_CACHES:
        cache.cache_clear()
    for manifest in cases:
        manifest.manifold.__dict__.pop("tangent_power_sums", None)
        manifest.manifold.presentation._table.clear()
    package, seen = os.path.dirname(ellgen.__file__) + os.sep, set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package):
            module = os.path.basename(code.co_filename)[:-3]
            seen.add(f"{module}.{code.co_qualname.split('.<locals>')[0]}")

    sys.setprofile(profile)
    try:
        for manifest in cases:
            for kind in KINDS:
                pell(manifest.manifold, manifest.bundle, kind, method, 8)
    finally:
        sys.setprofile(None)
        for cache in ENGINE_CACHES:
            cache.cache_clear()
    return seen


@pytest.fixture(scope="module")
def reach():
    cases = [cli.load_manifest(str(MANIFESTS / name))
             for name in ("cp2_rank2.json", "cp4_rank2.json")]
    return {method: _reach(cases, method) for method in (THETA_PRODUCT, DEFINITION)}


def test_each_engine_runs_its_own_route(reach):
    assert {"genera._pell_theta_product", "genera._universal_genus",
            "theta.factor_log"} <= reach[THETA_PRODUCT]
    assert {"genera._pell_definition", "genera._a_hat_log",
            "bundleops.gch"} <= reach[DEFINITION] - reach[THETA_PRODUCT]


def test_the_engines_share_only_the_listed_functions(reach):
    assert (reach[THETA_PRODUCT] & reach[DEFINITION]) - SHARED == set()
