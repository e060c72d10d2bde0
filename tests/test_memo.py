"""The memoized manifold- and order-only factors of the two genus engines.

The theta-product engine caches `theta.elliptic_factor`, `theta.factor_log`,
`genera.bundle_root_factor` (pell's odd factor, keyed by z-degree and order)
and `genera._tangent_core`;
the definition engine caches `genera._definition_tangent_part` and
`qseries.eta_like_product`.  The engines must share no cached object, a
cached value must equal its recomputation, and no caller may mutate one.
A builtin manifold is built once per process and shared by both engines as
an input, not as a result: it is frozen.
"""

import dataclasses
import json
from fractions import Fraction

import pytest

from ellgen import cli, genera, qseries, theta
from ellgen.bundleops import ProjBundle
from ellgen.cohring import LinearClass, builtin_manifold
from ellgen.genera import DEFINITION, THETA_PRODUCT, GenusKind, pell, witten_genus
from ellgen.qseries import HalfQSeries
from ellgen.theta import FactorSeries, ThetaKind

ORDER = 20
KINDS = (GenusKind.PELL, GenusKind.PELL1, GenusKind.PELL2, GenusKind.PELL3)
THETA_CACHES = (theta.elliptic_factor, genera.bundle_root_factor, genera._tangent_core,
                theta.factor_log)
DEFINITION_CACHES = (genera._definition_tangent_part, qseries.eta_like_product)


def clear_caches():
    for fn in THETA_CACHES + DEFINITION_CACHES:
        fn.cache_clear()


def twisted_bundle(m):
    x = LinearClass.generator(m.presentation, "x")
    return ProjBundle(rank=2, roots=(x, x.scale(Fraction(-1, 2))), twist_b=x.scale(Fraction(1, 3)))


def run_engine(m, e, method):
    return {kind: pell(m, e, kind, method, ORDER).series for kind in KINDS}


@pytest.mark.parametrize("name", ["CP2", "CP4"])
def test_engines_agree_and_share_no_cache(name):
    m = builtin_manifold(name)
    e = twisted_bundle(m)
    clear_caches()
    by_definition = run_engine(m, e, DEFINITION)
    # the definition engine never reaches a theta-product cache ...
    assert all(fn.cache_info().currsize == 0 for fn in THETA_CACHES)
    definition_info = [fn.cache_info() for fn in DEFINITION_CACHES]
    by_theta = run_engine(m, e, THETA_PRODUCT)
    # ... and the theta-product engine never calls a definition cache
    assert [fn.cache_info() for fn in DEFINITION_CACHES] == definition_info
    assert by_theta == by_definition

    # warm caches, both engines: nothing is recomputed
    misses = [fn.cache_info().misses for fn in THETA_CACHES + DEFINITION_CACHES]
    assert run_engine(m, e, THETA_PRODUCT) == by_theta
    assert run_engine(m, e, DEFINITION) == by_definition
    assert [fn.cache_info().misses for fn in THETA_CACHES + DEFINITION_CACHES] == misses

    # cleared again, the other engine first
    clear_caches()
    assert run_engine(m, e, THETA_PRODUCT) == by_theta
    assert run_engine(m, e, DEFINITION) == by_definition


def _snapshot(value):
    """Everything that equality and the kernels read, by identity of the tuples."""
    if isinstance(value, HalfQSeries):
        return (value.order, value.nums, value.den)
    elem = value.elem if isinstance(value, FactorSeries) else value
    return (
        elem.presentation,
        elem.order,
        {mono: (s.order, s.nums, s.den) for mono, s in elem.coeffs.items()},
    )


def test_cached_values_equal_recomputation_and_stay_unchanged(cp4):
    e = twisted_bundle(cp4)
    z_degree = genera._z_degree(cp4)
    cases = [(theta.elliptic_factor, (kind, z_degree, ORDER)) for kind in ThetaKind]
    cases += [(theta.factor_log, (kind, z_degree, ORDER)) for kind in ThetaKind]
    cases += [(genera.bundle_root_factor, (z_degree, ORDER))]
    cases += [
        (genera._tangent_core, (cp4, ORDER)),
        (genera._definition_tangent_part, (cp4, ORDER)),
        (qseries.eta_like_product, (-1, False, cp4.dimension, ORDER)),
        (qseries.eta_like_product, (1, True, -2 * e.rank, ORDER)),
    ]
    clear_caches()
    cached = [fn(*args) for fn, args in cases]
    before = [_snapshot(value) for value in cached]

    for kind in KINDS:
        for method in (THETA_PRODUCT, DEFINITION):
            pell(cp4, e, kind, method, ORDER)
    witten_genus(cp4, ORDER)
    genera.classical_recovery_check(cp4, ProjBundle(
        rank=1, roots=(LinearClass.generator(cp4.presentation, "x"),),
        twist_b=LinearClass.zero(cp4.presentation),
    ), ORDER)

    for (fn, args), value, snap in zip(cases, cached, before):
        assert fn(*args) is value
        assert _snapshot(value) == snap
        assert value == fn.__wrapped__(*args)


def test_builtin_manifolds_are_built_once_and_frozen(tmp_path):
    assert builtin_manifold("CP4") is builtin_manifold(" cp4 ")
    assert builtin_manifold("CP2") is not builtin_manifold("CP4")
    manifolds = []
    for i, name in enumerate(["CP4", "  Cp4"]):
        path = tmp_path / f"m{i}.json"
        path.write_text(json.dumps({"manifold": name, "order": 2}), encoding="utf-8")
        manifolds.append(cli.load_manifest(str(path)).manifold)
    assert manifolds[0] is manifolds[1] is builtin_manifold("CP4")
    with pytest.raises(dataclasses.FrozenInstanceError):
        manifolds[0].name = "CP5"
    with pytest.raises(dataclasses.FrozenInstanceError):
        manifolds[0].presentation.top_degree = 10
