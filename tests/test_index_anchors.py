"""Index anchors: the q^0 coefficient of pell1 against facts from outside the library.

At q^0 the tangent factors of pell1 give the A-hat class and each shifted
bundle root w gives 2 cosh(w/2), so [pell1]_(q^0) = int A-hat(M) prod_j 2 cosh(w_j/2).
An elliptic operator's genera are pell on its reduced bundle, so each anchor
below is the index of an operator.

- Fractional Riemann-Roch on CP^n, n even (the Dolbeault operator twisted by
  O(t - (n+1)/2), a spin^c Dirac operator): one shifted root w = 2t x gives
  2 P_n(t), with P_n(t) = int A-hat(CP^n) e^(tx) = prod_(i=1..n) (t - (n+1)/2 + i) / n!,
  which is chi(CP^n, O(t - (n+1)/2)).  It is an integer exactly when
  t is in Z + 1/2, the spin^c twists; at t = (n+1)/2 it is 2 Td = 2, the
  untwisted Dolbeault operator.
- Rank l (the Dolbeault operator twisted by a sum of fractional line
  bundles): prod_j 2 cosh(w_j/2) = sum over signs e^(sum_j e_j w_j / 2), so
  shifted roots w_j = 2 t_j x give sum over signs of P_n(sum_j e_j t_j).
- Signature (the signature operator): the r stable tangent roots as the
  bundle, untwisted, give 2^(r - dim/2) sign(M), which is 2 on CP2 (r = 3)
  and on CP4 (r = 5).

The spin Dirac operator's index, the A-hat genus, is the q^0 coefficient of
the Witten genus, whose two routes agree: the theta engine's tangent core and
the definition engine's A-hat class times its symmetric-power tangent tower.

Each anchor runs on both engines.  Three planted faults must break them: the
A-hat z^2 coefficient with its sign flipped, the bundle factor 2 cosh(w/2)
replaced by 2 cosh(w), and a wrong integration constant on CP4.
"""

from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellgen import genera
from ellgen.bundleops import ProjBundle
from ellgen.cohring import LinearClass, Manifold, RingPresentation, builtin_manifold, integrate
from ellgen.genera import DEFINITION, THETA_PRODUCT, GenusKind, pell
from ellgen.theta import FactorSeries, ThetaKind

METHODS = (THETA_PRODUCT, DEFINITION)
# t = a/d: integers, halves, thirds and fifths
TS = sorted({Fraction(a, d) for a in range(-5, 6) for d in (1, 2, 3, 5)})
ENGINE_CACHES = (genera._tangent_log, genera._tangent_core, genera._definition_tangent_part,
                 genera._universal_genus)


def riemann_roch(n, t):
    """P_n(t) = chi(CP^n, O(t - (n+1)/2)) = prod_(i=1..n) (t - (n+1)/2 + i) / n!."""
    return prod(t - Fraction(n + 1, 2) + i for i in range(1, n + 1)) / factorial(n)


def pell1_q0(m, roots, twist, method):
    e = ProjBundle(rank=len(roots), roots=tuple(roots), twist_b=twist)
    return pell(m, e, GenusKind.PELL1, method, 0).series.coefficient(0)


def x_of(m):
    return LinearClass.generator(m.presentation, "x")


def riemann_roch_mismatches(m, n, method):
    """Cases of one shifted root 2t x, split as (2t x, 0) and (x, (2t - 1) x),
    where pell1 at q^0 is not 2 P_n(t)."""
    x, zero = x_of(m), LinearClass.zero(m.presentation)
    return [(t, split) for t in TS for split, (root, twist) in enumerate(
        [(x.scale(2 * t), zero), (x, x.scale(2 * t - 1))])
        if pell1_q0(m, [root], twist, method) != 2 * riemann_roch(n, t)]


def signature_value(m, method):
    return pell1_q0(m, m.tangent_roots, LinearClass.zero(m.presentation), method)


def cp4_with_integral(value):
    pres = RingPresentation(generators=(("x", 2),), top_degree=8, vanishing_monomials=((5,),),
                            integration_table=(((4,), Fraction(value)),))
    return Manifold("CP4", pres, 8, (LinearClass.generator(pres, "x"),) * 5)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name, n", [("CP2", 2), ("CP4", 4)])
def test_one_root_is_fractional_riemann_roch(name, n, method):
    assert riemann_roch_mismatches(builtin_manifold(name), n, method) == []


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", ["CP2", "CP4"])
def test_one_root_is_integral_exactly_at_the_spinc_twists(name, method):
    m = builtin_manifold(name)
    for t in (Fraction(a, 2) for a in range(-12, 13)):
        value = pell1_q0(m, [x_of(m).scale(2 * t)], LinearClass.zero(m.presentation), method)
        assert (value.denominator == 1) is (t.denominator == 2), (name, t, value)


@given(ts=st.lists(st.sampled_from(TS), min_size=1, max_size=3),
       shift=st.sampled_from([0, Fraction(1, 2), Fraction(-2, 3)]),
       name=st.sampled_from(["CP2", "CP4"]), method=st.sampled_from(METHODS))
def test_rank_l_is_the_sum_over_signs(ts, shift, name, method):
    m = builtin_manifold(name)
    x, n = x_of(m), m.dimension // 2
    # shifted roots 2 t_j x, however the twist b = shift x splits them
    roots = [x.scale(2 * t - shift) for t in ts]
    expected = sum(riemann_roch(n, sum(e * t for e, t in zip(signs, ts)))
                   for signs in product((1, -1), repeat=len(ts)))
    assert pell1_q0(m, roots, x.scale(shift), method) == expected


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", ["CP2", "CP4"])
def test_tangent_bundle_gives_the_signature(name, method):
    m = builtin_manifold(name)
    r, signature = len(m.tangent_roots), 1
    assert signature_value(m, method) == 2 ** (r - m.dimension // 2) * signature == 2


def z2_flipped(series: FactorSeries) -> FactorSeries:
    return FactorSeries.build(series.z_degree, series.order,
                              [-c if k == 2 else c for k, c in enumerate(series.coeffs)])


def flip_a_hat(monkeypatch):
    """The A-hat z^2 coefficient with its sign flipped, in both engines: the z^2
    coefficient of the odd factor's log (theta product) and of the A-hat series
    (definition)."""
    factor_log, a_hat = genera.factor_log, genera.a_hat_factor_series
    monkeypatch.setattr(genera, "factor_log", lambda kind, d, n: z2_flipped(
        factor_log(kind, d, n)) if kind is ThetaKind.THETA else factor_log(kind, d, n))
    monkeypatch.setattr(genera, "a_hat_factor_series", lambda d, n: z2_flipped(a_hat(d, n)))


def double_the_shifted_roots(monkeypatch):
    """2 cosh(w) for 2 cosh(w/2): both engines read the bundle through shifted_roots."""
    shifted = ProjBundle.shifted_roots
    monkeypatch.setattr(ProjBundle, "shifted_roots",
                        lambda e: tuple(w.scale(2) for w in shifted(e)))


@pytest.mark.parametrize("order", [0, 1, 8, 20, 24])
@pytest.mark.parametrize("name", ["CP2", "CP4"])
def test_witten_genus_on_both_engines_starts_at_the_a_hat_integral(name, order):
    m = builtin_manifold(name)
    witten = genera.witten_genus(m, order)
    assert integrate(genera._definition_tangent_part(m, order), m) == witten
    assert witten.coefficient(0) == genera.a_hat_integral(m)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("plant", [flip_a_hat, double_the_shifted_roots])
def test_planted_faults_break_the_anchors(plant, method, monkeypatch):
    for cache in ENGINE_CACHES:
        cache.cache_clear()
    plant(monkeypatch)
    try:
        for name, n in (("CP2", 2), ("CP4", 4)):
            m = builtin_manifold(name)
            assert riemann_roch_mismatches(m, n, method)
            assert signature_value(m, method) != 2
    finally:
        monkeypatch.undo()
        for cache in ENGINE_CACHES:
            cache.cache_clear()


@pytest.mark.parametrize("method", METHODS)
def test_a_wrong_integration_constant_breaks_the_anchors(method):
    assert riemann_roch_mismatches(cp4_with_integral(1), 4, method) == []
    wrong = cp4_with_integral(2)
    assert riemann_roch_mismatches(wrong, 4, method)
    assert signature_value(wrong, method) != 2
