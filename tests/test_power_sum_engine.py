"""The theta-product engine in power-sum form against the literal per-root product.

The engine integrates exp(L_T + L_E), each side's log read off the power sums
of its roots.  The oracle here multiplies one factor per root,
`elliptic_factor(kind, d, N)` at w, over the stable tangent roots (the odd
kind) and over the shifted bundle roots (the genus's kind, times 2 per root
for pell1; for pell the odd factor inverted and multiplied by z, negated).  It
substitutes z -> w by ring products of the powers of w at the full order, so
it shares no code with `FactorSeries.at_class`.

The second part checks pell1..pell3, which read one cached polynomial in free
power sums at a manifold's characteristic numbers, against the manifold's own
integrand.  The third checks that polynomial, built in closed form, against the
ring exp it replaced, and plants three faults in it that the check must see.
"""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellgen import cohring, genera
from ellgen.bundleops import ProjBundle
from ellgen.cohring import (
    CohElement, LinearClass, Manifold, RingPresentation, builtin_manifold, exp_nilpotent,
    integrate, power_sums, projective_space,
)
from ellgen.genera import THETA_PRODUCT, GenusKind, pell, witten_genus
from ellgen.qseries import HalfQSeries
from ellgen.theta import ThetaKind, elliptic_factor, factor_log

CP2xCP2 = RingPresentation(
    generators=(("x", 2), ("y", 2)), top_degree=8, vanishing_monomials=((3, 0), (0, 3)),
    integration_table=(((2, 2), Fraction(1)),),
)
MANIFOLDS = {
    "CP2": builtin_manifold("CP2"),
    "CP4": builtin_manifold("CP4"),
    "CP2xCP2": Manifold("CP2xCP2", CP2xCP2, 8, (
        *(LinearClass.generator(CP2xCP2, "x"),) * 3, *(LinearClass.generator(CP2xCP2, "y"),) * 3,
    )),
}
BUNDLE_KIND = {
    GenusKind.PELL1: ThetaKind.THETA1,
    GenusKind.PELL2: ThetaKind.THETA2,
    GenusKind.PELL3: ThetaKind.THETA3,
}


def literal_at_class(factor, lc):
    """sum_k c_k lc^k, the powers of lc taken by ring products at the factor's order."""
    x = lc.as_element(factor.order)
    out = CohElement.zero(lc.presentation, factor.order)
    power = CohElement.one(lc.presentation, factor.order)
    for c in factor.coeffs:
        out, power = out + power * c, power * x
    return out


def literal_product(m, roots, factor, order):
    out = CohElement.one(m.presentation, order)
    for root in roots:
        out = out * literal_at_class(factor, root)
    return out


def literal_genus(m, e, kind, order):
    d = m.presentation.top_degree // 2
    integrand = literal_product(m, m.tangent_roots, elliptic_factor(ThetaKind.THETA, d, order),
                                order)
    if kind is GenusKind.PELL:
        factor = -(elliptic_factor(ThetaKind.THETA, d, order).invert().z_shift(1))
    else:
        factor = elliptic_factor(BUNDLE_KIND[kind], d, order)
        if kind is GenusKind.PELL1:
            factor = factor * 2
    return integrate(integrand * literal_product(m, e.shifted_roots(), factor, order), m)


rational = st.builds(Fraction, st.integers(min_value=-4, max_value=4), st.sampled_from([1, 2, 3]))


@st.composite
def linear_class(draw, pres):
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        return LinearClass.zero(pres)  # a zero root, as stable padding makes
    return LinearClass(pres, [draw(rational) for _ in pres.generators])


@st.composite
def case(draw):
    m = MANIFOLDS[draw(st.sampled_from(sorted(MANIFOLDS)))]
    rank = draw(st.integers(min_value=1, max_value=4))
    roots = tuple(draw(linear_class(m.presentation)) for _ in range(rank))
    e = ProjBundle(rank=rank, roots=roots, twist_b=draw(linear_class(m.presentation)))
    return m, e, draw(st.sampled_from([0, 1, 12, 40]))


@given(case(), st.sampled_from([GenusKind.PELL, *BUNDLE_KIND]))
def test_engine_equals_the_per_root_product(args, kind):
    m, e, order = args
    assert pell(m, e, kind, THETA_PRODUCT, order).series == literal_genus(m, e, kind, order)


@given(st.sampled_from(sorted(MANIFOLDS)), st.sampled_from([0, 1, 12, 40]))
def test_witten_genus_equals_the_per_root_product(name, order):
    m = MANIFOLDS[name]
    d = m.presentation.top_degree // 2
    factor = elliptic_factor(ThetaKind.THETA, d, order)
    assert witten_genus(m, order) == integrate(literal_product(m, m.tangent_roots, factor, order), m)


# -- pell1..pell3 from the universal polynomial -----------------------------------------
#
# The engine reads one cached polynomial in free power sums at the characteristic numbers
# of (M, E).  The reference builds the integrand of the manifold itself: the exp of the two
# sides' factor logs at the manifold's own power sums, integrated, times 2^rank for pell1.

POINT = RingPresentation(generators=(("x", 2),), top_degree=0,
                         integration_table=(((0,), Fraction(3, 2)),))
# CP6 brings cubes of a power sum (s2T^3, s2T^2 s2E, ...) into the polynomial
MANIFOLDS_AND_POINT = {**MANIFOLDS, "CP6": projective_space(6), "point": Manifold(
    "point", POINT, 0, (LinearClass.generator(POINT, "x"),) * 2)}


def log_integrand(log_t, sums, kind):
    """exp(L_T + L_E) of pell1..pell3 by the ring's exp, L_E the kind's bundle factor log at
    the power sums `sums` of the shifted roots; pell1's 2^rank is left to the caller."""
    d = log_t.presentation.top_degree // 2
    return exp_nilpotent(log_t + factor_log(BUNDLE_KIND[kind], d, log_t.order).at_power_sums(sums))


def free_power_sums(pres, side):
    """p_k, k = 0..top/2, of side "T" or "E": the free generator s<k><side>, else 0."""
    names = [g for g, _ in pres.generators]
    return [CohElement(pres, 0, {tuple(int(g == f"s{k}{side}") for g in names): HalfQSeries.one(0)}
                       if f"s{k}{side}" in names else None) for k in range(pres.top_degree // 2 + 1)]


def integrand_reference(m, e, kind, order):
    d, pres = m.presentation.top_degree // 2, m.presentation
    log_t = factor_log(ThetaKind.THETA, d, order).at_power_sums(
        power_sums(m.tangent_roots, pres, d))
    integrand = log_integrand(log_t, power_sums(e.shifted_roots(), pres, d), kind)
    genus = integrate(integrand, m)
    return genus * 2**e.rank if kind is GenusKind.PELL1 else genus


def twisted_rank2(m):
    g = LinearClass.generator(m.presentation, m.presentation.generators[0][0])
    return ProjBundle(rank=2, roots=(g, g.scale(Fraction(-1, 2))), twist_b=g.scale(Fraction(1, 3)))


@pytest.mark.parametrize("name", sorted(MANIFOLDS_AND_POINT))
@pytest.mark.parametrize("order", [0, 1, 8, 80])
@pytest.mark.parametrize("kind", list(BUNDLE_KIND))
def test_universal_route_equals_the_manifold_integrand(name, order, kind):
    m = MANIFOLDS_AND_POINT[name]
    e = twisted_rank2(m)
    assert pell(m, e, kind, THETA_PRODUCT, order).series == integrand_reference(m, e, kind, order)


@given(case(), st.sampled_from(list(BUNDLE_KIND)))
def test_universal_route_equals_the_manifold_integrand_on_drawn_bundles(args, kind):
    m, e, order = args
    assert pell(m, e, kind, THETA_PRODUCT, order).series == integrand_reference(m, e, kind, order)


def test_dimension_zero_gives_the_unit_monomial():
    for kind in BUNDLE_KIND:
        assert genera._universal_genus(kind, 0, 5) == (((), HalfQSeries.one(5)),)
    m = MANIFOLDS_AND_POINT["point"]
    e = twisted_rank2(m)
    assert pell(m, e, GenusKind.PELL1, THETA_PRODUCT, 5).series == HalfQSeries.constant(6, 5)


def test_universal_polynomial_lists_each_monomial_of_top_degree_once():
    # at z-degree 4: s2T^2, s2T s2E, s2E^2, s4T and s4E, generators s2T, s4T, s2E, s4E
    monos = [mono for mono, _ in genera._universal_genus(GenusKind.PELL2, 4, 8)]
    assert sorted(monos) == sorted([(2, 0, 0, 0), (1, 0, 1, 0), (0, 0, 2, 0),
                                    (0, 1, 0, 0), (0, 0, 0, 1)])


def test_a_warm_job_makes_only_q_free_ring_products(monkeypatch):
    m = MANIFOLDS["CP4"]
    e = twisted_rank2(m)
    expected = pell(m, e, GenusKind.PELL3, THETA_PRODUCT, 80).series  # fills the caches
    orders, ring_products = [], cohring.sum_of_products

    def spy(pairs):
        orders.extend(x.order for pair in pairs for x in pair)
        return ring_products(pairs)

    def no_exp(a):
        raise AssertionError("a warm job took an exp")

    monkeypatch.setattr(cohring, "sum_of_products", spy)
    monkeypatch.setattr(genera, "exp_nilpotent", no_exp)
    assert pell(m, e, GenusKind.PELL3, THETA_PRODUCT, 80).series == expected
    assert orders and set(orders) == {0}


@pytest.mark.parametrize("name", ["CP2", "CP4", "free", "CP2xCP2"])
def test_a_manifold_keeps_its_tangent_power_sums(name):
    m = MANIFOLDS.get(name) or builtin_manifold(name)
    pres = m.presentation
    assert m.tangent_power_sums == tuple(power_sums(m.tangent_roots, pres, pres.top_degree // 2))
    assert m.tangent_power_sums is m.tangent_power_sums


def test_filled_tangent_power_sums_leave_equality_and_hash_alone():
    filled, fresh = projective_space(4), projective_space(4)
    before = hash(filled)
    assert filled.tangent_power_sums
    assert filled == fresh and hash(filled) == hash(fresh) == before
    assert "tangent_power_sums" not in {f.name for f in dataclasses.fields(Manifold)}


@pytest.mark.parametrize("name", ["CP2", "CP4", "CP2xCP2"])
@pytest.mark.parametrize("kind", list(BUNDLE_KIND))
def test_a_warm_job_sums_only_its_bundle_and_never_multiplies_by_one(name, kind, monkeypatch):
    m = MANIFOLDS[name]
    e = twisted_rank2(m)
    expected = pell(m, e, kind, THETA_PRODUCT, 80).series  # fills the caches
    summed, unit_operands = [], []
    sums, ring_products = cohring.power_sums, cohring.sum_of_products

    def sums_spy(roots, presentation, k_max):
        summed.append(tuple(roots))
        return sums(roots, presentation, k_max)

    def products_spy(pairs):
        unit_operands.extend(x for pair in pairs for x in pair
                             if x == CohElement.one(x.presentation, x.order))
        return ring_products(pairs)

    for module in (cohring, genera):
        monkeypatch.setattr(module, "power_sums", sums_spy)
    monkeypatch.setattr(cohring, "sum_of_products", products_spy)
    assert pell(m, e, kind, THETA_PRODUCT, 80).series == expected
    assert summed == [e.shifted_roots()]
    assert unit_operands == []


def drop_first(pairs):
    return pairs[1:]


def swap_sides(pairs):
    half = len(pairs[0][0]) // 2
    return tuple((mono[half:] + mono[:half], series) for mono, series in pairs)


@pytest.mark.parametrize("plant", [drop_first, swap_sides])
@pytest.mark.parametrize("kind", list(BUNDLE_KIND))
def test_planted_universal_faults_break_the_comparison(plant, kind, monkeypatch):
    built = genera._universal_genus
    monkeypatch.setattr(genera, "_universal_genus", lambda *key: plant(built(*key)))
    m = MANIFOLDS["CP4"]
    e = twisted_rank2(m)
    assert pell(m, e, kind, THETA_PRODUCT, 8).series != integrand_reference(m, e, kind, 8)


# -- the universal polynomial in closed form against the exp route ----------------------
#
# The reference is the route the closed form replaced: the ring's exp of L_T + L_E over the
# free generators s_(2j)T, s_(2j)E, j = 1..d/2, and its degree-2d part.


def universal_reference(kind, z_degree, order):
    pres = RingPresentation(tuple([(f"s{2 * j}{side}", 4 * j) for side in "TE"
                                   for j in range(1, z_degree // 2 + 1)]), 2 * z_degree)
    log_t = factor_log(ThetaKind.THETA, z_degree, order).at_power_sums(free_power_sums(pres, "T"))
    integrand = log_integrand(log_t, free_power_sums(pres, "E"), kind)
    return {mono: series for mono, series in integrand.coeffs.items()
            if pres.monomial_degree(mono) == 2 * z_degree}


def assert_closed_form_equals_the_exp_route(kind, z_degree, order):
    built = genera._universal_genus(kind, z_degree, order)
    assert len({mono for mono, _ in built}) == len(built)
    assert dict(built) == universal_reference(kind, z_degree, order)


UNIVERSAL_KEYS = [(kind, z_degree, order) for kind in BUNDLE_KIND
                  for z_degree in range(0, 13, 2) for order in (0, 1)]


@pytest.mark.parametrize("kind, z_degree, order", UNIVERSAL_KEYS)
def test_closed_form_equals_the_exp_route(kind, z_degree, order):
    assert_closed_form_equals_the_exp_route(kind, z_degree, order)


@given(st.sampled_from(list(BUNDLE_KIND)), st.sampled_from(range(0, 13, 2)),
       st.integers(min_value=0, max_value=40))
def test_closed_form_equals_the_exp_route_at_drawn_orders(kind, z_degree, order):
    assert_closed_form_equals_the_exp_route(kind, z_degree, order)


def drop_factorials(pairs):  # the coefficient prod c_g^(a_g), without the 1/a_g!
    return tuple((mono, series * math.prod(map(math.factorial, mono))) for mono, series in pairs)


def move_an_exponent(pairs):  # s2T's exponent moved onto s2E
    half = len(pairs[0][0]) // 2
    return tuple(((0, *mono[1:half], mono[half] + mono[0], *mono[half + 1:]) if half else mono,
                  series) for mono, series in pairs)


def keep_a_lower_degree(pairs):  # one monomial kept with one factor fewer
    mono, series = pairs[-1]
    i = next((i for i, a in enumerate(mono) if a), None)
    return pairs if i is None else (*pairs, ((*mono[:i], mono[i] - 1, *mono[i + 1:]), series))


@pytest.mark.parametrize("plant", [drop_factorials, move_an_exponent, keep_a_lower_degree])
def test_planted_closed_form_faults_break_the_comparison(plant, monkeypatch):
    built = genera._universal_genus
    monkeypatch.setattr(genera, "_universal_genus", lambda *key: plant(built(*key)))
    broken = []
    for key in UNIVERSAL_KEYS:
        try:
            assert_closed_form_equals_the_exp_route(*key)
        except AssertionError:
            broken.append(key)
    # every kind breaks from z-degree 4 up, where each plant changes the polynomial
    assert {(kind, z_degree) for kind, z_degree, _ in broken} >= {
        (kind, z_degree) for kind in BUNDLE_KIND for z_degree in range(4, 13, 2)}
