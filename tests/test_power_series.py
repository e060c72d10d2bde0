"""exp_nilpotent, CohElement.invert and FactorSeries.at_class all evaluate one
power series sum_k c_k x^k at a nilpotent ring element.  Each is compared with
the loop it ran before the shared routine, kept here literally, and ring
equality is compared with the difference test it replaced."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellgen import genera, theta
from ellgen.bundleops import ProjBundle
from ellgen.cohring import CohElement, LinearClass, RingPresentation, builtin_manifold, exp_nilpotent
from ellgen.qseries import HalfQSeries
from ellgen.theta import FactorSeries


def literal_exp(a):
    """The loop of exp_nilpotent before the shared power series."""
    result = CohElement.one(a.presentation, a.order)
    term = CohElement.one(a.presentation, a.order)
    limit = a.order + a.presentation.top_degree + 2
    for k in range(1, limit + 1):
        term = term * a * Fraction(1, k)
        if term.is_zero():
            break
        result = result + term
    else:
        raise AssertionError("exp did not terminate; exponent not nilpotent")
    return result


def literal_invert(a):
    """The loop of CohElement.invert before the shared power series."""
    inv0 = a.scalar_part().invert()
    rest = -(a * inv0 - 1)
    result = term = CohElement.scalar(a.presentation, a.order, inv0)
    for _ in range(a.presentation.top_degree // 2):
        term = term * rest
        if term.is_zero():
            break
        result = result + term
    return result


def literal_at_class(factor, lc):
    """The loop of FactorSeries.at_class before the shared power series."""
    coeffs = factor.coeffs
    out = CohElement.scalar(lc.presentation, factor.order, coeffs[0])
    power = CohElement.one(lc.presentation, factor.order)
    base = lc.as_element(factor.order)
    for k in range(1, factor.z_degree + 1):
        power = power * base
        if power.is_zero():
            break
        out = out + power * coeffs[k]
    return out


def projective(n):
    return RingPresentation(
        generators=(("x", 2),), top_degree=2 * n, vanishing_monomials=((n + 1,),),
        integration_table=(((n,), Fraction(1)),),
    )


SIX = RingPresentation(generators=tuple((f"g{i}", 2) for i in range(1, 7)), top_degree=8)
# ring -> (presentation, largest order drawn)
RINGS = {"CP2": (projective(2), 8), "CP4": (projective(4), 8), "six": (SIX, 0)}

coefficient = st.one_of(
    st.just(0),
    st.builds(Fraction, st.integers(min_value=-7, max_value=7), st.sampled_from([1, 3, 12])),
)


def series(order):
    return st.lists(coefficient, min_size=order + 1, max_size=order + 1).map(
        lambda cs: HalfQSeries(order, cs))


def monomials(pres):
    """Every nonzero monomial of degree <= 4 (all of them on CP2)."""
    n = len(pres.generators)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    low = {tuple(map(sum, zip(a, b))) for a in units for b in units} | set(units)
    return sorted(m for m in low if not pres.is_zero_monomial(m))


@st.composite
def element(draw, pres, order, scalar_u0=None):
    """An element whose unit-monomial u^0 coefficient is scalar_u0 when given."""
    monos = draw(st.lists(st.sampled_from(monomials(pres)), max_size=5, unique=True))
    terms = {m: draw(series(order)) for m in monos}
    scalar = draw(series(order))
    if scalar_u0 is not None:
        scalar = HalfQSeries(order, (scalar_u0,) + scalar.coeffs[1:])
    terms[pres.unit_monomial()] = scalar
    return CohElement(pres, order, terms)


@st.composite
def ring_and_order(draw):
    pres, top_order = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    return pres, draw(st.integers(min_value=0, max_value=top_order))


def assert_same(got, want):
    assert got.order == want.order
    assert got.coeffs == want.coeffs
    for s in got.coeffs.values():
        assert not s.is_zero() and s.order == got.order


@given(data=st.data())
def test_exp_matches_the_literal_loop(data):
    pres, order = data.draw(ring_and_order())
    a = data.draw(element(pres, order, scalar_u0=0))
    assert_same(exp_nilpotent(a), literal_exp(a))


@given(data=st.data())
def test_invert_matches_the_literal_loop(data):
    pres, order = data.draw(ring_and_order())
    u0 = data.draw(st.sampled_from([1, -1, Fraction(1, 3), Fraction(-5, 12), 7]))
    a = data.draw(element(pres, order, scalar_u0=u0))
    inverse = a.invert()
    assert_same(inverse, literal_invert(a))
    assert a * inverse == CohElement.one(pres, order)


@given(data=st.data())
def test_at_class_matches_the_literal_loop(data):
    pres, order = data.draw(ring_and_order())
    # z-degrees below, at and above the nilpotency index of a class
    z_degree = data.draw(st.integers(min_value=0, max_value=6))
    factor = FactorSeries.build(
        z_degree, order, [data.draw(series(order)) for _ in range(z_degree + 1)])
    weights = data.draw(st.lists(coefficient, min_size=len(pres.generators),
                                 max_size=len(pres.generators)))
    lc = LinearClass(pres, weights)
    assert_same(factor.at_class(lc), literal_at_class(factor, lc))


@pytest.mark.parametrize("order", [0, 1, 5, 8])
def test_exp_reaches_the_stated_bound(order):
    # a = u + x on CP4: a^k = 0 for k > order + top/2, and a^(order + 4) is
    # binomial(order + 4, 4) u^order x^4 ...
    pres = projective(4)
    u, one = HalfQSeries.u_power(1, order), HalfQSeries.one(order)
    a = CohElement(pres, order, {(0,): u, (1,): one})
    power = CohElement.one(pres, order)
    for _ in range(order + 4):
        power = power * a
    assert power.coeffs == {(4,): HalfQSeries.u_power(order, order, comb(order + 4, 4))}
    assert (power * a).is_zero()
    # ... so exp(a) = exp(u) exp(x) needs that last power: u^order x^4 / (order! 4!)
    got = exp_nilpotent(a)
    assert_same(got, literal_exp(a))
    top = Fraction(1, factorial(order) * factorial(4))
    assert got.coefficient((4,)).coefficient(order) == top
    exp_u = HalfQSeries(order, [Fraction(1, factorial(k)) for k in range(order + 1)])
    for j in range(5):
        assert got.coefficient((j,)) == exp_u * Fraction(1, factorial(j))


def reference_equal(a, b):
    """Ring equality as it was: same ring and order, and a zero difference."""
    return a.presentation == b.presentation and a.order == b.order and (a - b).is_zero()


CP2_RENAMED = RingPresentation(
    generators=(("y", 2),), top_degree=4, vanishing_monomials=((3,),),
    integration_table=(((2,), Fraction(1)),),
)


@given(data=st.data())
def test_equality_reads_the_canonical_form(data):
    pres, order = data.draw(ring_and_order())
    a = data.draw(element(pres, order))
    other = data.draw(element(pres, order))
    variants = [
        other,
        (a + other) - other,
        a * CohElement.one(pres, order) + CohElement.zero(pres, order),
        CohElement(pres, order, {m: HalfQSeries(order + 2, list(s.coeffs) + [1, -1])
                                 for m, s in a.coeffs.items()}),
        CohElement(pres, max(order - 1, 0), a.coeffs),
        a + CohElement(pres, order, {m: s for m, s in a.coeffs.items()
                                     if pres.monomial_degree(m) == 2}),
    ]
    if pres == RINGS["CP2"][0]:
        variants.append(CohElement(CP2_RENAMED, order, a.coeffs))
    for b in variants:
        assert (a == b) is reference_equal(a, b)
        assert (b == a) is reference_equal(b, a)
    assert a == (a + other) - other
    assert a.is_zero() is all(s.is_zero() for s in a.coeffs.values())


@pytest.mark.parametrize("value", [HalfQSeries.u_power(2, 3), HalfQSeries(3, [0, 0, 5, 1])])
def test_a_coefficient_that_truncates_to_zero_is_not_stored(value):
    pres = projective(2)
    for elem in (CohElement(pres, 1, {(1,): value}), CohElement.scalar(pres, 1, value)):
        assert elem.coeffs == {}
        assert elem == CohElement.zero(pres, 1)


@pytest.mark.parametrize("series_of", [exp_nilpotent, lambda x: (x + 1).invert()],
                         ids=["exp", "invert"])
def test_a_product_that_keeps_degrees_above_the_top_raises(series_of, monkeypatch):
    # with every monomial kept, no power of x vanishes; past the bound
    # x^k = 0 for k > order + top/2 the power series must raise, not loop
    product, calls = CohElement.__mul__, []

    def keeps_every_degree(a, b):
        if not isinstance(b, CohElement):
            return product(a, b)
        calls.append(1)
        assert len(calls) < 100, "the power series did not stop"
        out = CohElement(a.presentation, min(a.order, b.order))
        for m1, s1 in a.coeffs.items():
            for m2, s2 in b.coeffs.items():
                mono = tuple(i + j for i, j in zip(m1, m2))
                out.coeffs[mono] = out.coeffs.get(mono, HalfQSeries.zero(out.order)) + s1 * s2
        return out

    x = LinearClass.generator(projective(2), "x").as_element(1)
    monkeypatch.setattr(CohElement, "__mul__", keeps_every_degree)
    with pytest.raises(ArithmeticError, match="does not vanish"):
        series_of(x)


def test_no_ring_element_is_scaled_by_exactly_one(monkeypatch):
    # a coefficient of exactly 1 (every term of invert, the first of exp) adds
    # the power as it is; a scaling by 1 would be a full pass per monomial
    product, by_one = CohElement.__mul__, []

    def spy(a, b):
        if isinstance(b, (int, Fraction)) and b == 1:
            by_one.append(b)
        return product(a, b)

    m = builtin_manifold("CP4")
    x = LinearClass.generator(m.presentation, "x")
    e = ProjBundle(rank=3, roots=(x, x.scale(Fraction(-1, 2)), x.scale(Fraction(1, 3))),
                   twist_b=x.scale(Fraction(1, 5)))
    caches = (theta.elliptic_factor, theta.factor_log, genera.bundle_root_factor,
              genera._tangent_log, genera._tangent_core, genera._universal_genus)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(CohElement, "__mul__", spy)
    for kind in (genera.GenusKind.PELL, genera.GenusKind.PELL1,
                 genera.GenusKind.PELL2, genera.GenusKind.PELL3):
        genera.pell(m, e, kind, genera.THETA_PRODUCT, 320)
    assert by_one == []
