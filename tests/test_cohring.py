import functools
import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ellgen import cohring
from ellgen.cohring import (
    CohElement,
    LinearClass,
    NonNilpotentScalar,
    PresentationMismatch,
    RingPresentation,
    UnknownManifold,
    builtin_manifold,
    exp_nilpotent,
    integrate,
    power_sums,
    sum_of_elements,
    sum_of_products,
)
from ellgen.qseries import HalfQSeries, ZeroConstantTerm

ORDER = 6


def x_elem(cp2, power=1, order=ORDER):
    out = CohElement(cp2.presentation, order)
    out.coeffs[(power,)] = HalfQSeries.one(order)
    return out


def test_relation_kills_top_power(cp2):
    x = x_elem(cp2)
    assert x * x == x_elem(cp2, 2)
    assert (x * x * x).is_zero()


def test_unit_is_neutral(cp2):
    one = CohElement.one(cp2.presentation, ORDER)
    a = x_elem(cp2) + CohElement.scalar(cp2.presentation, ORDER, Fraction(5, 3))
    assert one * a == a


def test_difference_of_squares(cp2):
    one = CohElement.one(cp2.presentation, ORDER)
    x = x_elem(cp2)
    assert (one + x) * (one - x) == one - x_elem(cp2, 2)


def test_exp_of_generator(cp2):
    x = LinearClass.generator(cp2.presentation, "x")
    expected = (
        CohElement.one(cp2.presentation, ORDER)
        + x_elem(cp2)
        + x_elem(cp2, 2) * Fraction(1, 2)
    )
    assert exp_nilpotent(x.as_element(ORDER)) == expected


def test_exp_of_zero(cp2):
    z = CohElement.zero(cp2.presentation, ORDER)
    assert exp_nilpotent(z) == CohElement.one(cp2.presentation, ORDER)


def test_exp_mixed_class_and_q(cp2):
    # exp(x + q) must factor as exp(x) * exp(q); oracle multiplies the two
    x = LinearClass.generator(cp2.presentation, "x").as_element(4)
    q = CohElement.scalar(cp2.presentation, 4, HalfQSeries.u_power(2, 4))
    lhs = exp_nilpotent(x + q)
    assert lhs == exp_nilpotent(x) * exp_nilpotent(q)


def test_exp_rejects_scalar_constant(cp2):
    one = CohElement.one(cp2.presentation, ORDER)
    with pytest.raises(NonNilpotentScalar):
        exp_nilpotent(one)


def test_integration_normalization(cp2):
    assert integrate(x_elem(cp2, 2), cp2) == HalfQSeries.one(ORDER)
    assert integrate(CohElement.one(cp2.presentation, ORDER), cp2).is_zero()


def test_integration_cp4(cp4):
    x4 = CohElement(cp4.presentation, 0)
    x4.coeffs[(4,)] = HalfQSeries.one(0)
    assert integrate(x4, cp4) == HalfQSeries.one(0)


def test_integration_is_linear(cp2):
    a = x_elem(cp2, 2) * Fraction(3, 7)
    b = x_elem(cp2, 1) + CohElement.one(cp2.presentation, ORDER)
    total = integrate(a + b, cp2)
    assert total == integrate(a, cp2) + integrate(b, cp2)
    # everything below top degree integrates to zero
    assert integrate(b, cp2).is_zero()


def test_builtin_cp2(cp2):
    assert cp2.dimension == 4
    assert len(cp2.tangent_roots) == 3
    x = LinearClass.generator(cp2.presentation, "x")
    assert all(r == x for r in cp2.tangent_roots)


def test_builtin_cp4(cp4):
    assert cp4.dimension == 8
    assert len(cp4.tangent_roots) == 5


def test_builtin_free_ring():
    free = builtin_manifold("free")
    assert free.presentation.top_degree == 12
    assert free.presentation.vanishing_monomials == ()
    names = [n for n, _ in free.presentation.generators]
    assert "s2T" in names and "s6E" in names


def test_unknown_manifold():
    with pytest.raises(UnknownManifold):
        builtin_manifold("K3")


def test_presentation_mismatch(cp2, cp4):
    with pytest.raises(PresentationMismatch):
        x_elem(cp2) * CohElement.one(cp4.presentation, ORDER)


small_fraction = st.fractions(min_value=-2, max_value=2, max_denominator=4)


def cp2_element(order=4):
    pres = builtin_manifold("CP2").presentation
    return st.lists(small_fraction, min_size=3, max_size=3).map(
        lambda cs: CohElement(
            pres,
            order,
            {
                (0,): HalfQSeries.constant(cs[0], order),
                (1,): HalfQSeries.constant(cs[1], order),
                (2,): HalfQSeries.constant(cs[2], order),
            },
        )
    )


@given(cp2_element(), cp2_element())
def test_commutativity(a, b):
    assert a * b == b * a


@given(cp2_element(), cp2_element())
def test_exp_additivity(a, b):
    a = a - CohElement.scalar(a.presentation, a.order, a.scalar_part())
    b = b - CohElement.scalar(b.presentation, b.order, b.scalar_part())
    assert exp_nilpotent(a + b) == exp_nilpotent(a) * exp_nilpotent(b)


def test_linear_class_requires_degree_two():
    pres = RingPresentation(generators=(("a", 2), ("p", 4)), top_degree=8)
    with pytest.raises(ValueError):
        LinearClass(pres, [0, 1])
    lc = LinearClass(pres, [Fraction(1, 2), 0])
    assert not lc.is_zero()


def test_linear_class_drops_a_vanishing_generator():
    pres = RingPresentation(generators=(("a", 2), ("b", 2)), top_degree=4,
                            vanishing_monomials=((1, 0),))
    assert LinearClass.generator(pres, "a").as_element(2).is_zero()
    mixed = LinearClass(pres, [3, Fraction(1, 2)]).as_element(2)
    assert mixed == CohElement(pres, 2, {(0, 1): HalfQSeries.constant(Fraction(1, 2), 2)})
    assert set(mixed.coeffs) == {(0, 1)}


def test_manifold_needs_dimension_divisible_by_four():
    from ellgen.cohring import Manifold

    pres = RingPresentation(generators=(("x", 2),), top_degree=6)
    with pytest.raises(ValueError):
        Manifold(name="bad", presentation=pres, dimension=6)


def _unit_round_trip(pres, order, terms):
    a = CohElement(pres, order, {m: HalfQSeries(order, cs) for m, cs in terms.items()})
    inv = a.invert()
    one = CohElement.one(pres, order)
    assert a * inv == one
    assert inv * a == one


def test_invert_unit_on_cp4(cp4):
    # nonconstant scalar series, terms in every degree up to the top
    _unit_round_trip(
        cp4.presentation,
        5,
        {(0,): (2, 1, 0, -3), (1,): (1, 0, 5), (2,): (-1,), (3,): (0, 1), (4,): (Fraction(1, 2),)},
    )


def test_invert_unit_with_vanishing_monomial():
    # the README's custom presentation: a^3 = 0 below the top degree
    pres = RingPresentation(
        generators=(("a", 2), ("p", 4)), top_degree=8, vanishing_monomials=((3, 0),)
    )
    _unit_round_trip(
        pres,
        4,
        {(0, 0): (3, -1, 2), (1, 0): (1, 1), (2, 0): (-1,), (0, 1): (0, 2), (2, 1): (5,),
         (0, 2): (1, 0, 1)},
    )


def test_invert_needs_an_invertible_scalar_u0(cp2):
    u_plus_x = CohElement(
        cp2.presentation, 4, {(0,): HalfQSeries.u_power(1, 4), (1,): HalfQSeries.one(4)}
    )
    with pytest.raises(ZeroConstantTerm):
        u_plus_x.invert()
    with pytest.raises(ZeroConstantTerm):
        x_elem(cp2).invert()


# -- the degree-pruned product and the sum against a brute-force pair loop ---

KERNEL_RINGS = {
    "CP2": builtin_manifold("CP2").presentation,
    "CP4": builtin_manifold("CP4").presentation,
    "free": builtin_manifold("free").presentation,
    # the README's custom presentation: a^3 = 0 below the top degree
    "a_p": RingPresentation(
        generators=(("a", 2), ("p", 4)), top_degree=8, vanishing_monomials=((3, 0),)
    ),
    # a relation of exactly the top degree is not implied by the degree test
    "a_p_top_relation": RingPresentation(
        generators=(("a", 2), ("p", 4)), top_degree=8, vanishing_monomials=((3, 0), (0, 2))
    ),
}

kernel_coeff = st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-3, 2)])


def _monomials_up_to_top(pres):
    bounds = [pres.top_degree // deg for _, deg in pres.generators]
    return [
        mono
        for mono in itertools.product(*(range(b + 1) for b in bounds))
        if pres.monomial_degree(mono) <= pres.top_degree
    ]


def _naive_series_product(a, b, n):
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n + 1)]


def _brute_product(a, b):
    """Every monomial pair, killed only afterwards by is_zero_monomial."""
    n = min(a.order, b.order)
    out = {}
    for m1, s1 in a.coeffs.items():
        for m2, s2 in b.coeffs.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            if a.presentation.is_zero_monomial(mono):
                continue
            term = _naive_series_product(s1.coeffs, s2.coeffs, n)
            acc = out.get(mono, [Fraction(0)] * (n + 1))
            out[mono] = [x + y for x, y in zip(acc, term)]
    return n, out


def _brute_sum(a, b):
    n = min(a.order, b.order)
    zero = [Fraction(0)] * (n + 1)
    out = {}
    for mono in set(a.coeffs) | set(b.coeffs):
        lhs = a.coeffs[mono].coeffs if mono in a.coeffs else zero
        rhs = b.coeffs[mono].coeffs if mono in b.coeffs else zero
        out[mono] = [x + y for x, y in zip(lhs[: n + 1], rhs[: n + 1])]
    return n, out


def _assert_terms(result, expected):
    n, terms = expected
    assert result.order == n
    live = {m: HalfQSeries(n, cs) for m, cs in terms.items() if any(cs)}
    assert result.coeffs == live


@st.composite
def kernel_element(draw, pres):
    order = draw(st.integers(min_value=0, max_value=3))
    monos = draw(st.lists(st.sampled_from(_monomials_up_to_top(pres)), max_size=6, unique=True))
    return CohElement(
        pres,
        order,
        {
            m: HalfQSeries(order, draw(st.lists(kernel_coeff, min_size=order + 1,
                                                max_size=order + 1)))
            for m in monos
        },
    )


@pytest.mark.parametrize("ring", sorted(KERNEL_RINGS))
@given(data=st.data())
def test_product_and_sum_match_brute_force(ring, data):
    pres = KERNEL_RINGS[ring]
    a = data.draw(kernel_element(pres))
    b = data.draw(kernel_element(pres))
    _assert_terms(a * b, _brute_product(a, b))
    _assert_terms(a + b, _brute_sum(a, b))
    _assert_terms(a + -a, (a.order, {}))


# denominators whose pairwise products differ, so one result monomial sums
# parts over several denominators and the lcm is not any single one of them
mixed_coeff = st.one_of(
    st.just(0),
    st.builds(Fraction, st.integers(min_value=-7, max_value=7), st.sampled_from([1, 3, 5, 6, 12])),
)

# like the Schur rings: six degree-2 generators at order 0
SCHUR_RING = RingPresentation(
    generators=tuple((f"u{i}", 2) for i in range(1, 4)) + tuple((f"v{j}", 2) for j in range(1, 4)),
    top_degree=12,
)


@functools.lru_cache(maxsize=None)
def _low_monomials(pres):
    """Monomials of degree <= 4, so that many pairs land on the same result monomial."""
    return [m for m in _monomials_up_to_top(pres) if pres.monomial_degree(m) <= 4]


@st.composite
def mixed_element(draw, pres, max_order):
    order = draw(st.integers(min_value=0, max_value=max_order))
    monos = draw(st.lists(st.sampled_from(_low_monomials(pres)), max_size=8, unique=True))
    return CohElement(
        pres,
        order,
        {
            m: HalfQSeries(order, draw(st.lists(mixed_coeff, min_size=order + 1,
                                                max_size=order + 1)))
            for m in monos
        },
    )


def _assert_stored_canonical(elem):
    for s in elem.coeffs.values():
        assert not s.is_zero()
        assert s.order == elem.order
        assert s == HalfQSeries(s.order, s.coeffs)


@pytest.mark.parametrize("ring", sorted(KERNEL_RINGS) + ["schur6"])
@given(data=st.data())
def test_product_and_sum_over_mixed_denominators(ring, data):
    pres, max_order = (SCHUR_RING, 0) if ring == "schur6" else (KERNEL_RINGS[ring], 4)
    a = data.draw(mixed_element(pres, max_order))
    b = data.draw(mixed_element(pres, max_order))
    for result, expected in ((a * b, _brute_product(a, b)), (a + b, _brute_sum(a, b))):
        _assert_terms(result, expected)
        _assert_stored_canonical(result)


def test_u_slice_rejects_negative_power(cp2):
    elem = CohElement(cp2.presentation, 3, {(1,): HalfQSeries(3, [1, 2, 3, 4])})
    assert elem.u_slice(3) == CohElement(cp2.presentation, 0, {(1,): HalfQSeries(0, [4])})
    for k in (-1, 4, 7):  # past the order a coefficient is unknown, not zero
        with pytest.raises(IndexError, match=f"u\\^{k} is not tracked at order 3"):
            elem.u_slice(k)


def test_constructor_keeps_the_element_order(cp2):
    elem = CohElement(cp2.presentation, 2, {(0,): HalfQSeries(2, [1, 2, 3]),
                                            (1,): HalfQSeries(2, [5])})

    def map_series(fn):
        return CohElement(cp2.presentation, elem.order, {m: fn(s) for m, s in elem.coeffs.items()})

    longer = map_series(lambda s: HalfQSeries(4, list(s.coeffs) + [7, 7]))
    assert longer == elem
    _assert_stored_canonical(longer)
    # a series that vanishes is dropped, and the sum copies the same-order terms
    dropped = map_series(lambda s: s * 0 if s.coefficient(0) == 5 else s)
    assert set(dropped.coeffs) == {(0,)}
    _assert_stored_canonical(dropped + elem)
    with pytest.raises(ValueError):
        map_series(lambda s: s.truncate(1))


@pytest.mark.parametrize("ring", sorted(KERNEL_RINGS))
def test_full_product_matches_brute_force(ring):
    # every monomial up to the top degree, so every degree pair occurs, at two orders
    pres = KERNEL_RINGS[ring]
    monos = _monomials_up_to_top(pres)

    def full(order, shift):
        return CohElement(pres, order, {
            m: HalfQSeries(order, [Fraction(i + k + shift, 2) for k in range(order + 1)])
            for i, m in enumerate(monos)
        })

    a, b = full(2, 1), full(1, -3)
    _assert_terms(a * b, _brute_product(a, b))
    _assert_terms(b * a, _brute_product(b, a))
    _assert_terms(a + b, _brute_sum(a, b))


def test_presentation_rejects_duplicate_names_and_integration_keys():
    with pytest.raises(ValueError, match="generator names"):
        RingPresentation(generators=(("a", 2), ("a", 4)), top_degree=8)
    with pytest.raises(ValueError, match="integration table keys"):
        RingPresentation(generators=(("a", 2),), top_degree=4,
                         integration_table=(((2,), Fraction(1)), ((2,), Fraction(3))))


# -- sums of products in one pass against the brute-force pair loop and sum ---


def _as_element(pres, brute):
    n, terms = brute
    return CohElement(pres, n, {m: HalfQSeries(n, cs) for m, cs in terms.items()})


def _order0_edge_pairs(ring, pres):
    """Pair lists whose least order is 0, at the edges of the q-free route: a zero
    operand, one order-0 operand among order-3 ones, and in a_p_top_relation the
    pair p * p, whose only product p^2 a relation of exactly the top degree kills."""
    monos = _low_monomials(pres)

    def full(order, shift, den):
        return CohElement(pres, order, {
            m: HalfQSeries(order, [Fraction(i + k + shift, den) for k in range(order + 1)])
            for i, m in enumerate(monos)})

    # pairs over different denominators, so each pair has its own scale
    a0, a3, b3 = full(0, 1, 6), full(3, -2, 4), full(3, 5, 5)
    zero = CohElement.zero(pres, 0)
    edges = [[(zero, a0)], [(a0, zero), (a0, a0)], [(a3, b3), (a0, b3), (b3, a3)]]
    if ring == "a_p_top_relation":
        p = CohElement(pres, 0, {(0, 1): HalfQSeries(0, [Fraction(3, 2)])})
        edges += [[(p, p)], [(p, p), (a0, p)]]
    return edges


@pytest.mark.parametrize("ring", sorted(KERNEL_RINGS) + ["schur6"])
@given(data=st.data())
@example(data=None)  # the order-0 edges of _order0_edge_pairs, on every run
def test_sum_of_products_matches_the_brute_sum_of_brute_products(ring, data):
    pres, max_order = (SCHUR_RING, 0) if ring == "schur6" else (KERNEL_RINGS[ring], 4)
    cases = _order0_edge_pairs(ring, pres) if data is None else [
        data.draw(st.lists(st.tuples(mixed_element(pres, max_order),
                                     mixed_element(pres, max_order)),
                           min_size=1, max_size=4))]
    for pairs in cases:
        products = [_as_element(pres, _brute_product(a, b)) for a, b in pairs]
        expected = functools.reduce(lambda x, y: _as_element(pres, _brute_sum(x, y)), products)
        result = sum_of_products(pairs)
        assert result.order == min(x.order for pair in pairs for x in pair)
        assert result == expected
        _assert_stored_canonical(result)


def test_sum_of_products_drops_parts_that_cancel(cp2):
    pres = cp2.presentation
    series = (  # least order 2: the series path
        CohElement(pres, 3, {(0,): HalfQSeries(3, [1, Fraction(1, 3)]), (1,): HalfQSeries(3, [2])}),
        CohElement(pres, 2, {(1,): HalfQSeries(2, [Fraction(-5, 6), 0, 7])}),
        CohElement(pres, 4, {(2,): HalfQSeries(4, [0, 0, 3])}))
    q_free = (  # order 0: the integer route
        CohElement(pres, 0, {(0,): HalfQSeries(0, [1]), (1,): HalfQSeries(0, [2])}),
        CohElement(pres, 0, {(1,): HalfQSeries(0, [Fraction(-5, 6)])}),
        CohElement(pres, 0, {(2,): HalfQSeries(0, [Fraction(3, 4)])}))
    for (a, b, c), n in ((series, 2), (q_free, 0)):
        # a*b and b*(-a) cancel monomial by monomial, over the denominator 18 or 6
        cancelled = sum_of_products([(a, b), (b, -a)])
        assert cancelled.is_zero() and cancelled.order == n
        assert cancelled == CohElement.zero(pres, n)
        # c*a and (-a)*c cancel as well, in whichever order the pairs come
        rest = sum_of_products([(a, b), (c, a), (-a, b), (-a, c)])
        assert rest.is_zero() and rest.order == n
        # what does not cancel is kept, at the least order of all six operands
        survivor = sum_of_products([(a, b), (-a, b), (a, c)])
        assert survivor == CohElement(pres, n, _as_element(pres, _brute_product(a, c)).coeffs)
        assert not survivor.is_zero()
        _assert_stored_canonical(survivor)


def test_sum_of_products_refuses_a_pair_from_another_ring(cp2, cp4):
    a, b = x_elem(cp2), x_elem(cp2, 2)
    other = x_elem(cp4)
    for pairs in ([(a, b), (other, a)], [(a, b), (a, other)], [(other, other), (a, b)]):
        with pytest.raises(PresentationMismatch):
            sum_of_products(pairs)


def test_sum_of_products_refuses_an_empty_pair_list():
    # with no pair there is no ring and no order to give the zero element
    with pytest.raises(ValueError, match="at least one pair of elements is needed"):
        sum_of_products([])


def test_a_product_is_the_one_pair_sum(cp2, monkeypatch):
    seen = []
    real = cohring.sum_of_products

    def spy(pairs):
        seen.append(list(pairs))
        return real(pairs)

    monkeypatch.setattr(cohring, "sum_of_products", spy)
    a, b = x_elem(cp2) + 1, x_elem(cp2, 2, order=3)
    assert a * b == real([(a, b)])
    assert seen == [[(a, b)]]
    # a scalar factor does not go through the pair loop
    assert a * 3 == a + a + a and len(seen) == 1


# -- one n-ary element sum against the brute-force pairwise sum -----------------


@pytest.mark.parametrize("ring", sorted(KERNEL_RINGS) + ["schur6"])
@given(data=st.data())
def test_sum_of_elements_matches_the_brute_sum(ring, data):
    pres, max_order = (SCHUR_RING, 0) if ring == "schur6" else (KERNEL_RINGS[ring], 4)
    elems = data.draw(st.lists(mixed_element(pres, max_order), min_size=1, max_size=5))
    # the negation of a drawn element makes monomials cancel across the list
    if data.draw(st.booleans()):
        elems.insert(data.draw(st.integers(0, len(elems))), -data.draw(st.sampled_from(elems)))
    expected = functools.reduce(lambda x, y: _as_element(pres, _brute_sum(x, y)), elems)
    result = sum_of_elements(elems)
    assert result.order == min(elem.order for elem in elems)
    assert result == expected
    _assert_stored_canonical(result)


def test_sum_of_elements_truncates_a_monomial_held_once_and_drops_cancelled_ones(cp2):
    pres = cp2.presentation
    long = CohElement(pres, 4, {(1,): HalfQSeries(4, [0, 0, 1, 2]), (2,): HalfQSeries(4, [3])})
    short = CohElement(pres, 1, {(0,): HalfQSeries(1, [5]), (2,): HalfQSeries(1, [-3, 7])})
    # x is held by the order-4 element alone and vanishes at order 1; x^2 keeps only u^1
    for elems in ([long, short], [short, long]):
        total = sum_of_elements(elems)
        assert total == CohElement(pres, 1, {(0,): HalfQSeries(1, [5]),
                                             (2,): HalfQSeries(1, [0, 7])})
        assert set(total.coeffs) == {(0,), (2,)}
        _assert_stored_canonical(total)
    assert sum_of_elements([long, -long, long]) == long
    assert sum_of_elements([long, short, -long, -short]).coeffs == {}


def test_sum_of_elements_refuses_an_empty_list_and_another_ring(cp2, cp4):
    with pytest.raises(ValueError, match="at least one element is needed"):
        sum_of_elements([])
    a, b, other = x_elem(cp2), x_elem(cp2, 2), x_elem(cp4)
    for elems in ([other, a, b], [a, other, b], [a, b, other]):
        with pytest.raises(PresentationMismatch):
            sum_of_elements(elems)
    with pytest.raises(PresentationMismatch):
        a + other


def test_both_sums_accept_an_equal_ring_held_in_another_object(cp2):
    pres = cp2.presentation
    twin = RingPresentation(pres.generators, pres.top_degree, pres.vanishing_monomials,
                            pres.integration_table)
    assert twin is not pres and twin == pres
    a, b = x_elem(cp2) + 1, CohElement(twin, ORDER, x_elem(cp2).coeffs)
    assert sum_of_elements([a, b]) == x_elem(cp2) * 2 + 1
    assert sum_of_elements([b, a]) == a + b
    assert sum_of_products([(a, b), (b, a)]) == (x_elem(cp2, 2) + x_elem(cp2)) * 2


def test_exp_nilpotent_adds_no_element_pairwise(cp4, monkeypatch):
    calls = []
    real = CohElement.__add__

    def spy(self, other):
        calls.append(other)
        return real(self, other)

    pres = cp4.presentation
    a = CohElement(pres, 5, {(1,): HalfQSeries(5, [1, Fraction(1, 2), 0, -3]),
                             (2,): HalfQSeries(5, [0, Fraction(2, 3)]),
                             (0,): HalfQSeries(5, [0, 1, 0, 0, 0, Fraction(-1, 7)])})
    monkeypatch.setattr(CohElement, "__add__", spy)
    monkeypatch.setattr(CohElement, "__radd__", spy)
    result = exp_nilpotent(a)
    assert calls == []
    monkeypatch.undo()
    # exp(a) exp(-a) = 1 checks the result with the real sum
    assert result * exp_nilpotent(-a) == CohElement.one(pres, 5)


# integration weights 1/3, 0 and -5/2 on the top monomials of a two-generator ring
ZERO_WEIGHT_RING = RingPresentation(
    generators=(("a", 2), ("b", 2)), top_degree=4,
    integration_table=(((2, 0), Fraction(1, 3)), ((1, 1), Fraction(0)), ((0, 2), Fraction(-5, 2))),
)


@given(data=st.data())
def test_integrate_matches_the_per_monomial_fraction_sum(data):
    pres = ZERO_WEIGHT_RING
    manifold = cohring.Manifold(name="zero-weight", presentation=pres, dimension=4)
    elem = data.draw(mixed_element(pres, 4))
    expected = [Fraction(0)] * (elem.order + 1)
    for mono, s in elem.coeffs.items():
        weight = dict(pres.integration_table).get(mono, Fraction(0))
        expected = [e + weight * c for e, c in zip(expected, s.coeffs)]
    got = integrate(elem, manifold)
    assert got == HalfQSeries(elem.order, expected)
    # a class held only on the zero-weight monomial integrates to the zero series
    held = CohElement(pres, 3, {(1, 1): HalfQSeries(3, [1, 2]), (1, 0): HalfQSeries(3, [4])})
    assert integrate(held, manifold) == HalfQSeries.zero(3)


# -- power sums in closed form against sums of ring-product powers -----------

POWER_SUM_RINGS = {
    "CP2": builtin_manifold("CP2").presentation,
    "CP4": builtin_manifold("CP4").presentation,
    "CP2xCP2": RingPresentation(generators=(("x", 2), ("y", 2)), top_degree=8,
                                vanishing_monomials=((3, 0), (0, 3))),
    # x*y^2 = 0 kills some monomials of a power and keeps their neighbours
    "xyz": RingPresentation(generators=(("x", 2), ("y", 2), ("z", 2)), top_degree=8,
                            vanishing_monomials=((1, 2, 0),)),
    # (CP1)^3: x^2 = y^2 = z^2 = 0, so only square-free monomials survive
    "CP1^3": RingPresentation(generators=(("x", 2), ("y", 2), ("z", 2)), top_degree=6,
                              vanishing_monomials=((2, 0, 0), (0, 2, 0), (0, 0, 2))),
}

root_coeff = st.one_of(
    st.just(0),
    st.builds(Fraction, st.integers(min_value=-7, max_value=7), st.sampled_from([1, 2, 3, 5, 12])),
)


def _ring_power(root, k):
    x = root.as_element(0)
    return functools.reduce(operator.mul, [x] * k, CohElement.one(root.presentation, 0))


@pytest.mark.parametrize("ring", sorted(POWER_SUM_RINGS))
@given(data=st.data())
def test_power_sums_match_the_sum_of_ring_powers(ring, data):
    pres = POWER_SUM_RINGS[ring]
    n = len(pres.generators)
    # zero roots, mixed denominators and the empty list all come up
    roots = data.draw(st.lists(
        st.lists(root_coeff, min_size=n, max_size=n).map(lambda cs: LinearClass(pres, cs)),
        max_size=4))
    top = pres.top_degree // 2
    sums = power_sums(roots, pres, top)
    assert len(sums) == top + 1
    for k, p in enumerate(sums):
        expected = sum_of_elements([CohElement.zero(pres, 0)]
                                   + [_ring_power(root, k) for root in roots])
        assert p == expected, k
        _assert_stored_canonical(p)


def test_power_sums_weigh_mixed_monomials_by_the_multinomial():
    pres = POWER_SUM_RINGS["CP2xCP2"]
    # (x + y/2)^k + (x/3)^k over the common denominator 6
    roots = [LinearClass(pres, [1, Fraction(1, 2)]), LinearClass(pres, [Fraction(1, 3), 0])]
    p0, p1, p2, p3 = power_sums(roots, pres, 3)

    def elem(terms):
        return CohElement(pres, 0, {m: HalfQSeries.constant(c, 0) for m, c in terms.items()})

    assert p0 == CohElement.scalar(pres, 0, 2)
    assert p1 == elem({(1, 0): Fraction(4, 3), (0, 1): Fraction(1, 2)})
    assert p2 == elem({(2, 0): Fraction(10, 9), (1, 1): 1, (0, 2): Fraction(1, 4)})
    # x^3 = y^3 = 0 drops the pure cubes
    assert p3 == elem({(2, 1): Fraction(3, 2), (1, 2): Fraction(3, 4)})


def test_power_sums_grow_only_the_surviving_monomials():
    # (CP1)^10: C(10, k) monomials survive in degree 2k, of the C(9 + k, k)
    # products of k generators; each survivor tries at most 10 generators
    n = 10
    tried = []

    class CountingPresentation(RingPresentation):
        def is_zero_monomial(self, mono):
            tried.append(mono)
            return super().is_zero_monomial(mono)

    pres = CountingPresentation(
        generators=tuple([(f"x{i}", 2) for i in range(n)]), top_degree=2 * n,
        vanishing_monomials=tuple([tuple([2 * (i == j) for j in range(n)]) for i in range(n)]))
    roots = [LinearClass(pres, [Fraction(i + 1, j + 1) for j in range(n)]) for i in range(3)]
    sums = power_sums(roots, pres, n)
    assert [len(p.coeffs) for p in sums] == [math.comb(n, k) for k in range(n + 1)]
    # the growth and the element constructor, against 184755 for every product
    assert len(tried) <= (n + 1) * 2**n


@pytest.mark.parametrize(
    "relations, key",
    [(((3, 0),), (4, 0)), (((1, 1),), (2, 1))],
    ids=["power-of-a-relation", "multiple-of-a-relation"],
)
def test_an_integration_key_that_vanishes_is_refused(relations, key):
    # every element drops a vanishing monomial, so its weight could never be read
    with pytest.raises(ValueError, match="vanishes"):
        RingPresentation(generators=(("a", 2), ("p", 4)), top_degree=8,
                         vanishing_monomials=relations, integration_table=((key, Fraction(3)),))


def test_linear_classes_are_immutable():
    cp2 = builtin_manifold("CP2")
    for root in (cp2.tangent_roots[0], LinearClass.generator(cp2.presentation, "x", 3)):
        coeffs = root.coeffs
        with pytest.raises(AttributeError, match="immutable"):
            root.coeffs = (Fraction(5),)
        with pytest.raises(AttributeError, match="immutable"):
            root.presentation = builtin_manifold("CP4").presentation
        with pytest.raises(AttributeError, match="immutable"):
            del root.coeffs
        assert root.coeffs is coeffs and root.presentation is cp2.presentation
    assert builtin_manifold(" cp2 ").tangent_roots[0].coeffs == (Fraction(1),)


# -- packed monomial keys: one integer per monomial, made once per ring ------


def _scaled_element(pres, order, terms):
    """{monomial: rational c} -> the element with coefficient c * (1 + 2u + 3u^2 + ...)."""
    return CohElement(pres, order, {m: HalfQSeries(order, [c * (k + 1) for k in range(order + 1)])
                                    for m, c in terms.items()})


@pytest.mark.parametrize("order", [0, 2])
def test_products_over_wide_digits_match_brute_force(order):
    # exponents up to 300 need 9-bit digits: x^150 * x^150 = x^300 has the top
    # degree and survives, x^150 * x^151 crosses it
    pres = RingPresentation(generators=(("x", 2),), top_degree=600)
    a = _scaled_element(pres, order, {(150,): Fraction(1, 2), (149,): 3, (0,): -1})
    b = _scaled_element(pres, order, {(150,): Fraction(5, 3), (151,): -1, (1,): 7})
    product = a * b
    _assert_terms(product, _brute_product(a, b))
    assert (300,) in product.coeffs and (301,) not in _brute_product(a, b)[1]
    expected = _brute_sum(_as_element(pres, _brute_product(a, b)),
                          _as_element(pres, _brute_product(b, b)))
    _assert_terms(sum_of_products([(a, b), (b, b)]), expected)


def test_a_filled_table_keeps_the_products_of_the_mixed_degree_ring():
    # a fresh copy of a_p_top_relation: the first pass over every monomial pair
    # fills its table, the second reads it; a^3 and p^2 (of the top degree) vanish
    ring = KERNEL_RINGS["a_p_top_relation"]
    pres = RingPresentation(ring.generators, ring.top_degree, ring.vanishing_monomials)
    monos = _monomials_up_to_top(pres)
    for _ in range(2):
        for order, (m1, m2) in itertools.product((0, 1), itertools.product(monos, repeat=2)):
            a = _scaled_element(pres, order, {m1: Fraction(3, 2), (0, 0): 1})
            b = _scaled_element(pres, order, {m2: Fraction(-2, 5), (1, 0): 2})
            _assert_terms(a * b, _brute_product(a, b))
    keys = {m: pres._table[m] for m in monos}
    assert len(set(keys.values())) == len(monos)
    assert sorted(monos, key=keys.get) == sorted(monos, key=lambda m: (pres.monomial_degree(m), m))
    for m, key in keys.items():
        assert pres._table[key] == (None if pres.is_zero_monomial(m) else m)


def test_a_filled_table_leaves_equality_and_hashing_alone():
    ring = KERNEL_RINGS["a_p"]
    fresh, filled = (RingPresentation(ring.generators, ring.top_degree, ring.vanishing_monomials)
                     for _ in range(2))
    a = _scaled_element(filled, 1, {(1, 0): 2, (0, 1): Fraction(1, 3), (2, 1): -1})
    _assert_terms(a * a, _brute_product(a, a))
    assert len(filled._table) > len(fresh._table) == 0
    assert fresh == filled and hash(fresh) == hash(filled) and {fresh: 1}[filled] == 1
    b = _scaled_element(fresh, 1, {(1, 1): 4, (0, 0): -1})
    _assert_terms(a * b, _brute_product(a, b))
    _assert_terms(b * a, _brute_product(b, a))


def test_a_product_leaves_the_builtin_manifold_hash_alone():
    cp4 = builtin_manifold("CP4")
    before = hash(cp4), hash(cp4.presentation)
    a = _scaled_element(cp4.presentation, 3, {(1,): 1, (2,): Fraction(-1, 2), (3,): 5})
    _assert_terms(a * a, _brute_product(a, a))
    assert (hash(cp4), hash(cp4.presentation)) == before
    assert builtin_manifold("cp4") is cp4
