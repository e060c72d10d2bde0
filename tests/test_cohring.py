from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def test_manifold_needs_dimension_divisible_by_four():
    from ellgen.cohring import Manifold

    pres = RingPresentation(generators=(("x", 2),), top_degree=6)
    with pytest.raises(ValueError):
        Manifold(name="bad", presentation=pres, dimension=6)


def test_remap_generator():
    pres = RingPresentation(generators=(("a", 2), ("b", 2)), top_degree=8)
    elem = CohElement(pres, 0, {(2, 1): HalfQSeries.one(0)})
    moved = elem.remap_generator(0, 1)
    assert moved == CohElement(pres, 0, {(0, 3): HalfQSeries.one(0)})


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
