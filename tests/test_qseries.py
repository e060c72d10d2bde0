from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellgen.qseries import (
    DivergentTail,
    HalfQSeries,
    ZeroConstantTerm,
    eta_like_product,
    power_label,
)

ORDER = 8

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def series_st(order=ORDER):
    return st.lists(fractions_st, min_size=0, max_size=order + 1).map(
        lambda cs: HalfQSeries(order, cs)
    )


def S(*coeffs, order=ORDER):
    return HalfQSeries(order, [Fraction(c) for c in coeffs])


def test_add_identity():
    a = S(1, 0, 1)
    assert a + S(0) == a


def test_add_cancels():
    assert S(1, -1) + S(0, 1) == S(1)


def test_add_truncates_to_min_order():
    a = HalfQSeries(4, [1, 1, 1, 1, 1])
    b = HalfQSeries(2, [1, 1, 1])
    assert (a + b).order == 2


def test_mul_geometric_inverse():
    geo = HalfQSeries(ORDER, [1 if k % 2 == 0 else 0 for k in range(ORDER + 1)])
    assert (S(1, 0, -1) * geo) == HalfQSeries.one(ORDER)


def test_mul_u_times_u_is_q():
    assert S(0, 1) * S(0, 1) == S(0, 0, 1)


def test_mul_square():
    assert S(1, 1) * S(1, 1) == S(1, 2, 1)


def test_invert_one_minus_u():
    inv = S(1, -1).invert()
    assert inv == HalfQSeries(ORDER, [1] * (ORDER + 1))


def test_invert_constant():
    assert S(2).invert() == S(Fraction(1, 2))


def test_invert_round_trip():
    a = S(1, 1, 1)
    assert a * a.invert() == HalfQSeries.one(ORDER)
    assert a.invert() * a == HalfQSeries.one(ORDER)


def test_invert_zero_constant_raises():
    with pytest.raises(ZeroConstantTerm):
        S(0, 1).invert()


def test_eta_product_leading_terms():
    # prod (1-q^j) to q^2: brute-force product of the two live factors
    got = eta_like_product(-1, False, 1, 4)
    oracle = S(1, 0, -1, 0, 0, order=4) * S(1, 0, 0, 0, -1, order=4)
    assert got == oracle
    assert got == S(1, 0, -1, 0, -1, order=4)


def test_eta_exponent_zero():
    assert eta_like_product(-1, True, 0, 6) == HalfQSeries.one(6)


def _brute_force_triple_product(order):
    out = HalfQSeries.one(order)
    for j in range(1, order + 1):
        for sign, upow in ((1, 2 * j), (-1, 2 * j - 1), (1, 2 * j - 1)):
            if upow <= order:
                out = out * (HalfQSeries.one(order) + HalfQSeries.u_power(upow, order, sign))
    return out


def test_euler_triple_product_is_one():
    order = 16
    prod = (
        eta_like_product(1, False, 1, order)
        * eta_like_product(-1, True, 1, order)
        * eta_like_product(1, True, 1, order)
    )
    assert prod == _brute_force_triple_product(order)
    assert prod == HalfQSeries.one(order)


@given(
    st.sampled_from([1, -1]),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
def test_eta_exponent_additivity(sign, half, e1, e2):
    order = 10
    lhs = eta_like_product(sign, half, e1, order) * eta_like_product(sign, half, e2, order)
    assert lhs == eta_like_product(sign, half, e1 + e2, order)


def test_tau_plus_one_examples():
    assert S(1, 1).tau_plus_one() == S(1, -1)
    even = S(1, 0, 2, 0, 3)
    assert even.tau_plus_one() == even
    a = S(1, 2, 3, 4)
    assert a.tau_plus_one().tau_plus_one() == a


@given(series_st(), series_st())
def test_tau_plus_one_is_ring_hom(a, b):
    assert (a + b).tau_plus_one() == a.tau_plus_one() + b.tau_plus_one()
    assert (a * b).tau_plus_one() == a.tau_plus_one() * b.tau_plus_one()


def test_is_integral_predicate():
    assert not any(S(1, 0, 5).nums[1::2])
    assert any(S(1, 1).nums[1::2])


@given(series_st(), series_st(), series_st())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_eval_constant():
    value, bound = S(Fraction(3, 2)).eval_numeric(0.3 + 0.1j)
    assert value == pytest.approx(1.5)


def test_eval_geometric():
    geo = HalfQSeries(40, [1] * 41)
    value, bound = geo.eval_numeric(0.1)
    assert abs(value - 1 / 0.9) <= bound + 1e-15


def test_eval_zero_series():
    value, bound = HalfQSeries.zero(6).eval_numeric(0.5)
    assert value == 0
    assert bound == 0.0


def test_eval_divergent_tail():
    with pytest.raises(DivergentTail):
        S(1).eval_numeric(1.0)


def test_power_labels():
    assert power_label(0) == "q^0"
    assert power_label(1) == "q^{1/2}"
    assert power_label(3) == "q^{3/2}"
    assert power_label(4) == "q^2"


def test_rendering_uses_exact_fractions():
    s = S(Fraction(-1, 8), -1)
    assert ("q^0", "-1/8") in s.term_strings()
    assert ("q^{1/2}", "-1/1") in s.term_strings()


# -- the sparse kernel against a naive Fraction reference -------------------

nonzero_fractions_st = fractions_st.filter(lambda c: c != 0)


@st.composite
def kernel_series(draw):
    """Dense, sparse or zero coefficients at an independently drawn order."""
    order = draw(st.integers(min_value=0, max_value=10))
    shape = draw(st.sampled_from(["dense", "sparse", "zero"]))
    cs = [Fraction(0)] * (order + 1)
    if shape == "dense":
        cs = draw(st.lists(nonzero_fractions_st, min_size=order + 1, max_size=order + 1))
    elif shape == "sparse":
        for k in draw(st.sets(st.integers(min_value=0, max_value=order), max_size=3)):
            cs[k] = draw(nonzero_fractions_st)
    return HalfQSeries(order, cs)


def naive_product(a, b, n):
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n + 1)]


def naive_inverse(a):
    out = [1 / a[0]]
    for k in range(1, len(a)):
        out.append(-sum((a[i] * out[k - i] for i in range(1, k + 1)), Fraction(0)) / a[0])
    return out


def assert_canonical(result, order, values):
    """Same order, coefficients all Fractions, equal and hashing like the public build."""
    assert result.order == order
    assert len(result.coeffs) == order + 1
    assert all(type(c) is Fraction for c in result.coeffs)
    rebuilt = HalfQSeries(order, values)
    assert result == rebuilt
    assert hash(result) == hash(rebuilt)


@given(kernel_series(), kernel_series(), st.integers(min_value=-5, max_value=5), fractions_st)
def test_sum_and_difference_match_naive_reference(a, b, k, f):
    n = min(a.order, b.order)
    pairs = list(zip(a.coeffs, b.coeffs))
    assert_canonical(a + b, n, [x + y for x, y in pairs])
    assert_canonical(a - b, n, [x - y for x, y in pairs])
    assert_canonical(-a, a.order, [-x for x in a.coeffs])
    for scalar in (k, f):
        shifted = [a.coeffs[0] + scalar, *a.coeffs[1:]]
        assert_canonical(a + scalar, a.order, shifted)
        assert_canonical(scalar + a, a.order, shifted)
        assert_canonical(a - scalar, a.order, [a.coeffs[0] - scalar, *a.coeffs[1:]])
        assert_canonical(scalar - a, a.order, [scalar - a.coeffs[0], *(-x for x in a.coeffs[1:])])


@given(kernel_series(), kernel_series(), st.integers(min_value=-5, max_value=5), fractions_st)
def test_products_match_naive_reference(a, b, k, f):
    n = min(a.order, b.order)
    assert_canonical(a * b, n, naive_product(a.coeffs, b.coeffs, n))
    assert_canonical(b * a, n, naive_product(a.coeffs, b.coeffs, n))
    for scalar in (k, f):
        assert_canonical(a * scalar, a.order, [x * scalar for x in a.coeffs])
        assert_canonical(scalar * a, a.order, [x * scalar for x in a.coeffs])


@given(kernel_series(), st.integers(min_value=-3, max_value=3))
def test_power_invert_truncate_match_naive_reference(a, exponent):
    for m in range(a.order + 1):
        assert_canonical(a.truncate(m), m, a.coeffs[: m + 1])
    if a.coeffs[0] == 0:
        with pytest.raises(ZeroConstantTerm):
            a.invert()
        base = a.coeffs
        exponent = abs(exponent)
    else:
        assert_canonical(a.invert(), a.order, naive_inverse(a.coeffs))
        base = a.coeffs if exponent >= 0 else naive_inverse(a.coeffs)
    expected = [Fraction(1)] + [Fraction(0)] * a.order
    for _ in range(abs(exponent)):
        expected = naive_product(expected, base, a.order)
    assert_canonical(a**exponent, a.order, expected)


def fraction_view_str(series):
    """HalfQSeries.__str__ written over the Fraction view, as it was before it read
    the integer numerators: the reference the numerator rendering must match."""
    if series.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(series.coeffs):
        if c == 0:
            continue
        mag = str(abs(c)) if k == 0 else (
            power_label(k) if abs(c) == 1 else f"{abs(c)}*{power_label(k)}"
        )
        parts.append(("- " if c < 0 else "+ ") + mag)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# zeros, unit magnitudes, integers (den 1 when alone) and proper fractions of either sign
render_coefficients_st = st.one_of(
    st.just(Fraction(0)), st.sampled_from([Fraction(1), Fraction(-1)]),
    st.integers(min_value=-40, max_value=40).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


@given(st.integers(min_value=0, max_value=9).flatmap(
    lambda order: st.lists(render_coefficients_st, max_size=order + 1).map(
        lambda cs: HalfQSeries(order, cs))))
def test_str_matches_the_fraction_view_rendering(series):
    assert str(series) == fraction_view_str(series)


@pytest.mark.parametrize("coeffs, text", [
    ([], "0"),
    ([0, 0, 0], "0"),
    ([-1], "-1"),
    ([0, 1], "q^{1/2}"),
    ([0, -1, Fraction(3, 2)], "-q^{1/2} + 3/2*q^1"),
    ([2, 0, -4, Fraction(-1, 3)], "2 - 4*q^1 - 1/3*q^{3/2}"),
])
def test_str_of_chosen_series(coeffs, text):
    series = HalfQSeries(5, coeffs)
    assert str(series) == text == fraction_view_str(series)
