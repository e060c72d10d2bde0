"""The integer-numerator representation of HalfQSeries and its kernels.

A series is a tuple of integer numerators over one positive denominator,
kept canonical.  These tests check the canonical form after every kernel,
the Kronecker product at the edge of its digit range, both sides of the
sparse/Kronecker switch, integer inversion, the integer weights of
`theta.log_product_series` against the Fraction loop they replaced, and
numeric evaluation from the numerators against the Fraction-view Horner
loop it replaced.
"""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ellgen import modcheck, qseries
from ellgen.qseries import HalfQSeries, ZeroConstantTerm
from ellgen.theta import log_product_series

SWITCH = qseries._SPARSE_TERMS


def assert_canonical(s):
    assert len(s.nums) == s.order + 1
    assert all(type(c) is int for c in s.nums)
    assert type(s.den) is int and s.den > 0
    assert math.gcd(s.den, *s.nums) == 1
    if s.is_zero():
        assert s.den == 1
    assert s.coeffs == tuple(Fraction(c, s.den) for c in s.nums)


def naive_product(a, b, n):
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n + 1)]


def naive_inverse(a):
    out = [1 / a[0]]
    for k in range(1, len(a)):
        out.append(-sum((a[i] * out[k - i] for i in range(1, k + 1)), Fraction(0)) / a[0])
    return out


big_ints = st.integers(min_value=-(2**80), max_value=2**80)
fractions = st.builds(Fraction, big_ints, st.integers(min_value=1, max_value=2**70))


@st.composite
def series(draw):
    order = draw(st.integers(min_value=0, max_value=12))
    terms = draw(st.integers(min_value=0, max_value=order + 1))
    cs = [Fraction(0)] * (order + 1)
    for k in draw(st.permutations(range(order + 1)))[:terms]:
        cs[k] = draw(fractions)
    return HalfQSeries(order, cs)


# -- canonical form -----------------------------------------------------------


def test_cancellation_to_zero_has_denominator_one():
    a = HalfQSeries(4, [Fraction(1, 2), Fraction(-5, 3), 0, Fraction(7, 12)])
    for zero in (a - a, a + (-a), a * 0, a * HalfQSeries.zero(4), (a - a).truncate(2)):
        assert_canonical(zero)
        assert zero.is_zero() and zero.den == 1
        assert zero == HalfQSeries.zero(zero.order)


def test_common_factor_is_divided_out():
    half = HalfQSeries(3, [Fraction(1, 2), Fraction(1, 4)])
    assert (half.nums, half.den) == ((2, 1, 0, 0), 4)
    assert ((half + half).nums, (half + half).den) == ((2, 1, 0, 0), 2)
    assert (half * 4).den == 1 and (half * 4).nums == (2, 1, 0, 0)
    assert half.truncate(0).den == 2
    assert (half + Fraction(1, 2)).den == 4 and (half + Fraction(1, 2)).nums == (4, 1, 0, 0)
    assert HalfQSeries(2, [Fraction(3, 2)]).invert().den == 3


@given(series(), series(), fractions, st.integers(min_value=-3, max_value=3))
def test_every_kernel_returns_canonical_form(a, b, f, k):
    for result in (a + b, a - b, b - a, -a, a * b, a * f, a + f, f - a, a.tau_plus_one()):
        assert_canonical(result)
    for m in range(a.order + 1):
        assert_canonical(a.truncate(m))
    if a.nums[0]:
        assert_canonical(a.invert())
        assert_canonical(a**k)


@given(series(), series())
def test_equality_and_hash_are_structural(a, b):
    rebuilt = HalfQSeries(a.order, a.coeffs)
    assert (rebuilt.nums, rebuilt.den) == (a.nums, a.den)
    assert hash(rebuilt) == hash(a)
    assert (a == b) == (a.order == b.order and a.coeffs == b.coeffs)


def test_fraction_view_is_built_once():
    a = HalfQSeries(3, [1, Fraction(1, 3)])
    assert a * a is not None and a._coeffs is None  # arithmetic does not build it
    assert a.coeffs is a.coeffs
    assert a.coefficient(1) is a.coeffs[1]


# -- Kronecker products -------------------------------------------------------


@pytest.mark.parametrize(
    ("top", "terms", "ma", "mb"),
    [
        # 2^135 - 1 = 7 * ma * mb: digits of w = 136 bits, and the top
        # coefficient +-(2^(w-1) - 1) sits at the edge of the digit range
        (2**135 - 1, 7, (2**45 - 1) // 7, 2**90 + 2**45 + 1),
        # 2^136 - 1 = 5 * ma * mb: a bit length that is a multiple of 8
        # needs one more byte per digit
        (2**136 - 1, 5, (2**68 - 1) // 5, 2**68 + 1),
    ],
    ids=["top-of-digit", "whole-bytes"],
)
def test_kronecker_digits_at_the_edge_of_the_digit_range(top, terms, ma, mb):
    # equal coefficients: the top coefficient of the product is terms * ma * mb
    assert terms * ma * mb == top and mb > 2**64 and terms > SWITCH
    assert 8 * qseries._digit_bytes(top) - 1 >= top.bit_length()
    n = terms - 1
    for sign in (1, -1):
        a = HalfQSeries(n, [ma] * terms)
        b = HalfQSeries(n, [sign * mb] * terms)
        got = a * b
        assert got.coefficient(n) == sign * top
        assert list(got.coeffs) == naive_product(a.coeffs, b.coeffs, n)
    alternating = HalfQSeries(n, [(-1) ** i * ma for i in range(terms)])
    got = alternating * HalfQSeries(n, [mb] * terms)
    assert list(got.coeffs) == naive_product(alternating.coeffs, [Fraction(mb)] * terms, n)


@given(
    st.lists(big_ints.filter(bool), min_size=SWITCH + 1, max_size=24),
    st.lists(big_ints.filter(bool), min_size=SWITCH + 1, max_size=24),
    st.integers(min_value=1, max_value=2**70),
    st.integers(min_value=1, max_value=2**70),
)
def test_dense_products_with_large_mixed_sign_coefficients(xs, ys, da, db):
    n = min(len(xs), len(ys)) - 1
    a = HalfQSeries(len(xs) - 1, [Fraction(x, da) for x in xs])
    b = HalfQSeries(len(ys) - 1, [Fraction(y, db) for y in ys])
    got = a * b
    assert got == HalfQSeries(n, naive_product(a.coeffs, b.coeffs, n))
    assert_canonical(got)


@given(st.lists(big_ints.filter(bool), min_size=SWITCH + 1, max_size=24))
@example([2**80] * (SWITCH + 1))
@example([(-1) ** i * 2**80 for i in range(24)])
def test_kronecker_square_of_one_tuple(xs):
    # a square hands the same tuple to both sides and packs it once
    a, twin = tuple(xs), tuple(list(xs))
    assert twin is not a
    square = qseries._int_product(a, a)
    assert square == qseries._int_product(a, twin)
    assert list(square) == naive_product(a, a, len(a) - 1)


# -- the sparse/Kronecker switch ----------------------------------------------


def _with_terms(order, count, value):
    cs = [Fraction(0)] * (order + 1)
    for i in range(count):
        cs[(i * 5) % (order + 1)] = Fraction(value * (i + 2), i + 1) * (-1) ** i
    return HalfQSeries(order, cs)


@pytest.mark.parametrize(
    ("terms_a", "terms_b", "kronecker"),
    [
        (SWITCH, SWITCH, False),
        (SWITCH, 17, False),
        (17, SWITCH, False),
        (SWITCH + 1, 17, True),
        (17, SWITCH + 1, True),
        (SWITCH + 1, SWITCH + 1, True),
        (0, 17, False),
    ],
)
def test_switch_between_sparse_and_kronecker_products(monkeypatch, terms_a, terms_b, kronecker):
    calls = []
    kernel = qseries._kronecker_product

    def spy(a, b, nbytes):
        calls.append(nbytes)
        return kernel(a, b, nbytes)

    monkeypatch.setattr(qseries, "_kronecker_product", spy)
    order = 16
    a = _with_terms(order, terms_a, 2**70 + 3)
    b = _with_terms(order, terms_b, -(2**66) - 1)
    assert a * b == HalfQSeries(order, naive_product(a.coeffs, b.coeffs, order))
    assert bool(calls) is kronecker


# -- integer inversion --------------------------------------------------------


@pytest.mark.parametrize("order", [0, 1, 6, 7])
@pytest.mark.parametrize("c0", [Fraction(3), Fraction(-2), Fraction(-5, 7), Fraction(4, 9)])
def test_invert_with_a_constant_term_other_than_unit(order, c0):
    cs = [c0, Fraction(-1, 2), 0, Fraction(5, 3), Fraction(2**70, 3), 0, -7, Fraction(1, 11)]
    a = HalfQSeries(order, cs[: order + 1])
    inv = a.invert()
    assert_canonical(inv)
    assert list(inv.coeffs) == naive_inverse(a.coeffs)
    assert a * inv == HalfQSeries.one(order)


def test_invert_of_zero_constant_term_still_raises():
    with pytest.raises(ZeroConstantTerm):
        HalfQSeries(3, [0, Fraction(1, 2)]).invert()


# -- integer theta weights ----------------------------------------------------


def fraction_log_product_weights(sign, half_shift, z_degree, order):
    """The Fraction loop that `log_product_series` used before integer weights."""
    half_max = z_degree // 2
    weights = [[Fraction(0)] * (order + 1) for _ in range(half_max + 1)]
    start = 1 if half_shift else 2
    for level in range(start, order + 1, 2):
        k = 1
        while level * k <= order:
            c = Fraction((-1) ** (k + 1) * sign**k, k)
            for m in range(1, half_max + 1):
                weights[m][level * k] += c * Fraction(2 * k ** (2 * m), math.factorial(2 * m))
            k += 1
    return weights


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("half_shift", [False, True])
@pytest.mark.parametrize(("z_degree", "order"), [(0, 8), (4, 30), (6, 41)])
def test_integer_log_weights_match_fraction_loop(sign, half_shift, z_degree, order):
    got = log_product_series(sign, half_shift, z_degree, order).coeffs
    weights = fraction_log_product_weights(sign, half_shift, z_degree, order)
    assert len(got) == z_degree + 1
    for power, series in enumerate(got):
        expected = weights[power // 2] if power % 2 == 0 and power else [0] * (order + 1)
        assert series == HalfQSeries(order, expected)
        assert_canonical(series)


# -- numeric evaluation from the numerators -----------------------------------


def fraction_horner(s, u):
    """The Fraction-view evaluation that `eval_numeric` used before it read
    the numerators: Horner on complex(c), tail from the last five terms."""
    coeffs = [Fraction(c, s.den) for c in s.nums]
    r = abs(u)
    acc = complex(0)
    for c in reversed(coeffs):
        acc = acc * u + complex(c)
    last = coeffs[-5:] if s.order >= 4 else coeffs
    peak = max((abs(float(c)) for c in last), default=0.0)
    return acc, r ** (s.order + 1) * peak / (1.0 - r)


def outcome(evaluate, s, u):
    """The bit pattern of (value, estimate), or the name of the exception."""
    try:
        value, estimate = evaluate(s, u)
    except OverflowError as exc:
        return type(exc).__name__
    return struct.pack("<3d", value.real, value.imag, estimate)


@st.composite
def numerator_series(draw):
    """Canonical series with numerators and denominator scaled by 2^shift
    (above 2^1100 at the largest shifts); with an unscaled denominator the
    large coefficients leave the float range."""
    order = draw(st.integers(min_value=0, max_value=12))
    shift = draw(st.sampled_from([0, 1, 64, 1100, 1150]))
    den_shift = draw(st.sampled_from([0, shift]))
    low = st.integers(min_value=0, max_value=2**shift)
    nums = tuple(
        draw(st.integers(min_value=-(2**64), max_value=2**64)) * 2**shift + draw(low)
        if draw(st.booleans()) else 0
        for _ in range(order + 1)
    )
    den = draw(st.integers(min_value=1, max_value=2**64)) * 2**den_shift
    den += draw(st.integers(min_value=0, max_value=2**den_shift - 1))
    return qseries.from_numerators(order, nums, den)


samples = st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False)


@given(numerator_series(), samples)
@example(HalfQSeries.zero(0), 0.5j)
@example(HalfQSeries.zero(9), 0.3 - 0.2j)
@example(qseries.from_numerators(3, (2**1101 + 1, 0, -(2**1102), 7), 2**1100 + 3), 0.9)
@example(qseries.from_numerators(6, (1, 0, 0, 0, 0, 0, 2**1100), 1), 0.1j)
def test_eval_numeric_matches_fraction_horner_bit_for_bit(s, u):
    expected = outcome(fraction_horner, s, u)
    assert outcome(HalfQSeries.eval_numeric, s, u) == expected
    assert outcome(qseries.eval_numeric, s, u) == expected


def test_eval_numeric_does_not_build_the_fraction_view():
    s = HalfQSeries(8, [Fraction(1, 3), 0, Fraction(-7, 5), 2, 0, 0, Fraction(1, 9)])
    value, estimate = s.eval_numeric(0.2 + 0.1j)
    assert s._coeffs is None
    assert (value, estimate) == fraction_horner(s, 0.2 + 0.1j)


def test_coefficient_beyond_the_float_range_gives_tail_too_large():
    f = qseries.from_numerators(8, (1,) + (0,) * 7 + (2**1100,), 1)
    with pytest.raises(modcheck.TailTooLarge, match="cannot be evaluated"):
        modcheck.check_numeric(f, modcheck.S, 2)
    assert f._coeffs is None


def test_eval_numeric_builds_the_float_view_once():
    s = HalfQSeries(8, [Fraction(1, 3), 0, Fraction(-7, 5), 2, 0, 0, Fraction(1, 9)])
    first = s.eval_numeric(0.2 + 0.1j)
    view = s._floats
    assert view == tuple(c / s.den for c in s.nums)
    assert s.eval_numeric(-0.4j) == fraction_horner(s, -0.4j)
    assert s._floats is view
    assert s.eval_numeric(0.2 + 0.1j) == first
    assert s._coeffs is None


def test_a_coefficient_beyond_the_float_range_caches_no_float_view():
    f = qseries.from_numerators(8, (1,) + (0,) * 7 + (2**1100,), 1)
    for _ in range(2):
        with pytest.raises(OverflowError):
            f.eval_numeric(0.1j)
        assert not hasattr(f, "_floats")
    with pytest.raises(modcheck.TailTooLarge, match="cannot be evaluated"):
        modcheck.check_numeric(f, modcheck.S, 2)
    assert not hasattr(f, "_floats") and f._coeffs is None


# -- one n-ary sum: sum_of_numerators against a Fraction reference -------------


@st.composite
def numerator_parts(draw):
    """(order, parts): 1-5 parts of mixed lengths (some longer than order + 1)
    and denominators, and sometimes the negation of an earlier part, so that the
    sum cancels in part or in full."""
    order = draw(st.integers(min_value=0, max_value=8))
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        if parts and draw(st.booleans()):
            nums, den = draw(st.sampled_from(parts))
            parts.append((tuple(-c for c in nums), den * draw(st.sampled_from([1, 1, 3]))))
            continue
        size = order + 1 + draw(st.integers(min_value=0, max_value=3))
        nums = draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=size, max_size=size))
        parts.append((tuple(nums), draw(st.sampled_from([1, 2, 3, 4, 6, 10, 12]))))
    return order, parts


@given(numerator_parts())
def test_sum_of_numerators_matches_the_fraction_sum(case):
    order, parts = case
    got = qseries.sum_of_numerators(order, parts)
    expected = [sum((Fraction(nums[k], den) for nums, den in parts), Fraction(0))
                for k in range(order + 1)]
    assert got.order == order
    assert got.coeffs == tuple(expected)
    assert_canonical(got)


def test_sum_of_numerators_cancels_to_the_canonical_zero():
    parts = [((1, -2, 3, 5), 6), ((-2, 4, -6, 1), 12), ((0, 0, 0, 7), 4)]
    # the first two cancel through u^2; u^3 is past the order
    got = qseries.sum_of_numerators(2, parts)
    assert got == HalfQSeries.zero(2) and got.den == 1
    assert_canonical(got)
    # one part longer than the order is its own truncation
    assert qseries.sum_of_numerators(1, parts[:1]) == HalfQSeries(1, [Fraction(1, 6),
                                                                      Fraction(-1, 3)])
    a, b = HalfQSeries(3, [Fraction(1, 2), 3]), HalfQSeries(2, [Fraction(1, 3), 0, 1])
    assert a + b == qseries.sum_of_numerators(2, [(a.nums, a.den), (b.nums, b.den)])
