import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgen import theta
from ellgen.qseries import HalfQSeries, eta_like_product
from ellgen.theta import (
    DEFAULT_LAW_SAMPLES,
    InvalidTau,
    ThetaKind,
    a_hat_factor_series,
    elliptic_factor,
    jacobi_identity_exact,
    product_tail,
    theta_numeric,
    theta_numeric_dv,
    transformation_law_residual,
    transformation_law_table,
    transformation_law_tail,
)


def coeff(fs, zpow, upow):
    return fs.coeffs[zpow].coefficient(upow)


def test_odd_factor_q_to_zero_limit():
    # q -> 0 degeneration: z / (e^(z/2) - e^(-z/2)) = 1 - z^2/24 + 7z^4/5760
    fs = elliptic_factor(ThetaKind.THETA, 4, 6)
    assert coeff(fs, 0, 0) == 1
    assert coeff(fs, 2, 0) == Fraction(-1, 24)
    assert coeff(fs, 4, 0) == Fraction(7, 5760)


def test_even_factor_q_to_zero_limits():
    f1 = elliptic_factor(ThetaKind.THETA1, 4, 4)
    assert coeff(f1, 2, 0) == Fraction(1, 8)  # cosh(z/2)
    for kind in (ThetaKind.THETA2, ThetaKind.THETA3):
        fs = elliptic_factor(kind, 4, 4)
        assert coeff(fs, 2, 0) == 0
        assert coeff(fs, 4, 0) == 0


def _brute_force_half_level_factor(z_degree, order):
    """(1 - u e^z)(1 - u e^-z) / (1 - u)^2 truncated, on a dict basis."""
    from ellgen.theta import FactorSeries

    def exp_pm(sign):
        cs = [HalfQSeries.zero(order) for _ in range(z_degree + 1)]
        fact = 1
        for k in range(z_degree + 1):
            if k:
                fact *= k
            cs[k] = HalfQSeries.constant(Fraction(sign**k, fact), order)
        return FactorSeries.build(z_degree, order, cs)

    one = FactorSeries.one(z_degree, order)
    u = HalfQSeries.u_power(1, order)
    inv = FactorSeries.build(
        z_degree, order, [(HalfQSeries.one(order) - u).invert()]
    )
    return (one + exp_pm(1) * (-u)) * (one + exp_pm(-1) * (-u)) * inv * inv


def test_half_level_factor_against_product_oracle():
    # only the j=1 level of THETA2 contributes at u^1
    fs = elliptic_factor(ThetaKind.THETA2, 4, 1)
    oracle = _brute_force_half_level_factor(4, 1)
    assert fs.coeffs[2].coefficient(1) == oracle.coeffs[2].coefficient(1) == -1
    assert fs.coeffs[0].coefficient(1) == oracle.coeffs[0].coefficient(1)
    assert fs.coeffs[4].coefficient(1) == oracle.coeffs[4].coefficient(1)


def test_factors_normalized_at_z_zero():
    for kind in ThetaKind:
        fs = elliptic_factor(kind, 6, 8)
        assert fs.coeffs[0] == HalfQSeries.one(8)


def test_factors_even_in_z():
    for kind in ThetaKind:
        assert all(c.is_zero() for c in elliptic_factor(kind, 6, 8).coeffs[1::2])


def test_theta_vanishes_at_origin():
    assert theta_numeric(ThetaKind.THETA, 0.0, 1.1j) == 0


def test_theta3_matches_sum_form():
    tau = 1.2j
    total = sum(cmath.exp(1j * cmath.pi * tau * n * n) for n in range(-50, 51))
    assert abs(theta_numeric(ThetaKind.THETA3, 0.0, tau) - total) < 1e-10


def test_jacobi_identity_numeric():
    tau = 1.1j
    lhs = theta_numeric_dv(ThetaKind.THETA, 0.0, tau, deriv_order=1)
    rhs = cmath.pi
    for kind in (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3):
        rhs *= theta_numeric(kind, 0.0, tau)
    assert abs(lhs - rhs) < 1e-10


def test_theta1_prime_vanishes():
    assert abs(theta_numeric_dv(ThetaKind.THETA1, 0.0, 1.3j, deriv_order=1)) < 1e-12


def test_third_log_derivative_small_q():
    # theta'''(0)/theta'(0) = -pi^2 + 24 pi^2 q + O(q^2)
    for qv in (1e-4, 1e-5):
        tau = cmath.log(qv) / (2j * cmath.pi)
        ratio = theta_numeric_dv(ThetaKind.THETA, 0, tau, deriv_order=3) / theta_numeric_dv(
            ThetaKind.THETA, 0, tau, deriv_order=1
        )
        model = -cmath.pi**2 + 24 * cmath.pi**2 * qv
        assert abs(ratio - model) < 1e-2 * qv * cmath.pi**2 * 24


def test_invalid_tau_and_derivative_order():
    with pytest.raises(InvalidTau):
        theta_numeric(ThetaKind.THETA2, 0.1, 0.5 - 0.1j)
    with pytest.raises(ValueError):
        theta_numeric_dv(ThetaKind.THETA, 0.1, 1.1j, deriv_order=4)


def test_kind_must_be_a_theta_kind():
    with pytest.raises(TypeError):
        elliptic_factor("theta", 4, 6)
    with pytest.raises(TypeError):
        theta_numeric("theta2", 0.1, 1.1j)


def test_jacobi_identity_exact_orders():
    assert jacobi_identity_exact(0)
    assert jacobi_identity_exact(20)


def test_jacobi_identity_negative_control():
    # flip the sign of the last factor: product is no longer 1
    perturbed = (
        eta_like_product(1, False, 1, 12)
        * eta_like_product(-1, True, 1, 12)
        * eta_like_product(-1, True, 1, 12)
    )
    assert perturbed != HalfQSeries.one(12)


def test_all_transformation_laws():
    for kind, law, resid in transformation_law_table(DEFAULT_LAW_SAMPLES):
        assert resid < 1e-8, f"{kind} {law}-law residual {resid}"


def test_theta3_s_law_at_origin():
    tau = 1.2j
    lhs = theta_numeric(ThetaKind.THETA3, 0.0, -1.0 / tau)
    rhs = cmath.sqrt(tau / 1j) * theta_numeric(ThetaKind.THETA3, 0.0, tau)
    assert abs(lhs - rhs) < 1e-8


def test_transformation_law_rejects_unknown():
    with pytest.raises(ValueError):
        transformation_law_residual(ThetaKind.THETA, "U", 0.1, 1.1j)


def test_factor_series_matches_numeric_quotients():
    # bridge between exact and numeric conventions: v = z / (2 pi i)
    tau = 1.05j
    u0 = cmath.exp(1j * cmath.pi * tau)
    z0 = 0.23 + 0.11j
    v0 = z0 / (2j * cmath.pi)
    for kind in ThetaKind:
        fs = elliptic_factor(kind, 12, 30)
        lhs = complex(0)
        for c in reversed(fs.coeffs):  # Horner's rule in z
            lhs = lhs * z0 + c.eval_numeric(u0)[0]
        if kind is ThetaKind.THETA:
            rhs = (
                v0
                * theta_numeric_dv(ThetaKind.THETA, 0, tau, 80, 1)
                / theta_numeric(ThetaKind.THETA, v0, tau, 80)
            )
        else:
            rhs = theta_numeric(kind, v0, tau, 80) / theta_numeric(kind, 0, tau, 80)
        assert abs(lhs - rhs) < 1e-8


def test_factor_series_invert_round_trip():
    from ellgen.theta import FactorSeries

    for kind in ThetaKind:
        fs = elliptic_factor(kind, 6, 6)
        prod = fs * fs.invert()
        assert prod == FactorSeries.one(6, 6)


def test_factor_series_hash_follows_equality():
    a = elliptic_factor(ThetaKind.THETA1, 4, 4)
    b = elliptic_factor(ThetaKind.THETA1, 4, 4) * elliptic_factor(ThetaKind.THETA2, 4, 4).invert()
    b = b * elliptic_factor(ThetaKind.THETA2, 4, 4)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b, elliptic_factor(ThetaKind.THETA3, 4, 4)}) == 2


def test_factor_series_z_shift_truncates():
    fs = elliptic_factor(ThetaKind.THETA, 4, 2)
    shifted = fs.z_shift(1)
    assert shifted.coeffs[0].is_zero()
    assert shifted.coeffs[1] == fs.coeffs[0]
    assert shifted.coeffs[3] == fs.coeffs[2]


def test_a_hat_factor_is_reciprocal_of_sinh_series():
    fs = a_hat_factor_series(6, 0)
    inv = fs.invert()
    # 2 sinh(z/2)/z = 1 + z^2/24 + z^4/1920 + z^6/322560
    assert inv.coeffs[2].coefficient(0) == Fraction(1, 24)
    assert inv.coeffs[4].coefficient(0) == Fraction(1, 1920)
    assert inv.coeffs[6].coefficient(0) == Fraction(1, 322560)


@pytest.mark.parametrize(
    "v, tau, terms", [(0.13 + 0.04j, 0.3 + 0.05j, 12), (0.13 + 0.04j, 0.3 + 0.05j, 60),
                      (0.21, 0.2 + 0.3j, 12)]
)
def test_product_tail_estimate_tracks_the_truncation_error(v, tau, terms):
    # a heuristic estimate, not a bound: here it lies within a factor 100 above
    # the relative error against a 400-term product
    estimate = product_tail(v, tau, terms)
    for kind in ThetaKind:
        reference = theta_numeric(kind, v, tau, 400)
        error = abs(theta_numeric(kind, v, tau, terms) - reference) / abs(reference)
        assert error < estimate < 100 * error


def test_product_tail_is_infinite_where_q_rounds_to_one():
    assert product_tail(0.21, 0.5 + 1e-300j) == float("inf")


def test_transformation_law_tail_covers_every_evaluated_point():
    slow = ((0.13 + 0.04j, 0.3 + 0.05j),)
    assert transformation_law_tail(slow) > 1e-9 > transformation_law_tail(slow, 120)
    assert transformation_law_tail(DEFAULT_LAW_SAMPLES) < 1e-100
    # the S-law image of tau = 3j sits at Im(-1/tau) = 1/3
    assert transformation_law_tail(((0.1, 3j),)) == product_tail(0.1, -1 / 3j)


# -- the jet loop against its earlier literal form ----------------------------


def _jet_const(c):
    return (c, 0j, 0j, 0j)


def _jet_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _jet_mul(a, b):
    return (
        a[0] * b[0],
        a[1] * b[0] + a[0] * b[1],
        a[2] * b[0] + 2 * a[1] * b[1] + a[0] * b[2],
        a[3] * b[0] + 3 * a[2] * b[1] + 3 * a[1] * b[2] + a[0] * b[3],
    )


def _reference_jet(kind, v, tau, terms):
    """The jet loop as first written: every factor a full jet product, with
    the scalars 1 and 1 - q^j as constant jets and 1 + s t e^(+-w) as a jet sum."""
    mul, scale = _jet_mul, theta._jet_scale
    q = cmath.exp(2j * cmath.pi * tau)
    a = 2j * cmath.pi
    w_plus = cmath.exp(a * v)
    jet_plus = (w_plus, a * w_plus, a * a * w_plus, a**3 * w_plus)
    w_minus = 1.0 / w_plus
    jet_minus = (w_minus, -a * w_minus, a * a * w_minus, -(a**3) * w_minus)
    sign, half = kind.sign, kind.half
    if half:
        acc = _jet_const(1.0)
    else:
        pi = cmath.pi
        s, c = cmath.sin(pi * v), cmath.cos(pi * v)
        if kind is ThetaKind.THETA:
            front = (s, pi * c, -pi * pi * s, -pi**3 * c)
        else:
            front = (c, -pi * s, -pi * pi * c, pi**3 * s)
        acc = scale(front, 2 * cmath.exp(1j * cmath.pi * tau / 4))
    for j in range(1, terms + 1):
        qj = q**j
        level = cmath.exp(2j * cmath.pi * tau * (j - 0.5)) if half else qj
        acc = mul(acc, _jet_const(1.0 - qj))
        acc = mul(acc, _jet_add(_jet_const(1.0), scale(jet_plus, sign * level)))
        acc = mul(acc, _jet_add(_jet_const(1.0), scale(jet_minus, sign * level)))
    return acc


@given(
    st.sampled_from(list(ThetaKind)),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.3, 2.0)),
    st.sampled_from([1, 2, 60]),
)
@settings(max_examples=300)
def test_theta_jet_equals_the_literal_jet_loop(kind, v, tau, terms):
    assert theta._theta_jet(kind, v, tau, terms) == _reference_jet(kind, v, tau, terms)


# -- each factor as the exp of its log ---------------------------------------------

FACTOR_GRID = [(2, 8), (4, 80), (6, 1), (6, 24), (12, 30)]


def _factor_by_products(kind, z_degree, order):
    """The normalized factor as a product of a front series and the exp of
    the product's log, the odd front by inverting 2 sinh(z/2)/z."""
    log_part = theta.log_product_series(kind.sign, kind.half, z_degree, order)
    if kind is ThetaKind.THETA:
        return a_hat_factor_series(z_degree, order) * (-log_part).exp()
    if kind.half:
        return log_part.exp()
    return theta._half_argument_series(z_degree, order, 0) * log_part.exp()


@pytest.mark.parametrize("z_degree, order", FACTOR_GRID)
@pytest.mark.parametrize("kind", list(ThetaKind))
def test_elliptic_factor_equals_the_product_construction(kind, z_degree, order):
    assert elliptic_factor(kind, z_degree, order) == _factor_by_products(kind, z_degree, order)


@pytest.mark.parametrize("z_degree, order", FACTOR_GRID)
@pytest.mark.parametrize("kind", list(ThetaKind))
def test_factor_log_exponentiates_to_the_factor(kind, z_degree, order):
    log = theta.factor_log(kind, z_degree, order)
    assert log.exp() == elliptic_factor(kind, z_degree, order)
    assert all(c.is_zero() for c in log.coeffs[1::2]) and log.coeffs[0].is_zero()


@pytest.mark.parametrize("kind", list(ThetaKind))
def test_factor_log_is_the_log_of_the_factor(kind):
    fs = elliptic_factor(kind, 6, 12)
    assert fs.log() == theta.factor_log(kind, 6, 12)


def test_factor_log_rejects_what_elliptic_factor_rejects():
    with pytest.raises(ValueError):
        theta.factor_log(ThetaKind.THETA, 3, 4)
    with pytest.raises(TypeError):
        theta.factor_log("theta", 4, 4)


@given(st.lists(st.lists(st.fractions(-9, 9, max_denominator=9), min_size=3, max_size=3),
                max_size=4))
def test_factor_series_log_and_exp_are_inverse(rest):
    # z^0 term 1 and random series at z^1 .. z^d, d = len(rest)
    order = 2
    coeffs = [HalfQSeries.one(order)] + [HalfQSeries(order, cs) for cs in rest]
    f = theta.FactorSeries.build(len(rest), order, coeffs)
    assert f.log().exp() == f


@pytest.mark.parametrize(
    "front", [HalfQSeries(3, [2]), HalfQSeries(3, [1, 1]), HalfQSeries.zero(3)],
    ids=["two", "one-plus-q-half", "zero"],
)
def test_factor_series_log_needs_the_z0_term_one(front):
    # log(1 + y) sums y^k = (f - 1)^k through k = d: all of it only when z divides y
    f = theta.FactorSeries.build(4, 3, [front, HalfQSeries.one(3)])
    with pytest.raises(ValueError, match="z\\^0 term 1"):
        f.log()


@pytest.mark.parametrize("empty", [[], (), iter(())], ids=["list", "tuple", "iterator"])
def test_law_tail_refuses_an_empty_sample_list_like_the_table(empty, monkeypatch):
    def no_tail(*args):
        raise AssertionError("a tail was estimated with no samples")

    monkeypatch.setattr(theta, "product_tail", no_tail)
    with pytest.raises(ValueError) as table_err:
        transformation_law_table([])
    with pytest.raises(ValueError) as tail_err:
        transformation_law_tail(empty)
    assert str(tail_err.value) == str(table_err.value) == "at least one (v, tau) sample is needed"


def test_law_tail_reads_a_sample_iterator_once():
    samples = DEFAULT_LAW_SAMPLES[:2]
    assert transformation_law_tail(iter(samples), 30) == transformation_law_tail(samples, 30)
