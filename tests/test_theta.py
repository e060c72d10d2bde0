import cmath
from fractions import Fraction

import pytest

from ellgen.qseries import HalfQSeries, eta_like_product
from ellgen.theta import (
    DEFAULT_LAW_SAMPLES,
    InvalidTau,
    ThetaKind,
    a_hat_factor_series,
    elliptic_factor,
    jacobi_identity_exact,
    theta_numeric,
    theta_numeric_dv,
    transformation_law_residual,
    transformation_law_table,
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
        assert elliptic_factor(kind, 6, 8).is_even_in_z()


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
        lhs = fs.eval_complex(z0, u0)
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
