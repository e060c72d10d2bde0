import cmath
from fractions import Fraction

import pytest

from ellgen import theta
from ellgen.bundleops import ProjBundle
from ellgen.genera import THETA_PRODUCT, GenusKind, pell
from ellgen.modcheck import (
    DEFAULT_TAU_SAMPLES,
    GroupSpec,
    S,
    SL2Matrix,
    T,
    TailTooLarge,
    check_T_exact,
    check_group,
    check_numeric,
    cross_transform,
)
from ellgen.qseries import HalfQSeries


def test_determinant_validation():
    with pytest.raises(ValueError):
        SL2Matrix(1, 0, 0, 2)


def test_group_generators_lie_in_their_groups():
    for g in GroupSpec.Gamma0_2.generators():
        assert g.c % 2 == 0
    for g in GroupSpec.Gamma_up0_2.generators():
        assert g.b % 2 == 0
    for g in GroupSpec.GammaTheta.generators():
        diag = (g.a % 2, g.b % 2, g.c % 2, g.d % 2)
        assert diag in ((1, 0, 0, 1), (0, 1, 1, 0))
    assert GroupSpec.SL2Z.generators() == (S, T)


def test_matrix_action():
    tau = 1.1j
    assert S.act(tau) == -1 / tau
    assert T.act(tau) == tau + 1
    s2 = S @ S
    assert (s2.a, s2.b, s2.c, s2.d) == (-1, 0, 0, -1)


def test_check_T_exact_on_genus_pair(cp2, o1_bundle):
    s2 = pell(cp2, o1_bundle, GenusKind.PELL2, THETA_PRODUCT, 12).series
    s3 = pell(cp2, o1_bundle, GenusKind.PELL3, THETA_PRODUCT, 12).series
    assert check_T_exact(s2, s3)


def test_check_T_exact_self_and_negative_control():
    integral = HalfQSeries(6, [1, 0, 2, 0, 3])
    assert check_T_exact(integral)
    u = HalfQSeries(6, [0, 1])
    assert not check_T_exact(u, u)


def test_weight_zero_constant_passes():
    const = HalfQSeries(40, [1])
    for g in (S, T, S @ T):
        report = check_numeric(const, g, weight=0)
        assert report.passed
        assert report.character == pytest.approx(1.0)


def test_s_squared_acts_trivially(cp2, matched_bundle):
    f = pell(cp2, matched_bundle, GenusKind.PELL1, THETA_PRODUCT, 40).series
    report = check_numeric(f, S @ S, weight=2)
    assert report.passed
    assert report.character == pytest.approx(1.0)


def test_zero_series_passes_trivially(cp2, matched_bundle):
    zero = pell(cp2, matched_bundle, GenusKind.PELL, THETA_PRODUCT, 40).series
    assert zero.is_zero()
    report = check_group(zero, GroupSpec.SL2Z, weight=2)
    assert report.passed
    assert all(r.trivially_zero for r in report.reports)


def test_random_series_is_not_modular():
    junk = HalfQSeries(40, [1, 1, 2, 3, 5, 8, 13])
    report = check_group(junk, GroupSpec.SL2Z, weight=2)
    assert not report.passed


def test_matched_bundle_group_checks(cp2, matched_bundle):
    # the c = 2 generator of the first group compresses Im(tau), so the
    # series needs the top of the design envelope to clear the tail guard
    p1 = pell(cp2, matched_bundle, GenusKind.PELL1, THETA_PRODUCT, 80).series
    p2 = pell(cp2, matched_bundle, GenusKind.PELL2, THETA_PRODUCT, 40).series
    rep1 = check_group(p1, GroupSpec.Gamma0_2, weight=2)
    assert rep1.passed
    rep2 = check_group(p2, GroupSpec.Gamma_up0_2, weight=2)
    assert rep2.passed
    for r in rep1.reports + rep2.reports:
        if not r.trivially_zero:
            assert abs(abs(r.character) - 1) < 1e-8


def test_cross_transform_measures_rank_factor(cp2, matched_bundle):
    p1 = pell(cp2, matched_bundle, GenusKind.PELL1, THETA_PRODUCT, 40).series
    p2 = pell(cp2, matched_bundle, GenusKind.PELL2, THETA_PRODUCT, 40).series
    rank_factor = 2**matched_bundle.rank
    report = cross_transform(p1, p2, weight=2, multiplier=rank_factor)
    assert report.passed
    assert report.best_prefactor_exponent == 0.0
    for ratio in report.measured_ratios:
        assert ratio == pytest.approx(rank_factor, abs=1e-8)


def test_cross_transform_fails_without_rank_factor(cp2, matched_bundle):
    p1 = pell(cp2, matched_bundle, GenusKind.PELL1, THETA_PRODUCT, 40).series
    p2 = pell(cp2, matched_bundle, GenusKind.PELL2, THETA_PRODUCT, 40).series
    report = cross_transform(p1, p2, weight=2, multiplier=1.0)
    assert not report.passed


def test_tail_bound_guard():
    coarse = HalfQSeries(2, [1, 1, 1])
    with pytest.raises(TailTooLarge):
        check_numeric(coarse, S, weight=2, tau_samples=(0.02 + 0.35j,), tol=1e-12)


def test_group_check_respects_tau_argument(cp2, matched_bundle):
    p2 = pell(cp2, matched_bundle, GenusKind.PELL2, THETA_PRODUCT, 40).series
    report = check_group(
        p2, GroupSpec.Gamma_up0_2, weight=2, tau_samples=DEFAULT_TAU_SAMPLES
    )
    assert report.passed


def test_summary_names_the_sample_where_the_series_vanishes():
    # f = a - q with a the rational nearest q(1.1i): f(1.1i) is 0 to rounding,
    # so the check refuses that sample and reports no character
    a = Fraction(cmath.exp(2j * cmath.pi * 1.1j).real).limit_denominator(10**15)
    f = HalfQSeries(40, [a, 0, -1])
    report = check_numeric(f, S, 2, (1.1j, 0.3 + 1.2j))
    assert not report.passed and report.character is None
    assert report.summary() == f"FAIL {S.word()} (f vanishes at tau = {1.1j})"


THREE_TAUS = (1.1j, 0.3 + 1.2j, -0.2 + 1.15j)


def test_group_check_evaluates_f_once_per_sample(cp2, matched_bundle, monkeypatch):
    p1 = pell(cp2, matched_bundle, GenusKind.PELL1, THETA_PRODUCT, 80).series
    calls, evaluate = [], HalfQSeries.eval_numeric

    def spy(series, u):
        calls.append(u)
        return evaluate(series, u)

    monkeypatch.setattr(HalfQSeries, "eval_numeric", spy)
    check_group(p1, GroupSpec.Gamma0_2, 2, THREE_TAUS)
    # f(g tau) per generator and sample, f(tau) once per sample: 2 * 3 + 3
    assert len(calls) == 9


def test_group_check_reports_equal_the_checks_one_by_one(cp2, matched_bundle):
    p1 = pell(cp2, matched_bundle, GenusKind.PELL1, THETA_PRODUCT, 80).series
    shared = check_group(p1, GroupSpec.Gamma0_2, 2, THREE_TAUS).reports
    alone = [check_numeric(p1, g, 2, THREE_TAUS) for g in GroupSpec.Gamma0_2.generators()]
    assert shared == alone  # dataclass equality: every field, floats by ==
    assert all(r.passed and r.character is not None for r in shared)


def _no_evaluation(*args):
    raise AssertionError("evaluated with no samples")


@pytest.mark.parametrize("check", [
    lambda f: check_numeric(f, S, 2, []),
    lambda f: check_group(f, GroupSpec.Gamma0_2, 2, ()),
    lambda f: cross_transform(f, f, 2, tau_samples=[]),
    lambda f: theta.transformation_law_table([]),
], ids=["check_numeric", "check_group", "cross_transform", "transformation_law_table"])
def test_an_empty_sample_list_is_refused_before_any_evaluation(check, monkeypatch):
    monkeypatch.setattr(HalfQSeries, "eval_numeric", _no_evaluation)
    monkeypatch.setattr(theta, "_theta_jet", _no_evaluation)
    with pytest.raises(ValueError, match="at least one .*sample is needed"):
        check(HalfQSeries(40, [1, 0, 24]))
