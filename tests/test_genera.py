from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgen import genera, theta
from ellgen.bundleops import ProjBundle
from ellgen.cohring import LinearClass, Manifold, builtin_manifold
from ellgen.genera import (
    DEFINITION,
    THETA_PRODUCT,
    GenusKind,
    UnsupportedRank,
    a_hat_integral,
    cancellation12_check,
    classical_recovery_check,
    pell,
    witten_genus,
)
from ellgen.qseries import HalfQSeries

TWISTED_KINDS = (GenusKind.PELL, GenusKind.PELL1, GenusKind.PELL2, GenusKind.PELL3)


def series_of(m, e, kind, method=THETA_PRODUCT, order=8):
    return pell(m, e, kind, method, order).series


# -- A-hat and Witten ---------------------------------------------------------


def test_a_hat_values(cp2, cp4):
    assert a_hat_integral(cp2) == Fraction(-1, 8)
    assert a_hat_integral(cp4) == Fraction(3, 128)


def test_a_hat_zero_roots(cp2, zero_class):
    flat = Manifold(
        name="flat",
        presentation=cp2.presentation,
        dimension=4,
        tangent_roots=(zero_class, zero_class, zero_class),
    )
    assert a_hat_integral(flat) == 0
    assert witten_genus(flat, 8).is_zero()


def test_witten_leading_coefficient_is_a_hat(cp2, cp4):
    for m in (cp2, cp4):
        assert witten_genus(m, 6).coefficient(0) == a_hat_integral(m)


def test_a_hat_multiplicative_over_roots(cp4, cp2):
    # two disjoint root copies multiply: the class of [x, x] is the square
    # of the one-root class
    x4 = LinearClass.generator(cp4.presentation, "x")
    from ellgen.genera import a_hat_class

    one_root = Manifold(
        name="one", presentation=cp4.presentation, dimension=8, tangent_roots=(x4,)
    )
    two_roots = Manifold(
        name="two", presentation=cp4.presentation, dimension=8, tangent_roots=(x4, x4)
    )
    single = a_hat_class(one_root, 0)
    assert a_hat_class(two_roots, 0) == single * single


def test_witten_reduction_prefactor_identity(cp2, cp4):
    # the per-root normalized tower equals the eta-power prefactor times the
    # bare symmetric-power tower of the honest-rank complexified tangent
    from ellgen.bundleops import log_lambda_sum
    from ellgen.cohring import exp_nilpotent, integrate
    from ellgen.genera import a_hat_class
    from ellgen.qseries import eta_like_product

    order = 10
    for m in (cp2, cp4):
        # roots, negatives and zero pads up to rank dim as separate roots
        pad = len(m.tangent_roots) - m.dimension // 2
        assert pad > 0
        pres = m.presentation
        zeros = [LinearClass.zero(pres)] * (2 * pad)
        roots = list(m.tangent_roots) + [-r for r in m.tangent_roots]
        bare_log = log_lambda_sum(zeros, -1, "integer", order, pres)
        bare_log = bare_log - log_lambda_sum(roots, -1, "integer", order, pres)
        bare = integrate(a_hat_class(m, order) * exp_nilpotent(bare_log), m)
        prefactor = eta_like_product(-1, False, m.dimension, order)
        assert witten_genus(m, order) == bare * prefactor


# -- worked example: CP^2 with O(1) -------------------------------------------


@pytest.mark.parametrize("method", [THETA_PRODUCT, DEFINITION])
def test_cp2_o1_first_genus_vanishes(cp2, o1_bundle, method):
    assert series_of(cp2, o1_bundle, GenusKind.PELL, method, 12).is_zero()


@pytest.mark.parametrize("method", [THETA_PRODUCT, DEFINITION])
def test_cp2_o1_half_level_leading_terms(cp2, o1_bundle, method):
    s2 = series_of(cp2, o1_bundle, GenusKind.PELL2, method, 6)
    assert s2.coefficient(0) == Fraction(-1, 8)
    assert s2.coefficient(1) == Fraction(-1)
    s3 = series_of(cp2, o1_bundle, GenusKind.PELL3, method, 6)
    assert s3.coefficient(0) == Fraction(-1, 8)
    assert s3.coefficient(1) == Fraction(1)


def test_cp2_o1_first_genus_is_odd_weight_series(cp2, o1_bundle):
    # cross-check: the integrand per root is odd under root negation, so a
    # single root forces zero without any q-level entering
    assert series_of(cp2, o1_bundle, GenusKind.PELL, THETA_PRODUCT, 20).is_zero()


# -- trivial-bundle reductions -------------------------------------------------


def test_trivial_line_reductions(cp2, trivial_line):
    w = witten_genus(cp2, 12)
    assert series_of(cp2, trivial_line, GenusKind.PELL, order=12).is_zero()
    assert series_of(cp2, trivial_line, GenusKind.PELL1, order=12) == w * 2
    assert series_of(cp2, trivial_line, GenusKind.PELL2, order=12) == w
    assert series_of(cp2, trivial_line, GenusKind.PELL3, order=12) == w


def test_first_genus_kills_trivial_summand(cp2, x_class, zero_class):
    e = ProjBundle(rank=2, roots=(x_class, zero_class), twist_b=zero_class)
    for method in (THETA_PRODUCT, DEFINITION):
        assert series_of(cp2, e, GenusKind.PELL, method, 10).is_zero()


# -- dual-pipeline consistency --------------------------------------------------


COEFF_CHOICES = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))


def _bundle(cp2, coeffs, twist):
    x = LinearClass.generator(cp2.presentation, "x")
    roots = tuple(x.scale(c) for c in coeffs)
    return ProjBundle(rank=len(roots), roots=roots, twist_b=x.scale(twist))


@given(
    st.lists(st.sampled_from(COEFF_CHOICES), min_size=1, max_size=3),
    st.sampled_from([Fraction(0), Fraction(1, 2)]),
    st.sampled_from(TWISTED_KINDS),
)
@settings(max_examples=20, deadline=None)
def test_definition_matches_theta_product(coeffs, twist, kind):
    cp2 = builtin_manifold("CP2")
    e = _bundle(cp2, coeffs, twist)
    a = series_of(cp2, e, kind, THETA_PRODUCT, 8)
    b = series_of(cp2, e, kind, DEFINITION, 8)
    assert a == b


@given(
    st.lists(st.sampled_from(COEFF_CHOICES), min_size=1, max_size=2),
    st.sampled_from([Fraction(0), Fraction(1, 2)]),
)
@settings(max_examples=15, deadline=None)
def test_half_period_exchange_everywhere(coeffs, twist):
    cp2 = builtin_manifold("CP2")
    e = _bundle(cp2, coeffs, twist)
    s2 = series_of(cp2, e, GenusKind.PELL2, THETA_PRODUCT, 8)
    s3 = series_of(cp2, e, GenusKind.PELL3, THETA_PRODUCT, 8)
    assert s2.tau_plus_one() == s3


def test_definition_matches_theta_product_on_cp4(cp4):
    x = LinearClass.generator(cp4.presentation, "x")
    e = ProjBundle(rank=2, roots=(x, x.scale(-1)), twist_b=x.scale(Fraction(1, 2)))
    for kind in TWISTED_KINDS:
        assert series_of(cp4, e, kind, THETA_PRODUCT, 8) == series_of(
            cp4, e, kind, DEFINITION, 8
        )


def test_definition_handles_unpadded_root_list(cp2, x_class):
    # stable list with exactly dimension/2 entries: no trivial padding
    lean = Manifold(
        name="lean",
        presentation=cp2.presentation,
        dimension=4,
        tangent_roots=(x_class, x_class.scale(2)),
    )
    e = ProjBundle(rank=1, roots=(x_class,), twist_b=LinearClass.zero(cp2.presentation))
    for kind in TWISTED_KINDS:
        assert series_of(lean, e, kind, THETA_PRODUCT, 8) == series_of(
            lean, e, kind, DEFINITION, 8
        )


def test_integral_kinds_live_in_q(cp2, o1_bundle):
    assert not any(series_of(cp2, o1_bundle, GenusKind.PELL, order=10).nums[1::2])
    assert not any(series_of(cp2, o1_bundle, GenusKind.PELL1, order=10).nums[1::2])


def test_matched_first_genus_vanishes(cp2, matched_bundle):
    for method in (THETA_PRODUCT, DEFINITION):
        assert series_of(cp2, matched_bundle, GenusKind.PELL, method, 12).is_zero()


def test_half_level_degeneration_to_a_hat(cp2, zero_class):
    # q -> 0: with vanishing roots and twist the u^0 coefficient is the
    # A-hat integral for both half-level kinds, any rank
    e = ProjBundle(rank=2, roots=(zero_class, zero_class), twist_b=zero_class)
    for kind in (GenusKind.PELL2, GenusKind.PELL3):
        assert series_of(cp2, e, kind, order=6).coefficient(0) == a_hat_integral(cp2)


def test_definition_method_guard(cp2, x_class, zero_class):
    from ellgen.bundleops import GuardExceeded

    wide = ProjBundle(rank=7, roots=(x_class,) * 7, twist_b=zero_class)
    with pytest.raises(GuardExceeded):
        pell(cp2, wide, GenusKind.PELL2, DEFINITION, 4)
    # the theta-product engine has no rank guard
    assert pell(cp2, wide, GenusKind.PELL2, THETA_PRODUCT, 4).series is not None


def test_report_metadata(cp2, o1_bundle):
    report = pell(cp2, o1_bundle, GenusKind.PELL2, THETA_PRODUCT, 6)
    assert report.weight == 2
    assert report.group == "Gamma_up0_2"
    assert report.manifold == "CP2"


# -- divisor-sum oracles -----------------------------------------------------
#
# On CP^2 the tangent tower integrates to pure divisor-sum data, and the
# curvature-matched bundle produces the classical level-2 weight-2
# combinations.  These oracles share no code with the series engines.


def _sigma1(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_witten_cp2_is_divisor_sum_series(cp2):
    n_max = 10
    w = witten_genus(cp2, 2 * n_max)
    assert w.coefficient(0) == Fraction(-1, 8)
    for n in range(1, n_max + 1):
        assert w.coefficient(2 * n) == 3 * _sigma1(n)


def test_matched_plus_kind_is_level2_eisenstein(cp2, matched_bundle):
    n_max = 10
    p1 = series_of(cp2, matched_bundle, GenusKind.PELL1, order=2 * n_max)
    assert p1.coefficient(0) == 2
    for n in range(1, n_max + 1):
        even_part = 2 * _sigma1(n // 2) if n % 2 == 0 else 0
        assert p1.coefficient(2 * n) == 48 * (_sigma1(n) - even_part)


def test_matched_half_level_divisor_sums(cp2, matched_bundle):
    order = 16
    p2 = series_of(cp2, matched_bundle, GenusKind.PELL2, order=order)
    assert p2.coefficient(0) == Fraction(-1, 8)
    for m in range(1, order + 1):
        integer_part = _sigma1(m // 2) if m % 2 == 0 else 0
        odd_quotient = sum(k for k in range(1, m + 1) if m % k == 0 and (m // k) % 2 == 1)
        assert p2.coefficient(m) == 3 * (integer_part - odd_quotient)


# -- pseudodifferential reduction ------------------------------------------------


def test_spinc_operator_reductions(cp2, trivial_line):
    # an operator's genera are pell on its reduced bundle: the trivial line for spin-c Dirac
    w = witten_genus(cp2, 20)
    assert series_of(cp2, trivial_line, GenusKind.PELL, order=20).is_zero()
    assert series_of(cp2, trivial_line, GenusKind.PELL1, order=20) == w * 2
    assert series_of(cp2, trivial_line, GenusKind.PELL2, order=20) == w
    assert series_of(cp2, trivial_line, GenusKind.PELL3, order=20) == w


def test_pseudodiff_cp2_o1(cp2, o1_bundle):
    s2 = series_of(cp2, o1_bundle, GenusKind.PELL2, order=10)
    assert s2.coefficient(0) == Fraction(-1, 8)
    s3 = series_of(cp2, o1_bundle, GenusKind.PELL3, order=10)
    assert s2.tau_plus_one() == s3


# -- classical recovery -----------------------------------------------------------


def test_classical_recovery_trivial_rank2(cp2, zero_class):
    v = ProjBundle(rank=2, roots=(zero_class, zero_class), twist_b=zero_class)
    res = classical_recovery_check(cp2, v, 8)
    assert res.matched
    assert res.sign == 1
    assert res.twisted.is_zero() and res.classical.is_zero()


def test_classical_recovery_o1_plus_o1(cp2, x_class, zero_class):
    v = ProjBundle(rank=2, roots=(x_class, x_class), twist_b=zero_class)
    res = classical_recovery_check(cp2, v, 10)
    assert res.matched
    assert res.sign == 1
    assert res.twisted == res.classical


def test_classical_recovery_rank1_sign(cp2, o1_bundle):
    res = classical_recovery_check(cp2, o1_bundle, 8)
    assert res.sign == -1
    assert res.matched


def test_classical_recovery_fails_under_a_mutated_inversion(cp4, monkeypatch):
    # the classical side is built without inverting a theta factor, so an
    # inversion that does nothing breaks the twisted side alone; on CP4, since
    # on CP2 the shifted factor is z whatever its z^2 term, and at even rank,
    # since the genus of an odd rank vanishes
    x = LinearClass.generator(cp4.presentation, "x")
    bundle = ProjBundle(rank=2, roots=(x, x), twist_b=LinearClass.zero(cp4.presentation))
    caches = (theta.elliptic_factor, genera.bundle_root_factor, genera._tangent_core)
    monkeypatch.setattr(theta.FactorSeries, "invert", lambda self: self)
    try:
        for cache in caches:
            cache.cache_clear()
        assert not classical_recovery_check(cp4, bundle, 8).matched
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()
    assert classical_recovery_check(cp4, bundle, 8).matched


def test_classical_recovery_needs_untwisted(cp2, x_class, half_x):
    v = ProjBundle(rank=1, roots=(x_class,), twist_b=half_x)
    with pytest.raises(ValueError):
        classical_recovery_check(cp2, v, 6)


# -- degree-12 cancellation ---------------------------------------------------------


def test_cancellation_holds_with_relation():
    for rank in (2, 4):
        res = cancellation12_check(rank, impose_relation=True)
        assert res.equal, f"rank {rank} residual {res.residual}"


def test_cancellation_fails_without_relation():
    res = cancellation12_check(2, impose_relation=False)
    assert not res.equal
    assert res.residual_divisible is True
    assert not res.residual.is_zero()


def test_cancellation_unsupported_rank():
    with pytest.raises(UnsupportedRank):
        cancellation12_check(3)


def _sympy_cancellation_residual(l, impose):
    """Independent symbolic oracle: expand both sides over power sums with a
    grading tracker t (degree 2 per t power), keep the t^12 coefficient."""
    import sympy

    t = sympy.symbols("t")
    s2T, s4T, s6T = sympy.symbols("s2T s4T s6T")
    sE = sympy.symbols("s1E s2E s3E s4E s5E s6E")

    def texp(arg, kmax=6):
        return sum(arg**k / sympy.factorial(k) for k in range(kmax + 1))

    a_hat = texp(
        -s2T * t**4 / 24 + s4T * t**8 / 2880 - s6T * t**12 / 181440, 3
    )
    cosh_prod = 2**l * texp(
        sE[1] * t**4 / 8 - sE[3] * t**8 / 192 + sE[5] * t**12 / 2880, 3
    )
    ch_e = l + sum(sE[k - 1] * t ** (2 * k) / sympy.factorial(k) for k in range(1, 7))
    ch_e_bar = l + sum(
        (-1) ** k * sE[k - 1] * t ** (2 * k) / sympy.factorial(k) for k in range(1, 7)
    )
    lhs = a_hat * cosh_prod
    rhs = sympy.Rational(2**l, 8) * (a_hat * (ch_e + ch_e_bar) + (8 - 2 * l) * a_hat)
    diff = sympy.expand(lhs - rhs)
    coeff12 = diff.coeff(t, 12)
    if impose:
        coeff12 = coeff12.subs(s2T, sE[1])
    return sympy.simplify(coeff12)


@pytest.mark.parametrize("rank", [2, 4])
def test_cancellation_against_sympy_oracle(rank):
    assert _sympy_cancellation_residual(rank, impose=True) == 0
    assert _sympy_cancellation_residual(rank, impose=False) != 0


def test_cancellation_residual_matches_oracle_shape():
    import sympy

    res = cancellation12_check(2, impose_relation=False)
    oracle = _sympy_cancellation_residual(2, impose=False)
    s2T, s2E = sympy.symbols("s2T s2E")
    # the residual must vanish exactly on the hypothesis surface
    assert sympy.simplify(oracle.subs(s2T, s2E)) == 0


def test_cancellation_leaves_its_cached_factor_logs_unchanged():
    # the check reads the cached theta.factor_log of each kind
    from ellgen.theta import ThetaKind

    for rank, impose in ((2, False), (4, True)):
        cancellation12_check(rank, impose_relation=impose)
    for kind in (ThetaKind.THETA, ThetaKind.THETA1, ThetaKind.THETA2):
        assert theta.factor_log(kind, 6, 1) == theta.factor_log.__wrapped__(kind, 6, 1)


def test_cancellation_leaves_its_cached_universal_polynomials_unchanged():
    # the check reads _universal_genus at (pell1 or pell2, 6, 1) and builds its residual
    # beside it, so the cached pairs stay as a rebuild makes them
    for rank, impose in ((2, False), (4, True), (2, True), (4, False)):
        cancellation12_check(rank, impose_relation=impose)
    for kind in (GenusKind.PELL1, GenusKind.PELL2):
        assert genera._universal_genus(kind, 6, 1) == genera._universal_genus.__wrapped__(kind, 6, 1)


@pytest.mark.parametrize("rank", [2, 4])
def test_cancellation_residual_equals_oracle_term_by_term(rank):
    import sympy

    res = cancellation12_check(rank, impose_relation=False)
    pres = res.residual.presentation
    names = sympy.symbols([name for name, _ in pres.generators])
    ours = {}
    for mono, series in res.residual.coeffs.items():
        assert series.order == 0
        term = sympy.Mul(*(s**e for s, e in zip(names, mono)))
        ours[term] = sympy.Rational(series.coefficient(0).numerator,
                                    series.coefficient(0).denominator)
    oracle = sympy.Poly(_sympy_cancellation_residual(rank, impose=False), *names)
    expected = {sympy.Mul(*(s**e for s, e in zip(names, exps))): c
                for exps, c in oracle.terms()}
    assert ours == expected


def test_engines_agree_at_the_guard_order_on_cp4(cp4):
    # the definition engine's top order (bundleops.ORDER_GUARD) on a twisted bundle
    from ellgen.bundleops import ORDER_GUARD

    x = LinearClass.generator(cp4.presentation, "x")
    e = ProjBundle(rank=2, roots=(x, x.scale(Fraction(-1, 2))), twist_b=x.scale(Fraction(1, 3)))
    for kind in TWISTED_KINDS:
        by_theta = series_of(cp4, e, kind, THETA_PRODUCT, ORDER_GUARD)
        assert by_theta.order == 24
        assert by_theta == series_of(cp4, e, kind, DEFINITION, ORDER_GUARD)


def _short_root_manifolds(cp4):
    # fewer stable roots than dimension / 2: the missing roots are zero roots
    from ellgen.cohring import RingPresentation

    x = LinearClass.generator(cp4.presentation, "x")
    short_cp4 = Manifold("CP4-3", cp4.presentation, 8, (x, x, x))
    pres = RingPresentation(
        generators=(("a", 2), ("b", 2)),
        top_degree=8,
        integration_table=(((2, 2), Fraction(1)),),
    )
    a, b = (LinearClass.generator(pres, name) for name in "ab")
    custom = Manifold("custom", pres, 8, (a, b))
    return [
        (short_cp4, ProjBundle(
            rank=2, roots=(x, x.scale(Fraction(-1, 2))), twist_b=x.scale(Fraction(1, 3))
        )),
        (custom, ProjBundle(rank=1, roots=(a + b,), twist_b=a.scale(Fraction(1, 2)))),
    ]


def test_definition_pads_a_short_root_list(cp4):
    for m, e in _short_root_manifolds(cp4):
        by_theta = [series_of(m, e, kind, THETA_PRODUCT, 10) for kind in TWISTED_KINDS]
        assert not all(s.is_zero() for s in by_theta)
        assert by_theta == [series_of(m, e, kind, DEFINITION, 10) for kind in TWISTED_KINDS]


def test_short_root_list_is_padded_with_zero_roots(cp4):
    # listing the missing zero roots explicitly changes neither engine
    for m, e in _short_root_manifolds(cp4):
        zero = LinearClass.zero(m.presentation)
        padded = Manifold(m.name, m.presentation, m.dimension, m.tangent_roots + (zero,) * 3)
        for kind in TWISTED_KINDS:
            for method in (THETA_PRODUCT, DEFINITION):
                assert series_of(m, e, kind, method, 6) == series_of(padded, e, kind, method, 6)


def test_engines_agree_at_theta_engine_orders_on_cp4(cp4, monkeypatch):
    # the guard is a cost envelope: lifted here, the definition engine must
    # still agree exactly with the theta engine at N = 80
    from ellgen import bundleops
    from ellgen.bundleops import GradedKind, gch, gch_closed_form

    monkeypatch.setattr(bundleops, "ORDER_GUARD", 80)
    x = LinearClass.generator(cp4.presentation, "x")
    e = ProjBundle(rank=2, roots=(x, x.scale(Fraction(-1, 2))), twist_b=x.scale(Fraction(1, 3)))
    for kind in TWISTED_KINDS:
        by_theta = series_of(cp4, e, kind, THETA_PRODUCT, 80)
        assert by_theta.order == 80
        assert by_theta == series_of(cp4, e, kind, DEFINITION, 80)
    for kind in GradedKind:
        assert gch(kind, e, 40) == gch_closed_form(kind, e, 40)


def test_engines_agree_at_order_160_on_cp4(cp4, monkeypatch):
    # one integer-level and one half-level kind, the guard lifted as above
    from ellgen import bundleops

    monkeypatch.setattr(bundleops, "ORDER_GUARD", 160)
    x = LinearClass.generator(cp4.presentation, "x")
    e = ProjBundle(rank=2, roots=(x, x.scale(Fraction(-1, 2))), twist_b=x.scale(Fraction(1, 3)))
    for kind in (GenusKind.PELL1, GenusKind.PELL2):
        by_theta = series_of(cp4, e, kind, THETA_PRODUCT, 160)
        assert by_theta.order == 160
        assert by_theta == series_of(cp4, e, kind, DEFINITION, 160)


# -- the engines share no inversion ---------------------------------------------------

ENGINE_CACHES = (theta.elliptic_factor, genera.bundle_root_factor, genera._tangent_core,
                 genera._definition_tangent_part, theta.factor_log, genera._tangent_log,
                 genera._universal_genus)


def _twisted_rank2(m):
    x = LinearClass.generator(m.presentation, "x")
    half, third = x.scale(Fraction(-1, 2)), x.scale(Fraction(1, 3))
    return ProjBundle(rank=2, roots=(x, half), twist_b=third)


def test_power_sum_log_equals_the_log_of_the_factor():
    # the log of the exp, read term by term as the degree-12 check once did
    from itertools import count

    from ellgen.cohring import CohElement, _power_series
    from ellgen.theta import ThetaKind

    pres = builtin_manifold("free").presentation
    for kind, side in ((ThetaKind.THETA, "T"), (ThetaKind.THETA1, "E"), (ThetaKind.THETA2, "E")):
        factor = theta.elliptic_factor(kind, 6, 1)
        log = _power_series(factor.elem - 1,
                            (Fraction(-(-1) ** k, k) if k else 0 for k in count()))
        expected = CohElement(pres, 1, {
            tuple(int(g == f"s{2 * j}{side}") for g, _ in pres.generators):
                log.coefficient((2 * j,))
            for j in (1, 2, 3)
        })
        # p_k, k = 0..6: the free generator s<k><side>, else 0
        names = [g for g, _ in pres.generators]
        sums = [CohElement(pres, 0, {tuple(int(g == f"s{k}{side}") for g in names):
                                     HalfQSeries.one(0)} if f"s{k}{side}" in names else None)
                for k in range(7)]
        assert theta.factor_log(kind, 6, 1).at_power_sums(sums) == expected


def test_engines_disagree_under_a_mutated_inversion(cp2, cp4, monkeypatch):
    # the theta engine builds each factor as the exp of its log and the
    # definition engine inverts 2 sinh(z/2)/z for its A-hat class, so an
    # inversion that does nothing moves the definition engine alone; pell is
    # left out, since its theta-side bundle factor is an inverse too
    kinds = (GenusKind.PELL1, GenusKind.PELL2, GenusKind.PELL3)
    monkeypatch.setattr(theta.FactorSeries, "invert", lambda self: self)
    try:
        for cache in ENGINE_CACHES:
            cache.cache_clear()
        for m in (cp2, cp4):
            e = _twisted_rank2(m)
            for kind in kinds:
                theta_side = series_of(m, e, kind, THETA_PRODUCT, 12)
                assert theta_side != series_of(m, e, kind, DEFINITION, 12)
    finally:
        monkeypatch.undo()
        for cache in ENGINE_CACHES:
            cache.cache_clear()
    for m in (cp2, cp4):
        e = _twisted_rank2(m)
        for kind in kinds:
            assert series_of(m, e, kind, order=12) == series_of(m, e, kind, DEFINITION, 12)


def test_only_the_definition_engine_and_the_pell_factor_invert(cp4, monkeypatch):
    from ellgen.cohring import CohElement

    calls = []
    invert = CohElement.invert
    monkeypatch.setattr(CohElement, "invert", lambda self: calls.append(1) or invert(self))

    def cold_inversions(job):
        for cache in ENGINE_CACHES:
            cache.cache_clear()
        calls.clear()
        job()
        return len(calls)

    try:
        assert cold_inversions(lambda: genera._tangent_core(cp4, 12)) == 0
        assert cold_inversions(lambda: cancellation12_check(2)) == 0
        assert cold_inversions(lambda: genera.a_hat_class(cp4, 12)) == 1
        e = _twisted_rank2(cp4)
        assert cold_inversions(lambda: [series_of(cp4, e, kind, order=12)
                                        for kind in TWISTED_KINDS]) == 1
    finally:
        for cache in ENGINE_CACHES:
            cache.cache_clear()
