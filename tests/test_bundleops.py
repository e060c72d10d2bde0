import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellgen import bundleops
from ellgen.bundleops import (
    GradedKind,
    GuardExceeded,
    PartitionTooTall,
    ProjBundle,
    adams_power_sum,
    ch,
    conjugate_partition,
    det_sqrt_ch,
    exp_class,
    gch,
    gch_closed_form,
    graded_decompose,
    log_lambda_sum,
    normalize_partition,
    partitions_in_box,
    schur_character,
    schur_polynomial,
    tensor_exterior_identity_check,
    witten_bundle_ch,
)
from ellgen.cohring import (
    CohElement,
    LinearClass,
    RingPresentation,
    builtin_manifold,
    exp_nilpotent,
    sum_of_products,
)
from ellgen.qseries import HalfQSeries, eta_like_product
from ellgen.theta import ThetaKind

ORDER = 8


def scalar(pres, series_or_value, order=ORDER):
    return CohElement.scalar(pres, order, series_or_value)


# -- twisted characters ------------------------------------------------------


def test_ch_trivial_line(cp2, trivial_line):
    assert ch(trivial_line, ORDER) == CohElement.one(cp2.presentation, ORDER)


def test_ch_o1(cp2, o1_bundle, x_class):
    assert ch(o1_bundle, ORDER) == exp_class(x_class, ORDER)


def test_ch_pure_twist(cp2, zero_class, half_x):
    e = ProjBundle(rank=1, roots=(zero_class,), twist_b=half_x)
    got = ch(e, ORDER)
    assert got == exp_class(half_x, ORDER)
    assert got.coefficient((1,)) == HalfQSeries.constant(Fraction(1, 2), ORDER)
    assert got.coefficient((2,)) == HalfQSeries.constant(Fraction(1, 8), ORDER)


def test_ch_weight_composition(cp2, o1_bundle, half_x):
    twisted = ProjBundle(rank=1, roots=o1_bundle.roots, twist_b=half_x)
    assert ch(twisted, ORDER, weight=2) == exp_class(half_x.scale(2), ORDER) * ch(
        o1_bundle, ORDER
    )


# -- exterior-power logarithms ----------------------------------------------


def test_log_lambda_sum_empty(cp2):
    out = log_lambda_sum([], -1, "integer", ORDER, cp2.presentation)
    assert out.is_zero()


def test_log_lambda_sum_trivial_root_integer_levels(cp2, zero_class):
    log_char = log_lambda_sum([zero_class], -1, "integer", ORDER, cp2.presentation)
    got = exp_nilpotent(log_char)
    assert got == scalar(cp2.presentation, eta_like_product(-1, False, 1, ORDER))


def _finite_product_oracle(pres, root, sign, half, order):
    """Literal truncated product of (1 + sign q^level e^root) over live levels."""
    out = CohElement.one(pres, order)
    start = 1 if half else 2
    ew = exp_class(root, order)
    for upow in range(start, order + 1, 2):
        out = out * (CohElement.one(pres, order) + ew * HalfQSeries.u_power(upow, order, sign))
    return out


def test_log_lambda_sum_against_product_oracle(cp2, x_class):
    log_char = log_lambda_sum([x_class], -1, "half", ORDER, cp2.presentation)
    assert exp_nilpotent(log_char) == _finite_product_oracle(
        cp2.presentation, x_class, -1, True, ORDER
    )


# -- Witten bundles ----------------------------------------------------------


def test_witten_trivial_line_theta1(cp2, trivial_line):
    got = witten_bundle_ch(ThetaKind.THETA1, trivial_line, ORDER)
    assert got == scalar(cp2.presentation, eta_like_product(1, False, 2, ORDER))


def test_witten_trivial_line_theta2(cp2, trivial_line):
    got = witten_bundle_ch(ThetaKind.THETA2, trivial_line, ORDER)
    assert got == scalar(cp2.presentation, eta_like_product(-1, True, 2, ORDER))


def test_witten_o1_theta_scalar_part(cp2, o1_bundle):
    # degree-0 restriction equals the rank-collapsed product
    got = witten_bundle_ch(ThetaKind.THETA, o1_bundle, ORDER)
    assert got.scalar_part() == eta_like_product(-1, False, 2, ORDER)


@given(
    st.sampled_from(list(ThetaKind)),
    st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=2),
    st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=2),
)
def test_witten_multiplicativity(kind, roots_e, roots_f):
    cp2 = builtin_manifold("CP2")
    x = LinearClass.generator(cp2.presentation, "x")
    b = x.scale(Fraction(1, 2))
    order = 6
    mk = lambda cs: tuple(x.scale(c) for c in cs)
    e = ProjBundle(rank=len(roots_e), roots=mk(roots_e), twist_b=b)
    f = ProjBundle(rank=len(roots_f), roots=mk(roots_f), twist_b=b)
    both = ProjBundle(rank=e.rank + f.rank, roots=e.roots + f.roots, twist_b=b)
    assert witten_bundle_ch(kind, both, order) == witten_bundle_ch(
        kind, e, order
    ) * witten_bundle_ch(kind, f, order)


# -- graded decomposition ----------------------------------------------------


def test_graded_rank1_w_level_zero(cp2, o1_bundle, x_class, half_x):
    twisted = ProjBundle(rank=1, roots=(x_class,), twist_b=half_x)
    table = graded_decompose(GradedKind.W, twisted, 4)
    assert sorted(m for m, n in table.entries if n == 0) == [0, 1]
    assert table.entries[(0, 0)] == CohElement.one(cp2.presentation, 0)
    # the m = 1 entry is -exp(y + b): twist exp(b) applied to -exp(y)
    assert table.entries[(1, 0)] == -exp_class(x_class + half_x, 0)


def test_graded_b_kind_level_zero(cp2):
    x = LinearClass.generator(cp2.presentation, "x")
    e = ProjBundle(rank=3, roots=(x, x.scale(-1), x), twist_b=x.scale(Fraction(1, 3)))
    table = graded_decompose(GradedKind.B, e, 4)
    assert sorted(m for m, n in table.entries if n == 0) == [0]
    assert table.entries[(0, 0)] == CohElement.one(cp2.presentation, 0)


def test_graded_resummation_matches_shifted_closed_form(cp2, x_class, half_x):
    e = ProjBundle(rank=2, roots=(x_class, x_class.scale(-1)), twist_b=half_x)
    for kind in GradedKind:
        assert gch(kind, e, 4) == gch_closed_form(kind, e, 4)


def test_graded_support_bound(cp2, x_class, half_x):
    e = ProjBundle(rank=2, roots=(x_class, x_class), twist_b=half_x)
    order = 6
    for kind in GradedKind:
        table = graded_decompose(kind, e, order)
        levels = order // 2 if kind in (GradedKind.W, GradedKind.A) else (order + 1) // 2
        bound = e.rank * (1 + levels)
        assert all(abs(m) <= bound for (m, _) in table.entries)


def test_gch_untwisted_collapse(cp2, x_class, zero_class):
    e = ProjBundle(rank=2, roots=(x_class, zero_class), twist_b=zero_class)
    one = CohElement.one(cp2.presentation, ORDER)
    composite = (one - exp_class(x_class, ORDER)) * (one - exp_class(zero_class, ORDER))
    expected = composite * witten_bundle_ch(ThetaKind.THETA, e, ORDER)
    assert gch(GradedKind.W, e, ORDER) == expected


def test_gch_pure_twist_level_zero(cp2, zero_class, half_x):
    e = ProjBundle(rank=1, roots=(zero_class,), twist_b=half_x)
    got = gch(GradedKind.W, e, 4).u_slice(0)
    expected = CohElement.one(cp2.presentation, 0) - exp_class(half_x, 0)
    assert got == expected


@pytest.mark.parametrize("twist", [0, Fraction(1, 2)])
def test_gch_half_period_exchange(cp2, x_class, twist):
    e = ProjBundle(rank=2, roots=(x_class, x_class.scale(-1)), twist_b=x_class.scale(twist))
    b = gch(GradedKind.B, e, 6)
    flipped = CohElement(b.presentation, b.order, {m: s.tau_plus_one() for m, s in b.coeffs.items()})
    assert flipped == gch(GradedKind.C, e, 6)


def test_graded_guards(cp2, x_class, zero_class):
    too_wide = ProjBundle(rank=7, roots=(x_class,) * 7, twist_b=zero_class)
    with pytest.raises(GuardExceeded):
        graded_decompose(GradedKind.W, too_wide, 4)
    small = ProjBundle(rank=1, roots=(x_class,), twist_b=zero_class)
    with pytest.raises(GuardExceeded):
        graded_decompose(GradedKind.W, small, 26)


# -- determinant square root -------------------------------------------------


def test_det_sqrt_trivial(cp2, zero_class):
    e = ProjBundle(rank=3, roots=(zero_class,) * 3, twist_b=zero_class)
    assert det_sqrt_ch(e, ORDER) == CohElement.one(cp2.presentation, ORDER)


def test_det_sqrt_o1(cp2, o1_bundle, x_class):
    assert det_sqrt_ch(o1_bundle, ORDER) == exp_class(x_class.scale(Fraction(-1, 2)), ORDER)


def test_det_sqrt_rank3(cp2, matched_bundle, x_class):
    expected = exp_class(x_class.scale(Fraction(-3, 2)), ORDER)
    assert det_sqrt_ch(matched_bundle, ORDER) == expected


# -- Schur functors ----------------------------------------------------------


@pytest.fixture(scope="module")
def rank2_bundle():
    pres = RingPresentation(generators=(("a", 2), ("b", 2)), top_degree=8)
    a = LinearClass.generator(pres, "a")
    b = LinearClass.generator(pres, "b")
    return ProjBundle(rank=2, roots=(a, b), twist_b=LinearClass.zero(pres))


def test_schur_single_box_is_ch(rank2_bundle):
    assert schur_character((1,), rank2_bundle, 0) == ch(rank2_bundle, 0)


def test_schur_column_is_exterior(rank2_bundle):
    a, b = rank2_bundle.roots
    assert schur_character((1, 1), rank2_bundle, 0) == exp_class(a + b, 0)


def test_schur_row_is_symmetric(rank2_bundle):
    a, b = rank2_bundle.roots
    pres = rank2_bundle.presentation
    expected = (
        exp_class(a.scale(2), 0) + exp_class(a + b, 0) + exp_class(b.scale(2), 0)
    )
    assert schur_character((2,), rank2_bundle, 0) == expected


def test_schur_partition_too_tall(rank2_bundle):
    with pytest.raises(PartitionTooTall):
        schur_character((1, 1, 1), rank2_bundle, 0)


def _brute_exterior(roots, n, order, pres):
    total = CohElement.zero(pres, order)
    for subset in itertools.combinations(roots, n):
        acc = LinearClass.zero(pres)
        for r in subset:
            acc = acc + r
        total = total + exp_class(acc, order)
    return total


def _brute_symmetric(roots, n, order, pres):
    total = CohElement.zero(pres, order)
    for combo in itertools.combinations_with_replacement(roots, n):
        acc = LinearClass.zero(pres)
        for r in combo:
            acc = acc + r
        total = total + exp_class(acc, order)
    return total


@pytest.mark.parametrize("n", [1, 2, 3])
def test_schur_hook_cases_brute_force(n):
    pres = RingPresentation(generators=(("a", 2), ("b", 2), ("c", 2)), top_degree=10)
    roots = tuple(LinearClass.generator(pres, g) for g in "abc")
    e = ProjBundle(rank=3, roots=roots, twist_b=LinearClass.zero(pres))
    assert schur_character((1,) * n, e, 0) == _brute_exterior(roots, n, 0, pres)
    assert schur_character((n,), e, 0) == _brute_symmetric(roots, n, 0, pres)


def test_kostka_number_of_21_at_111():
    poly = schur_polynomial((2, 1), 3)
    assert poly[(1, 1, 1)] == 2
    assert poly[(2, 1, 0)] == 1
    assert sum(poly.values()) == 8  # dim of the (2,1) representation of GL(3)


@pytest.mark.parametrize("lam", [(2, 1), (2, 2), (3, 1)])
def test_schur_two_row_shapes_match_jacobi_trudi(lam):
    # s_(a,b) = h_a h_b - h_(a+1) h_(b-1) on a twisted rank-3 bundle, order 4
    pres = RingPresentation(generators=(("a", 2), ("b", 2), ("c", 2)), top_degree=10)
    a, b, c = (LinearClass.generator(pres, g) for g in "abc")
    e = ProjBundle(
        rank=3, roots=(a, b.scale(2), c - a), twist_b=a.scale(Fraction(1, 2)) - c
    )
    order = 4
    h = [_brute_symmetric(e.shifted_roots(), k, order, pres) for k in range(lam[0] + 2)]
    first, second = lam
    expected = h[first] * h[second] - h[first + 1] * h[second - 1]
    got = schur_character(lam, e, order)
    assert got.order == order
    assert got == expected


def test_adams_power_sum(rank2_bundle):
    a, b = rank2_bundle.roots
    got = adams_power_sum([a, b], 2, 0, rank2_bundle.presentation)
    assert got == exp_class(a.scale(2), 0) + exp_class(b.scale(2), 0)


def test_partitions_in_box():
    assert set(partitions_in_box(3, 2, 2)) == {(2, 1)}
    assert set(partitions_in_box(2, 2, 2)) == {(2,), (1, 1)}
    assert conjugate_partition((3, 1)) == (2, 1, 1)


def test_tensor_exterior_identity_small():
    assert tensor_exterior_identity_check(1, 1, 1)
    assert tensor_exterior_identity_check(2, 2, 2)
    assert tensor_exterior_identity_check(2, 2, 3)


def test_tensor_exterior_identity_fails_without_conjugation(monkeypatch):
    # negative control: pairing s_lam(U) with s_lam(V) breaks the identity
    monkeypatch.setattr(bundleops, "conjugate_partition", lambda lam: tuple(lam))
    assert not tensor_exterior_identity_check(2, 2, 2)


def test_tensor_exterior_guards():
    with pytest.raises(GuardExceeded):
        tensor_exterior_identity_check(5, 2, 2)
    with pytest.raises(GuardExceeded):
        tensor_exterior_identity_check(2, 2, 5)


@pytest.mark.parametrize("args", [(2, 2, -1), (-1, 2, 1), (2, 0, 1)])
def test_tensor_exterior_rejects_negative_n_and_rank_below_one(args):
    with pytest.raises(ValueError) as err:
        tensor_exterior_identity_check(*args)
    assert not isinstance(err.value, GuardExceeded)


def test_tensor_exterior_identity_at_n_zero():
    assert tensor_exterior_identity_check(2, 3, 0)


# the 27 cases of `verify --suite schur`
SCHUR_CASES = [(ru, rv, n) for ru in (1, 2, 3) for rv in (1, 2, 3)
               for n in range(1, min(4, ru * rv) + 1)]


def _literal_exterior_of_tensor(exp_u, exp_v, n, order, pres):
    """e_n of the rank_u * rank_v exponentials e^(u_i + v_j), by the
    one-variable recurrence over each product exp_u[i] * exp_v[j]."""
    elementary = [CohElement.one(pres, order)] + [CohElement.zero(pres, order)] * n
    for eu in exp_u:
        for ev in exp_v:
            ew = eu * ev
            for k in range(n, 0, -1):
                elementary[k] = elementary[k] + elementary[k - 1] * ew
    return elementary[n]


@pytest.mark.parametrize("case", SCHUR_CASES, ids=lambda c: "{}x{}-n{}".format(*c))
def test_exterior_of_tensor_matches_the_literal_recurrence(case, monkeypatch):
    # the left side is compared on the ring and exponentials the check builds
    agree = []
    real = bundleops._exterior_of_tensor

    def spy(exp_u, exp_v, n, order, pres):
        got = real(exp_u, exp_v, n, order, pres)
        agree.append(got == _literal_exterior_of_tensor(exp_u, exp_v, n, order, pres))
        return got

    monkeypatch.setattr(bundleops, "_exterior_of_tensor", spy)
    assert len(SCHUR_CASES) == 27
    assert tensor_exterior_identity_check(*case)
    assert agree == [True]


def test_tensor_exterior_identity_fails_when_m_mu_counts_repeats(monkeypatch):
    # negative control: m_mu summed over all permutations, repeats included
    # (e_k = m_(1^k) of the left side inherits the repeats)
    def with_repeats(mu, nvars):
        padded = tuple(mu) + (0,) * (nvars - len(mu))
        return Counter(itertools.permutations(padded))

    monkeypatch.setattr(bundleops, "_monomial_symmetric", with_repeats)
    assert not tensor_exterior_identity_check(2, 2, 2)
    assert not tensor_exterior_identity_check(3, 3, 4)


def test_tensor_exterior_identity_fails_with_e_of_the_conjugate(monkeypatch):
    # negative control: sum_mu m_mu(X) e_mu'(Y) in place of e_mu(Y)
    psi_sum, m = bundleops._psi_sum, bundleops._monomial_symmetric

    def on_conjugate(exp_u, exp_v, n, order, pres):
        elementary = [psi_sum(exp_v, m((1,) * k, len(exp_v)), order, pres)
                      for k in range(len(exp_u) + 1)]
        total = CohElement.zero(pres, order)
        for mu in partitions_in_box(n, len(exp_u), len(exp_v)):
            e_conj = math.prod(elementary[k] for k in conjugate_partition(mu))
            total = total + psi_sum(exp_u, m(mu, len(exp_u)), order, pres) * e_conj
        return total

    monkeypatch.setattr(bundleops, "_exterior_of_tensor", on_conjugate)
    assert not tensor_exterior_identity_check(2, 2, 2)
    assert not tensor_exterior_identity_check(3, 3, 4)


def test_fused_psi_sum_carries_the_repeat_counts_and_the_identity_fails(monkeypatch):
    # negative control at the fused _psi_sum: the repeats reach it as
    # coefficients c != 1, which it scales each term's head by
    def with_repeats(mu, nvars):
        padded = tuple(mu) + (0,) * (nvars - len(mu))
        return Counter(itertools.permutations(padded))

    real, coefficients = bundleops._psi_sum, set()

    def spy(exps, poly, order, pres):
        coefficients.update(poly.values())
        return real(exps, poly, order, pres)

    monkeypatch.setattr(bundleops, "_monomial_symmetric", with_repeats)
    monkeypatch.setattr(bundleops, "_psi_sum", spy)
    assert not tensor_exterior_identity_check(2, 2, 2)
    assert not tensor_exterior_identity_check(3, 3, 4)
    assert max(coefficients) > 1


def test_identity_fails_with_e_of_the_conjugate_summed_in_one_pass(monkeypatch):
    # negative control: sum_mu m_mu(X) e_mu'(Y) through the fused _psi_sum and
    # one sum_of_products, as the left side itself is built
    psi_sum, m = bundleops._psi_sum, bundleops._monomial_symmetric

    def left_side(shape):
        def one_pass(exp_u, exp_v, n, order, pres):
            elementary = [psi_sum(exp_v, m((1,) * k, len(exp_v)), order, pres)
                          for k in range(max(len(exp_u), len(exp_v)) + 1)]
            return sum_of_products([
                (psi_sum(exp_u, m(mu, len(exp_u)), order, pres),
                 math.prod((elementary[k] for k in shape(mu)), start=elementary[0]))
                for mu in partitions_in_box(n, len(exp_u), len(exp_v))])
        return one_pass

    monkeypatch.setattr(bundleops, "_exterior_of_tensor", left_side(conjugate_partition))
    assert not tensor_exterior_identity_check(2, 2, 2)
    assert not tensor_exterior_identity_check(3, 3, 4)
    # the same one-pass sum over e_mu itself passes, so the control is not vacuous
    monkeypatch.setattr(bundleops, "_exterior_of_tensor", left_side(tuple))
    assert tensor_exterior_identity_check(2, 2, 2)
    assert tensor_exterior_identity_check(3, 3, 4)


def _literal_graded_weights(kind, e, order):
    """The weight table as running sums: weight m + a collects each
    weight-m entry times the weight-a term of each shifted root, one
    element sum per term, starting at E(u)^(-rank)."""
    terms = bundleops._theta_terms(kind, e, order)
    table = {0: CohElement.scalar(e.presentation, order,
                                  eta_like_product(-1, False, -e.rank, order))}
    for w in e.shifted_roots():
        exp_w = exp_class(w, order)
        parts = [(a, bundleops._adams_series(exp_w, [(a, c, k)])) for a, c, k in terms]
        grown = {}
        for m, elem in table.items():
            for a, f in parts:
                term = elem * f
                grown[m + a] = grown[m + a] + term if m + a in grown else term
        table = grown
    return table


@pytest.mark.parametrize("kind", list(GradedKind), ids=lambda k: k.value)
@pytest.mark.parametrize("manifold, order", [("CP2", 12), ("CP4", 8)])
def test_graded_weights_match_the_literal_running_sums(kind, manifold, order):
    m = builtin_manifold(manifold)
    x = LinearClass.generator(m.presentation, "x")
    e = ProjBundle(rank=3, roots=(x, x.scale(-1), x.scale(Fraction(1, 2))),
                   twist_b=x.scale(Fraction(1, 3)))
    got = graded_decompose(kind, e, order).weights
    expected = _literal_graded_weights(kind, e, order)
    assert list(got) == list(expected)  # same weights, in the same order
    assert got == expected
    assert all(w.order == order for w in got.values())


@pytest.mark.parametrize("lam", [(2, -1), (1.5,), (2, Fraction(1, 2))])
def test_partition_rejects_negative_and_fractional_parts(lam, rank2_bundle):
    with pytest.raises(ValueError):
        normalize_partition(lam)
    with pytest.raises(ValueError):
        schur_character(lam, rank2_bundle, 0)


def test_partition_keeps_zero_parts(rank2_bundle):
    assert normalize_partition((2, 1, 0, 0)) == (2, 1)
    assert schur_character((2, 0), rank2_bundle, 0) == schur_character((2,), rank2_bundle, 0)


def test_bundle_validation(cp2, cp4, x_class, zero_class):
    with pytest.raises(ValueError):
        ProjBundle(rank=2, roots=(x_class,), twist_b=zero_class)
    with pytest.raises(ValueError):
        ProjBundle(rank=0, roots=(), twist_b=zero_class)
    x4 = LinearClass.generator(cp4.presentation, "x")
    from ellgen.cohring import PresentationMismatch

    with pytest.raises(PresentationMismatch):
        ProjBundle(rank=1, roots=(x4,), twist_b=zero_class)


def test_pontryagin_shift_class(cp2, x_class, half_x, zero_class):
    # sum of shifted root squares; for three copies of x it matches the
    # tangent p1 of CP2, which is what the modular checks require
    matched = ProjBundle(rank=3, roots=(x_class,) * 3, twist_b=zero_class)
    x_sq = x_class.as_element(0) * x_class.as_element(0)
    assert matched.pontryagin_shift_class() == x_sq * 3
    twisted = ProjBundle(rank=1, roots=(half_x,), twist_b=half_x)
    assert twisted.pontryagin_shift_class() == x_sq  # (x/2 + x/2)^2


def test_virtual_ranks():
    cp2 = builtin_manifold("CP2")
    x = LinearClass.generator(cp2.presentation, "x")
    zero = LinearClass.zero(cp2.presentation)
    e = ProjBundle(rank=2, roots=(x, zero), twist_b=zero)
    # infinite products start at 1; even/odd difference has virtual rank 0
    assert witten_bundle_ch(ThetaKind.THETA3, e, 4).scalar_part().coefficient(0) == 1
    assert gch(GradedKind.W, e, 4).scalar_part().coefficient(0) == 0
    assert ch(e, 4).scalar_part().coefficient(0) == 2


def test_resummation_reads_the_weights_not_the_slices(cp2, x_class, half_x):
    e = ProjBundle(rank=2, roots=(x_class, x_class.scale(-1)), twist_b=half_x)
    table = graded_decompose(GradedKind.A, e, 6)
    resummed = bundleops.resum_graded(table, cp2.presentation)
    assert "entries" not in vars(table)
    assert resummed == sum(table.weights.values(), CohElement.zero(cp2.presentation, 6))
    assert table.entries is table.entries


def test_gch_guards(cp2, x_class, zero_class):
    # gch checks the guard itself, not through graded_decompose
    too_wide = ProjBundle(rank=7, roots=(x_class,) * 7, twist_b=zero_class)
    with pytest.raises(GuardExceeded):
        gch(GradedKind.W, too_wide, 4)
    small = ProjBundle(rank=1, roots=(x_class,), twist_b=zero_class)
    with pytest.raises(GuardExceeded):
        gch(GradedKind.B, small, 26)
