"""The character layer takes one exponential per root and reads every
multiple or integer combination of roots off it by Adams operations."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellgen import bundleops, genera
from ellgen.bundleops import (
    GradedKind,
    ProjBundle,
    adams_power_sum,
    ch,
    exp_class,
    log_lambda_sum,
    schur_character,
    schur_polynomial,
    witten_bundle_ch,
)
from ellgen.cohring import (
    CohElement,
    LinearClass,
    Manifold,
    RingPresentation,
    builtin_manifold,
    exp_nilpotent,
)
from ellgen.qseries import HalfQSeries, eta_like_product
from ellgen.theta import ThetaKind

# dimension 8: two degree-2 generators, one of degree 4, and a relation
RING8 = RingPresentation(
    generators=(("a", 2), ("b", 2), ("p", 4)),
    top_degree=8,
    vanishing_monomials=((3, 0, 0),),
)
RINGS = {"CP2": builtin_manifold("CP2").presentation,
         "CP4": builtin_manifold("CP4").presentation,
         "ring8": RING8}
VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(2))


def reference_log_lambda_sum(roots, sign, levels, order, pres):
    """The per-(root, k) sum: one exp of k * root for every root and every k."""
    total = CohElement.zero(pres, order)
    start = 2 if levels == "integer" else 1
    for k in range(1, order // start + 1):
        exps = CohElement.zero(pres, order)
        for root in roots:
            exps = exps + exp_class(root.scale(k), order)
        scalar = HalfQSeries.zero(order)
        for level in range(start, order + 1, 2):
            if level * k <= order:
                scalar = scalar + HalfQSeries.u_power(
                    level * k, order, Fraction((-1) ** (k + 1) * sign**k, k)
                )
        total = total + exps * scalar
    return total


def linear_class(pres, values):
    """A class with the given coefficients on the degree-2 generators."""
    it = iter(values)
    return LinearClass(pres, [next(it) if deg == 2 else 0 for _, deg in pres.generators])


@given(
    st.sampled_from(sorted(RINGS)),
    st.lists(st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)), max_size=4),
    st.sampled_from((1, -1)),
    st.sampled_from(("integer", "half")),
    st.integers(min_value=0, max_value=24),
)
@example("CP4", [(Fraction(1), 0), (Fraction(-1, 2), 0), (Fraction(0), 0)], -1, "half", 24)
@example("CP2", [(Fraction(1), 0)], 1, "integer", 7)
@example("ring8", [(Fraction(1), Fraction(-1)), (Fraction(1, 2), Fraction(2))], -1, "integer", 13)
@settings(max_examples=30, deadline=None)
def test_log_lambda_sum_matches_per_root_reference(ring, values, sign, levels, order):
    pres = RINGS[ring]
    roots = [linear_class(pres, v) for v in values]
    got = log_lambda_sum(roots, sign, levels, order, pres)
    assert got == reference_log_lambda_sum(roots, sign, levels, order, pres)


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 3])
def test_adams_power_sum_is_exp_of_multiples(k):
    pres = RING8
    roots = [linear_class(pres, (1, 0)), linear_class(pres, (Fraction(-1, 2), 2))]
    expected = sum((exp_class(r.scale(k), 6) for r in roots), CohElement.zero(pres, 6))
    assert adams_power_sum(roots, k, 6, pres) == expected


# two generators of degrees 2 and 4 and a relation: psi^k scales p by k^2
RING_AP = RingPresentation(
    generators=(("a", 2), ("p", 4)),
    top_degree=8,
    vanishing_monomials=((3, 0),),
)
# k = 0, negative and repeated k, and an exponent at the order
ADAMS_TERMS = [(0, 3, 0), (1, 1, 0), (-1, -2, 1), (2, 5, 3), (2, -1, 3), (-3, 7, 4), (3, 1, 6),
               (-1, 4, 2)]


def _character(pres, order):
    """A sum of exps with series weights, plus a term in every generator."""
    a = LinearClass(pres, [1 if deg == 2 else 0 for _, deg in pres.generators])
    weight = HalfQSeries(order, [1, -2, 0, Fraction(1, 3), 5])
    n = len(pres.generators)
    gens = {tuple(int(i == j) for j in range(n)): HalfQSeries(order, [0, Fraction(3, 7)])
            for i in range(n)}
    char = exp_class(a, order) * weight + exp_class(a.scale(Fraction(-1, 2)), order) * 2
    return char + CohElement(pres, order, gens)


@pytest.mark.parametrize("den", [1, 6])
@pytest.mark.parametrize("pres", [builtin_manifold("CP4").presentation, RING_AP],
                         ids=["CP4", "ring_ap"])
def test_adams_series_is_the_termwise_sum_of_adams_operations(pres, den):
    order = 6
    char = _character(pres, order)
    expected = CohElement.zero(pres, order)
    for k, c, e in ADAMS_TERMS:
        u_e = HalfQSeries.u_power(e, order, Fraction(c, den))
        expected = expected + bundleops._exp_multiple(char, k) * u_e
    assert bundleops._adams_series(char, ADAMS_TERMS, den) == expected
    assert bundleops._adams_series(char, [], den).is_zero()


@pytest.fixture
def exp_calls(monkeypatch):
    calls = []

    def counting(lc, order):
        calls.append(lc)
        return exp_class(lc, order)

    monkeypatch.setattr(bundleops, "exp_class", counting)
    return calls


def _roots():
    pres = builtin_manifold("CP4").presentation
    x = LinearClass.generator(pres, "x")
    return pres, [x, x.scale(-1), x.scale(Fraction(1, 2)), x.scale(0)]


def test_log_lambda_sum_takes_one_exp_per_root(exp_calls):
    pres, roots = _roots()
    log_lambda_sum(roots, -1, "half", 24, pres)
    assert exp_calls == roots


def test_adams_power_sum_takes_one_exp_per_root(exp_calls):
    pres, roots = _roots()
    adams_power_sum(roots, 5, 8, pres)
    assert exp_calls == roots


def test_schur_takes_one_exp_per_root(exp_calls):
    pres, roots = _roots()
    got = schur_character((3, 1), ProjBundle(3, tuple(roots[:3]), LinearClass.zero(pres)), 4)
    assert exp_calls == roots[:3]
    expected = CohElement.zero(pres, 4)
    for exps, kostka in schur_polynomial((3, 1), 3).items():
        weight = sum((r.scale(a) for r, a in zip(roots, exps)), LinearClass.zero(pres))
        expected = expected + exp_class(weight, 4) * kostka
    assert got == expected


def test_twisted_character_takes_one_exp_per_class(exp_calls):
    pres, roots = _roots()
    e = ProjBundle(rank=2, roots=tuple(roots[:2]), twist_b=roots[2])
    got = ch(e, 6, weight=-3)
    assert len(exp_calls) == 3
    expected = exp_class(roots[2].scale(-3), 6) * (exp_class(roots[0], 6) + exp_class(roots[1], 6))
    assert got == expected


@pytest.mark.parametrize("kind", list(GradedKind))
def test_gch_closed_form_takes_one_exp_per_shifted_root(exp_calls, kind):
    pres, roots = _roots()
    e = ProjBundle(rank=3, roots=tuple(roots[:3]), twist_b=roots[1].scale(Fraction(1, 3)))
    got = bundleops.gch_closed_form(kind, e, 6)
    assert len(exp_calls) <= e.rank + 1
    assert got == bundleops.gch(kind, e, 6)


@pytest.mark.parametrize("kind", list(ThetaKind))
def test_witten_character_reads_the_conjugate_off_psi_minus_one(exp_calls, kind):
    pres, roots = _roots()
    e = ProjBundle(rank=2, roots=tuple(roots[:2]), twist_b=roots[2])
    got = witten_bundle_ch(kind, e, 24)
    assert exp_calls == list(e.shifted_roots())
    # the per-root form: the shifted roots and their negatives as separate
    # roots, the scalar infinite-product part exponentiated with the rest
    shifted = e.shifted_roots()
    negatives = tuple(-w for w in shifted)
    levels = "half" if kind.half else "integer"
    log_char = log_lambda_sum(shifted + negatives, kind.sign, levels, 24, pres)
    assert got == exp_nilpotent(log_char)


@pytest.mark.parametrize("name, roots", [("CP4", 5), ("CP2", 3)])
def test_definition_tangent_part_takes_one_exp_per_tangent_root(exp_calls, name, roots):
    m = builtin_manifold(name)
    genera._definition_tangent_part.__wrapped__(m, 8)
    assert len(exp_calls) == roots
    assert exp_calls == list(m.tangent_roots)


def _keep_roots(name, keep):
    m = builtin_manifold(name)
    return Manifold(name=m.name, presentation=m.presentation, dimension=m.dimension,
                    tangent_roots=m.tangent_roots[:keep])


TANGENT_CASES = [("CP2", 3), ("CP4", 5), ("CP4", 3), ("free", 0)]


@pytest.mark.parametrize("name, keep", TANGENT_CASES)
def test_tangent_log_reads_the_negatives_and_pads_off_one_character(name, keep):
    m = _keep_roots(name, keep)
    pres, order = m.presentation, 6
    # the per-root form: roots and negatives as separate roots, normalized by
    # as many zero roots, whose log is the scalar part alone
    zeros = [LinearClass.zero(pres)] * (2 * len(m.tangent_roots))
    roots = list(m.tangent_roots) + [-r for r in m.tangent_roots]
    expected = log_lambda_sum(zeros, -1, "integer", order, pres)
    expected = expected - log_lambda_sum(roots, -1, "integer", order, pres)
    assert genera._tangent_symmetric_log(m, order) == expected


@pytest.mark.parametrize("name", ["CP2", "CP4", "free"])
def test_tangent_log_has_no_scalar_part(name):
    m = builtin_manifold(name)
    assert genera._tangent_symmetric_log(m, 24).scalar_part().is_zero()


@pytest.mark.parametrize("order", [12, 40])
@pytest.mark.parametrize("name, keep", TANGENT_CASES)
def test_tangent_part_is_the_eta_normalized_bare_tower(name, keep, order):
    # the bare tower of the honest-rank complexified tangent bundle: roots,
    # negatives and zero pads as separate roots, its scalar infinite-product
    # part exponentiated with the rest; E(u)^dim normalizes it
    m = _keep_roots(name, keep)
    pres = m.presentation
    pad = len(m.tangent_roots) - m.dimension // 2
    zeros = [LinearClass.zero(pres)] * (2 * abs(pad))
    roots = list(m.tangent_roots) + [-r for r in m.tangent_roots]
    bare = log_lambda_sum(zeros, -1, "integer", order, pres) * (1 if pad > 0 else -1)
    bare = bare - log_lambda_sum(roots, -1, "integer", order, pres)
    expected = genera.a_hat_class(m, order) * exp_nilpotent(bare)
    eta = eta_like_product(-1, False, m.dimension, order)
    assert genera._definition_tangent_part(m, order) == expected * eta
