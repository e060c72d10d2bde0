"""The theta-product engine in power-sum form against the literal per-root product.

The engine integrates exp(L_T + L_E), each side's log read off the power sums
of its roots.  The oracle here multiplies one factor per root,
`elliptic_factor(kind, d, N)` at w, over the stable tangent roots (the odd
kind) and over the shifted bundle roots (the genus's kind, times 2 per root
for pell1; for pell the odd factor inverted and multiplied by z, negated).  It
substitutes z -> w by ring products of the powers of w at the full order, so
it shares no code with `FactorSeries.at_class`.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from ellgen.bundleops import ProjBundle
from ellgen.cohring import (
    CohElement, LinearClass, Manifold, RingPresentation, builtin_manifold, integrate,
)
from ellgen.genera import THETA_PRODUCT, GenusKind, pell, witten_genus
from ellgen.theta import ThetaKind, elliptic_factor

CP2xCP2 = RingPresentation(
    generators=(("x", 2), ("y", 2)), top_degree=8, vanishing_monomials=((3, 0), (0, 3)),
    integration_table=(((2, 2), Fraction(1)),),
)
MANIFOLDS = {
    "CP2": builtin_manifold("CP2"),
    "CP4": builtin_manifold("CP4"),
    "CP2xCP2": Manifold("CP2xCP2", CP2xCP2, 8, (
        *(LinearClass.generator(CP2xCP2, "x"),) * 3, *(LinearClass.generator(CP2xCP2, "y"),) * 3,
    )),
}
BUNDLE_KIND = {
    GenusKind.PELL1: ThetaKind.THETA1,
    GenusKind.PELL2: ThetaKind.THETA2,
    GenusKind.PELL3: ThetaKind.THETA3,
}


def literal_at_class(factor, lc):
    """sum_k c_k lc^k, the powers of lc taken by ring products at the factor's order."""
    x = lc.as_element(factor.order)
    out = CohElement.zero(lc.presentation, factor.order)
    power = CohElement.one(lc.presentation, factor.order)
    for c in factor.coeffs:
        out, power = out + power * c, power * x
    return out


def literal_product(m, roots, factor, order):
    out = CohElement.one(m.presentation, order)
    for root in roots:
        out = out * literal_at_class(factor, root)
    return out


def literal_genus(m, e, kind, order):
    d = m.presentation.top_degree // 2
    integrand = literal_product(m, m.tangent_roots, elliptic_factor(ThetaKind.THETA, d, order),
                                order)
    if kind is GenusKind.PELL:
        factor = -(elliptic_factor(ThetaKind.THETA, d, order).invert().z_shift(1))
    else:
        factor = elliptic_factor(BUNDLE_KIND[kind], d, order)
        if kind is GenusKind.PELL1:
            factor = factor * 2
    return integrate(integrand * literal_product(m, e.shifted_roots(), factor, order), m)


rational = st.builds(Fraction, st.integers(min_value=-4, max_value=4), st.sampled_from([1, 2, 3]))


@st.composite
def linear_class(draw, pres):
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        return LinearClass.zero(pres)  # a zero root, as stable padding makes
    return LinearClass(pres, [draw(rational) for _ in pres.generators])


@st.composite
def case(draw):
    m = MANIFOLDS[draw(st.sampled_from(sorted(MANIFOLDS)))]
    rank = draw(st.integers(min_value=1, max_value=4))
    roots = tuple(draw(linear_class(m.presentation)) for _ in range(rank))
    e = ProjBundle(rank=rank, roots=roots, twist_b=draw(linear_class(m.presentation)))
    return m, e, draw(st.sampled_from([0, 1, 12, 40]))


@given(case(), st.sampled_from([GenusKind.PELL, *BUNDLE_KIND]))
def test_engine_equals_the_per_root_product(args, kind):
    m, e, order = args
    assert pell(m, e, kind, THETA_PRODUCT, order).series == literal_genus(m, e, kind, order)


@given(st.sampled_from(sorted(MANIFOLDS)), st.sampled_from([0, 1, 12, 40]))
def test_witten_genus_equals_the_per_root_product(name, order):
    m = MANIFOLDS[name]
    d = m.presentation.top_degree // 2
    factor = elliptic_factor(ThetaKind.THETA, d, order)
    assert witten_genus(m, order) == integrate(literal_product(m, m.tangent_roots, factor, order), m)
