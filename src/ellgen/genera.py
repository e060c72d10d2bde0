"""Genus integrals over formal cohomology rings.

Two independent engines compute each twisted elliptic genus:

* theta_product -- one normalized theta factor per stable tangent root
  times one bundle factor per shifted bundle root, integrated over the
  manifold.  Fast, no rank guards.

* definition -- the literal construction: infinite-product prefactors, the
  A-hat class, the symmetric-power tangent character, the half determinant
  twist, and the graded twisted character resummed from the
  determinant-weight tables.  Slower, guarded, and coded independently;
  agreement of the two engines is the central cross-check of the package.

Normalization is fixed by the definitional route.  Pairing the half
determinant twist with the even/odd exterior difference gives the per-root
factor e^(-w/2) - e^(w/2) (odd; kills any trivial summand), and with the
even/odd sum it gives e^(w/2) + e^(-w/2) = 2 cosh(w/2): the plus-kind genus
therefore carries a global rank factor 2^l relative to the bare theta
quotient.  The S-transform checks downstream measure that factor rather
than assume it away.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction

from . import qseries
from .bundleops import ProjBundle, GradedKind, det_sqrt_ch, gch, log_lambda_sum
from .cohring import (
    CohElement,
    LinearClass,
    Manifold,
    PresentationMismatch,
    exp_nilpotent,
    free_ring_manifold,
    integrate,
)
from .qseries import HalfQSeries
from .theta import FactorSeries, ThetaKind, a_hat_factor_series, elliptic_factor


class UnsupportedRank(ValueError):
    """Rank outside the cases the degree-12 checker supports."""


class GenusKind(enum.Enum):
    AHAT = "ahat"
    WITTEN = "witten"
    PELL = "pell"
    PELL1 = "pell1"
    PELL2 = "pell2"
    PELL3 = "pell3"


THETA_PRODUCT = "theta_product"
DEFINITION = "definition"

GENUS_GROUP = {
    GenusKind.AHAT: "none",
    GenusKind.WITTEN: "SL2Z",
    GenusKind.PELL: "SL2Z",
    GenusKind.PELL1: "Gamma0_2",
    GenusKind.PELL2: "Gamma_up0_2",
    GenusKind.PELL3: "GammaTheta",
}

# graded kind of the bundle character; (sign, half_shift) of the bundle's
# eta-like prefactor, which enters to the power -2*rank
_GENUS_GRADED = {
    GenusKind.PELL: (GradedKind.W, -1, False),
    GenusKind.PELL1: (GradedKind.A, 1, False),
    GenusKind.PELL2: (GradedKind.B, -1, True),
    GenusKind.PELL3: (GradedKind.C, 1, True),
}


@dataclass(frozen=True)
class GenusReport:
    kind: GenusKind
    manifold: str
    bundle: str
    method: str
    series: HalfQSeries
    weight: int
    group: str


def _z_degree(m: Manifold) -> int:
    d = m.presentation.top_degree // 2
    return d + (d % 2)


def _times_root_factors(out: CohElement, factor: FactorSeries, roots) -> CohElement:
    """out times the factor evaluated at each root."""
    for root in roots:
        out = out * factor.at_class(root)
    return out


def _tangent_core(m: Manifold, order: int) -> CohElement:
    """Product of the normalized odd theta factors over the stable roots."""
    factor = elliptic_factor(ThetaKind.THETA, _z_degree(m), order)
    return _times_root_factors(CohElement.one(m.presentation, order), factor, m.tangent_roots)


def a_hat_class(m: Manifold, order: int = 0) -> CohElement:
    """prod_i x_i / (e^(x_i/2) - e^(-x_i/2)) over the stable roots."""
    factor = a_hat_factor_series(_z_degree(m), order)
    return _times_root_factors(CohElement.one(m.presentation, order), factor, m.tangent_roots)


def a_hat_integral(m: Manifold) -> Fraction:
    """Integral of the A-hat class; rational, not integral in general."""
    return integrate(a_hat_class(m, 0), m).coefficient(0)


def witten_genus(m: Manifold, order: int) -> HalfQSeries:
    """Integral of the A-hat class times the reduced symmetric-power tower.

    The per-root factor sends the zero root to 1, so stable padding is
    harmless; the u^0 coefficient is the A-hat integral.
    """
    return integrate(_tangent_core(m, order), m)


def bundle_root_factor(kind: GenusKind, z_degree: int, order: int) -> FactorSeries:
    """Per-shifted-root bundle factor of each genus integrand.

    PELL  : (e^(-w/2) - e^(w/2)) prod (1-q^u e^w)(1-q^u e^-w)/(1-q^u)^2
    PELL1 : (e^(w/2) + e^(-w/2)) prod (1+q^u e^w)(1+q^u e^-w)/(1+q^u)^2
    PELL2 : prod (1-q^(u-1/2) e^w)(1-q^(u-1/2) e^-w)/(1-q^(u-1/2))^2
    PELL3 : prod (1+q^(u-1/2) e^w)(1+q^(u-1/2) e^-w)/(1+q^(u-1/2))^2
    """
    if kind is GenusKind.PELL:
        return -(elliptic_factor(ThetaKind.THETA, z_degree, order).invert().z_shift(1))
    if kind is GenusKind.PELL1:
        return elliptic_factor(ThetaKind.THETA1, z_degree, order) * 2
    if kind is GenusKind.PELL2:
        return elliptic_factor(ThetaKind.THETA2, z_degree, order)
    if kind is GenusKind.PELL3:
        return elliptic_factor(ThetaKind.THETA3, z_degree, order)
    raise ValueError(f"no bundle factor for {kind!r}")


def _pell_theta_product(m: Manifold, e: ProjBundle, kind: GenusKind, order: int) -> HalfQSeries:
    factor = bundle_root_factor(kind, _z_degree(m), order)
    integrand = _times_root_factors(_tangent_core(m, order), factor, e.shifted_roots())
    return integrate(integrand, m)


def _tangent_symmetric_log(m: Manifold, order: int) -> CohElement:
    """log character of the symmetric-power tower of the complexified
    tangent bundle (honest rank 4r; stable padding is subtracted)."""
    pres = m.presentation
    plus_minus = list(m.tangent_roots) + [-r for r in m.tangent_roots]
    log_exterior = log_lambda_sum(plus_minus, -1, "integer", order, pres)
    total = -log_exterior
    pad = len(m.tangent_roots) - m.dimension // 2
    if pad < 0:
        raise ValueError("stable root list shorter than the dimension allows")
    if pad > 0:
        zeros = [LinearClass.zero(pres)] * (2 * pad)
        total = total + log_lambda_sum(zeros, -1, "integer", order, pres)
    return total


def _pell_definition(m: Manifold, e: ProjBundle, kind: GenusKind, order: int) -> HalfQSeries:
    graded_kind, sign, half_shift = _GENUS_GRADED[kind]
    integrand = a_hat_class(m, order) * exp_nilpotent(_tangent_symmetric_log(m, order))
    if kind in (GenusKind.PELL, GenusKind.PELL1):
        integrand = integrand * det_sqrt_ch(e, order)
    integrand = integrand * gch(graded_kind, e, order)

    tangent_eta = qseries.eta_like_product(-1, False, m.dimension, order)
    bundle_eta = qseries.eta_like_product(sign, half_shift, -2 * e.rank, order)
    return integrate(integrand, m) * tangent_eta * bundle_eta


def pell(
    m: Manifold,
    e: ProjBundle,
    kind: GenusKind,
    method: str = THETA_PRODUCT,
    order: int = 20,
) -> GenusReport:
    """One of the four twisted genera of (m, e), by either engine."""
    if kind not in _GENUS_GRADED:
        raise ValueError(f"{kind} is not a twisted genus kind")
    if e.presentation != m.presentation:
        raise PresentationMismatch("bundle does not live on this manifold")
    if method == THETA_PRODUCT:
        series = _pell_theta_product(m, e, kind, order)
    elif method == DEFINITION:
        series = _pell_definition(m, e, kind, order)
    else:
        raise ValueError(f"unknown method {method!r}")
    return GenusReport(
        kind=kind,
        manifold=m.name,
        bundle=e.describe(),
        method=method,
        series=series,
        weight=m.weight,
        group=GENUS_GROUP[kind],
    )


@dataclass(frozen=True)
class PseudoDiffSpec:
    """An elliptic operator presented by its reduced associated bundle.

    The reduced bundle determines every genus of the operator, so operator
    data enters only through (manifold, bundle) plus a label.
    """

    manifold: Manifold
    bundle: ProjBundle
    operator_name: str = "P"


def pseudodiff_genus(
    spec: PseudoDiffSpec, kind: GenusKind, order: int = 20, method: str = THETA_PRODUCT
) -> GenusReport:
    report = pell(spec.manifold, spec.bundle, kind, method, order)
    return replace(report, bundle=f"operator {spec.operator_name}: {report.bundle}")


# ---------------------------------------------------------------------------
# dimension-12 cancellation checker
# ---------------------------------------------------------------------------


@dataclass
class Cancellation12Result:
    rank: int
    relation_imposed: bool
    equal: bool
    residual: CohElement
    residual_divisible: bool | None = None


def cancellation12_check(l: int, impose_relation: bool = True) -> Cancellation12Result:
    """Degree-12 identity between the half-determinant-twisted even/odd
    exterior sum and a combination of A-hat classes, in free power sums.

    Works over even power sums s2T, s4T, s6T of the tangent roots and
    s1E..s6E of the shifted bundle roots; the curvature-matching hypothesis
    is imposed as the substitution s2T := s2E.  Without the substitution
    the residual is divisible by (s2T - s2E), which is what the
    divisibility flag reports.
    """
    if l not in (2, 4):
        raise UnsupportedRank("the degree-12 checker supports rank 2 and 4 only")
    m = free_ring_manifold()
    pres = m.presentation
    order = 0

    def gen_elem(name):
        mono = tuple(
            1 if i == pres.generator_index(name) else 0
            for i in range(len(pres.generators))
        )
        out = CohElement(pres, order)
        out.coeffs[mono] = HalfQSeries.one(order)
        return out

    s2T, s4T, s6T = gen_elem("s2T"), gen_elem("s4T"), gen_elem("s6T")
    sE = {k: gen_elem(f"s{k}E") for k in range(1, 7)}

    # log of the A-hat class in tangent power sums:
    # sum_i log(x_i / (e^(x_i/2)-e^(-x_i/2))) = -s2/24 + s4/2880 - s6/181440
    a_hat = exp_nilpotent(
        s2T * Fraction(-1, 24) + s4T * Fraction(1, 2880) + s6T * Fraction(-1, 181440)
    )
    # prod_j (e^(w_j/2) + e^(-w_j/2)) = 2^l exp(s2/8 - s4/192 + s6/2880)
    cosh_prod = exp_nilpotent(
        sE[2] * Fraction(1, 8) + sE[4] * Fraction(-1, 192) + sE[6] * Fraction(1, 2880)
    ) * Fraction(2**l)

    # characters of E and its conjugate from power sums of the shifted roots
    ch_e = CohElement.scalar(pres, order, l)
    ch_e_bar = CohElement.scalar(pres, order, l)
    fact = 1
    for k in range(1, 7):
        fact *= k
        ch_e = ch_e + sE[k] * Fraction(1, fact)
        ch_e_bar = ch_e_bar + sE[k] * Fraction((-1) ** k, fact)

    lhs = (a_hat * cosh_prod).degree_component(12)
    # conjugate-symmetrized character of E: only its even part meets A-hat
    # in degree 12, and the symmetrized form is what balances the ranks
    rhs = (
        (a_hat * (ch_e + ch_e_bar)).degree_component(12)
        + a_hat.degree_component(12) * Fraction(8 - 2 * l)
    ) * Fraction(2**l, 8)

    src = pres.generator_index("s2T")
    dst = pres.generator_index("s2E")
    if impose_relation:
        lhs = lhs.remap_generator(src, dst)
        rhs = rhs.remap_generator(src, dst)
    residual = lhs - rhs
    result = Cancellation12Result(
        rank=l, relation_imposed=impose_relation, equal=residual.is_zero(), residual=residual
    )
    if not impose_relation:
        result.residual_divisible = residual.remap_generator(src, dst).is_zero()
    return result


# ---------------------------------------------------------------------------
# classical (untwisted) recovery
# ---------------------------------------------------------------------------


@dataclass
class ClassicalRecovery:
    matched: bool
    sign: int
    twisted: HalfQSeries
    classical: HalfQSeries


def classical_recovery_check(m: Manifold, v: ProjBundle, order: int) -> ClassicalRecovery:
    """With a zero twist the first genus reproduces the classical
    spinor-difference theta product up to the global sign (-1)^rank, which
    is returned, never hidden."""
    if not v.twist_b.is_zero():
        raise ValueError("classical recovery needs an honest bundle (b = 0)")
    twisted = pell(m, v, GenusKind.PELL, THETA_PRODUCT, order).series
    # classical orientation: (e^(w/2) - e^(-w/2)) per root
    factor = elliptic_factor(ThetaKind.THETA, _z_degree(m), order).invert().z_shift(1)
    integrand = _times_root_factors(_tangent_core(m, order), factor, v.shifted_roots())
    classical = integrate(integrand, m)
    sign = (-1) ** v.rank
    return ClassicalRecovery(
        matched=(twisted == classical * Fraction(sign)),
        sign=sign,
        twisted=twisted,
        classical=classical,
    )
