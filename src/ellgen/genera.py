"""Genus integrals over formal cohomology rings.

Two independent engines compute each twisted elliptic genus:

* theta_product -- the exp of the theta factors' logs at the power sums of the
  tangent roots (`Manifold.tangent_power_sums`, kept by the manifold) and of the shifted
  bundle roots, integrated.  For pell1..pell3 its top part is one cached polynomial in
  free power sums (`_universal_genus`, in closed form) read at the manifold's
  characteristic numbers, and the degree-12 check reads it at (pell1 or pell2, 6, 1);
  pell's odd bundle factor has no log: `bundle_root_factor`, root by root.  Fast, no
  rank guards.

* definition -- the literal construction: the bundle's infinite-product
  prefactor, the A-hat class, the symmetric-power tangent character
  (normalized inside its log, so a zero root's tower is 1), the half
  determinant twist, and the graded twisted character: the product over
  shifted bundle roots of triple-product sums.  Each root's character starts
  from the closed-form exp of its q-free class (`bundleops.exp_class`, read off
  the integer power sums; no factor log).  Slower, guarded, coded
  independently; agreement of the two engines is the central cross-check
  of the package.

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
import functools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from . import bundleops, qseries
from .bundleops import ProjBundle, GradedKind, det_sqrt_ch, gch
from .cohring import (
    CohElement,
    Manifold,
    PresentationMismatch,
    builtin_manifold,
    exp_nilpotent,
    integrate,
    power_sums,
)
from .qseries import HalfQSeries, sum_of_numerators
from .theta import FactorSeries, ThetaKind, a_hat_factor_series, elliptic_factor, factor_log


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

# graded kind of the bundle character of each twisted genus
_GENUS_GRADED = {
    GenusKind.PELL: GradedKind.W,
    GenusKind.PELL1: GradedKind.A,
    GenusKind.PELL2: GradedKind.B,
    GenusKind.PELL3: GradedKind.C,
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
    return m.presentation.top_degree // 2


def _times_root_factors(out: CohElement, factor: FactorSeries, roots) -> CohElement:
    """out times the factor evaluated at each root."""
    for root in roots:
        out = out * factor.at_class(root)
    return out


# The manifold- and order-only factors of both engines are memoized by value
# (Manifold is frozen and hashable), so a job pays only for its bundle.  32
# entries hold a few manifolds at a few orders; the bound keeps a long-lived
# process from pinning every integrand.  The theta-product and definition
# caches hold no object in common, so the engines still cross-check
# independently.  Cached values are shared: never mutate them.
_MANIFOLD_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_MANIFOLD_CACHE_SIZE)
def _tangent_log(m: Manifold, order: int) -> CohElement:
    """sum_j c_j s_(2j) over the stable roots' power sums, for log f = sum_j c_j z^(2j)."""
    return factor_log(ThetaKind.THETA, _z_degree(m), order).at_power_sums(m.tangent_power_sums)


@functools.lru_cache(maxsize=_MANIFOLD_CACHE_SIZE)
def _tangent_core(m: Manifold, order: int) -> CohElement:
    """Product of the normalized odd theta factors over the stable roots."""
    return exp_nilpotent(_tangent_log(m, order))


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


# keyed by (z-degree, order); 64 entries, as theta.elliptic_factor
@functools.lru_cache(maxsize=64)
def bundle_root_factor(z_degree: int, order: int) -> FactorSeries:
    """pell's factor per shifted root, the odd quotient with the half determinant twist,
    (e^(-w/2) - e^(w/2)) prod (1-q^u e^w)(1-q^u e^-w)/(1-q^u)^2: it vanishes at w = 0, so
    it has no log.  The result is cached and shared: treat it as read-only."""
    return -(elliptic_factor(ThetaKind.THETA, z_degree, order).invert().z_shift(1))


# keyed by (kind, z-degree, order); 64 entries, as theta.factor_log
@functools.lru_cache(maxsize=64)
def _universal_genus(kind: GenusKind, z_degree: int, order: int) -> tuple:
    """The degree-2d part of pell1..pell3's exp(L_T + L_E) over the free even power sums, the
    s_(2j)T then the s_(2j)E of degree 4j, j = 1..d/2: (exponents, series) pairs.  The ring is
    free, so exp(sum c_g g) = prod exp(c_g g), c_g a factor-log coefficient: the monomial
    prod g^(a_g) has the coefficient prod c_g^(a_g) / a_g!, a product of memoized powers, one T
    side times one E side, each grown by weight sum j a_j.  Cached and shared: read-only."""
    half, theta = z_degree // 2, bundleops._GRADED_THETA[_GENUS_GRADED[kind]]
    sides = []  # per side, per weight: (exponents, coefficient) pairs; weight 0 is the unit
    for t in (ThetaKind.THETA, theta):
        side = [[((), HalfQSeries.one(order))]] + [[] for _ in range(half)]
        for j, c in enumerate(factor_log(t, z_degree, order).coeffs[2::2], 1):
            powers, grown = [None, c], [[(mono + (0,), s) for mono, s in terms] for terms in side]
            for w, terms in enumerate(side):
                for mono, s in terms:
                    for a in range(1, (half - w) // j + 1):
                        if a == len(powers):
                            powers.append(powers[-1] * c * Fraction(1, a))  # c^a / a!
                        if (p := s * powers[a] if w else powers[a]).is_zero():
                            break  # so is every higher power's
                        grown[w + a * j].append((mono + (a,), p))
            side = grown
        sides.append(side)
    pairs = [(tm + em, es if not w else ts if w == half else ts * es)
             for w, row in enumerate(sides[0]) for tm, ts in row for em, es in sides[1][half - w]]
    return tuple((mono, s) for mono, s in pairs if not s.is_zero())


def _pell_theta_product(m: Manifold, e: ProjBundle, kind: GenusKind, order: int) -> HalfQSeries:
    d, pres = _z_degree(m), m.presentation
    if kind is GenusKind.PELL:
        factor = bundle_root_factor(d, order)
        return integrate(_times_root_factors(_tangent_core(m, order), factor, e.shifted_roots()), m)
    # the universal polynomial at the numbers int_M prod_i sums_i^(a_i), by q-free products
    sums = [*m.tangent_power_sums[2::2], *power_sums(e.shifted_roots(), pres, d)[2::2]]
    products = {} if d else {(): CohElement.one(pres, 0)}  # the unit: dimension 0's monomial

    def product(mono):  # a kept product times one factor of the last generator used
        if mono not in products:
            i = max(i for i, a in enumerate(mono) if a)
            rest = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
            products[mono] = product(rest) * sums[i] if any(rest) else sums[i]
        return products[mono]

    scale, parts = 2**e.rank if kind is GenusKind.PELL1 else 1, []
    for mono, series in _universal_genus(kind, d, order):
        number = integrate(product(mono), m)  # q-free: one numerator over number.den
        if p := number.nums[0] * scale:
            parts.append(([c * p for c in series.nums], series.den * number.den))
    return sum_of_numerators(order, parts) if parts else HalfQSeries.zero(order)


def _tangent_symmetric_log(m: Manifold, order: int) -> CohElement:
    """log character of the normalized symmetric-power tower of the
    complexified tangent bundle,
    prod_i prod_t (1 - t)^2 / ((1 - t e^(x_i)) (1 - t e^(-x_i))) over the
    integer levels t.

    The tower inverts the sign -1 exterior-power product, whose log is
    linear in the scalar-free character S + psi^(-1) S - 2k, with
    S = sum_i exp(x_i) over the k stable roots and one exp per root.  It has
    no scalar part, so a zero root's tower is 1, as in the theta engine."""
    exps = bundleops.adams_power_sum(m.tangent_roots, 1, order, m.presentation)
    char = exps + bundleops._exp_multiple(exps, -1) - 2 * len(m.tangent_roots)
    return -bundleops._log_lambda(char, -1, False)


@functools.lru_cache(maxsize=_MANIFOLD_CACHE_SIZE)
def _definition_tangent_part(m: Manifold, order: int) -> CohElement:
    """A-hat class times the normalized symmetric-power tangent character:
    the part of the definition integrand that does not depend on the bundle."""
    return a_hat_class(m, order) * exp_nilpotent(_tangent_symmetric_log(m, order))


def _pell_definition(m: Manifold, e: ProjBundle, kind: GenusKind, order: int) -> HalfQSeries:
    # the bundle's eta-like prefactor, to the power -2*rank, has the sign and
    # levels of its exterior-power product; integer levels carry the half
    # determinant twist
    graded_kind = _GENUS_GRADED[kind]
    theta = bundleops._GRADED_THETA[graded_kind]
    integrand = _definition_tangent_part(m, order)
    if not theta.half:
        integrand = integrand * det_sqrt_ch(e, order)
    integrand = integrand * gch(graded_kind, e, order)
    bundle_eta = qseries.eta_like_product(theta.sign, theta.half, -2 * e.rank, order)
    return integrate(integrand, m) * bundle_eta


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
    """Degree-12 anomaly cancellation: [pell1]_(q^0) = 2^l/8 (8 [pell2]_(q^0) - [pell2]_(q^(1/2))),
    read off `_universal_genus` at (pell1 or pell2, 6, 1) and placed on the `free` ring: even
    power sums s2T, s4T, s6T of the tangent roots and s2E, s4E, s6E of the shifted bundle roots.
    The curvature-matching hypothesis s2T := s2E moves each monomial's s2T exponent onto s2E.
    Without it the free residual is reported, and the divisibility flag says whether the
    matched one vanishes, that is whether (s2T - s2E) divides it."""
    if l not in (2, 4):
        raise UnsupportedRank("the degree-12 checker supports rank 2 and 4 only")
    pres = builtin_manifold("free").presentation  # s2T s4T s6T, then s1E .. s6E

    def residual(matched: bool) -> CohElement:
        # 2^l/8 (8 [pell1]_(u^0) - (8 [pell2]_(u^0) - [pell2]_(u^1))), pell1's 2^l included;
        # each monomial's parts are one numerator over a denominator, on the free ring
        parts = defaultdict(list)
        for kind, (w0, w1) in ((GenusKind.PELL1, (8, 0)), (GenusKind.PELL2, (-8, 1))):
            for (t2, t4, t6, e2, e4, e6), s in _universal_genus(kind, 6, 1):
                t2, e2 = (0, e2 + t2) if matched else (t2, e2)
                number = (w0 * s.nums[0] + w1 * s.nums[1]) * 2**l
                parts[(t2, t4, t6, 0, e2, 0, e4, 0, e6)].append(((number,), 8 * s.den))
        return CohElement(pres, 0, {m: sum_of_numerators(0, p) for m, p in parts.items()})

    matched = residual(True)
    if impose_relation:
        return Cancellation12Result(l, True, matched.is_zero(), matched)
    free = residual(False)
    return Cancellation12Result(l, False, free.is_zero(), free, matched.is_zero())


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
    # classical orientation (e^(w/2) - e^(-w/2)) prod (1 - q^j e^w)(1 - q^j e^-w)/(1 - q^j)^2
    # per root, the exp of minus the odd factor's log: the twisted side inverts the factor
    factor = (-factor_log(ThetaKind.THETA, _z_degree(m), order)).exp().z_shift(1)
    integrand = _times_root_factors(_tangent_core(m, order), factor, v.shifted_roots())
    classical = integrate(integrand, m)
    sign = (-1) ** v.rank
    return ClassicalRecovery(
        matched=(twisted == classical * Fraction(sign)),
        sign=sign,
        twisted=twisted,
        classical=classical,
    )
