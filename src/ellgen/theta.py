"""The four Jacobi theta functions, in two representations.

Exact representation: each theta quotient becomes a "factor series", an
element of Q[z]/(z^(d+1)) with HalfQSeries coefficients (a CohElement over
the one-generator ring `z_ring(d)`), normalized so its value at z = 0 is the
constant series 1 (and the odd kind is divided by its simple zero).  These
use the substitution e^(2*pi*i*v) = e^z, which clears every pi and keeps all
coefficients rational.  Genus integrands are built from them by `at_class`
(z -> a Chern root class), or by `at_power_sums` of a log over a side's roots.

Numeric representation: the literal truncated infinite products in (v, tau),
used to test transformation laws and closed forms.  The bridge between the
two is v = z / (2*pi*i), and it is tested, not assumed.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import cohring, qseries
from .cohring import CohElement, LinearClass, RingPresentation, _power_series, exp_nilpotent
from .qseries import HalfQSeries


class InvalidTau(ValueError):
    """tau outside the upper half plane."""


class ThetaKind(enum.Enum):
    """Each kind stands for the Witten-type product
    prod_t (1 + s t e^w)(1 + s t e^-w) with sign s = `sign`, over the integer
    levels t = q^j, or the half levels t = q^(j-1/2) when `half`."""

    THETA = "theta"
    THETA1 = "theta1"
    THETA2 = "theta2"
    THETA3 = "theta3"

    @property
    def sign(self) -> int:
        return 1 if self in (ThetaKind.THETA1, ThetaKind.THETA3) else -1

    @property
    def half(self) -> bool:
        return self in (ThetaKind.THETA2, ThetaKind.THETA3)


@functools.lru_cache(maxsize=None)
def z_ring(z_degree: int) -> RingPresentation:
    """Q[z]/(z^(d+1)): one degree-2 generator z, top degree 2d."""
    return RingPresentation(generators=(("z", 2),), top_degree=2 * z_degree)


@dataclass(frozen=True)
class FactorSeries:
    """An element of Q[z]/(z^(d+1)) with HalfQSeries coefficients.

    The arithmetic is that of the CohElement it holds; `coeffs` lists the
    coefficient of each power z^0 .. z^d.
    """

    elem: CohElement

    @classmethod
    def build(cls, z_degree: int, order: int, coeffs) -> "FactorSeries":
        terms = {(k,): c for k, c in enumerate(coeffs) if k <= z_degree}
        return cls(CohElement(z_ring(z_degree), order, terms))

    @classmethod
    def one(cls, z_degree: int, order: int) -> "FactorSeries":
        return cls(CohElement.one(z_ring(z_degree), order))

    @property
    def z_degree(self) -> int:
        return self.elem.presentation.top_degree // 2

    @property
    def order(self) -> int:
        return self.elem.order

    @property
    def coeffs(self) -> tuple[HalfQSeries, ...]:
        return tuple(self.elem.coefficient((k,)) for k in range(self.z_degree + 1))

    def __hash__(self) -> int:
        # CohElement defines __eq__ without __hash__; hash what equality sees
        return hash((self.z_degree, self.order, self.coeffs))

    def __add__(self, other: "FactorSeries") -> "FactorSeries":
        return FactorSeries(self.elem + other.elem)

    def __neg__(self) -> "FactorSeries":
        return FactorSeries(-self.elem)

    def __mul__(self, other):
        if isinstance(other, FactorSeries):
            other = other.elem
        return FactorSeries(self.elem * other)

    __rmul__ = __mul__

    def invert(self) -> "FactorSeries":
        """Inverse when the z^0 coefficient is an invertible series."""
        return FactorSeries(self.elem.invert())

    def z_shift(self, power: int) -> "FactorSeries":
        """Multiply by z^power, truncating above the tracked z-degree."""
        out = [HalfQSeries.zero(self.order)] * power + list(self.coeffs)
        return FactorSeries.build(self.z_degree, self.order, out)

    def exp(self) -> "FactorSeries":
        """exp of a series with vanishing z^0 coefficient (terminates)."""
        if not self.elem.scalar_part().is_zero():
            raise ValueError("exp on factor series needs a vanishing z^0 term")
        return FactorSeries(exp_nilpotent(self.elem))

    def log(self) -> "FactorSeries":
        """log(1 + y) = sum_(k >= 1) (-1)^(k+1) y^k / k for y = self - 1 divisible by z."""
        if self.elem.scalar_part() != HalfQSeries.one(self.order):
            raise ValueError("log on factor series needs the z^0 term 1")
        coeffs = [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, self.z_degree + 1)]
        return FactorSeries(_power_series(self.elem - 1, coeffs))

    def is_even_in_z(self) -> bool:
        return all(c.is_zero() for c in self.coeffs[1::2])

    def at_power_sums(self, sums) -> CohElement:
        """sum_k c_k p_k, the factor summed over roots w_i whose power sums p_k = sum_i w_i^k
        are the q-free (order-0) classes `sums`: series-times-rational scalings alone."""
        terms = [p.scaled(c) for c, p in zip(self.coeffs, sums) if not c.is_zero()]
        return cohring.sum_of_elements([CohElement.zero(sums[0].presentation, self.order)] + terms)

    def at_class(self, lc: LinearClass) -> CohElement:
        """Substitute the nilpotent slot by a degree-2 class: z -> lc."""
        return self.at_power_sums(cohring.power_sums([lc], lc.presentation, self.z_degree))

    def eval_complex(self, z0: complex, u0: complex) -> complex:
        acc = complex(0)
        for c in reversed(self.coeffs):
            acc = acc * z0 + c.eval_numeric(u0)[0]
        return acc


def _half_argument_series(z_degree: int, order: int, shift: int) -> FactorSeries:
    # sum_k z^(2k) / (4^k (2k + shift)!): cosh(z/2) for shift 0, 2 sinh(z/2)/z for shift 1
    terms = {
        (2 * k,): HalfQSeries.constant(Fraction(1, 4**k * math.factorial(2 * k + shift)), order)
        for k in range(z_degree // 2 + 1)
    }
    return FactorSeries(CohElement(z_ring(z_degree), order, terms))


def a_hat_factor_series(z_degree: int, order: int) -> FactorSeries:
    """z / (e^(z/2) - e^(-z/2)): the q -> 0 degeneration of the odd factor."""
    return _half_argument_series(z_degree, order, 1).invert()


def log_product_series(sign: int, half_shift: bool, z_degree: int, order: int) -> FactorSeries:
    """log of prod_j (1 + s t_j e^z)(1 + s t_j e^-z) / (1 + s t_j)^2.

    Here t_j runs over q^j (half_shift False) or q^(j-1/2) (half_shift True):
    sum over j, k of (-1)^(k+1) s^k (t_j^k / k) (e^(kz) + e^(-kz) - 2).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    half_max = z_degree // 2
    # the z^(2m) coefficient of (-1)^(k+1) s^k / k * (e^(kz) + e^(-kz) - 2) is
    # 2 (-1)^(k+1) s^k k^(2m-1) / (2m)!: integer numerators over (2m)!
    weights = [[0] * (order + 1) for _ in range(half_max + 1)]
    start = 1 if half_shift else 2
    for level in range(start, order + 1, 2):
        for k in range(1, order // level + 1):
            term = 2 * (-1) ** (k + 1) * sign**k * k
            for m in range(1, half_max + 1):
                weights[m][level * k] += term
                term *= k * k
    terms = {
        (2 * m,): qseries.from_numerators(order, tuple(weights[m]), math.factorial(2 * m))
        for m in range(1, half_max + 1)
    }
    return FactorSeries(CohElement(z_ring(z_degree), order, terms))


# Memoized by value (kind, z-degree, order): every genus of one manifold and
# order shares the factor and its log, so both are read-only.  64 entries hold
# 4 kinds over the z-degrees and orders of a sweep; the bound keeps a
# long-lived process from pinning every long-order factor it ever built.
@functools.lru_cache(maxsize=64)
def factor_log(kind: ThetaKind, z_degree: int, order: int) -> FactorSeries:
    """log of the normalized theta factor (see elliptic_factor): the product's log, plus
    log cosh(z/2) for THETA1; for THETA, minus that of 2 sinh(z/2)/z and the product."""
    if z_degree < 0 or z_degree % 2 != 0:
        raise ValueError("z_degree must be a non-negative even integer")
    if not isinstance(kind, ThetaKind):
        raise TypeError(f"unknown theta kind {kind!r}")
    log_part = log_product_series(kind.sign, kind.half, z_degree, order)
    if kind.half:
        return log_part
    # the front carries no q: its log is taken at order 0, then lifted to the order
    front = _half_argument_series(z_degree, 0, int(kind is ThetaKind.THETA)).log()
    front = FactorSeries(front.elem.scaled(HalfQSeries.one(order)))
    return front + log_part if kind is ThetaKind.THETA1 else -(front + log_part)


@functools.lru_cache(maxsize=64)
def elliptic_factor(kind: ThetaKind, z_degree: int, order: int) -> FactorSeries:
    """exp(factor_log): the normalized theta factor attached to one Chern root.

    THETA  : z * theta'(0) / theta(z)
    THETA1 : theta1(z) / theta1(0)
    THETA2 : theta2(z) / theta2(0)
    THETA3 : theta3(z) / theta3(0)

    all with e^(2*pi*i*v) = e^z; each is even in z with constant term 1.
    The result is cached and shared: treat it as read-only.
    """
    return factor_log(kind, z_degree, order).exp()


def jacobi_identity_exact(order: int) -> bool:
    """Check prod (1+q^j)(1-q^(j-1/2))(1+q^(j-1/2)) = 1 to the given order.

    This is the theta derivative identity theta'(0) = pi theta1 theta2 theta3
    with both sides divided by 2 pi q^(1/8) prod (1-q^j)^3.
    """
    prod = (
        qseries.eta_like_product(1, False, 1, order)
        * qseries.eta_like_product(-1, True, 1, order)
        * qseries.eta_like_product(1, True, 1, order)
    )
    return prod == HalfQSeries.one(order)


# ---------------------------------------------------------------------------
# numeric evaluation of the literal products
# ---------------------------------------------------------------------------

_Jet = tuple[complex, complex, complex, complex]


def _jet_scale(a: _Jet, s: complex) -> _Jet:
    return (a[0] * s, a[1] * s, a[2] * s, a[3] * s)


def _theta_jet(kind: ThetaKind, v: complex, tau: complex, terms: int) -> _Jet:
    """Value and first three v-derivatives of the truncated product."""
    if not isinstance(kind, ThetaKind):
        raise TypeError(f"unknown theta kind {kind!r}")
    if tau.imag <= 0:
        raise InvalidTau(f"Im(tau) = {tau.imag} must be positive")
    if terms < 1:
        raise ValueError("at least one product term is required")
    q = cmath.exp(2j * cmath.pi * tau)
    a = 2j * cmath.pi
    w_plus = cmath.exp(a * v)  # e^(2 pi i v) jet seed
    jet_plus: _Jet = (w_plus, a * w_plus, a * a * w_plus, a**3 * w_plus)
    w_minus = 1.0 / w_plus
    jet_minus: _Jet = (w_minus, -a * w_minus, a * a * w_minus, -(a**3) * w_minus)

    sign, half = kind.sign, kind.half
    if half:
        a0, a1, a2, a3 = 1.0, 0j, 0j, 0j
    else:
        # 2 q^(1/8) sin(pi v) for the odd kind, 2 q^(1/8) cos(pi v) for THETA1
        pi = cmath.pi
        s, c = cmath.sin(pi * v), cmath.cos(pi * v)
        if kind is ThetaKind.THETA:
            front: _Jet = (s, pi * c, -pi * pi * s, -pi**3 * c)
        else:
            front = (c, -pi * s, -pi * pi * c, pi**3 * s)
        a0, a1, a2, a3 = _jet_scale(front, 2 * cmath.exp(1j * cmath.pi * tau / 4))

    # Per level the jet (a0, a1, a2, a3), kept in locals, is scaled by 1 - q^j and
    # Leibniz-multiplied by the level factors 1 + s t e^(+-2 pi i v), the jets
    # (1 + b0, b1, b2, b3): the float operations of a tuple jet product, in order.
    for j in range(1, terms + 1):
        qj = q**j
        # half-integer q-powers must follow tau, not a principal branch of q
        st = sign * (cmath.exp(2j * cmath.pi * tau * (j - 0.5)) if half else qj)
        scale = 1.0 - qj
        a0, a1, a2, a3 = a0 * scale, a1 * scale, a2 * scale, a3 * scale
        for p0, p1, p2, p3 in (jet_plus, jet_minus):
            b0, b1, b2, b3 = 1.0 + p0 * st, p1 * st, p2 * st, p3 * st
            a0, a1, a2, a3 = (a0 * b0, a1 * b0 + a0 * b1, a2 * b0 + 2 * a1 * b1 + a0 * b2,
                              a3 * b0 + 3 * a2 * b1 + 3 * a1 * b2 + a0 * b3)
    return a0, a1, a2, a3


def theta_numeric(kind: ThetaKind, v: complex, tau: complex, terms: int = 60) -> complex:
    """The literal truncated product definition, evaluated at (v, tau)."""
    return _theta_jet(kind, v, tau, terms)[0]


def theta_numeric_dv(
    kind: ThetaKind, v: complex, tau: complex, terms: int = 60, deriv_order: int = 1
) -> complex:
    """d^n/dv^n of the truncated product, n <= 3, by differentiating the
    finite product term by term (never finite differences)."""
    if not 0 <= deriv_order <= 3:
        raise ValueError("derivative order must lie in 0..3")
    return _theta_jet(kind, v, tau, terms)[deriv_order]


# ---------------------------------------------------------------------------
# transformation laws
# ---------------------------------------------------------------------------

# tau -> tau + 1 : (prefactor, image kind); tau -> -1/tau picks up
# sqrt(tau/i) e^(pi i tau v^2) and rescales v to tau*v.
_T_LAW = {
    ThetaKind.THETA: (cmath.exp(1j * cmath.pi / 4), ThetaKind.THETA),
    ThetaKind.THETA1: (cmath.exp(1j * cmath.pi / 4), ThetaKind.THETA1),
    ThetaKind.THETA2: (1.0, ThetaKind.THETA3),
    ThetaKind.THETA3: (1.0, ThetaKind.THETA2),
}
_S_LAW = {
    ThetaKind.THETA: (-1j, ThetaKind.THETA),
    ThetaKind.THETA1: (1.0, ThetaKind.THETA2),
    ThetaKind.THETA2: (1.0, ThetaKind.THETA1),
    ThetaKind.THETA3: (1.0, ThetaKind.THETA3),
}


def transformation_law_residual(
    kind: ThetaKind, law: str, v: complex, tau: complex, terms: int = 60
) -> float:
    """|lhs - rhs| for one of the eight theta transformation laws.

    law "T" compares theta_kind(v, tau+1) with its stated image at tau;
    law "S" compares theta_kind(v, -1/tau) with
    prefactor * sqrt(tau/i) * exp(pi i tau v^2) * image(tau v, tau).
    """
    if law == "T":
        prefactor, image = _T_LAW[kind]
        lhs = theta_numeric(kind, v, tau + 1, terms)
        rhs = prefactor * theta_numeric(image, v, tau, terms)
        return abs(lhs - rhs)
    if law == "S":
        prefactor, image = _S_LAW[kind]
        lhs = theta_numeric(kind, v, -1.0 / tau, terms)
        automorphy = cmath.sqrt(tau / 1j) * cmath.exp(1j * cmath.pi * tau * v * v)
        rhs = prefactor * automorphy * theta_numeric(image, tau * v, tau, terms)
        return abs(lhs - rhs)
    raise ValueError("law must be 'T' or 'S'")


DEFAULT_LAW_SAMPLES = (
    (0.13 + 0.04j, 1.1j),
    (0.21, 0.3 + 1.2j),
    (0.08 - 0.05j, -0.2 + 0.9j),
)


def product_tail(v: complex, tau: complex, terms: int = 60) -> float:
    """Heuristic estimate of the relative truncation error of the theta
    products at (v, tau): |q|^(terms+1/2) (1 + |w| + 1/|w|) / (1 - |q|) with
    w = e^(2 pi i v), the first omitted factors' size over a geometric tail.
    Not a certified bound; inf where |q| rounds to 1."""
    q = math.exp(-2 * math.pi * tau.imag)
    if q >= 1.0:
        return math.inf
    w = math.exp(-2 * math.pi * v.imag)
    return q ** (terms + 0.5) * (1 + w + 1 / w) / (1 - q)


def transformation_law_tail(samples=DEFAULT_LAW_SAMPLES, terms: int = 60) -> float:
    """The largest product_tail over every (v, tau) at which
    transformation_law_table evaluates a product: (v, tau), (v, tau + 1),
    (v, -1/tau) and (tau v, tau) per sample; tau + 1 has the tail of tau."""
    if not (samples := tuple(samples)):
        raise ValueError("at least one (v, tau) sample is needed")
    return max(
        product_tail(point_v, point_tau, terms)
        for v, tau in samples
        for point_v, point_tau in ((v, tau), (v, -1.0 / tau), (tau * v, tau))
    )


def transformation_law_table(samples=DEFAULT_LAW_SAMPLES, terms: int = 60):
    """Residuals of all eight laws at the given (v, tau) samples."""
    if not (samples := tuple(samples)):
        raise ValueError("at least one (v, tau) sample is needed")
    rows = []
    for kind in ThetaKind:
        for law in ("T", "S"):
            worst = max(
                transformation_law_residual(kind, law, v, tau, terms) for v, tau in samples
            )
            rows.append((kind, law, worst))
    return rows
