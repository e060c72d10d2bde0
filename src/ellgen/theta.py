"""The four Jacobi theta functions, in two representations.

Exact representation: each theta quotient becomes a "factor series", an
element of Q[z]/(z^(d+1)) with HalfQSeries coefficients (a CohElement over
the one-generator ring `z_ring(d)`), normalized so its value at z = 0 is the
constant series 1 (and the odd kind is divided by its simple zero).  These
use the substitution e^(2*pi*i*v) = e^z, which clears every pi and keeps all
coefficients rational.  Genus integrands are built from them by `at_class`,
the substitution z -> a Chern root class.

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

from . import qseries
from .cohring import CohElement, LinearClass, RingPresentation, exp_nilpotent
from .qseries import HalfQSeries


class InvalidTau(ValueError):
    """tau outside the upper half plane."""


class ThetaKind(enum.Enum):
    THETA = "theta"
    THETA1 = "theta1"
    THETA2 = "theta2"
    THETA3 = "theta3"


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

    def is_even_in_z(self) -> bool:
        return all(c.is_zero() for c in self.coeffs[1::2])

    def at_class(self, lc: LinearClass) -> CohElement:
        """Substitute the nilpotent slot by a degree-2 class: z -> lc."""
        coeffs = self.coeffs
        out = CohElement.scalar(lc.presentation, self.order, coeffs[0])
        power = CohElement.one(lc.presentation, self.order)
        base = lc.as_element(self.order)
        for k in range(1, self.z_degree + 1):
            power = power * base
            if power.is_zero():
                break
            out = out + power * coeffs[k]
        return out

    def eval_complex(self, z0: complex, u0: complex) -> complex:
        acc = complex(0)
        for c in reversed(self.coeffs):
            acc = acc * z0 + c.eval_numeric(u0)[0]
        return acc


def _half_argument_series(z_degree: int, order: int, shift: int) -> FactorSeries:
    # sum_k z^(2k) / (4^k (2k + shift)!): cosh(z/2) for shift 0,
    # 2*sinh(z/2)/z for shift 1
    terms = {
        (2 * k,): HalfQSeries.constant(Fraction(1, 4**k * math.factorial(2 * k + shift)), order)
        for k in range(z_degree // 2 + 1)
    }
    return FactorSeries(CohElement(z_ring(z_degree), order, terms))


def cosh_half_series(z_degree: int, order: int) -> FactorSeries:
    """cosh(z/2) as an exact factor series."""
    return _half_argument_series(z_degree, order, 0)


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
    # scalar weight of u^p for each z^(2m): accumulate over levels and k
    weights = [[Fraction(0)] * (order + 1) for _ in range(half_max + 1)]
    start = 1 if half_shift else 2
    for level in range(start, order + 1, 2):
        k = 1
        while level * k <= order:
            c = Fraction((-1) ** (k + 1) * sign**k, k)
            for m in range(1, half_max + 1):
                # z^(2m) coefficient of e^(kz) + e^(-kz) - 2
                weights[m][level * k] += c * Fraction(2 * k ** (2 * m), math.factorial(2 * m))
            k += 1
    terms = {(2 * m,): HalfQSeries(order, weights[m]) for m in range(1, half_max + 1)}
    return FactorSeries(CohElement(z_ring(z_degree), order, terms))


def elliptic_factor(kind: ThetaKind, z_degree: int, order: int) -> FactorSeries:
    """The normalized theta factor attached to one Chern root.

    THETA  : z * theta'(0) / theta(z)
    THETA1 : theta1(z) / theta1(0)
    THETA2 : theta2(z) / theta2(0)
    THETA3 : theta3(z) / theta3(0)

    all with e^(2*pi*i*v) = e^z; each is even in z with constant term 1.
    """
    if z_degree < 0 or z_degree % 2 != 0:
        raise ValueError("z_degree must be a non-negative even integer")
    if kind is ThetaKind.THETA:
        # infinite product sits in the denominator: exponential of -log
        log_part = log_product_series(-1, False, z_degree, order)
        return a_hat_factor_series(z_degree, order) * (-log_part).exp()
    if kind is ThetaKind.THETA1:
        return cosh_half_series(z_degree, order) * log_product_series(
            1, False, z_degree, order
        ).exp()
    if kind is ThetaKind.THETA2:
        return log_product_series(-1, True, z_degree, order).exp()
    if kind is ThetaKind.THETA3:
        return log_product_series(1, True, z_degree, order).exp()
    raise TypeError(f"unknown theta kind {kind!r}")


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

_JET_ZERO: _Jet = (0j, 0j, 0j, 0j)


def _jet_const(c: complex) -> _Jet:
    return (c, 0j, 0j, 0j)


def _jet_mul(a: _Jet, b: _Jet) -> _Jet:
    return (
        a[0] * b[0],
        a[1] * b[0] + a[0] * b[1],
        a[2] * b[0] + 2 * a[1] * b[1] + a[0] * b[2],
        a[3] * b[0] + 3 * a[2] * b[1] + 3 * a[1] * b[2] + a[0] * b[3],
    )


def _jet_add(a: _Jet, b: _Jet) -> _Jet:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _jet_scale(a: _Jet, s: complex) -> _Jet:
    return (a[0] * s, a[1] * s, a[2] * s, a[3] * s)


def _check_tau(tau: complex, terms: int):
    if tau.imag <= 0:
        raise InvalidTau(f"Im(tau) = {tau.imag} must be positive")
    if terms < 1:
        raise ValueError("at least one product term is required")


def _theta_jet(kind: ThetaKind, v: complex, tau: complex, terms: int) -> _Jet:
    """Value and first three v-derivatives of the truncated product."""
    _check_tau(tau, terms)
    q = cmath.exp(2j * cmath.pi * tau)
    a = 2j * cmath.pi
    w_plus = cmath.exp(a * v)  # e^(2 pi i v) jet seed
    jet_plus: _Jet = (w_plus, a * w_plus, a * a * w_plus, a**3 * w_plus)
    w_minus = 1.0 / w_plus
    jet_minus: _Jet = (w_minus, -a * w_minus, a * a * w_minus, -(a**3) * w_minus)

    if kind is ThetaKind.THETA:
        pi = cmath.pi
        s, c = cmath.sin(pi * v), cmath.cos(pi * v)
        acc: _Jet = _jet_scale(
            (s, pi * c, -pi * pi * s, -pi**3 * c), 2 * cmath.exp(1j * cmath.pi * tau / 4)
        )
        sign, half = -1, False
    elif kind is ThetaKind.THETA1:
        pi = cmath.pi
        s, c = cmath.sin(pi * v), cmath.cos(pi * v)
        acc = _jet_scale(
            (c, -pi * s, -pi * pi * c, pi**3 * s), 2 * cmath.exp(1j * cmath.pi * tau / 4)
        )
        sign, half = 1, False
    elif kind is ThetaKind.THETA2:
        acc = _jet_const(1.0)
        sign, half = -1, True
    elif kind is ThetaKind.THETA3:
        acc = _jet_const(1.0)
        sign, half = 1, True
    else:
        raise TypeError(f"unknown theta kind {kind!r}")

    for j in range(1, terms + 1):
        qj = q**j
        # half-integer q-powers must follow tau, not a principal branch of q
        level = cmath.exp(2j * cmath.pi * tau * (j - 0.5)) if half else qj
        acc = _jet_mul(acc, _jet_const(1.0 - qj))
        acc = _jet_mul(acc, _jet_add(_jet_const(1.0), _jet_scale(jet_plus, sign * level)))
        acc = _jet_mul(acc, _jet_add(_jet_const(1.0), _jet_scale(jet_minus, sign * level)))
    return acc


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


def transformation_law_table(samples=DEFAULT_LAW_SAMPLES, terms: int = 60):
    """Residuals of all eight laws at the given (v, tau) samples."""
    rows = []
    for kind in ThetaKind:
        for law in ("T", "S"):
            worst = max(
                transformation_law_residual(kind, law, v, tau, terms) for v, tau in samples
            )
            rows.append((kind, law, worst))
    return rows
