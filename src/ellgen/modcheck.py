"""Modular behavior verification.

T-type checks are exact (tau -> tau + 1 flips the sign of odd u-powers);
S-type and general group checks are numeric falsification tests: evaluate
the truncated series at sample points, form the weight-k transformation
ratio, and require the ratios to be mutually consistent and unimodular.
The character value is measured from the data, never assumed.

These checks can refute modularity up to the stated tolerance; they do not
certify it.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass, field

from .qseries import DivergentTail, HalfQSeries


class TailTooLarge(ValueError):
    """Series truncation tail exceeds the check tolerance at a sample."""


@dataclass(frozen=True)
class SL2Matrix:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    def __matmul__(self, other: "SL2Matrix") -> "SL2Matrix":
        return SL2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def act(self, tau: complex) -> complex:
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def cocycle(self, tau: complex) -> complex:
        return self.c * tau + self.d

    def word(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


S = SL2Matrix(0, -1, 1, 0)
T = SL2Matrix(1, 1, 0, 1)


class GroupSpec(enum.Enum):
    SL2Z = "SL2Z"
    Gamma0_2 = "Gamma0_2"
    Gamma_up0_2 = "Gamma_up0_2"
    GammaTheta = "GammaTheta"

    def generators(self) -> tuple[SL2Matrix, ...]:
        if self is GroupSpec.SL2Z:
            return (S, T)
        if self is GroupSpec.Gamma0_2:
            return (T, S @ T @ T @ S @ T)
        if self is GroupSpec.Gamma_up0_2:
            return (S @ T @ S, T @ T @ S @ T @ S)
        return (S, T @ T)


DEFAULT_TAU_SAMPLES = (1.1j, 0.3 + 1.2j)


def check_T_exact(f: HalfQSeries, expected: HalfQSeries | None = None) -> bool:
    """tau -> tau + 1 acts exactly on coefficients; compare to expected
    (or to f itself for T-invariance of integral series)."""
    return f.tau_plus_one() == (expected if expected is not None else f)


def _eval_with_tail(f: HalfQSeries, tau: complex, tol: float):
    u = cmath.exp(1j * cmath.pi * tau)
    try:
        value, bound = f.eval_numeric(u)
    except (DivergentTail, OverflowError) as exc:
        # |u| rounds to 1, or a coefficient is too large for a float
        raise TailTooLarge(f"truncation tail at tau = {tau} cannot be evaluated: {exc}") from exc
    if bound >= tol / 10.0:
        raise TailTooLarge(
            f"truncation tail {bound:.3e} at tau = {tau} exceeds tol/10 = {tol / 10:.3e}"
        )
    return value


def _transform_values(f_left, f_right, g: SL2Matrix, weight: int, tau_samples, tol: float,
                      right_at=None):
    """(f_left(g tau), (c tau + d)^weight f_right(tau)) at each sample tau, in order and
    f_left first; `right_at` (sample index -> f_right(tau)) stands in for evaluations."""
    if not tau_samples:
        raise ValueError("at least one tau sample is needed")
    right_at = {} if right_at is None else right_at
    values = []
    for i, tau in enumerate(tau_samples):
        left = _eval_with_tail(f_left, g.act(tau), tol)
        if i not in right_at:
            right_at[i] = _eval_with_tail(f_right, tau, tol)
        values.append((left, g.cocycle(tau) ** weight * right_at[i]))
    return values


@dataclass
class TransformReport:
    matrix: SL2Matrix
    weight: int
    tol: float
    samples: tuple[complex, ...]
    ratios: list[complex] = field(default_factory=list)
    character: complex | None = None
    trivially_zero: bool = False
    passed: bool = False
    max_spread: float = 0.0
    max_unimodular_defect: float = 0.0

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        if self.trivially_zero:
            return f"{status} {self.matrix.word()} (series is 0)"
        if self.character is None:  # check_numeric refused the last sample it tried
            tau = self.samples[len(self.ratios) - 1]
            return f"{status} {self.matrix.word()} (f vanishes at tau = {tau})"
        return (
            f"{status} {self.matrix.word()} chi = {self.character:.6f} "
            f"spread = {self.max_spread:.2e} |chi|-1 = {self.max_unimodular_defect:.2e}"
        )


def check_numeric(
    f: HalfQSeries,
    g: SL2Matrix,
    weight: int,
    tau_samples=DEFAULT_TAU_SAMPLES,
    tol: float = 1e-8,
    *,
    _at_samples=None,
) -> TransformReport:
    """Measure f(g tau) / ((c tau + d)^weight f(tau)) at each sample.

    Passes when the ratios agree with each other within tol and each has
    modulus 1 within tol; the common ratio is reported as the character.
    A series that vanishes at every sample passes trivially.  `_at_samples`
    is private to check_group: f(tau) by sample index, shared by its checks.
    """
    report = TransformReport(matrix=g, weight=weight, tol=tol, samples=tuple(tau_samples))
    values = _transform_values(f, f, g, weight, report.samples, tol, _at_samples)
    scale = max(max(abs(l), abs(r)) for l, r in values)
    if scale < tol:
        report.trivially_zero = True
        report.passed = True
        return report
    for left, right in values:
        if abs(right) < tol * scale:
            report.ratios.append(complex("nan"))
            return report
        report.ratios.append(left / right)
    mean = sum(report.ratios) / len(report.ratios)
    report.character = mean
    report.max_spread = max(abs(r - mean) for r in report.ratios)
    report.max_unimodular_defect = max(abs(abs(r) - 1.0) for r in report.ratios)
    report.passed = report.max_spread <= tol and report.max_unimodular_defect <= tol
    return report


@dataclass
class GroupReport:
    group: GroupSpec
    reports: list[TransformReport]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def check_group(
    f: HalfQSeries,
    group: GroupSpec,
    weight: int,
    tau_samples=DEFAULT_TAU_SAMPLES,
    tol: float = 1e-8,
) -> GroupReport:
    """Run check_numeric for each generator of the group, evaluating each f(tau) once."""
    tau_samples, at_samples = tuple(tau_samples), {}
    reports = [check_numeric(f, g, weight, tau_samples, tol, _at_samples=at_samples)
               for g in group.generators()]
    return GroupReport(group=group, reports=reports)


@dataclass
class CrossTransformReport:
    """Compare f_left(g tau) against multiplier * (c tau + d)^weight * f_right(tau)."""

    matrix: SL2Matrix
    weight: int
    multiplier: complex
    samples: tuple[complex, ...]
    measured_ratios: list[complex]
    residuals: list[float]
    best_prefactor_exponent: float
    passed: bool

    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0


def cross_transform(
    f_left: HalfQSeries,
    f_right: HalfQSeries,
    weight: int,
    multiplier: complex = 1.0,
    g: SL2Matrix = S,
    tau_samples=DEFAULT_TAU_SAMPLES,
    tol: float = 1e-8,
) -> CrossTransformReport:
    """Numeric check of a cross-kind transformation law.

    Measures r(tau) = f_left(g tau) / ((c tau + d)^weight f_right(tau)),
    reports it, and passes when |f_left(g tau) - multiplier * rhs| < tol at
    every sample.  Also fits the exponent of an optional q-power prefactor
    (candidates in half-integer steps) and reports the best fit, which is
    expected to be 0.
    """
    tau_samples = tuple(tau_samples)
    values = _transform_values(f_left, f_right, g, weight, tau_samples, tol)
    ratios = [left / right if right != 0 else complex("nan") for left, right in values]
    residuals = [abs(left - multiplier * right) for left, right in values]

    best_exp, best_score = 0.0, float("inf")
    # candidates ordered by |c| so a tie (e.g. a zero series) reports 0
    for half_steps in sorted(range(-4, 5), key=abs):
        c = half_steps / 2.0
        score = max(
            abs(left - multiplier * cmath.exp(2j * cmath.pi * tau * c) * right)
            for tau, (left, right) in zip(tau_samples, values)
        )
        if score < best_score - 1e-15:
            best_exp, best_score = c, score
    return CrossTransformReport(
        matrix=g,
        weight=weight,
        multiplier=multiplier,
        samples=tau_samples,
        measured_ratios=ratios,
        residuals=residuals,
        best_prefactor_exponent=best_exp,
        passed=all(r < tol for r in residuals),
    )
