"""Exact arithmetic for truncated formal series in u = q^(1/2).

Every series in this package lives in one scalar ring: dense polynomials in
the half-power variable u (so q = u^2) truncated at a fixed order, with
exact rational coefficients.  A series "lives in Q[[q]]" exactly when all
odd-index coefficients vanish; `is_integral` tests that.

Binary operations truncate to the minimum of the two orders.  We never pad
a shorter series with assumed zeros: coefficients beyond a series' stated
order are unknown, not zero.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


class ZeroConstantTerm(ZeroDivisionError):
    """Inversion of a series whose constant term is zero."""


class DivergentTail(ValueError):
    """Numeric evaluation requested at |u| >= 1."""


def parse_rational(text: str | int) -> Fraction:
    """Parse "p/q" (or a bare integer) into a Fraction; ValueError if malformed."""
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", always including the denominator."""
    return f"{value.numerator}/{value.denominator}"


def power_label(k: int) -> str:
    """Label for the u^k term: u^(2m) -> "q^m", u^(2m+1) -> "q^{(2m+1)/2}"."""
    if k % 2 == 0:
        return f"q^{k // 2}"
    return "q^{%d/2}" % k


class HalfQSeries:
    """A series sum_{k=0}^{N} c_k u^k with Fraction coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()) -> None:
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the truncation order tracks")
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        self.order = order
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "HalfQSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "HalfQSeries":
        return cls(order, (Fraction(1),))

    @classmethod
    def constant(cls, value, order: int) -> "HalfQSeries":
        return cls(order, (Fraction(value),))

    @classmethod
    def u_power(cls, k: int, order: int, value=1) -> "HalfQSeries":
        """The monomial value * u^k (zero if k exceeds the order)."""
        if k > order:
            return cls(order)
        cs = [Fraction(0)] * (k + 1)
        cs[k] = Fraction(value)
        return cls(order, cs)

    # -- basic queries -----------------------------------------------------

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"u^{k} is not tracked at order {self.order}")
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_integral(self) -> bool:
        """True iff the series lies in Q[[q]] (odd u-coefficients vanish)."""
        return all(c == 0 for c in self.coeffs[1::2])

    def truncate(self, order: int) -> "HalfQSeries":
        if order >= self.order:
            return self
        return HalfQSeries(order, self.coeffs[: order + 1])

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, HalfQSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return HalfQSeries.constant(other, self.order)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        return HalfQSeries(n, [a + b for a, b in zip(self.coeffs, rhs.coeffs)][: n + 1])

    __radd__ = __add__

    def __neg__(self):
        return HalfQSeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return HalfQSeries(self.order, [c * f for c in self.coeffs])
        n = min(self.order, rhs.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = rhs.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return HalfQSeries(n, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "HalfQSeries":
        if exponent < 0:
            return self.invert() ** (-exponent)
        result = HalfQSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def invert(self) -> "HalfQSeries":
        """Multiplicative inverse to the truncation order."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        inv0 = Fraction(1) / c0
        out = [inv0] + [Fraction(0)] * self.order
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                if self.coeffs[i] != 0:
                    acc += self.coeffs[i] * out[k - i]
            out[k] = -inv0 * acc
        return HalfQSeries(self.order, out)

    def tau_plus_one(self) -> "HalfQSeries":
        """Pullback under tau -> tau + 1, i.e. u -> -u (sign on odd powers)."""
        return HalfQSeries(
            self.order, [c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, HalfQSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    # -- numerics ----------------------------------------------------------

    def eval_numeric(self, u: complex) -> tuple[complex, float]:
        """Horner evaluation at a complex u with |u| < 1.

        Returns (value, tail_bound) where the bound is
        |u|^(N+1) * max|c_k| over the last five tracked terms / (1 - |u|).
        """
        r = abs(u)
        if r >= 1.0:
            raise DivergentTail(f"|u| = {r} >= 1; truncated tail does not converge")
        acc = complex(0)
        for c in reversed(self.coeffs):
            acc = acc * u + complex(c)
        last = self.coeffs[-5:] if self.order >= 4 else self.coeffs
        peak = max((abs(float(c)) for c in last), default=0.0)
        bound = r ** (self.order + 1) * peak / (1.0 - r)
        return acc, bound

    # -- rendering ---------------------------------------------------------

    def term_strings(self) -> list[tuple[str, str]]:
        """(power label, exact fraction) pairs for the nonzero terms."""
        return [
            (power_label(k), format_rational(c))
            for k, c in enumerate(self.coeffs)
            if c != 0
        ]

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = str(abs(c)) if k == 0 else (
                power_label(k) if abs(c) == 1 else f"{abs(c)}*{power_label(k)}"
            )
            parts.append(("- " if c < 0 else "+ ") + mag)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"HalfQSeries(order={self.order}, {self})"


# module-level aliases kept because perfbench/tracer.py wraps them by name
def add(a: HalfQSeries, b: HalfQSeries) -> HalfQSeries:
    return a + b


def mul(a: HalfQSeries, b: HalfQSeries) -> HalfQSeries:
    return a * b


def invert(a: HalfQSeries) -> HalfQSeries:
    return a.invert()


def eval_numeric(a: HalfQSeries, u: complex) -> tuple[complex, float]:
    return a.eval_numeric(u)


def eta_like_product(sign: int, half_shift: bool, exponent: int, order: int) -> HalfQSeries:
    """prod_{j>=1} (1 + sign * q^(j - half_shift/2))^exponent, truncated.

    In u the factor exponents are 2j (integer levels) or 2j - 1 (half
    levels), so only finitely many factors touch u^0..u^N.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    base = HalfQSeries.one(order)
    step = 2
    start = 1 if half_shift else 2
    for upow in range(start, order + 1, step):
        base = base * (HalfQSeries.one(order) + HalfQSeries.u_power(upow, order, sign))
    if exponent < 0:
        return base.invert() ** (-exponent)
    return base ** exponent
