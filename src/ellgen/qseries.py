"""Exact arithmetic for truncated formal series in u = q^(1/2).

Every series in this package lives in one scalar ring: dense polynomials in
the half-power variable u (so q = u^2) truncated at a fixed order, with
exact rational coefficients.  A series "lives in Q[[q]]" exactly when all
odd-index coefficients vanish; `is_integral` tests that.

Binary operations truncate to the minimum of the two orders.  We never pad
a shorter series with assumed zeros: coefficients beyond a series' stated
order are unknown, not zero.

The product kernel is sparse: it lists the nonzero (index, coefficient)
entries of both operands and stops each row once the index sum passes the
order, so multiplying by a monomial or by a factor 1 + s*u^k costs O(N)
rather than O(N^2).  `invert` skips zero coefficients the same way.
Arithmetic results are built by `_series`, which trusts its caller to pass
order + 1 Fractions; only the public constructor converts and validates.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

_ZERO = Fraction(0)


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
        cs.extend([_ZERO] * (order + 1 - len(cs)))
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
        if k < 0:
            raise ValueError("u-power exponent must be >= 0")
        zero = cls(order)
        if k > order:
            return zero
        cs = list(zero.coeffs)
        cs[k] = Fraction(value)
        return _series(order, tuple(cs))

    # -- basic queries -----------------------------------------------------

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"u^{k} is not tracked at order {self.order}")
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_integral(self) -> bool:
        """True iff the series lies in Q[[q]] (odd u-coefficients vanish)."""
        return not any(self.coeffs[1::2])

    def truncate(self, order: int) -> "HalfQSeries":
        if order >= self.order:
            return self
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        return _series(order, self.coeffs[: order + 1])

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, HalfQSeries):
            # zip stops at the shorter tuple: the sum has the smaller order
            pairs = zip(self.coeffs, other.coeffs)
            return _series(
                min(self.order, other.order),
                tuple([(a + b if b else a) if a else b for a, b in pairs]),
            )
        if isinstance(other, (int, Fraction)):
            return _series(self.order, (self.coeffs[0] + other,) + self.coeffs[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _series(self.order, tuple([-c if c else c for c in self.coeffs]))

    def __sub__(self, other):
        if isinstance(other, (HalfQSeries, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, HalfQSeries):
            n = min(self.order, other.order)
            right = _nonzero_terms(other.coeffs[: n + 1])
            out = [None] * (n + 1)
            for i, a in _nonzero_terms(self.coeffs[: n + 1]):
                room = n - i
                for j, b in right:
                    if j > room:
                        break
                    acc = out[i + j]
                    out[i + j] = a * b if acc is None else acc + a * b
            return _series(n, tuple([_ZERO if c is None else c for c in out]))
        if isinstance(other, (int, Fraction)):
            return _series(self.order, tuple([c * other if c else c for c in self.coeffs]))
        return NotImplemented

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
            e >>= 1
            if e:
                base = base * base
        return result

    def invert(self) -> "HalfQSeries":
        """Multiplicative inverse to the truncation order."""
        c0 = self.coeffs[0]
        if not c0:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        inv0 = 1 / c0
        neg_inv0 = -inv0
        rest = _nonzero_terms(self.coeffs)[1:]
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = None
            for i, c in rest:
                if i > k:
                    break
                prev = out[k - i]
                if prev:
                    acc = c * prev if acc is None else acc + c * prev
            out.append(_ZERO if acc is None else neg_inv0 * acc)
        return _series(self.order, tuple(out))

    def tau_plus_one(self) -> "HalfQSeries":
        """Pullback under tau -> tau + 1, i.e. u -> -u (sign on odd powers)."""
        return _series(
            self.order, tuple([-c if k & 1 and c else c for k, c in enumerate(self.coeffs)])
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

        Returns (value, tail_estimate) where the estimate is
        |u|^(N+1) * max|c_k| over the last five tracked terms / (1 - |u|).
        It is a heuristic estimate, not certified; see ROADMAP item 5.
        """
        r = abs(u)
        if r >= 1.0:
            raise DivergentTail(f"|u| = {r} >= 1; truncated tail does not converge")
        acc = complex(0)
        for c in reversed(self.coeffs):
            acc = acc * u + complex(c)
        last = self.coeffs[-5:] if self.order >= 4 else self.coeffs
        peak = max((abs(float(c)) for c in last), default=0.0)
        estimate = r ** (self.order + 1) * peak / (1.0 - r)
        return acc, estimate

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


def _series(order: int, coeffs: tuple) -> HalfQSeries:
    """A HalfQSeries from exactly order + 1 Fractions, taken as they are."""
    out = object.__new__(HalfQSeries)
    out.order = order
    out.coeffs = coeffs
    return out


def _nonzero_terms(coeffs) -> list:
    """The (index, coefficient) pairs of the nonzero coefficients, by index."""
    return [(i, c) for i, c in enumerate(coeffs) if c]


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
