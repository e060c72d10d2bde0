"""Exact arithmetic for truncated formal series in u = q^(1/2).

Every series in this package lives in one scalar ring: dense polynomials in
the half-power variable u (so q = u^2) truncated at a fixed order, with
exact rational coefficients.  A series "lives in Q[[q]]" exactly when all
odd-index coefficients vanish, that is when `nums[1::2]` is all zero.

Binary operations truncate to the minimum of the two orders.  We never pad
a shorter series with assumed zeros: coefficients beyond a series' stated
order are unknown, not zero.

A series is stored as FLINT's fmpq_poly stores a polynomial: a tuple `nums`
of order + 1 integer numerators over one positive integer denominator `den`,
kept canonical (gcd(den, nums) = 1, and the zero series has den = 1), so
equality and hashing compare the fields.  `coeffs` is the Fraction view
nums[k] / den, built on first use and cached; no kernel or str reads it.
Numeric evaluation reads the float view nums[k] / den instead, cached alike.

- Every sum is one `sum_of_numerators` over the lcm of its parts'
  denominators, and `a + b` is its two-part case; a scalar product
  multiplies the numerators and the denominator.
- A series product multiplies the denominators and the integer numerator
  polynomials.  When both operands have more than _SPARSE_TERMS nonzero
  coefficients, that is one big-int product by Kronecker substitution
  (Harvey, J. Symbolic Comput. 44, 2009): each operand becomes one signed
  integer with w-bit digits, w wide enough for every product coefficient,
  and the product's digits are read back with a bias of 2^(w-1) each.
  Otherwise it is a plain convolution over the nonzero entries of the
  sparser operand, so a monomial or a factor 1 + s*u^k costs O(N).
- `invert` solves the inverse's recurrence over integers scaled by powers of
  the constant term, skipping zero coefficients.

Results are built by `from_numerators`, which divides out the gcd; `_series`
trusts a triple that is already canonical.  Only the public constructor
converts and validates.

Numerator tuples are made as tuple(list), never from an iterator: CPython
(3.11) builds such a tuple at a guessed size and resizes it, so on release
it joins the tuple free list of its final size without having been taken
from it, and up to 2000 tuples per size then stay parked there.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)

# a product takes the sparse convolution when one operand has at most this
# many nonzero coefficients, and Kronecker substitution otherwise
_SPARSE_TERMS = 4


class ZeroConstantTerm(ZeroDivisionError):
    """Inversion of a series whose constant term is zero."""


class DivergentTail(ValueError):
    """Numeric evaluation requested at |u| >= 1."""


# The numerator and denominator of a parsed rational have at most this many
# digits, below the least int -> str limit an interpreter can set (640), so
# every parsed value prints.  An exponent is read before Fraction expands it.
RATIONAL_DIGITS = 600
_RATIONAL_BOUND = 10**RATIONAL_DIGITS


def parse_rational(text: str | int) -> Fraction:
    """Parse "p/q", a decimal string or an int (not a bool); ValueError if bad or too large."""
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise ValueError(f"a rational must be a string or an integer, got {text!r}")
    exponent = isinstance(text, str) and re.search(r"[eE]([-+]?\d[\d_]*)\s*$", text)
    if not (exponent and abs(int(exponent[1])) > RATIONAL_DIGITS):
        try:
            value = Fraction(text)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {text!r}") from exc
        if max(abs(value.numerator), value.denominator) < _RATIONAL_BOUND:
            return value
    raise ValueError(f"a rational has more than {RATIONAL_DIGITS} digits")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", always including the denominator."""
    return f"{value.numerator}/{value.denominator}"


def power_label(k: int) -> str:
    """Label for the u^k term: u^(2m) -> "q^m", u^(2m+1) -> "q^{(2m+1)/2}"."""
    if k % 2 == 0:
        return f"q^{k // 2}"
    return "q^{%d/2}" % k


class HalfQSeries:
    """A series sum_{k=0}^{N} (nums[k] / den) u^k, stored canonically."""

    __slots__ = ("order", "nums", "den", "_coeffs", "_floats")

    def __init__(self, order: int, coeffs=()) -> None:
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the truncation order tracks")
        # over the lcm of reduced denominators the gcd with the numerators is 1
        den = lcm(*[c.denominator for c in cs])
        nums = [c.numerator * (den // c.denominator) for c in cs]
        nums.extend([0] * (order + 1 - len(nums)))
        self.order = order
        self.nums = tuple(nums)
        self.den = den
        self._coeffs = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "HalfQSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "HalfQSeries":
        return cls.u_power(0, order)

    @classmethod
    def constant(cls, value, order: int) -> "HalfQSeries":
        return cls.u_power(0, order, value)

    @classmethod
    def u_power(cls, k: int, order: int, value=1) -> "HalfQSeries":
        """The monomial value * u^k (zero if k exceeds the order)."""
        if k < 0:
            raise ValueError("u-power exponent must be >= 0")
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        value = Fraction(value)
        nums = [0] * (order + 1)
        if k > order or not value:
            return _series(order, tuple(nums), 1)
        nums[k] = value.numerator
        return _series(order, tuple(nums), value.denominator)

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions: built on first use, then cached."""
        view = self._coeffs
        if view is None:
            den = self.den
            view = self._coeffs = tuple([Fraction(c, den) if c else _ZERO for c in self.nums])
        return view

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"u^{k} is not tracked at order {self.order}")
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return not any(self.nums)

    def truncate(self, order: int) -> "HalfQSeries":
        if order >= self.order:
            return self
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        return from_numerators(order, self.nums[: order + 1], self.den)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, HalfQSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = HalfQSeries.constant(other, self.order)
        n = min(self.order, other.order)
        return sum_of_numerators(n, ((self.nums, self.den), (other.nums, other.den)))

    __radd__ = __add__

    def __neg__(self):
        return _series(self.order, tuple([-c for c in self.nums]), self.den)

    def __sub__(self, other):
        if isinstance(other, (HalfQSeries, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, HalfQSeries):
            n = min(self.order, other.order)
            nums = _int_product(self.nums[: n + 1], other.nums[: n + 1])
            return from_numerators(n, nums, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return from_numerators(
                self.order, tuple([c * p for c in self.nums]), self.den * other.denominator
            )
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
        """Multiplicative inverse to the truncation order.

        With A = den * self and a0 = A_0, the inverse of A is
        sum_k beta_k u^k / a0^(k+1) for the integers beta_0 = 1 and
        beta_k = -sum_{i=1..k} A_i a0^(i-1) beta_(k-i).
        """
        nums = self.nums
        a0 = nums[0]
        if not a0:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        n = self.order
        rest = []
        scale = 1
        for i in range(1, n + 1):
            if nums[i]:
                rest.append((i, nums[i] * scale))
            scale *= a0
        beta = [1]
        for k in range(1, n + 1):
            acc = 0
            for i, c in rest:
                if i > k:
                    break
                prev = beta[k - i]
                if prev:
                    acc += c * prev
            beta.append(-acc)
        # over the common denominator a0^(n+1), made positive
        sign = -1 if a0 < 0 and not n & 1 else 1
        lift = self.den * sign
        out = [0] * (n + 1)
        for k in range(n, -1, -1):
            out[k] = beta[k] * lift
            lift *= a0
        return from_numerators(n, tuple(out), abs(a0) ** (n + 1))

    def tau_plus_one(self) -> "HalfQSeries":
        """Pullback under tau -> tau + 1, i.e. u -> -u (sign on odd powers)."""
        return _series(
            self.order, tuple([-c if k & 1 else c for k, c in enumerate(self.nums)]), self.den
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, HalfQSeries):
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.order, self.den, self.nums))

    # -- numerics ----------------------------------------------------------

    def eval_numeric(self, u: complex) -> tuple[complex, float]:
        """Horner evaluation at a complex u with |u| < 1.

        Returns (value, tail_estimate) where the estimate is
        |u|^(N+1) * max|c_k| over the last five tracked terms / (1 - |u|).
        It is a heuristic estimate, not certified; see ROADMAP item 8.

        Each coefficient is the correctly rounded float nums[k] / den, the float
        of the reduced Fraction, read from a float view built on first use and
        cached; the Fraction view is never built.  A coefficient beyond the
        float range raises OverflowError while the view is built, uncached.
        """
        r = abs(u)
        if r >= 1.0:
            raise DivergentTail(f"|u| = {r} >= 1; truncated tail does not converge")
        try:
            floats = self._floats
        except AttributeError:  # left unset by the constructors: no store per new series
            floats = self._floats = tuple([c / self.den for c in self.nums])
        acc = complex(0)
        for c in reversed(floats):
            acc = acc * u + c
        peak = max(abs(c) for c in floats[-5:])
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
        """The nonzero terms "p/q*label" from the integer numerators: one gcd per term."""
        den, parts = self.den, []
        for k, c in enumerate(self.nums):
            if not c:
                continue
            g = gcd(c, den)
            mag = str(abs(c) // g) if g == den else f"{abs(c) // g}/{den // g}"
            if k:
                mag = power_label(k) if mag == "1" else f"{mag}*{power_label(k)}"
            parts.append(("- " if c < 0 else "+ ") + mag)
        text = " ".join(parts) or "+ 0"  # the zero series prints "0"
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"HalfQSeries(order={self.order}, {self})"


def _series(order: int, nums: tuple, den: int) -> HalfQSeries:
    """A HalfQSeries from a canonical triple, taken as it is."""
    out = object.__new__(HalfQSeries)
    out.order = order
    out.nums = nums
    out.den = den
    out._coeffs = None
    return out


def from_numerators(order: int, nums: tuple, den: int) -> HalfQSeries:
    """The series nums[k] / den from order + 1 ints and den > 0, gcd divided out."""
    if den != 1:
        g = gcd(den, gcd(*nums))
        if g != 1:
            den //= g
            nums = tuple([c // g for c in nums])
    return _series(order, nums, den)


def sum_of_numerators(order: int, parts) -> HalfQSeries:
    """sum_i nums_i / den_i over a nonempty list of (numerators, denominator) parts,
    each at least order + 1 numerators long, truncated to order: one pass per part
    over the lcm of the denominators, and one `from_numerators`."""
    (first, d0), rest = parts[0], parts[1:]
    den = lcm(d0, *[d for _, d in rest]) if rest else d0
    f = den // d0
    total = first[: order + 1] if f == 1 else [c * f for c in first[: order + 1]]
    for nums, d in rest:
        f = den // d
        if f == 1:
            total = list(map(operator.add, total, nums))  # map stops at the end of total
        else:
            total = [t + c * f for t, c in zip(total, nums)]
    return from_numerators(order, tuple(total), den)


def _digit_bytes(bound: int) -> int:
    """Bytes per Kronecker digit holding any integer of absolute value <= bound."""
    # 8 * bytes - 1 >= bound.bit_length(): |digit| < 2^(w-1) for w = 8 * bytes
    return bound.bit_length() // 8 + 1


def _int_product(a: tuple, b: tuple) -> tuple:
    """The first len(a) coefficients of the product of two integer polynomials.

    Both tuples have the same length.
    """
    size = len(a)
    if size == 1:
        return (a[0] * b[0],)
    terms_a = size - a.count(0)
    terms_b = size - b.count(0)
    if not terms_a or not terms_b:
        return tuple([0] * size)
    if terms_a > _SPARSE_TERMS and terms_b > _SPARSE_TERMS:
        bound = min(terms_a, terms_b) * max(map(abs, a)) * max(map(abs, b))
        return _kronecker_product(a, b, _digit_bytes(bound))
    if terms_a > terms_b:
        a, b = b, a
    out = [0] * size
    for i, c in enumerate(a):
        if c:
            # map stops at the end of out[i:], so b needs no slicing
            out[i:] = map(operator.add, out[i:], b if c == 1 else map(c.__mul__, b))
    return tuple(out)


def _kronecker_product(a: tuple, b: tuple, nbytes: int) -> tuple:
    """_int_product by one big-int product, with digits of 8 * nbytes bits.

    Every coefficient of the product must lie strictly between -2^(w-1) and
    2^(w-1) for w = 8 * nbytes.  An operand sum_i a_i 2^(w i) is packed as
    the bytes of the biased digits a_i + 2^(w-1) minus the bias
    H = sum_i 2^(w-1) 2^(w i); the low len(a) digits of the product plus H
    are the product coefficients plus 2^(w-1) each.
    """
    size = len(a)
    half = 1 << (8 * nbytes - 1)
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * size, "little")

    def pack(nums):
        raw = b"".join([(c + half).to_bytes(nbytes, "little") for c in nums])
        return int.from_bytes(raw, "little") - bias

    width = nbytes * size
    packed = pack(a)  # a square packs once: CPython squares faster than it multiplies two
    low = ((packed * packed if a is b else packed * pack(b)) + bias) & ((1 << (8 * width)) - 1)
    raw = low.to_bytes(width, "little")
    return tuple([
        int.from_bytes(raw[i : i + nbytes], "little") - half for i in range(0, width, nbytes)
    ])


# module-level aliases kept because perfbench/tracer.py wraps them by name
def add(a: HalfQSeries, b: HalfQSeries) -> HalfQSeries:
    return a + b


def mul(a: HalfQSeries, b: HalfQSeries) -> HalfQSeries:
    return a * b


def invert(a: HalfQSeries) -> HalfQSeries:
    return a.invert()


def eval_numeric(a: HalfQSeries, u: complex) -> tuple[complex, float]:
    return a.eval_numeric(u)


# Memoized by value (sign, half shift, exponent, order): the definition engine
# asks for the same prefactors in every job of one manifold and order.  128
# entries hold 4 kinds x a few ranks and orders plus the tangent prefactors;
# the bound keeps a long-lived process from pinning every order it saw.
@functools.lru_cache(maxsize=128)
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
    return base ** exponent
