"""Graded-commutative truncated polynomial rings with HalfQSeries coefficients.

A ring presentation lists even-degree generators, a top degree, monomials
declared zero, and an integration table pairing top-degree monomials with
rationals.  Elements are finite monomial -> series maps; everything of
degree above the top degree is identically zero, which makes degree-2
classes nilpotent and exponentials finite.

Manifolds are presented by their ring, a dimension 4r equal to the top
degree, and a list of stable tangent Chern roots.  Zero roots (padding for
trivial summands) are allowed; every genus factor downstream sends the zero
root to 1, so padding never changes an integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .qseries import HalfQSeries, parse_rational

Monomial = tuple[int, ...]


class PresentationMismatch(ValueError):
    """Operands from different ring presentations."""


class NonNilpotentScalar(ValueError):
    """exp() of an element whose scalar u^0 part is nonzero."""


class UnknownManifold(KeyError):
    """Requested builtin manifold name does not exist."""


@dataclass(frozen=True)
class RingPresentation:
    """Generators (name, even degree), a top degree, relations, integration."""

    generators: tuple[tuple[str, int], ...]
    top_degree: int
    vanishing_monomials: tuple[Monomial, ...] = ()
    integration_table: tuple[tuple[Monomial, Fraction], ...] = ()

    def __post_init__(self):
        for name, deg in self.generators:
            if deg < 2 or deg % 2 != 0:
                raise ValueError(f"generator {name} must have even degree >= 2")
        for mono, _ in self.integration_table:
            if self.monomial_degree(mono) != self.top_degree:
                raise ValueError("integration table keys must have top degree")

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(e * deg for e, (_, deg) in zip(mono, self.generators))

    def is_zero_monomial(self, mono: Monomial) -> bool:
        if self.monomial_degree(mono) > self.top_degree:
            return True
        for van in self.vanishing_monomials:
            if all(m >= v for m, v in zip(mono, van)):
                return True
        return False

    def integral_of(self, mono: Monomial) -> Fraction:
        for key, value in self.integration_table:
            if key == mono:
                return value
        return Fraction(0)

    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.generators)

    def generator_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.generators):
            if n == name:
                return i
        raise KeyError(name)

    def monomial_str(self, mono: Monomial) -> str:
        parts = []
        for e, (name, _) in zip(mono, self.generators):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


class LinearClass:
    """A rational linear combination of the degree-2 generators."""

    __slots__ = ("presentation", "coeffs")

    def __init__(self, presentation: RingPresentation, coeffs) -> None:
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != len(presentation.generators):
            raise ValueError("one coefficient per generator required")
        for c, (name, deg) in zip(cs, presentation.generators):
            if c != 0 and deg != 2:
                raise ValueError(f"{name} has degree {deg}; linear classes are degree 2")
        self.presentation = presentation
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, presentation: RingPresentation) -> "LinearClass":
        return cls(presentation, [0] * len(presentation.generators))

    @classmethod
    def generator(cls, presentation: RingPresentation, name: str, scale=1) -> "LinearClass":
        cs = [Fraction(0)] * len(presentation.generators)
        cs[presentation.generator_index(name)] = Fraction(scale)
        return cls(presentation, cs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "LinearClass") -> "LinearClass":
        if self.presentation != other.presentation:
            raise PresentationMismatch("linear classes live in different rings")
        return LinearClass(self.presentation, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "LinearClass":
        return LinearClass(self.presentation, [-c for c in self.coeffs])

    def __sub__(self, other: "LinearClass") -> "LinearClass":
        return self + (-other)

    def scale(self, factor) -> "LinearClass":
        f = Fraction(factor)
        return LinearClass(self.presentation, [c * f for c in self.coeffs])

    def as_element(self, order: int) -> "CohElement":
        out = CohElement.zero(self.presentation, order)
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = tuple(1 if j == i else 0 for j in range(len(self.coeffs)))
            out.coeffs[mono] = HalfQSeries.constant(c, order)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearClass):
            return NotImplemented
        return self.presentation == other.presentation and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.presentation, self.coeffs))

    def __str__(self) -> str:
        parts = []
        for c, (name, _) in zip(self.coeffs, self.presentation.generators):
            if c == 0:
                continue
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class CohElement:
    """An element of the quotient ring: monomial -> HalfQSeries."""

    __slots__ = ("presentation", "order", "coeffs")

    def __init__(self, presentation: RingPresentation, order: int, coeffs=None) -> None:
        self.presentation = presentation
        self.order = order
        self.coeffs: dict[Monomial, HalfQSeries] = {}
        if coeffs:
            for mono, series in coeffs.items():
                if presentation.is_zero_monomial(mono) or series.is_zero():
                    continue
                if series.order < order:
                    raise ValueError("coefficient series shorter than the element order")
                self.coeffs[mono] = series.truncate(order)

    @classmethod
    def zero(cls, presentation: RingPresentation, order: int) -> "CohElement":
        return cls(presentation, order)

    @classmethod
    def one(cls, presentation: RingPresentation, order: int) -> "CohElement":
        return cls.scalar(presentation, order, 1)

    @classmethod
    def scalar(cls, presentation: RingPresentation, order: int, value) -> "CohElement":
        if isinstance(value, HalfQSeries):
            if value.order < order:
                raise ValueError("scalar series shorter than the element order")
            series = value
        else:
            series = HalfQSeries.constant(value, order)
        out = cls(presentation, order)
        if not series.is_zero():
            out.coeffs[presentation.unit_monomial()] = series.truncate(order)
        return out

    def _check(self, other: "CohElement"):
        if self.presentation != other.presentation:
            raise PresentationMismatch("elements live in different rings")

    def coefficient(self, mono: Monomial) -> HalfQSeries:
        return self.coeffs.get(mono, HalfQSeries.zero(self.order))

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.coeffs.values())

    def __add__(self, other):
        if isinstance(other, HalfQSeries):
            n = min(self.order, other.order)
            other = CohElement.scalar(self.presentation, n, other.truncate(n))
        elif isinstance(other, (int, Fraction)):
            other = CohElement.scalar(self.presentation, self.order, other)
        self._check(other)
        n = min(self.order, other.order)
        out = CohElement(self.presentation, n)
        for mono in set(self.coeffs) | set(other.coeffs):
            s = self.coefficient(mono).truncate(n) + other.coefficient(mono).truncate(n)
            if not s.is_zero():
                out.coeffs[mono] = s
        return out

    __radd__ = __add__

    def __neg__(self):
        out = CohElement(self.presentation, self.order)
        out.coeffs = {m: -s for m, s in self.coeffs.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, HalfQSeries)):
            return self + (-1 * other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, HalfQSeries)):
            n = min(self.order, other.order) if isinstance(other, HalfQSeries) else self.order
            out = CohElement(self.presentation, n)
            for mono, s in self.coeffs.items():
                prod = s.truncate(n) * other
                if not prod.is_zero():
                    out.coeffs[mono] = prod
            return out
        self._check(other)
        n = min(self.order, other.order)
        out = CohElement(self.presentation, n)
        pres = self.presentation
        for m1, s1 in self.coeffs.items():
            t1 = s1.truncate(n)
            for m2, s2 in other.coeffs.items():
                prod_mono = tuple(a + b for a, b in zip(m1, m2))
                if pres.is_zero_monomial(prod_mono):
                    continue
                term = t1 * s2.truncate(n)
                if term.is_zero():
                    continue
                existing = out.coeffs.get(prod_mono)
                out.coeffs[prod_mono] = term if existing is None else existing + term
        out.coeffs = {m: s for m, s in out.coeffs.items() if not s.is_zero()}
        return out

    __rmul__ = __mul__

    def invert(self) -> "CohElement":
        """Inverse of a unit: an invertible scalar series plus a nilpotent rest.

        With s the scalar part, a = s (1 - r) where r = 1 - a/s has no unit
        monomial, so a^-1 = s^-1 (1 + r + r^2 + ...) and every power of r
        gains polynomial degree: the sum stops at the top degree.  Raises
        ZeroConstantTerm when the scalar u^0 coefficient vanishes.
        """
        inv0 = self.scalar_part().invert()
        rest = -(self * inv0 - 1)
        result = term = CohElement.scalar(self.presentation, self.order, inv0)
        for _ in range(self.presentation.top_degree // 2):
            term = term * rest
            if term.is_zero():
                break
            result = result + term
        return result

    def degree_component(self, degree: int) -> "CohElement":
        out = CohElement(self.presentation, self.order)
        out.coeffs = {
            m: s
            for m, s in self.coeffs.items()
            if self.presentation.monomial_degree(m) == degree
        }
        return out

    def u_slice(self, k: int) -> "CohElement":
        """The coefficient of u^k, as an order-0 element."""
        out = CohElement(self.presentation, 0)
        for mono, s in self.coeffs.items():
            if k <= s.order and s.coefficient(k) != 0:
                out.coeffs[mono] = HalfQSeries.constant(s.coefficient(k), 0)
        return out

    def scalar_part(self) -> HalfQSeries:
        return self.coefficient(self.presentation.unit_monomial())

    def map_series(self, fn) -> "CohElement":
        out = CohElement(self.presentation, self.order)
        for mono, s in self.coeffs.items():
            t = fn(s)
            if not t.is_zero():
                out.coeffs[mono] = t
        return out

    def remap_generator(self, src: int, dst: int) -> "CohElement":
        """Substitute generator #src by generator #dst (must share a degree)."""
        gens = self.presentation.generators
        if gens[src][1] != gens[dst][1]:
            raise ValueError("substitution requires generators of equal degree")
        out = CohElement(self.presentation, self.order)
        for mono, s in self.coeffs.items():
            m = list(mono)
            m[dst] += m[src]
            m[src] = 0
            key = tuple(m)
            existing = out.coeffs.get(key)
            out.coeffs[key] = s if existing is None else existing + s
        out.coeffs = {m: s for m, s in out.coeffs.items() if not s.is_zero()}
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohElement):
            return NotImplemented
        if self.presentation != other.presentation or self.order != other.order:
            return False
        return (self - other).is_zero()

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        keys = sorted(self.coeffs, key=lambda m: (self.presentation.monomial_degree(m), m))
        parts = []
        for mono in keys:
            s = self.coeffs[mono]
            name = self.presentation.monomial_str(mono)
            if name == "1":
                parts.append(f"({s})")
            else:
                parts.append(f"({s})*{name}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"CohElement({self})"


def root_square_sum(roots, order: int, presentation: RingPresentation) -> CohElement:
    """sum_j root_j^2 for degree-2 classes in the given presentation."""
    total = CohElement.zero(presentation, order)
    for root in roots:
        e = root.as_element(order)
        total = total + e * e
    return total


# kept as a module-level name: perfbench/tracer.py wraps it by name
def ring_mul(a: CohElement, b: CohElement) -> CohElement:
    return a * b


def exp_nilpotent(a: CohElement) -> CohElement:
    """exp(a) = sum a^k / k!, requiring a topologically nilpotent exponent.

    The scalar u^0 part of a must vanish; then every power of a gains either
    polynomial degree or u-order, so the sum terminates at the truncations.
    """
    if a.scalar_part().coefficient(0) != 0:
        raise NonNilpotentScalar("exp requires a vanishing scalar u^0 part")
    result = CohElement.one(a.presentation, a.order)
    term = CohElement.one(a.presentation, a.order)
    limit = a.order + a.presentation.top_degree + 2
    for k in range(1, limit + 1):
        term = term * a * Fraction(1, k)
        if term.is_zero():
            break
        result = result + term
    else:
        raise AssertionError("exp did not terminate; exponent not nilpotent")
    return result


@dataclass(frozen=True)
class Manifold:
    """Ring presentation + dimension 4r + stable tangent Chern roots."""

    name: str
    presentation: RingPresentation
    dimension: int
    tangent_roots: tuple[LinearClass, ...] = field(default=())

    def __post_init__(self):
        if self.dimension != self.presentation.top_degree:
            raise ValueError("dimension must equal the presentation top degree")
        if self.dimension % 4 != 0:
            raise ValueError("dimension must be divisible by 4")
        for root in self.tangent_roots:
            if root.presentation != self.presentation:
                raise PresentationMismatch("tangent root from a different ring")

    @property
    def weight(self) -> int:
        """The modular weight 2r attached to genera of this manifold."""
        return self.dimension // 2


def integrate(a: CohElement, m: Manifold) -> HalfQSeries:
    """Pair the top-degree component with the integration table."""
    if a.presentation != m.presentation:
        raise PresentationMismatch("element does not live on this manifold")
    total = HalfQSeries.zero(a.order)
    for mono, series in a.coeffs.items():
        if m.presentation.monomial_degree(mono) != m.presentation.top_degree:
            continue
        weight = m.presentation.integral_of(mono)
        if weight != 0:
            total = total + series * weight
    return total


def projective_space(n: int) -> Manifold:
    """CP^n: one degree-2 generator x, x^(n+1) = 0, integral of x^n is 1.

    Stable roots come from c(T + C) = (1 + x)^(n+1): n+1 copies of x.
    """
    pres = RingPresentation(
        generators=(("x", 2),),
        top_degree=2 * n,
        vanishing_monomials=((n + 1,),),
        integration_table=(((n,), Fraction(1)),),
    )
    x = LinearClass.generator(pres, "x")
    return Manifold(
        name=f"CP{n}", presentation=pres, dimension=2 * n,
        tangent_roots=tuple([x] * (n + 1)),
    )


# Power-sum generators for the dimension-12 cancellation checker: even power
# sums of the tangent roots and all power sums of the shifted bundle roots.
FREE_RING_GENERATORS = (
    ("s2T", 4), ("s4T", 8), ("s6T", 12),
    ("s1E", 2), ("s2E", 4), ("s3E", 6), ("s4E", 8), ("s5E", 10), ("s6E", 12),
)


def free_ring_manifold() -> Manifold:
    pres = RingPresentation(generators=FREE_RING_GENERATORS, top_degree=12)
    return Manifold(name="free", presentation=pres, dimension=12)


def builtin_manifold(name: str) -> Manifold:
    key = name.strip().lower()
    if key == "cp2":
        return projective_space(2)
    if key == "cp4":
        return projective_space(4)
    if key == "free":
        return free_ring_manifold()
    raise UnknownManifold(f"no builtin manifold named {name!r}")


def parse_linear_class(presentation: RingPresentation, data: dict) -> LinearClass:
    """{generator name: "p/q"} -> LinearClass."""
    coeffs = [Fraction(0)] * len(presentation.generators)
    for gen_name, value in data.items():
        coeffs[presentation.generator_index(gen_name)] = parse_rational(value)
    return LinearClass(presentation, coeffs)
