"""Graded-commutative truncated polynomial rings with HalfQSeries coefficients.

A ring presentation lists even-degree generators, a top degree, monomials
declared zero, and an integration table pairing top-degree monomials with
rationals.  Elements are finite monomial -> series maps; everything of
degree above the top degree is identically zero, which makes degree-2
classes nilpotent and exponentials finite.

One n-ary sum per layer: `sum_of_elements` adds a list of elements in one
pass at their least order, and `a + b` is its two-term case.  Every stored
coefficient is nonzero and of exactly the element's order, so a monomial
held by one element of that order passes through; every other monomial is
one `qseries.sum_of_numerators`.  `sum_of_products` forms sum_i a_i * b_i
in one pass from the integer products of monomial pairs
(`qseries._int_product`), one `sum_of_numerators` per result monomial; a
product is its one-pair case.

Manifolds are presented by their ring, a dimension 4r equal to the top
degree, and a list of stable tangent Chern roots.  Zero roots (padding for
trivial summands) are allowed; every genus factor downstream sends the zero
root to 1, so padding never changes an integral.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, count, repeat
from operator import add, itemgetter, mul, truediv

from .qseries import HalfQSeries, _int_product, from_numerators, parse_rational, sum_of_numerators

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
    degrees: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, deg in self.generators:
            if deg < 2 or deg % 2 != 0:
                raise ValueError(f"generator {name} must have even degree >= 2")
        if len({name for name, _ in self.generators}) < len(self.generators):
            raise ValueError("generator names must be distinct")
        object.__setattr__(self, "degrees", tuple([deg for _, deg in self.generators]))
        if not all(any(van) for van in self.vanishing_monomials):
            raise ValueError("a vanishing monomial needs a positive exponent (1 = 0 otherwise)")
        for mono, _ in self.integration_table:
            if self.monomial_degree(mono) != self.top_degree:
                raise ValueError("integration table keys must have top degree")
        if len({mono for mono, _ in self.integration_table}) < len(self.integration_table):
            raise ValueError("integration table keys must be distinct")

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self.degrees))

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
    """An element of the quotient ring: monomial -> HalfQSeries.

    Every stored coefficient is a nonzero canonical series of exactly the element's order.
    """

    __slots__ = ("presentation", "order", "coeffs")

    def __init__(self, presentation: RingPresentation, order: int, coeffs=None) -> None:
        self.presentation = presentation
        self.order = order
        self.coeffs: dict[Monomial, HalfQSeries] = {}
        if coeffs:
            for mono, series in coeffs.items():
                series = series.truncate(order)  # a shorter series stays as it is
                if presentation.is_zero_monomial(mono) or series.is_zero():
                    continue
                if series.order < order:
                    raise ValueError("coefficient series shorter than the element order")
                self.coeffs[mono] = series

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
            series = value.truncate(order)
        else:
            series = HalfQSeries.constant(value, order)
        out = cls(presentation, order)
        if not series.is_zero():
            out.coeffs[presentation.unit_monomial()] = series
        return out

    def coefficient(self, mono: Monomial) -> HalfQSeries:
        return self.coeffs.get(mono, HalfQSeries.zero(self.order))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if isinstance(other, HalfQSeries):
            n = min(self.order, other.order)
            other = CohElement.scalar(self.presentation, n, other.truncate(n))
        elif isinstance(other, (int, Fraction)):
            other = CohElement.scalar(self.presentation, self.order, other)
        return sum_of_elements([self, other])

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
        return sum_of_products([(self, other)])

    __rmul__ = __mul__

    def invert(self) -> "CohElement":
        """Inverse of a unit: an invertible scalar series plus a nilpotent rest.

        With s the scalar part, a = s (1 - r) where r = 1 - a/s has no unit
        monomial, so a^-1 = s^-1 (1 + r + r^2 + ...) and every power of r
        gains polynomial degree: the sum stops at the top degree.  Raises
        ZeroConstantTerm when the scalar u^0 coefficient vanishes.
        """
        inv0 = self.scalar_part().invert()
        return _power_series(-(self * inv0 - 1), repeat(1)) * inv0

    def degree_component(self, degree: int) -> "CohElement":
        out = CohElement(self.presentation, self.order)
        out.coeffs = {
            m: s
            for m, s in self.coeffs.items()
            if self.presentation.monomial_degree(m) == degree
        }
        return out

    def u_slice(self, k: int) -> "CohElement":
        """The coefficient of u^k, 0 <= k <= order, as an order-0 element; else IndexError."""
        if not 0 <= k <= self.order:
            raise IndexError(f"u^{k} is not tracked at order {self.order}")
        out = CohElement(self.presentation, 0)
        for mono, s in self.coeffs.items():
            if s.nums[k]:
                out.coeffs[mono] = from_numerators(0, (s.nums[k],), s.den)
        return out

    def scaled(self, series: HalfQSeries) -> "CohElement":
        """This q-free (order-0) element times a series: one rational scaling per monomial."""
        terms = {mono: series * s.coefficient(0) for mono, s in self.coeffs.items()}
        return CohElement(self.presentation, series.order, terms)

    def scalar_part(self) -> HalfQSeries:
        return self.coefficient(self.presentation.unit_monomial())

    def map_series(self, fn) -> "CohElement":
        """fn of every coefficient, truncated to the element order; ValueError if shorter."""
        terms = {mono: fn(s) for mono, s in self.coeffs.items()}
        return CohElement(self.presentation, self.order, terms)

    def remap_generator(self, src: int, dst: int) -> "CohElement":
        """Substitute generator #src by generator #dst (must share a degree)."""
        gens = self.presentation.generators
        if gens[src][1] != gens[dst][1]:
            raise ValueError("substitution requires generators of equal degree")
        terms = [CohElement(self.presentation, self.order)]
        for mono, s in self.coeffs.items():
            m = list(mono)
            m[dst] += m[src]
            m[src] = 0
            terms.append(CohElement(self.presentation, self.order, {tuple(m): s}))
        return sum_of_elements(terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohElement):
            return NotImplemented
        return (self.order == other.order and self.presentation == other.presentation
                and self.coeffs == other.coeffs)

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


def _ring_and_order(elems) -> tuple[RingPresentation, int]:
    """The one ring of a nonempty list of elements and their least order."""
    pres = elems[0].presentation
    for elem in elems:
        if elem.presentation is not pres and elem.presentation != pres:
            raise PresentationMismatch("elements live in different rings")
    return pres, min([elem.order for elem in elems])


def sum_of_elements(elems) -> CohElement:
    """sum_i a_i over a nonempty list of elements, in one pass, at their least
    order: a monomial held by one element of that order passes through, and any
    other monomial is one `sum_of_numerators` of its series."""
    if not elems:
        raise ValueError("at least one element is needed")
    pres, n = _ring_and_order(elems)
    parts: dict[Monomial, list[HalfQSeries]] = defaultdict(list)
    for elem in elems:
        for mono, s in elem.coeffs.items():
            parts[mono].append(s)
    out = CohElement(pres, n)
    for mono, series in parts.items():
        total = (series[0] if len(series) == 1 and series[0].order == n
                 else sum_of_numerators(n, [(s.nums, s.den) for s in series]))
        if not total.is_zero():
            out.coeffs[mono] = total
    return out


def sum_of_products(pairs) -> CohElement:
    """sum_i a_i * b_i over a nonempty list of pairs (a_i, b_i), in one pass,
    at the least order of all operands (see the module docstring)."""
    if not pairs:
        raise ValueError("at least one pair of elements is needed")
    pres, n = _ring_and_order([x for pair in pairs for x in pair])
    degree = pres.monomial_degree
    top = pres.top_degree
    # a relation of degree above the top is already enforced by the degree test
    relations = [v for v in pres.vanishing_monomials if degree(v) <= top]
    # result monomial -> (integer numerators, denominator) of each pair product
    parts: dict[Monomial, list[tuple[tuple, int]]] = defaultdict(list)
    for left, other in pairs:
        right = sorted(((degree(m), m, s.nums[: n + 1], s.den) for m, s in other.coeffs.items()),
                       key=itemgetter(0))
        for m1, s1 in left.coeffs.items():
            room = top - degree(m1)
            nums1, den1 = s1.nums[: n + 1], s1.den
            for d2, m2, nums2, den2 in right:
                if d2 > room:
                    break
                prod_mono = tuple(map(add, m1, m2))
                if relations and any(
                    all(m >= v for m, v in zip(prod_mono, van)) for van in relations
                ):
                    continue
                parts[prod_mono].append((_int_product(nums1, nums2), den1 * den2))
    out = CohElement(pres, n)
    for mono, bucket in parts.items():
        total = sum_of_numerators(n, bucket)
        if not total.is_zero():
            out.coeffs[mono] = total
    return out


def power_sums(roots, presentation: RingPresentation, k_max: int) -> list[CohElement]:
    """p_k = sum_i root_i^k for k = 0..k_max, as q-free (order-0) classes."""
    zero = CohElement.zero(presentation, 0)
    xs = [root.as_element(0) for root in roots]
    powers = [list(accumulate(repeat(x, k_max - 1), mul, initial=x)) for x in xs]
    return [CohElement.scalar(presentation, 0, len(roots))] + [
        sum_of_elements([zero] + [p[k] for p in powers]) for k in range(k_max)]


# kept as a module-level name: perfbench/tracer.py wraps it by name
def ring_mul(a: CohElement, b: CohElement) -> CohElement:
    return a * b


def _power_series(x: CohElement, coeffs) -> CohElement:
    """sum_k c_k x^k for a nilpotent x, the rationals or series c_k read lazily
    from coeffs; the sum stops at the first power of x that vanishes, and raises if
    a power outlives k > order + top/2 (see exp_nilpotent): a faulty product."""
    coeffs = iter(coeffs)
    terms = [CohElement.scalar(x.presentation, x.order, next(coeffs))]
    power = x
    for k, c in enumerate(coeffs, 1):
        if power.is_zero():
            break
        if k > x.order + x.presentation.top_degree // 2:
            raise ArithmeticError(f"x^{k} does not vanish: the ring product is faulty")
        terms.append(power if c == 1 else power * c)
        power = power * x
    return sum_of_elements(terms)


def exp_nilpotent(a: CohElement) -> CohElement:
    """exp(a) = sum a^k / k!, requiring a topologically nilpotent exponent.

    The scalar u^0 part of a must vanish; then each factor of a power of a
    brings polynomial degree or u-order, so a^k = 0 for every
    k > order + top/2 and the sum terminates.
    """
    if a.scalar_part().coefficient(0) != 0:
        raise NonNilpotentScalar("exp requires a vanishing scalar u^0 part")
    return _power_series(a, accumulate(count(1), truediv, initial=Fraction(1)))


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
    # every table key has the top degree; each weight p/q is folded into its part
    weights = [(s, m.presentation.integral_of(mono)) for mono, s in a.coeffs.items()]
    parts = [([c * w.numerator for c in s.nums], s.den * w.denominator) for s, w in weights if w]
    return sum_of_numerators(a.order, parts) if parts else HalfQSeries.zero(a.order)


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


# Power sums of the builtin ring "free": the even ones of the tangent roots and
# all of the bundle roots; the degree-12 check reads the even ones only.
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
    """{generator name: "p/q"} -> LinearClass; TypeError if data is no object."""
    if not isinstance(data, dict):
        raise TypeError(f"a linear class must be an object, got {data!r}")
    coeffs = [Fraction(0)] * len(presentation.generators)
    for gen_name, value in data.items():
        coeffs[presentation.generator_index(gen_name)] = parse_rational(value)
    return LinearClass(presentation, coeffs)
