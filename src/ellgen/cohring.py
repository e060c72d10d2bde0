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
in one pass; a product is its one-pair case.  At order 0 (q-free) it runs on
plain integers over one denominator: one multiply-add per monomial pair and
one gcd per result monomial.  Above order 0 it keeps one denominator per
monomial, multiplies each pair's numerators (`qseries._int_product`) and makes
one `sum_of_numerators` per result monomial: a common denominator per operand
inflates long numerators.

Both run on packed keys, one integer per monomial of degree <= top made once
per ring in its private table: the exponents as w-bit digits, the first
generator highest, with 2^w > top/2 >= any exponent, and the degree above them.
No digit carries, so a product's key is the sum of its factors' keys, keys sort
as (degree, exponents) do, and a product is above the top exactly when that sum
reaches (top + 1) * 2^(w g) for g generators.  The table maps a key back to its
monomial, or to None when a relation kills it: one relation test per ring.

Manifolds are presented by their ring, a dimension 4r equal to the top
degree, and a list of stable tangent Chern roots.  Zero roots (padding for
trivial summands) are allowed; every genus factor downstream sends the zero
root to 1, so padding never changes an integral.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count, repeat
from math import factorial, gcd, lcm, prod
from operator import ge, itemgetter, mul

from .qseries import (HalfQSeries, _int_product, _series, from_numerators, parse_rational,
                      sum_of_numerators)

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
    _table: _PackedKeys = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, deg in self.generators:
            if deg < 2 or deg % 2 != 0:
                raise ValueError(f"generator {name} must have even degree >= 2")
        if len({name for name, _ in self.generators}) < len(self.generators):
            raise ValueError("generator names must be distinct")
        object.__setattr__(self, "degrees", tuple([deg for _, deg in self.generators]))
        if not all(any(van) for van in self.vanishing_monomials):
            raise ValueError("a vanishing monomial needs a positive exponent (1 = 0 otherwise)")
        object.__setattr__(self, "_table", _PackedKeys(self))
        for mono, _ in self.integration_table:
            if self.monomial_degree(mono) != self.top_degree:
                raise ValueError("integration table keys must have top degree")
            if self.is_zero_monomial(mono):  # every element drops it, so its weight is never read
                raise ValueError(f"integration table key {self.monomial_str(mono)} vanishes")
        if len({mono for mono, _ in self.integration_table}) < len(self.integration_table):
            raise ValueError("integration table keys must be distinct")

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self.degrees))

    def is_zero_monomial(self, mono: Monomial) -> bool:
        key = self._table[mono]  # of degree above the top, a key has at least that degree
        return key >= self._table.limit or self._table[key] is None

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


class _PackedKeys(dict):
    """A ring's monomial -> packed key and packed key -> monomial, or None when a
    relation kills it, each entry made on first sight (see the module docstring); a
    relation of degree above the top is already enforced by the degree test."""

    def __init__(self, pres: RingPresentation) -> None:
        top, self.degrees = pres.top_degree, pres.degrees
        self.width = max(top // 2, 1).bit_length()  # no exponent of degree <= top exceeds top/2
        self.shift = self.width * len(self.degrees)
        self.limit = (top + 1) << self.shift  # the least key of degree above the top
        self.relations = [v for v in pres.vanishing_monomials if pres.monomial_degree(v) <= top]

    def __missing__(self, item):
        if isinstance(item, tuple):  # a monomial: its degree, then one digit per exponent
            value = sum(map(mul, item, self.degrees))
            for e in item:
                value = value << self.width | e
        else:  # a key of degree <= top: its exponents, unless a relation kills them
            mask, w = (1 << self.width) - 1, self.width
            mono = tuple([item >> s & mask for s in range(self.shift - w, -1, -w)])
            value = None if any(all(map(ge, mono, van)) for van in self.relations) else mono
        self[item] = value
        return value


class LinearClass:
    """A rational linear combination of the degree-2 generators, immutable."""

    __slots__ = ("presentation", "coeffs")

    def __init__(self, presentation: RingPresentation, coeffs) -> None:
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(cs) != len(presentation.generators):
            raise ValueError("one coefficient per generator required")
        for c, (name, deg) in zip(cs, presentation.generators):
            if c != 0 and deg != 2:
                raise ValueError(f"{name} has degree {deg}; linear classes are degree 2")
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value=None):  # also __delattr__(self, name)
        raise AttributeError(f"LinearClass is immutable: cannot change {name}")

    __delattr__ = __setattr__

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
        n = len(self.coeffs)
        return CohElement(self.presentation, order, {
            tuple(int(j == i) for j in range(n)): HalfQSeries.constant(c, order)
            for i, c in enumerate(self.coeffs) if c != 0})

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
        # a ring operand first: the scalar test's Fraction is an ABC, slow to miss
        if isinstance(other, CohElement) or not isinstance(other, (int, Fraction, HalfQSeries)):
            return sum_of_products([(self, other)])
        n = min(self.order, other.order) if isinstance(other, HalfQSeries) else self.order
        out = CohElement(self.presentation, n)
        for mono, s in self.coeffs.items():
            prod = s.truncate(n) * other
            if not prod.is_zero():
                out.coeffs[mono] = prod
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
        return _power_series(-(self * inv0 - 1), repeat(1)) * inv0

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohElement):
            return NotImplemented
        return (self.order == other.order and self.presentation == other.presentation
                and self.coeffs == other.coeffs)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        keys = sorted(self.coeffs, key=self.presentation._table.__getitem__)
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
    """sum_i a_i * b_i over a nonempty list of pairs (a_i, b_i), in one pass, at the
    least order of all operands: at order 0 on plain integers, above it on integer
    series (see the module docstring)."""
    if not pairs:
        raise ValueError("at least one pair of elements is needed")
    pres, n = _ring_and_order([x for pair in pairs for x in pair])
    table = pres._table
    if n == 0:  # one denominator: the lcm over the pairs of d_left * d_right
        sides = [(_over_lcm(left, table), _over_lcm(right, table)) for left, right in pairs]
        den = lcm(*[dl * dr for (dl, _), (dr, _) in sides])
        acc, out = defaultdict(int), CohElement(pres, 0)  # result key -> numerator over den
        for (dl, left), (dr, right) in sides:
            scale = den // (dl * dr)
            right.sort()  # by key, that is by degree: the keys are distinct
            for p1, c1 in left:
                room, c1 = table.limit - p1, c1 * scale
                for p2, c2 in right:
                    if p2 >= room:
                        break
                    acc[p1 + p2] += c1 * c2
        for key, c in acc.items():
            if c and (mono := table[key]) is not None:
                g = gcd(c, den)
                out.coeffs[mono] = _series(0, (c // g,), den // g)
        return out
    # result key -> (integer numerators, denominator) of each pair product
    parts: dict[int, list[tuple[tuple, int]]] = defaultdict(list)
    for left, other in pairs:
        right = sorted([(table[m], s.nums[: n + 1], s.den) for m, s in other.coeffs.items()],
                       key=itemgetter(0))
        for m1, s1 in left.coeffs.items():
            p1 = table[m1]
            room, nums1, den1 = table.limit - p1, s1.nums[: n + 1], s1.den
            for p2, nums2, den2 in right:
                if p2 >= room:
                    break
                parts[p1 + p2].append((_int_product(nums1, nums2), den1 * den2))
    return CohElement(pres, n, {mono: sum_of_numerators(n, bucket) for key, bucket in parts.items()
                                if (mono := table[key]) is not None})


def _over_lcm(elem: CohElement, table: _PackedKeys) -> tuple[int, list]:
    """The lcm d of a q-free element's denominators and its (packed key, numerator over d)."""
    d = lcm(*[s.den for s in elem.coeffs.values()])
    return d, [(table[m], s.nums[0] * (d // s.den)) for m, s in elem.coeffs.items()]


def power_sum_numerators(roots, presentation: RingPresentation, k_max: int):
    """Yield, per k = 0..k_max, (d^k, [(x^a, c_a)]) with sum_i root_i^k = sum_a c_a x^a / d^k:
    each x^a a surviving monomial of degree k and each c_a a nonzero integer, the multinomial
    (k!/a!) sum_i prod_g n_ig^(a_g) for root_i = sum_g n_ig x_g / d over a common d.
    The degree-k monomials grow from the surviving degree-(k-1) ones, one generator each
    in nondecreasing order: a multiple of a vanishing monomial vanishes too."""
    d = lcm(*[c.denominator for root in roots for c in root.coeffs])
    nums = [[c.numerator * (d // c.denominator) for c in root.coeffs] for root in roots]
    gens = sorted({g for row in nums for g, n in enumerate(row) if n})
    level = [(0, presentation.unit_monomial(), [1] * len(nums))]
    yield 1, [(presentation.unit_monomial(), len(roots))] if roots else []
    for k in range(1, k_max + 1):
        grown = []
        for first, old, products in level:
            for i in range(first, len(gens)):
                g = gens[i]
                mono = old[:g] + (old[g] + 1,) + old[g + 1:]
                if not presentation.is_zero_monomial(mono):
                    grown.append((i, mono, [p * row[g] for p, row in zip(products, nums)]))
        level = grown
        yield d**k, [(mono, c) for _, mono, ps in level
                     if (c := factorial(k) // prod(map(factorial, mono)) * sum(ps))]


def power_sums(roots, presentation: RingPresentation, k_max: int) -> list[CohElement]:
    """p_k = sum_i root_i^k, k = 0..k_max, as order-0 classes, each coefficient one
    `from_numerators` of its `power_sum_numerators` numerator over d^k."""
    return [CohElement(presentation, 0, {mono: from_numerators(0, (c,), dk) for mono, c in terms})
            for dk, terms in power_sum_numerators(roots, presentation, k_max)]


# kept as a module-level name: perfbench/tracer.py wraps it by name
def ring_mul(a: CohElement, b: CohElement) -> CohElement:
    return a * b


def _power_series(x: CohElement, coeffs) -> CohElement:
    """sum_k c_k x^k for a nilpotent x, the rationals c_k = p/q read lazily from coeffs:
    no term is scaled on its own, each enters as (p * numerators, q * denominator) and each
    monomial is one `sum_of_numerators`.  The sum stops at the first power of x that
    vanishes, and raises if one outlives k > order + top/2 (see exp_nilpotent)."""
    pres, n = x.presentation, x.order
    parts: dict[Monomial, list[tuple]] = defaultdict(list)
    power = CohElement.one(pres, n)
    for k, c in enumerate(coeffs):
        if power.is_zero():
            break
        if k > n + pres.top_degree // 2:
            raise ArithmeticError(f"x^{k} does not vanish: the ring product is faulty")
        p, q = c.numerator, c.denominator
        for mono, s in power.coeffs.items() if p else ():
            parts[mono].append((s.nums if p == 1 else [v * p for v in s.nums], s.den * q))
        power = power * x if k else x
    return CohElement(pres, n, {mono: sum_of_numerators(n, bucket) for mono, bucket in parts.items()})


def exp_nilpotent(a: CohElement) -> CohElement:
    """exp(a) = sum a^k / k!, requiring a topologically nilpotent exponent.

    The scalar u^0 part of a must vanish; then each factor of a power of a
    brings polynomial degree or u-order, so a^k = 0 for every
    k > order + top/2 and the sum terminates.
    """
    if a.scalar_part().coefficient(0) != 0:
        raise NonNilpotentScalar("exp requires a vanishing scalar u^0 part")
    return _power_series(a, map(Fraction, repeat(1), map(factorial, count())))


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

    @cached_property  # filled on first use, outside == and hash; shared: never mutate it
    def tangent_power_sums(self) -> tuple[CohElement, ...]:
        """The stable roots' power sums p_0..p_(top/2) as order-0 classes."""
        return tuple(power_sums(self.tangent_roots, self.presentation, self.dimension // 2))


def integrate(a: CohElement, m: Manifold) -> HalfQSeries:
    """Pair the top-degree component with the integration table."""
    if a.presentation != m.presentation:
        raise PresentationMismatch("element does not live on this manifold")
    # every table key has the top degree; each weight p/q is folded into its part
    weights = [(s, w.numerator, w.denominator) for mono, s in a.coeffs.items()
               if (w := m.presentation.integral_of(mono))]
    parts = [(s.nums if p == 1 else [c * p for c in s.nums], s.den * q) for s, p, q in weights]
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


_BUILTINS = {
    "cp2": projective_space(2),
    "cp4": projective_space(4),
    "free": Manifold("free", RingPresentation(FREE_RING_GENERATORS, 12), dimension=12),
}


def builtin_manifold(name: str) -> Manifold:
    """One frozen Manifold per builtin name (case and outer space ignored), shared by all."""
    try:
        return _BUILTINS[name.strip().lower()]
    except KeyError:
        raise UnknownManifold(f"no builtin manifold named {name!r}") from None


def parse_linear_class(presentation: RingPresentation, data: dict) -> LinearClass:
    """{generator name: "p/q"} -> LinearClass; TypeError if data is no object."""
    if not isinstance(data, dict):
        raise TypeError(f"a linear class must be an object, got {data!r}")
    coeffs = [0] * len(presentation.generators)
    for gen_name, value in data.items():
        coeffs[presentation.generator_index(gen_name)] = parse_rational(value)
    return LinearClass(presentation, coeffs)
