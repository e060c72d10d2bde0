"""The fractional-index denominator law, as a property of both engines.

For a rank-r bundle on CP^n (n = 2 or 4, the complex dimension) with integer
Chern roots and a twist b in (1/r) Z x, every coefficient of pell, pell1, pell2
and pell3 is a rational whose denominator has only primes of 2r, and whose odd
part divides r^n.  The law is observed on these samples, not proved; it does not
follow from the engines' agreement, so two engines that agree on a wrong rational
can still fail it.  A series' common denominator is the lcm of its
coefficients' denominators, so the law is checked on that one integer.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgen.bundleops import ProjBundle
from ellgen.cohring import LinearClass, builtin_manifold
from ellgen.genera import DEFINITION, THETA_PRODUCT, GenusKind, pell

KINDS = (GenusKind.PELL, GenusKind.PELL1, GenusKind.PELL2, GenusKind.PELL3)


@st.composite
def projective_bundle(draw):
    """(n, bundle on CP^n): rank 1-5, integer roots in [-4, 4], b = k x / r."""
    n = draw(st.sampled_from([2, 4]))
    m = builtin_manifold(f"CP{n}")
    x = LinearClass.generator(m.presentation, "x")
    rank = draw(st.integers(min_value=1, max_value=5))
    roots = tuple(x.scale(draw(st.integers(min_value=-4, max_value=4))) for _ in range(rank))
    twist = x.scale(Fraction(draw(st.integers(min_value=-2 * rank, max_value=2 * rank)), rank))
    return m, n, ProjBundle(rank=rank, roots=roots, twist_b=twist)


def assert_the_law(den: int, rank: int, n: int) -> None:
    rest = den
    while (g := gcd(rest, 2 * rank)) > 1:
        rest //= g
    assert rest == 1, f"denominator {den} has a prime outside 2r = {2 * rank}"
    odd = den
    while odd % 2 == 0:
        odd //= 2
    assert rank**n % odd == 0, f"odd part {odd} of {den} does not divide r^n = {rank**n}"


@settings(max_examples=150, deadline=None)
@given(projective_bundle())
def test_theta_engine_denominators_obey_the_law(case):
    m, n, e = case
    for kind in KINDS:
        assert_the_law(pell(m, e, kind, THETA_PRODUCT, 24).series.den, e.rank, n)


@settings(max_examples=30, deadline=None)
@given(projective_bundle())
def test_definition_engine_denominators_obey_the_law(case):
    # rank <= 5 and N = 24 lie inside the definition engine's guards
    m, n, e = case
    for kind in KINDS:
        assert_the_law(pell(m, e, kind, DEFINITION, 24).series.den, e.rank, n)


def test_the_law_can_fail():
    # outside the hypothesis: b = x/5 on a rank-2 bundle puts 5 into the denominator
    m = builtin_manifold("CP2")
    x = LinearClass.generator(m.presentation, "x")
    e = ProjBundle(rank=2, roots=(x, -x), twist_b=x.scale(Fraction(1, 5)))
    den = pell(m, e, GenusKind.PELL1, THETA_PRODUCT, 24).series.den
    assert den % 5 == 0
    with pytest.raises(AssertionError, match="outside 2r"):
        assert_the_law(den, e.rank, 2)
