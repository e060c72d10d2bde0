"""exp_class, the closed form sum_k lc^k / k! read off `power_sums`, against the
literal exponential exp_nilpotent(lc.as_element(order)), the reference that
tests/test_graded_reference.py also uses.

Classes with several nonzero rational coefficients hit the mixed monomials and
their multinomial factors, which CP^n and the Schur generators (one generator
per class) never hit.  The planted faults below must each be caught."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgen import bundleops, cohring
from ellgen.bundleops import exp_class, tensor_exterior_identity_check
from ellgen.cohring import LinearClass, RingPresentation, builtin_manifold, exp_nilpotent

RINGS = {
    "CP2": builtin_manifold("CP2").presentation,
    "CP4": builtin_manifold("CP4").presentation,
    # Q[a, b]/(a^2 b, b^3): the relation mixes the generators; ab and ab^2 survive
    "mixed": RingPresentation(generators=(("a", 2), ("b", 2)), top_degree=8,
                              vanishing_monomials=((2, 1), (0, 3))),
    # a degree-4 generator p, which no linear class reaches but every monomial degree counts
    "degree4": RingPresentation(generators=(("x", 2), ("p", 4), ("y", 2)), top_degree=12,
                                vanishing_monomials=((3, 0, 0),)),
}
ORDERS = (0, 1, 8, 24)
NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool)


def literal_exp(lc, order):
    return exp_nilpotent(lc.as_element(order))


def with_every_linear_coefficient(pres, values):
    """The class with the values on the degree-2 generators, in turn, and 0 elsewhere."""
    values = iter(values)
    return LinearClass(pres, [next(values) if deg == 2 else 0 for _, deg in pres.generators])


@settings(max_examples=60, deadline=None)
@given(ring=st.sampled_from(sorted(RINGS)), order=st.sampled_from(ORDERS), data=st.data())
def test_exp_class_is_the_literal_exponential(ring, order, data):
    pres = RINGS[ring]
    linear = sum(deg == 2 for _, deg in pres.generators)
    values = data.draw(st.lists(NONZERO, min_size=linear, max_size=linear))
    lc = with_every_linear_coefficient(pres, values)
    got = exp_class(lc, order)
    assert got.order == order
    assert got == literal_exp(lc, order)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_exp_class_of_the_zero_class_is_one(ring, order):
    pres = RINGS[ring]
    zero = LinearClass.zero(pres)
    assert exp_class(zero, order) == cohring.CohElement.one(pres, order) == literal_exp(zero, order)


MIXED = with_every_linear_coefficient(RINGS["mixed"], [Fraction(1, 2), Fraction(-2, 3)])
DEGREE4 = with_every_linear_coefficient(RINGS["degree4"], [Fraction(3), Fraction(-1, 5)])
CP4_CLASS = LinearClass.generator(RINGS["CP4"], "x", Fraction(-3, 2))

# name -> (module, global, planted value): each fault is a wrong global of exp_class or power_sums
FAULTS = {
    "the 1/k! dropped": (bundleops, "factorial", lambda k: 1),
    "k off by one": (bundleops, "factorial", lambda k: math.factorial(k + 1)),
    "multinomial factor 1": (cohring, "factorial", lambda k: 1),
}


@pytest.mark.parametrize("lc", [MIXED, DEGREE4], ids=["mixed", "degree4"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_planted_faults_fail_the_comparison(fault, lc, monkeypatch):
    module, name, planted = FAULTS[fault]
    expected = literal_exp(lc, 8)
    monkeypatch.setattr(module, name, planted)
    assert exp_class(lc, 8) != expected


def test_a_one_generator_ring_cannot_see_the_multinomial_factor(monkeypatch):
    """Why the classes above have several nonzero coefficients: on CP4 every
    monomial is x^k, whose multinomial factor k!/k! is 1 either way."""
    expected = literal_exp(CP4_CLASS, 8)
    monkeypatch.setattr(cohring, "factorial", FAULTS["multinomial factor 1"][2])
    assert exp_class(CP4_CLASS, 8) == expected


@pytest.mark.parametrize("module, name, planted", [
    (bundleops, "exp_class", lambda lc, order: exp_class(lc.scale(2), order)),
    FAULTS["the 1/k! dropped"],
], ids=["exp of twice the class", "the 1/k! dropped"])
def test_a_wrong_exp_class_fails_the_schur_check(module, name, planted, monkeypatch):
    """exp(2 lc) is still an exponential, and the identity holds for any roots, so
    only the check of each closed-form generator character against exp_nilpotent
    sees it.  Without 1/k! the characters are no exponentials and psi^a no longer
    gives their powers, so the identity fails as well."""
    assert tensor_exterior_identity_check(2, 2, 2)
    monkeypatch.setattr(module, name, planted)
    assert tensor_exterior_identity_check(2, 2, 2) is False
