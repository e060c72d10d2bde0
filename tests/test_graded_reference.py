"""The per-root determinant-weight tables against a level-by-level reference.

`reference_decompose` and `reference_resum` keep the earlier construction:
the composite is multiplied into the weight table one factor
(1 + w^(+-1) t e^(+-y)) at a time, level by level and root by root, each
(m, n) entry is twisted by exp(m*b) at order 0, and the resummation lifts
every entry to the full order and multiplies it by its power of u.  The
package takes each root's Jacobi theta series at once and E(u)^(-rank) as
one scalar; both must give the same table entry by entry and the same
graded character.

The package multiplies the roots' series out on Kronecker-packed integers
whose digit width comes from a bound on every numerator; a bundle whose
numerators fill nearly all of that bound checks the width, and the same
module rebuilt with a narrower or partial bound must fail against the
reference.
"""

import inspect
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgen import bundleops, qseries
from ellgen.bundleops import GradedKind, ProjBundle
from ellgen.cohring import (CohElement, LinearClass, Manifold, RingPresentation, builtin_manifold,
                            exp_nilpotent)
from ellgen.qseries import HalfQSeries, eta_like_product, from_numerators

# repeated values and 0 give repeated and zero roots
ROOT_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(2))

# two generators and relations x^3 = y^3 = 0 below the top degree, which kill
# some monomials of a product and keep their neighbours
CP2xCP2 = RingPresentation(
    generators=(("x", 2), ("y", 2)), top_degree=8, vanishing_monomials=((3, 0), (0, 3)),
    integration_table=(((2, 2), Fraction(1)),),
)
MANIFOLDS = {"CP2": builtin_manifold("CP2"), "CP4": builtin_manifold("CP4"),
             "CP2xCP2": Manifold("CP2xCP2", CP2xCP2, 8)}

# The top key of exp(2^16 x) times the key 0 of exp(-x / 2^16) nearly fills the
# digit bound at every kind: the numerators need digits wider than 8 bytes, and
# each root brings about 64 bits of the bound.
WIDE = ("CP4", (Fraction(2**16), Fraction(-1, 2**16)), Fraction(1, 2))


def _exp(lc, order):
    return exp_nilpotent(lc.as_element(order))


def reference_decompose(kind, e, order):
    """Level-by-level weight table {(m, n): order-0 entry}."""
    pres = e.presentation
    exp_plus = [_exp(y, order) for y in e.roots]
    exp_minus = [_exp(-y, order) for y in e.roots]
    table = {0: CohElement.one(pres, order)}

    def multiply(m_shift, factor):
        # table *= (1 + w^(m_shift) * factor)
        updates = {}
        for m, elem in table.items():
            term = elem * factor
            if not term.is_zero():
                tgt = m + m_shift
                updates[tgt] = term if tgt not in updates else updates[tgt] + term
        for tgt, term in updates.items():
            table[tgt] = term if tgt not in table else table[tgt] + term

    if kind is GradedKind.W:
        for j in range(e.rank):
            multiply(1, -exp_plus[j])
    elif kind is GradedKind.A:
        for j in range(e.rank):
            multiply(1, exp_plus[j])
    sign = -1 if kind in (GradedKind.W, GradedKind.B) else 1
    start = 2 if kind in (GradedKind.W, GradedKind.A) else 1
    for level in range(start, order + 1, 2):
        t = HalfQSeries.u_power(level, order, sign)
        for j in range(e.rank):
            multiply(1, exp_plus[j] * t)
            multiply(-1, exp_minus[j] * t)

    step = 2 if kind in (GradedKind.W, GradedKind.A) else 1
    entries = {}
    for m, elem in table.items():
        twist = _exp(e.twist_b.scale(m), 0)
        for upow in range(0, order + 1, step):
            piece = CohElement(pres, 0, {mono: from_numerators(0, (s.nums[upow],), s.den)
                                         for mono, s in elem.coeffs.items()})
            if not piece.is_zero():
                entries[(m, upow // step)] = twist * piece
    return entries


def reference_resum(entries, kind, presentation, order):
    step = 2 if kind in (GradedKind.W, GradedKind.A) else 1
    total = CohElement.zero(presentation, order)
    for (m, n), entry in entries.items():
        lifted = CohElement(presentation, order, {
            mono: from_numerators(order, (*s.nums, *[0] * order), s.den)
            for mono, s in entry.coeffs.items()})
        total = total + lifted * HalfQSeries.u_power(step * n, order)
    return total


def _class(pres, value):
    """value * x, or the class with a tuple value's coefficients, one per generator."""
    return LinearClass(pres, value) if isinstance(value, tuple) else LinearClass.generator(
        pres, "x", value)


def _bundle(m, root_values, twist):
    pres = m.presentation
    return ProjBundle(rank=len(root_values), roots=tuple(_class(pres, v) for v in root_values),
                      twist_b=_class(pres, twist))


def assert_matches_reference(name, root_values, twist, kind, order, ops=bundleops):
    """The table and gch of `ops` (bundleops, or a rebuilt copy of it) against the reference."""
    m = MANIFOLDS[name]
    e = _bundle(m, root_values, twist)
    expected = reference_decompose(kind, e, order)
    own_kind = ops.GradedKind[kind.name]
    table = ops.graded_decompose(own_kind, e, order)
    assert table.entries.keys() == expected.keys()
    for key, entry in expected.items():
        assert table.entries[key] == entry, key
        assert table.entries[key].order == 0
    resummed = reference_resum(expected, kind, m.presentation, order)
    assert ops.resum_graded(table, m.presentation) == resummed
    assert ops.gch(own_kind, e, order) == resummed


@st.composite
def bundles(draw):
    """(manifold name, root values, twist): rank 1-6, twist in (1/rank) Z x."""
    name = draw(st.sampled_from(sorted(MANIFOLDS)))
    value = st.sampled_from(ROOT_VALUES)
    if len(MANIFOLDS[name].presentation.generators) > 1:
        value = st.tuples(value, value)
    rank = draw(st.integers(min_value=1, max_value=6))
    twist = Fraction(draw(st.integers(min_value=-2 * rank, max_value=2 * rank)), rank)
    return name, draw(st.lists(value, min_size=rank, max_size=rank)), twist


@given(bundles(), st.sampled_from(list(GradedKind)), st.integers(min_value=0, max_value=24))
@settings(max_examples=40, deadline=None)
def test_per_root_table_matches_level_by_level_reference(bundle, kind, order):
    assert_matches_reference(*bundle, kind, order)


@pytest.mark.parametrize("kind", list(GradedKind))
def test_numerators_wider_than_eight_bytes_match_reference(kind, monkeypatch):
    widths = []

    def digit_bytes(bound):
        widths.append(qseries._digit_bytes(bound))
        return widths[-1]

    monkeypatch.setattr(bundleops, "_digit_bytes", digit_bytes)
    assert_matches_reference(*WIDE, kind, 8)
    assert min(widths) > 8


def _rebuilt(monkeypatch, old, new):
    """bundleops rebuilt from its own source with its one occurrence of old replaced by new."""
    source = inspect.getsource(bundleops)
    assert source.count(old) == 1
    module = types.ModuleType("ellgen.rebuilt_bundleops")
    module.__package__ = "ellgen"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), bundleops.__file__, "exec"), vars(module))
    return module


PLANTED = {
    "digits one byte narrower": ("_digit_bytes(bound)", "_digit_bytes(bound) - 1"),
    "first root left out of the bound": ("bound *= ", "bound *= 1 if len(scales) == 1 else "),
    "last root left out of the bound": ("bound *= ", "bound *= 1 if len(scales) == len(roots) else "),
}


@pytest.mark.parametrize("fault", list(PLANTED))
@pytest.mark.parametrize("kind", list(GradedKind))
def test_planted_digit_width_faults_fail_against_the_reference(fault, kind, monkeypatch):
    old, new = PLANTED[fault]
    # the unchanged rebuild passes, so the failure is the fault's
    assert_matches_reference(*WIDE, kind, 8,
                             _rebuilt(monkeypatch, old, old))
    with pytest.raises(AssertionError):
        assert_matches_reference(*WIDE, kind, 8,
                                 _rebuilt(monkeypatch, old, new))


@pytest.mark.parametrize("kind", list(GradedKind))
def test_rank6_table_matches_reference(kind):
    roots = (Fraction(1), Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(2), Fraction(0))
    assert_matches_reference("CP2", roots, Fraction(1, 3), kind, 8)


@pytest.mark.parametrize("kind", list(GradedKind))
def test_zero_and_repeated_roots_match_reference(kind):
    assert_matches_reference("CP4", (Fraction(0), Fraction(0)), Fraction(0), kind, 12)
    assert_matches_reference("CP4", (Fraction(1),) * 3, Fraction(-1, 2), kind, 12)


@pytest.mark.parametrize("kind", list(GradedKind))
def test_root_tower_is_the_one_root_product(kind):
    # E(u)^(-1) times the theta terms is the weight table of one zero root
    # with no twist
    m = builtin_manifold("CP2")
    e = _bundle(m, (Fraction(0),), Fraction(0))
    terms = bundleops._theta_terms(kind, e, 10)
    assert [a for a, _, _ in terms] == sorted({a for a, _, _ in terms})
    table = reference_decompose(kind, e, 10)
    inv_e = eta_like_product(-1, False, -1, 10)
    step = 2 if kind in (GradedKind.W, GradedKind.A) else 1
    rebuilt = {}
    for a, c, k in terms:
        g = HalfQSeries.u_power(k, 10, c) * inv_e
        for n in range(0, 11, step):
            if g.nums[n]:
                rebuilt[(a, n // step)] = CohElement.scalar(m.presentation, 0, g.coefficient(n))
    assert rebuilt == table


def literal_root_tower(kind, order):
    """The pairs (a, g_a) of prod_t (1 + s t X)(1 + s t / X), times 1 + s X for
    W and A, multiplied out one linear factor at a time over the levels t."""
    sign = -1 if kind in (GradedKind.W, GradedKind.B) else 1
    start = 2 if kind in (GradedKind.W, GradedKind.A) else 1
    factors = [(shift, HalfQSeries.u_power(level, order, sign))
               for level in range(start, order + 1, 2) for shift in (1, -1)]
    if kind in (GradedKind.W, GradedKind.A):
        factors.append((1, HalfQSeries.constant(sign, order)))
    tower = {0: HalfQSeries.one(order)}
    for shift, t in factors:
        grown = dict(tower)
        for a, g in tower.items():
            grown[a + shift] = grown.get(a + shift, 0) + g * t
        tower = grown
    return tuple(sorted((a, g) for a, g in tower.items() if not g.is_zero()))


@pytest.mark.parametrize("kind", list(GradedKind))
@pytest.mark.parametrize("order", [0, 1, 5, 12, 24, 40])
def test_triple_product_tower_equals_the_literal_product(kind, order, monkeypatch):
    # the theta engine expands the product side of Jacobi's triple product,
    # the definition engine its sum side: the theta terms s^a u^(k_a) must be
    # E(u) times the literal product, term by term
    monkeypatch.setattr(bundleops, "ORDER_GUARD", max(order, bundleops.ORDER_GUARD))
    e = _bundle(builtin_manifold("CP2"), (Fraction(0),), Fraction(0))
    e_u = eta_like_product(-1, False, 1, order)
    terms = bundleops._theta_terms(kind, e, order)
    theta = [(a, HalfQSeries.u_power(k, order, c)) for a, c, k in terms]
    assert theta == [(a, g * e_u) for a, g in literal_root_tower(kind, order)]
