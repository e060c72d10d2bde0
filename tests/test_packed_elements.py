"""q-free elements in packed form: every ring route against a literal dict reference.

Every q-free `CohElement`, whatever route builds it, holds (den, [(key, numerator)])
and builds its read-only monomial -> series view on first read, beside the packed
form.  The reference here is a plain {monomial: Fraction} dict multiplied by
convolution, with the degree and the relations applied monomial by monomial, so it
shares nothing with the packed keys.  Three rings: the six-generator ring of the Schur check at top degree 12,
CP4, and the README's custom presentation, whose relation a^3 = 0 lies below
its top degree, so a product can land on a key that a relation kills.
"""

import itertools
from fractions import Fraction
from math import factorial, gcd
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellgen.bundleops import (
    GradedKind,
    ProjBundle,
    _adams_series,
    _exp_multiple,
    exp_class,
    gch,
    graded_decompose,
)
from ellgen.cohring import (
    CohElement,
    LinearClass,
    RingPresentation,
    Manifold,
    _power_series,
    builtin_manifold,
    exp_nilpotent,
    integrate,
    power_sums,
    projective_space,
    sum_of_elements,
    sum_of_products,
)
from ellgen.qseries import HalfQSeries, from_numerators

SCHUR6 = RingPresentation(
    generators=tuple((f"{c}{i}", 2) for c in "uv" for i in (1, 2, 3)), top_degree=12)
CUSTOM = RingPresentation(
    generators=(("a", 2), ("p", 4)), top_degree=8, vanishing_monomials=((3, 0),),
    integration_table=(((2, 1), Fraction(1, 2)),))
RINGS = {"schur6": SCHUR6, "cp4": builtin_manifold("CP4").presentation, "custom": CUSTOM}
MANIFOLDS = {pres: Manifold(name, pres, pres.top_degree) for name, pres in RINGS.items()}


def monomials(pres):
    """Every monomial of degree <= top, killed ones included."""
    bounds = [range(pres.top_degree // deg + 1) for deg in pres.degrees]
    return [m for m in itertools.product(*bounds) if pres.monomial_degree(m) <= pres.top_degree]


MONOMIALS = {name: monomials(pres) for name, pres in RINGS.items()}


def killed(pres, mono):
    return pres.monomial_degree(mono) > pres.top_degree or any(
        all(e >= v for e, v in zip(mono, van)) for van in pres.vanishing_monomials)


def ref_clean(pres, terms):
    return {m: c for m, c in terms.items() if c and not killed(pres, m)}


def ref_mul(pres, a, b):
    out = {}
    for (m1, c1), (m2, c2) in itertools.product(a.items(), b.items()):
        mono = tuple(x + y for x, y in zip(m1, m2))
        if not killed(pres, mono):
            out[mono] = out.get(mono, 0) + c1 * c2
    return ref_clean(pres, out)


def ref_add(pres, *parts):
    out = {}
    for part in parts:
        for m, c in part.items():
            out[m] = out.get(m, 0) + c
    return ref_clean(pres, out)


def ref_power_series(pres, x, coeffs):
    """sum_k coeffs[k] x^k, for a nilpotent x whose powers vanish before coeffs runs out."""
    total, power = {}, {pres.unit_monomial(): Fraction(1)}
    for c in coeffs:
        total = ref_add(pres, total, {m: c * v for m, v in power.items()})
        power = ref_mul(pres, power, x)
    assert not power
    return total


def ref_exp(pres, x):
    return ref_power_series(pres, x, [Fraction(1, factorial(k)) for k in range(pres.top_degree + 1)])


def ref_integral(pres, x):
    return sum(c * pres.integral_of(m) for m, c in x.items())


def ref_psi(pres, x, a):
    return ref_clean(pres, {m: c * a ** (pres.monomial_degree(m) // 2) for m, c in x.items()})


def element(pres, terms, order=0):
    """The dict-held element of {monomial: rational}."""
    return CohElement(pres, order, {m: HalfQSeries.constant(c, order) for m, c in terms.items()})


def as_dict(elem):
    """{monomial: rational} read through the view (an order-0 element)."""
    return {m: s.coefficient(0) for m, s in elem.coeffs.items()}


def packed(elem):
    """elem, after checking that it is q-free and holds a canonical packed form: gcd(den,
    numerators) = 1, nonzero numerators, keys strictly increasing."""
    assert elem.order == 0 and elem._packed is not None, "a q-free element is not held packed"
    den, terms = elem.packed()
    assert den > 0 and gcd(den, *[c for _, c in terms]) == 1
    assert all(c for _, c in terms) and all(p < q for (p, _), (q, _) in zip(terms, terms[1:]))
    return elem


def has_view(elem):
    """Whether elem's `coeffs` slot is filled, read without building a q-free view."""
    try:
        CohElement.coeffs.__get__(elem)
    except AttributeError:
        return False
    return True


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def ring_and_terms(draw, count=3, with_unit=True):
    name = draw(st.sampled_from(sorted(RINGS)))
    pres, monos = RINGS[name], MONOMIALS[name]
    if not with_unit:
        monos = [m for m in monos if any(m)]
    draws = [draw(st.dictionaries(st.sampled_from(monos), rationals, max_size=4))
             for _ in range(count)]
    return pres, draws


@given(ring_and_terms())
def test_chained_products_sums_and_psi_match_the_dict_reference(case):
    pres, (ta, tb, tc) = case
    a, b, c = (element(pres, t) for t in (ta, tb, tc))
    ab, abc = ref_mul(pres, ta, tb), ref_mul(pres, ref_mul(pres, ta, tb), tc)
    product = packed(a * b)
    chained = packed(product * c)
    assert chained == packed(a * packed(b * c)) == element(pres, abc)
    both = packed(sum_of_products([(a, b), (product, c)]))
    assert both == element(pres, ref_add(pres, ab, abc))
    for k in (-2, -1, 0, 2, 3):
        assert packed(_exp_multiple(chained, k)) == element(pres, ref_psi(pres, abc, k))
    assert integrate(chained, MANIFOLDS[pres]) == HalfQSeries.constant(ref_integral(pres, abc), 0)
    total = sum_of_elements([product, chained, c])
    assert as_dict(total) == ref_add(pres, ab, abc, tc)
    assert as_dict(chained) == abc and as_dict(product) == ab


@given(ring_and_terms(count=2, with_unit=False), st.lists(rationals, min_size=7, max_size=7))
def test_exp_nilpotent_of_a_packed_element_matches_the_dict_reference(case, coeffs):
    pres, (ta, tb) = case
    a, b, one = element(pres, ta), element(pres, tb), CohElement.one(pres, 0)
    x = packed(sum_of_products([(a, one), (b, one), (a, b)]))  # a + b + ab: no unit term
    ref = ref_add(pres, ta, tb, ref_mul(pres, ta, tb))
    assert x == element(pres, ref)
    assert packed(exp_nilpotent(x)) == element(pres, ref_exp(pres, ref))
    assert packed(exp_nilpotent(element(pres, ref))) == exp_nilpotent(x)
    assert packed(_power_series(x, coeffs)) == element(pres, ref_power_series(pres, ref, coeffs))


@given(st.sampled_from(["schur6", "cp4", "custom"]), st.lists(rationals, min_size=6, max_size=6))
def test_exp_class_matches_the_dict_reference(name, coeffs):
    pres = RINGS[name]
    cs = [c if deg == 2 else 0 for c, deg in zip(coeffs, pres.degrees)]
    lc = LinearClass(pres, cs)
    linear = {tuple(int(j == i) for j in range(len(cs))): c for i, c in enumerate(cs) if c}
    assert packed(exp_class(lc, 0)) == element(pres, ref_exp(pres, ref_clean(pres, linear)))
    assert exp_class(lc, 0) == exp_nilpotent(lc.as_element(0))


# a surviving monomial whose square is zero: above the top, or killed by a^3 = 0
HALF_TOP = {"schur6": (4, 0, 0, 0, 0, 0), "cp4": (3,), "custom": (2, 0)}


def products(pres):
    """A packed product with several monomials of the ring, and its reference."""
    gens = [tuple(int(j == i) for j in range(len(pres.degrees))) for i in range(len(pres.degrees))]
    a = {pres.unit_monomial(): Fraction(1, 3), **{g: Fraction(i + 1, 2) for i, g in enumerate(gens)}}
    b = {pres.unit_monomial(): Fraction(-2), gens[0]: Fraction(5, 7)}
    return element(pres, a), element(pres, b), ref_mul(pres, a, b)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_every_view_coefficient_is_a_nonzero_canonical_series_of_order_zero(name):
    pres = RINGS[name]
    a, b, _ = products(pres)
    for elem in (a * b, exp_nilpotent(a * b - (a * b).scalar_part()), _exp_multiple(a * b, 3)):
        assert packed(elem).coeffs
        for mono, s in elem.coeffs.items():
            assert not pres.is_zero_monomial(mono)
            assert s.order == elem.order == 0 and not s.is_zero()
            assert s.den > 0 and gcd(s.den, *s.nums) == 1
            assert s == from_numerators(0, s.nums, s.den)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_reading_the_view_of_a_product_keeps_its_packed_form(name):
    pres = RINGS[name]
    a, b, ref = products(pres)
    product, fresh = packed(a * b), a * b
    held = product._packed
    assert not has_view(product)
    assert len(product.coeffs) == len(ref) and as_dict(product) == ref and has_view(product)
    assert product._packed is held  # the view sits beside the packed form
    assert isinstance(product.coeffs, MappingProxyType) and product.coeffs is product.coeffs
    assert packed(product) == fresh and fresh == product and str(product) == str(fresh)
    assert packed(product * b) == fresh * b == element(pres, ref_mul(pres, ref, as_dict(b)))
    assert packed(sum_of_products([(product, b), (a, fresh)])) == product * b + a * fresh
    assert packed(product + b) == fresh + b and packed(-product) == -fresh


@pytest.mark.parametrize("name", sorted(RINGS))
def test_a_q_free_view_refuses_assignment(name):
    pres = RINGS[name]
    a, b, ref = products(pres)
    mono = max(ref, key=pres.monomial_degree)
    for elem in (packed(a * b), a, CohElement.zero(pres, 0)):
        with pytest.raises(TypeError):
            elem.coeffs[mono] = HalfQSeries.one(0)
        with pytest.raises(TypeError):
            del elem.coeffs[pres.unit_monomial()]
    assert packed(a * b) == element(pres, ref)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_constructor_built_and_product_built_elements_compare_equal(name):
    pres = RINGS[name]
    a, b, ref = products(pres)
    built, product = packed(element(pres, ref)), packed(a * b)
    assert built == product and product == built and built._packed == product._packed
    assert str(built) == str(product) and built.scalar_part() == product.scalar_part()
    halved = packed(element(pres, {m: c / 2 for m, c in as_dict(a).items()}) * b)
    assert halved.packed()[1] == product.packed()[1] and halved != product  # only den differs
    assert product != packed(a * a)
    high = element(pres, {HALF_TOP[name]: Fraction(1)})
    zero = packed(high * high)
    assert zero.is_zero() and zero == CohElement.zero(pres, 0) == element(pres, {})
    assert zero.coeffs == {} and not product.is_zero() and product.is_zero() == (not ref)


def test_every_route_to_a_q_free_element_holds_it_packed(cp4):
    pres = cp4.presentation
    x = LinearClass.generator(pres, "x")
    a, b, _ = products(pres)
    e = ProjBundle(rank=2, roots=(x, x.scale(Fraction(-1, 3))), twist_b=x.scale(Fraction(1, 2)))
    routes = {
        "constructor": CohElement(pres, 0, {(1,): HalfQSeries.constant(Fraction(2, 3), 0)}),
        "constructor, truncating": CohElement(pres, 0, {(2,): HalfQSeries(3, [5, 1, 2, 3])}),
        "scalar": CohElement.scalar(pres, 0, Fraction(-4, 9)),
        "scalar of a series": CohElement.scalar(pres, 0, HalfQSeries(2, [3, 1, 1])),
        "one": CohElement.one(pres, 0), "zero": CohElement.zero(pres, 0),
        "as_element": x.scale(Fraction(3, 4)).as_element(0),
        "power_sums": power_sums([x, x.scale(Fraction(1, 2))], pres, 4)[3],
        "tangent_power_sums": cp4.tangent_power_sums[2],
        "+": a + b, "+ int": a + 2, "+ series": a + HalfQSeries(3, [1, 2, 3, 4]),
        "-": a - b, "- int": a - 2, "unary -": -a,
        "* int": a * 3, "* Fraction": Fraction(5, 6) * a, "* series": a * HalfQSeries(1, [2, 7]),
        "sum_of_elements": sum_of_elements([a, b, -a]),
        "product": a * b, "sum_of_products": sum_of_products([(a, b), (b, b)]),
        "exp_nilpotent": exp_nilpotent(a - a.scalar_part()),
        "_power_series": _power_series(b - b.scalar_part(), [1, 2, 3]),
        "invert": a.invert(),
        "scaled": power_sums([x], pres, 4)[2].scaled(HalfQSeries.constant(3, 0)),
        "exp_class": exp_class(x, 0), "_exp_multiple": _exp_multiple(a, 2),
        "_adams_series": _adams_series(a, [(2, 1, 0)]),
        "gch (_root_product)": gch(GradedKind.W, e, 0),
        "graded_decompose (_root_product)": graded_decompose(GradedKind.A, e, 0).weights[1],
        "mixed-order sum": sum_of_elements([a, CohElement.one(pres, 3)]),
        "mixed-order product": a * CohElement.one(pres, 3),
    }
    for route, elem in routes.items():
        assert packed(elem) is elem, route


def test_a_product_of_a_killed_key_is_dropped_in_the_custom_ring():
    a = element(CUSTOM, {(1, 0): Fraction(1)})
    a2 = packed(a * a)
    assert packed(a2 * a).is_zero()  # a^3 = 0 although degree 6 < top 8
    assert packed(a2 * element(CUSTOM, {(0, 1): Fraction(1)})) == element(CUSTOM, {(2, 1): 1})


def test_a_mixed_order_product_truncates_through_the_packed_route(cp4, monkeypatch):
    pres = cp4.presentation
    x = element(pres, {(1,): Fraction(1, 2), (0,): Fraction(3)})
    y = CohElement(pres, 2, {(1,): HalfQSeries(2, [Fraction(2, 3), 5, 0]),
                             (2,): HalfQSeries(2, [0, 1, 1])})
    # y's u^0 part read off its dict: a zero numerator kept, over the lcm of the denominators
    key = pres._table
    assert y._packed is None and y.packed() == (3, [(key[(1,)], 2), (key[(2,)], 0)])
    read, packed_off = [], CohElement.packed

    def spy(elem):
        read.append(elem.order)
        return packed_off(elem)

    monkeypatch.setattr(CohElement, "packed", spy)
    both = [x * y, y * x]
    monkeypatch.undo()
    assert read == [0, 2, 2, 0]  # each product read both operands' packed forms
    expected = element(pres, {(1,): Fraction(2), (2,): Fraction(1, 3)})
    assert packed(both[0]) == expected and packed(both[1]) == expected
    assert y._packed is None and len(y.coeffs) == 2  # the order-2 operand stays a dict


@given(ring_and_terms(count=2))
def test_a_packed_element_prints_and_reads_its_scalar_part_without_a_view(case):
    # str and scalar_part read the packed numerators; the reference reads the view afterwards
    pres, (a, b) = case
    product = packed(element(pres, a) * element(pres, b))
    text, scalar = str(product), product.scalar_part()
    assert not has_view(product)
    key = pres._table
    terms = sorted([(key[m], str(s)) for m, s in product.coeffs.items()])
    assert text == " + ".join([f"({s})*{pres.monomial_str(key[k])}" if k else f"({s})"
                               for k, s in terms]) or "0"
    assert scalar == product.coefficient(pres.unit_monomial())


def test_coefficient_builds_a_zero_series_only_for_a_missing_monomial(cp2, monkeypatch):
    elem = CohElement(cp2.presentation, 3, {(1,): HalfQSeries(3, [1, 2, 3, 4])})

    def refuse(order):
        raise AssertionError("zero series built for a stored monomial")

    monkeypatch.setattr(HalfQSeries, "zero", staticmethod(refuse))
    assert elem.coefficient((1,)) is elem.coeffs[(1,)]
    monkeypatch.undo()
    assert elem.coefficient((2,)) == HalfQSeries.zero(3)
