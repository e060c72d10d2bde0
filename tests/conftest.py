from fractions import Fraction

import pytest
from hypothesis import settings

from ellgen import genera, theta
from ellgen.bundleops import ProjBundle
from ellgen.cohring import LinearClass, builtin_manifold
from ellgen.theta import FactorSeries

settings.register_profile("ci", max_examples=25, deadline=None)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def cp2():
    return builtin_manifold("CP2")


@pytest.fixture(scope="session")
def cp4():
    return builtin_manifold("CP4")


@pytest.fixture(scope="session")
def x_class(cp2):
    return LinearClass.generator(cp2.presentation, "x")


@pytest.fixture(scope="session")
def zero_class(cp2):
    return LinearClass.zero(cp2.presentation)


@pytest.fixture(scope="session")
def o1_bundle(cp2, x_class, zero_class):
    return ProjBundle(rank=1, roots=(x_class,), twist_b=zero_class)


@pytest.fixture(scope="session")
def trivial_line(cp2, zero_class):
    return ProjBundle(rank=1, roots=(zero_class,), twist_b=zero_class)


@pytest.fixture(scope="session")
def matched_bundle(cp2, x_class, zero_class):
    # sum of shifted squares equals the tangent p1: three copies of x
    return ProjBundle(rank=3, roots=(x_class, x_class, x_class), twist_b=zero_class)


@pytest.fixture(scope="session")
def half_x(cp2, x_class):
    return x_class.scale(Fraction(1, 2))


# -- planted A-hat coefficient faults, each reaching one engine only ----------

# every cache that holds a theta factor, an A-hat log or a value built from one
MUTANT_CACHES = (theta.factor_log, theta.elliptic_factor, genera.bundle_root_factor,
                 genera._tangent_core, genera._universal_genus, genera._definition_tangent_part)


def _cold_engines():
    """Clear every mutant cache when the fault is planted and again after the test."""
    for cache in MUTANT_CACHES:
        cache.cache_clear()
    yield
    for cache in MUTANT_CACHES:
        cache.cache_clear()


@pytest.fixture
def bernoulli_4_mutant(monkeypatch):
    """B_4 + 1/7 in the definition engine's A-hat log; the theta engine reads no
    Bernoulli number.  It moves the p_4 term, so CP4 sees it and CP2 does not."""
    bernoulli = genera._bernoulli
    monkeypatch.setattr(genera, "_bernoulli", lambda n: [
        b + Fraction(1, 7) if j == 4 else b for j, b in enumerate(bernoulli(n))])
    yield from _cold_engines()


@pytest.fixture
def sinh_z4_mutant(monkeypatch):
    """The z^4 coefficient of `theta._half_argument_series` doubled: of 2 sinh(z/2)/z, the
    front of the theta engine's odd factor, and of cosh(z/2), the THETA1 front.  The
    definition engine reads neither."""
    half_argument = theta._half_argument_series

    def doubled(z_degree, order, shift):
        coeffs = half_argument(z_degree, order, shift).coeffs
        return FactorSeries.build(z_degree, order,
                                  [c * 2 if k == 4 else c for k, c in enumerate(coeffs)])

    monkeypatch.setattr(theta, "_half_argument_series", doubled)
    yield from _cold_engines()
