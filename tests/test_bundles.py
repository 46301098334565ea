import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from holobundle.bundles import (
    BundleTopology,
    discriminant,
    euler_characteristic,
    k3_simple_h1,
    pontrjagin_p1,
    w2_vanishes,
)
from holobundle.criteria import SurfaceKind, SurfaceModel
from holobundle.errors import DomainError
from holobundle.lattice import IntersectionLattice, pairing
from holobundle.sampling import random_bundle, random_k3_surface

MINUS_TWO = IntersectionLattice(((-2,),))
K3_SURFACE = SurfaceModel(SurfaceKind.K3, MINUS_TWO, 2, (0,))


def test_bundle_validation():
    with pytest.raises(DomainError):
        BundleTopology(0, (1,), 0)
    with pytest.raises(DomainError):
        BundleTopology(2, (1.5,), 0)


def test_bundle_rejects_fractional_rank():
    with pytest.raises(DomainError):
        BundleTopology(2.5, (1,), 1)


def test_discriminant_fixtures():
    assert discriminant(MINUS_TWO, BundleTopology(2, (1,), 1)) == 6
    assert discriminant(MINUS_TWO, BundleTopology(2, (0,), 1)) == 4
    assert discriminant(MINUS_TWO, BundleTopology(2, (2,), -1)) == 4
    assert discriminant(MINUS_TWO, BundleTopology(2, (0,), 0)) == 0
    assert discriminant(MINUS_TWO, BundleTopology(3, (1,), 1)) == 10


def test_pontrjagin_is_minus_discriminant():
    bundle = BundleTopology(2, (1,), 1)
    assert pontrjagin_p1(MINUS_TWO, bundle) == -discriminant(MINUS_TWO, bundle)


@given(
    st.integers(2, 4),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(-2, 0),
)
def test_discriminant_parity(r, c1_coord, c2, diag):
    lattice = IntersectionLattice(((diag,),))
    delta = discriminant(lattice, BundleTopology(r, (c1_coord,), c2))
    c1_sq = pairing(lattice, (c1_coord,), (c1_coord,))
    assert (delta + (r - 1) * c1_sq) % (2 * r) == 0


def test_w2():
    assert w2_vanishes(MINUS_TWO, BundleTopology(2, (2,), 0))
    assert not w2_vanishes(MINUS_TWO, BundleTopology(2, (1,), 0))
    with pytest.raises(DomainError):
        w2_vanishes(MINUS_TWO, BundleTopology(3, (1,), 0))


def test_euler_characteristic_k3_fixtures():
    cases = [
        (BundleTopology(2, (0,), 0), Fraction(4)),
        (BundleTopology(2, (0,), 1), Fraction(3)),
        (BundleTopology(2, (1,), 1), Fraction(2)),
    ]
    for bundle, want in cases:
        chi, integral = euler_characteristic(K3_SURFACE, bundle)
        assert chi == want
        assert integral


def test_euler_characteristic_non_integral():
    surface = SurfaceModel(SurfaceKind.GENERIC, IntersectionLattice(((-1,),)), 0, (0,))
    chi, integral = euler_characteristic(surface, BundleTopology(2, (1,), 0))
    assert chi == Fraction(-1, 2)
    assert not integral


def classical_riemann_roch(surface, bundle):
    # independent form: r chi(O) + c1.(-K)/2 + (c1^2 - 2 c2)/2
    c1_sq = pairing(surface.lattice, bundle.c1, bundle.c1)
    c1_k = pairing(surface.lattice, bundle.c1, surface.anticanonical)
    return (
        bundle.rank * surface.chi_o
        + Fraction(c1_k, 2)
        + Fraction(c1_sq - 2 * bundle.c2, 2)
    )


def test_euler_characteristic_matches_classical_form():
    rng = random.Random(23)
    for _ in range(80):
        surface = random_k3_surface(rng)
        bundle = random_bundle(rng, surface.lattice)
        chi, _ = euler_characteristic(surface, bundle)
        assert chi == classical_riemann_roch(surface, bundle)


def test_k3_simple_h1():
    assert k3_simple_h1(6) == 0
    assert k3_simple_h1(4) == -2
    assert k3_simple_h1(10) == 4
    for delta in range(-10, 11):
        assert (k3_simple_h1(delta) < 0) == (delta < 6)
