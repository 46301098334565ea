import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from holobundle.blowup import (
    BlowupMap,
    blow_up,
    decompose_c1,
    m_blowup_inequality_check,
    normalize_twist,
    pr_transfer_check,
    pullback_invariance_check,
    pushforward_delta_bound,
)
from holobundle.bundles import BundleTopology, discriminant
from holobundle.errors import DomainError
from holobundle.lattice import IntersectionLattice, pairing
from holobundle.minvariant import _quotient_blocks, m_compute
from holobundle.sampling import random_bundle, random_nsd_lattice, random_vector


def lat(*rows):
    return IntersectionLattice(tuple(tuple(r) for r in rows))


MINUS_TWO = lat([-2])
BMAP = blow_up(MINUS_TWO)


def test_blow_up_extends_gram():
    assert BMAP.total.gram == ((-2, 0), (0, -1))
    assert BMAP.exceptional_class == (0, 1)
    assert BMAP.embed((3,)) == (3, 0)
    assert blow_up(lat()).total.gram == ((-1,),)


def test_blowup_map_validation():
    with pytest.raises(DomainError, match="exceptional"):
        BlowupMap(MINUS_TWO, lat([-2, 0], [0, -2]), 1)
    with pytest.raises(DomainError, match="exceptional"):
        BlowupMap(MINUS_TWO, lat([-2, 1], [1, -1]), 1)
    with pytest.raises(DomainError):
        BlowupMap(lat([-3]), lat([-2, 0], [0, -1]), 1)


def test_decompose_fixtures():
    assert decompose_c1(BMAP, (3, 1)) == ((3,), 1)
    assert decompose_c1(BMAP, (2, -2)) == ((2,), -2)


@given(st.integers(-6, 6), st.integers(-6, 6))
def test_decompose_roundtrip(a0, k):
    a, got_k = decompose_c1(BMAP, (a0, k))
    assert a == (a0,) and got_k == k


def test_blowup_is_isometric_extension():
    rng = random.Random(19)
    for _ in range(60):
        base = random_nsd_lattice(rng, rng.randint(0, 3))
        bmap = blow_up(base)
        x = random_vector(rng, base.rank, -3, 3)
        y = random_vector(rng, base.rank, -3, 3)
        assert pairing(bmap.total, bmap.embed(x), bmap.embed(y)) == pairing(base, x, y)
        assert pairing(bmap.total, bmap.exceptional_class, bmap.embed(x)) == 0


def test_normalize_twist_fixture():
    bundle = BundleTopology(2, (1, 3), 2)
    twisted, twist = normalize_twist(BMAP, bundle)
    assert twist == -1
    assert twisted.c1 == (1, 1)
    assert twisted.c2 == 4
    assert discriminant(BMAP.total, twisted) == discriminant(BMAP.total, bundle) == 19


def test_normalize_twist_negative_k():
    twisted, twist = normalize_twist(BMAP, BundleTopology(3, (0, -2), 0))
    assert twist == 1
    assert twisted.c1 == (0, 1)
    _, k = decompose_c1(BMAP, twisted.c1)
    assert 0 <= k < 3


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-3, 3), st.integers(2, 4))
def test_normalize_twist_properties(a0, k, c2, r):
    bundle = BundleTopology(r, (a0, k), c2)
    twisted, _ = normalize_twist(BMAP, bundle)
    _, k_new = decompose_c1(BMAP, twisted.c1)
    assert 0 <= k_new < r
    assert discriminant(BMAP.total, twisted) == discriminant(BMAP.total, bundle)


def test_pushforward_delta_bound():
    assert pushforward_delta_bound(6, 2, 1) == 5
    assert pushforward_delta_bound(6, 2, 0) == 6
    assert pushforward_delta_bound(10, 4, 2) == 6
    with pytest.raises(DomainError):
        pushforward_delta_bound(6, 2, 2)
    with pytest.raises(DomainError):
        pushforward_delta_bound(6, 2, -1)
    for r, k in ((2.5, 1), (2.0, 1), (2, 1.0), (3, Fraction(1))):
        with pytest.raises(DomainError):
            pushforward_delta_bound(5, r, k)


def test_exceptional_coordinate_is_a_quotient_single():
    # an ambient <-1> stays a +-e_n coordinate of the quotient form, so
    # m_value reads it in closed form and the blow-up margins are 0
    rng = random.Random(53)
    for _ in range(200):
        base = random_nsd_lattice(rng, rng.randint(0, 4))
        singles, _ = _quotient_blocks(blow_up(base).total)
        assert (base.rank, 1) in singles


def test_m_inequality_tight_fixture():
    report = m_blowup_inequality_check(BMAP, 2, (1,), 1)
    assert report.m_total == 3 and report.m_base == 2
    assert report.margin == 0 and report.holds


def test_m_inequality_rank_zero_base():
    bmap = blow_up(lat())
    report = m_blowup_inequality_check(bmap, 2, (), 1)
    assert report.m_total == 1 and report.m_base == 0
    assert report.margin == 0


def test_m_inequality_seeded():
    rng = random.Random(29)
    for _ in range(60):
        base = random_nsd_lattice(rng, rng.randint(0, 3))
        bmap = blow_up(base)
        r = rng.choice([2, 3, 4])
        k = rng.randrange(r)
        a = random_vector(rng, base.rank)
        report = m_blowup_inequality_check(bmap, r, a, k)
        assert report.holds
        if k == 0:
            assert report.m_total == report.m_base


def test_pullback_invariance():
    report = pullback_invariance_check(BMAP, BundleTopology(2, (1,), 1))
    assert report.holds
    assert report.delta_base == report.delta_total
    assert report.m_base == report.m_total
    rng = random.Random(31)
    for _ in range(60):
        base = random_nsd_lattice(rng, rng.randint(0, 3))
        assert pullback_invariance_check(blow_up(base), random_bundle(rng, base)).holds


def test_pr_transfer_seeded():
    rng = random.Random(37)
    instances = [random_bundle(rng, BMAP.total, c1_lo=-4, c1_hi=4) for _ in range(60)]
    report = pr_transfer_check(BMAP, instances)
    assert report.violations == 0
    for rec in report.records:
        assert 0 <= rec.k < rec.rank
        if rec.k == 0:
            assert rec.margin == 0


def test_blowup_identity_by_the_unsplit_search():
    # m_compute searches the whole blown-up lattice, so this checks the
    # identity that m_value (and thus every margin above) has by construction
    rng = random.Random(47)
    for _ in range(80):
        bmap = blow_up(random_nsd_lattice(rng, rng.randint(0, 3)))
        r = rng.randint(2, 5)
        a = random_vector(rng, bmap.base.rank)
        k = rng.randint(-2 * r, 2 * r)
        kk = k % r
        total = m_compute(bmap.total, r, a + (k,)).value
        assert total == m_compute(bmap.base, r, a).value + kk * (r - kk)
