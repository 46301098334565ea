import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from holobundle.bundles import BundleTopology, discriminant
from holobundle.criteria import (
    NO,
    NOT_COVERED,
    YES,
    SurfaceKind,
    SurfaceModel,
    Verdict,
    decide_class_vii,
    decide_filtrable_generic,
    decide_k3,
)
from holobundle.errors import DomainError, InvariantError, LatticeError
from holobundle.lattice import IntersectionLattice
from holobundle.minvariant import m_compute, m_value
from holobundle.sampling import (
    random_bundle,
    random_class_vii_surface,
    random_direct_sum_bundle,
)

MINUS_TWO = IntersectionLattice(((-2,),))


def k3_surface(gram=((-2,),), a_x=0):
    lattice = IntersectionLattice(tuple(tuple(r) for r in gram))
    return SurfaceModel(SurfaceKind.K3, lattice, 2, (0,) * lattice.rank, algebraic_dimension=a_x)


def test_surface_validation():
    with pytest.raises(LatticeError):
        k3_surface(gram=((-1,),))
    with pytest.raises(DomainError):
        SurfaceModel(SurfaceKind.K3, MINUS_TWO, 0, (0,))
    with pytest.raises(DomainError):
        SurfaceModel(SurfaceKind.K3, MINUS_TWO, 2, (1,))
    with pytest.raises(DomainError):
        SurfaceModel(SurfaceKind.GENERIC, MINUS_TWO, 0, (0, 0))
    with pytest.raises(DomainError):
        SurfaceModel(SurfaceKind.GENERIC, MINUS_TWO, 0, (0,), algebraic_dimension=2)
    with pytest.raises(LatticeError):
        SurfaceModel(SurfaceKind.GENERIC, IntersectionLattice(((1,),)), 0, (0,))


def test_k3_exceptional_case():
    verdict = decide_k3(k3_surface(), BundleTopology(2, (0,), 1))
    assert (verdict.holomorphic, verdict.filtrable) == (NO, NO)
    assert verdict.exceptional_case
    assert verdict.clause == "k3-exceptional"
    assert verdict.delta == 4 and verdict.m_value == 0


def test_k3_small_discriminant_yes():
    verdict = decide_k3(k3_surface(), BundleTopology(2, (1,), 0))
    assert (verdict.holomorphic, verdict.filtrable) == (YES, YES)
    assert verdict.delta == 2 and verdict.m_value == 2
    assert verdict.clause == "k3-criterion"


def test_k3_trivial_chern_classes():
    verdict = decide_k3(k3_surface(), BundleTopology(2, (0,), 0))
    assert (verdict.holomorphic, verdict.filtrable) == (YES, YES)
    assert verdict.delta == 0 and not verdict.exceptional_case


def test_k3_min_clause_splits_verdicts():
    # m = 10 > 6 = delta: holomorphic via the min(6, m) threshold, not filtrable
    verdict = decide_k3(k3_surface(gram=((-10,),)), BundleTopology(2, (1,), -1))
    assert verdict.delta == 6 and verdict.m_value == 10
    assert (verdict.holomorphic, verdict.filtrable) == (YES, NO)
    # m = 6 = delta: both thresholds met
    verdict = decide_k3(k3_surface(gram=((-6,),)), BundleTopology(2, (1,), 0))
    assert verdict.delta == 6 and verdict.m_value == 6
    assert (verdict.holomorphic, verdict.filtrable) == (YES, YES)


def test_k3_window_on_even_diagonal_families():
    # gram [[-2k]], c1 = (1): m = 2k sweeps both sides of the threshold 6
    for k in range(1, 5):
        surface = k3_surface(gram=((-2 * k,),))
        m = m_compute(surface.lattice, 2, (1,)).value
        assert m == 2 * k
        for c2 in range(-3, 4):
            verdict = decide_k3(surface, BundleTopology(2, (1,), c2))
            delta = verdict.delta
            assert verdict.filtrable == (YES if delta >= m else NO)
            if m >= 6:
                assert verdict.holomorphic == (YES if delta >= 6 else NO)
            else:
                assert verdict.holomorphic == verdict.filtrable


def test_k3_delta_four_with_positive_algebraic_dimension():
    verdict = decide_k3(k3_surface(a_x=1), BundleTopology(2, (2,), -1))
    assert verdict.delta == 4
    assert not verdict.exceptional_case
    assert verdict.filtrable == YES


def test_k3_domain_errors():
    with pytest.raises(DomainError):
        decide_k3(k3_surface(), BundleTopology(3, (1,), 0))
    generic = SurfaceModel(SurfaceKind.GENERIC, MINUS_TWO, 0, (0,))
    with pytest.raises(DomainError):
        decide_k3(generic, BundleTopology(2, (1,), 0))


def test_c1_outside_ns_is_no_everywhere():
    bundle = BundleTopology(2, (1,), 0, c1_in_ns=False)
    assert decide_k3(k3_surface(), bundle).clause == "c1-outside-ns"
    vii = SurfaceModel(SurfaceKind.CLASS_VII, MINUS_TWO, 0, (0,))
    assert decide_class_vii(vii, bundle).holomorphic == NO
    generic = SurfaceModel(SurfaceKind.GENERIC, MINUS_TWO, 0, (0,))
    verdict = decide_filtrable_generic(generic, bundle)
    assert (verdict.holomorphic, verdict.filtrable) == (NO, NO)


def test_class_vii_verdicts():
    surface = SurfaceModel(SurfaceKind.CLASS_VII, IntersectionLattice(()), 0, ())
    yes = decide_class_vii(surface, BundleTopology(2, (), 1))
    assert (yes.holomorphic, yes.filtrable) == (YES, YES)
    assert yes.clause == "vii-criterion"
    no = decide_class_vii(surface, BundleTopology(2, (), -1))
    assert (no.holomorphic, no.filtrable) == (NO, NO)


def test_class_vii_not_applicable():
    surface = SurfaceModel(
        SurfaceKind.CLASS_VII, IntersectionLattice(()), 0, (), vii_applicable=False
    )
    verdict = decide_class_vii(surface, BundleTopology(2, (), 1))
    assert (verdict.holomorphic, verdict.filtrable) == (NOT_COVERED, NOT_COVERED)
    assert verdict.clause == "vii-hypothesis-not-covered"
    assert verdict.m_value is None


def test_class_vii_equivalence_seeded():
    rng = random.Random(5)
    for _ in range(100):
        surface = random_class_vii_surface(rng)
        bundle = random_bundle(rng, surface.lattice, allow_outside_ns=True)
        verdict = decide_class_vii(surface, bundle)
        assert verdict.holomorphic == verdict.filtrable
        delta = discriminant(surface.lattice, bundle)
        expected = (
            YES
            if bundle.c1_in_ns
            and delta >= m_compute(surface.lattice, bundle.rank, bundle.c1).value
            else NO
        )
        assert verdict.holomorphic == expected


def test_generic_filtrable():
    surface = SurfaceModel(SurfaceKind.GENERIC, MINUS_TWO, 0, (0,))
    yes = decide_filtrable_generic(surface, BundleTopology(2, (1,), 1))
    assert (yes.holomorphic, yes.filtrable) == (YES, YES)
    assert yes.clause == "generic-filtrable-criterion"
    no = decide_filtrable_generic(surface, BundleTopology(2, (1,), -2))
    assert (no.holomorphic, no.filtrable) == (NOT_COVERED, NO)


def test_verdict_coherence_guard():
    with pytest.raises(InvariantError):
        Verdict(NO, YES, "k3-criterion", 0, 0)


# Each case breaks one internal consistency check, by bad arguments or by
# swapping in a wrong helper, and must still raise under python -O.
INVARIANT_PROBE = textwrap.dedent(
    """
    import contextlib
    from unittest import mock

    from holobundle import blowup, criteria, intlinalg, lattice
    from holobundle.bundles import BundleTopology
    from holobundle.errors import InvariantError
    from holobundle.lattice import IntersectionLattice

    BMAP = blowup.blow_up(IntersectionLattice(((-2,),)))
    BUNDLE = BundleTopology(2, (1, 3), 2)
    real_pairing = blowup.pairing

    def skewed_pairing(lat, x, y):
        return real_pairing(lat, x, y) + (tuple(x) == tuple(y) == (1, 1))

    def column_reduce_with_rank(rank_form):
        def fake(gram, n):
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            return rank_form, eye, [row[:] for row in eye]
        return fake

    def probe(name, call, patch=None):
        with mock.patch.object(*patch) if patch else contextlib.nullcontext():
            try:
                call()
            except InvariantError:
                print(name)

    probe("verdict-values", lambda: criteria.Verdict("maybe", "no", "k3-criterion", 0, 0))
    probe("verdict-filtrable", lambda: criteria.Verdict("no", "yes", "k3-criterion", 0, 0))
    probe("verdict-exceptional", lambda: criteria.Verdict("yes", "yes", "k3-exceptional", 4, 0, True))
    twist = lambda: blowup.normalize_twist(BMAP, BUNDLE)
    probe("decompose", lambda: blowup.decompose_c1(BMAP, (1, 3)), (blowup, "pairing", lambda *a: 0))
    probe("twist-c2", twist, (blowup, "pairing", skewed_pairing))
    probe("twist-delta", twist, (blowup, "discriminant", lambda lat, b: b.c2))
    probe(
        "radical",
        lambda: lattice.radical_and_quotient(IntersectionLattice(((-2,),))),
        (intlinalg, "column_reduce", column_reduce_with_rank(0)),
    )
    probe(
        "quotient",
        lambda: lattice.radical_and_quotient(IntersectionLattice(((0, 0), (0, -1)))),
        (intlinalg, "column_reduce", column_reduce_with_rank(2)),
    )
    """
)


def test_invariant_errors_survive_optimize_flag():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", INVARIANT_PROBE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "verdict-values",
        "verdict-filtrable",
        "verdict-exceptional",
        "decompose",
        "twist-c2",
        "twist-delta",
        "radical",
        "quotient",
    ]


def test_property_pr_on_direct_sums():
    # sums of line bundles are filtrable, so delta >= m holds on them
    rng = random.Random(9)
    surface = SurfaceModel(SurfaceKind.CLASS_VII, MINUS_TWO, 0, (0,))
    for _ in range(50):
        bundle = random_direct_sum_bundle(rng, surface.lattice)
        assert discriminant(surface.lattice, bundle) >= m_value(surface.lattice, bundle.rank, bundle.c1)
        assert decide_filtrable_generic(surface, bundle).filtrable == YES


@pytest.mark.parametrize("chi_o", [0.5, 1.0, Fraction(1)])
def test_surface_rejects_non_integer_chi_o(chi_o):
    with pytest.raises(DomainError, match="chi_o"):
        SurfaceModel(SurfaceKind.CLASS_VII, MINUS_TWO, chi_o, (0,))


@pytest.mark.parametrize("a_x", [0.0, 1.0])
def test_surface_rejects_non_integer_algebraic_dimension(a_x):
    with pytest.raises(DomainError, match="algebraic dimension"):
        SurfaceModel(SurfaceKind.GENERIC, MINUS_TWO, 0, (0,), algebraic_dimension=a_x)
