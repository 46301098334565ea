"""Seeded property suite exercised by the CLI check command and by tests.

Every property draws its instances from a shared random.Random, so a
fixed seed reproduces the identical report byte for byte.  Violation
counts should always be zero; nonzero counts mean an implementation
invariant is broken.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

from .blowup import (
    blow_up,
    decompose_c1,
    m_blowup_inequality_check,
    normalize_twist,
    pullback_invariance_check,
)
from .bundles import BundleTopology, discriminant, euler_characteristic, w2_vanishes
from .criteria import (
    NO,
    NOT_COVERED,
    YES,
    SurfaceKind,
    SurfaceModel,
    decide_class_vii,
    decide_filtrable_generic,
    decide_k3,
)
from .lattice import (
    Definiteness,
    IntersectionLattice,
    classify_definiteness,
    pairing,
    project_to_quotient,
    qform,
    radical_and_quotient,
    vec_add,
    vec_scale,
)
from .minvariant import m_compute, m_oracle, round_half_toward_zero
from .sampling import (
    random_bundle,
    random_class_vii_surface,
    random_direct_sum_bundle,
    random_even_nsd_lattice,
    random_k3_surface,
    random_nsd_lattice,
    random_unimodular,
    random_vector,
)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    instances: int
    violations: int
    note: str = ""


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    radius: int
    results: Tuple[PropertyResult, ...]

    @property
    def total_violations(self) -> int:
        return sum(res.violations for res in self.results)


def prop_pairing_bilinear(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        lat = random_nsd_lattice(rng, rng.randint(1, 3))
        x = random_vector(rng, lat.rank, -3, 3)
        y = random_vector(rng, lat.rank, -3, 3)
        z = random_vector(rng, lat.rank, -3, 3)
        p, q = rng.randint(-2, 2), rng.randint(-2, 2)
        sym = pairing(lat, x, y) == pairing(lat, y, x)
        comb = vec_add(vec_scale(p, x), vec_scale(q, y))
        lin = pairing(lat, comb, z) == p * pairing(lat, x, z) + q * pairing(lat, y, z)
        if not (sym and lin):
            bad += 1
    return PropertyResult("pairing-symmetry-bilinearity", count, bad)


def prop_semidefinite_sign(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        lat = random_nsd_lattice(rng, rng.randint(1, 3))
        qd = radical_and_quotient(lat)
        x = random_vector(rng, lat.rank, -3, 3)
        sq = pairing(lat, x, x)
        proj_zero = all(c == 0 for c in project_to_quotient(qd, x))
        if sq > 0 or (sq == 0) != proj_zero:
            bad += 1
    return PropertyResult("semidefinite-pairing-sign", count, bad)


def prop_quotient_roundtrip(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        lat = random_nsd_lattice(rng, rng.randint(1, 3))
        qd = radical_and_quotient(lat)
        x = random_vector(rng, lat.rank, -3, 3)
        if pairing(lat, x, x) != qform(qd.quotient_gram, project_to_quotient(qd, x)):
            bad += 1
    return PropertyResult("quotient-roundtrip", count, bad)


def _brute_force_classify(lat: IntersectionLattice, box: int = 3) -> Definiteness:
    # sign scan of the form over a coordinate box
    from itertools import product

    saw_zero = False
    for x in product(range(-box, box + 1), repeat=lat.rank):
        if not any(x):
            continue
        sq = qform(lat.gram, x)
        if sq > 0:
            return Definiteness.INDEFINITE_OR_POSITIVE
        if sq == 0:
            saw_zero = True
    if saw_zero:
        return Definiteness.NEGATIVE_SEMIDEFINITE_DEGENERATE
    return Definiteness.NEGATIVE_DEFINITE


def prop_definiteness_brute_force(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        rank = rng.randint(1, 4)
        if rng.random() < 0.5:
            lat = random_nsd_lattice(rng, rank)
        else:
            g = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                g[i][i] = rng.randint(-4, 4)
                for j in range(i + 1, rank):
                    g[i][j] = g[j][i] = rng.randint(-4, 4)
            lat = IntersectionLattice(tuple(tuple(row) for row in g))
        if classify_definiteness(lat) is not _brute_force_classify(lat):
            bad += 1
    return PropertyResult("definiteness-brute-force", count, bad)


def _random_m_instance(rng: random.Random):
    lat = random_nsd_lattice(rng, rng.randint(1, 3))
    r = rng.choice([2, 3, 4])
    a = random_vector(rng, lat.rank, -2, 2)
    return lat, r, a


def prop_oracle_agreement(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    certified = 0
    for _ in range(count):
        lat, r, a = _random_m_instance(rng)
        res_c = m_compute(lat, r, a)
        res_o = m_oracle(lat, r, a, radius)
        if res_o.certified:
            certified += 1
            if (res_c.value, res_c.scaled_objective, res_c.decomposition) != (
                res_o.value,
                res_o.scaled_objective,
                res_o.decomposition,
            ):
                bad += 1
    return PropertyResult("m-oracle-agreement", count, bad, f"certified={certified}")


def prop_m_integrality(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        lat, r, a = _random_m_instance(rng)
        res = m_compute(lat, r, a)
        ok = (
            isinstance(res.value, int)
            and res.value >= 0
            and res.scaled_objective == r * res.value
        )
        if not ok:
            bad += 1
    return PropertyResult("m-integrality-nonnegativity", count, bad)


def prop_m_translation(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        lat, r, a = _random_m_instance(rng)
        lam = random_vector(rng, lat.rank, -2, 2)
        shifted = vec_add(a, vec_scale(r, lam))
        if m_compute(lat, r, a).value != m_compute(lat, r, shifted).value:
            bad += 1
    return PropertyResult("m-translation-invariance", count, bad)


def prop_m_zero_law(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        lat, r, a = _random_m_instance(rng)
        qd = radical_and_quotient(lat)
        divisible = all(c % r == 0 for c in project_to_quotient(qd, a))
        if (m_compute(lat, r, a).value == 0) != divisible:
            bad += 1
    return PropertyResult("m-zero-law", count, bad)


def prop_m_permutation(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        lat, r, a = _random_m_instance(rng)
        res = m_compute(lat, r, a)
        mus = list(res.decomposition)
        rng.shuffle(mus)
        total = 0
        for mu in mus:
            dev = tuple(ai - r * mi for ai, mi in zip(a, mu))
            total += -pairing(lat, dev, dev)
        if total != res.scaled_objective:
            bad += 1
    return PropertyResult("m-permutation-invariance", count, bad)


def prop_m_seed_bound(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        lat, r, a = _random_m_instance(rng)
        qd = radical_and_quotient(lat)
        q = [[-e for e in row] for row in qd.quotient_gram]
        s = project_to_quotient(qd, a)
        d = len(s)
        c = tuple(round_half_toward_zero(s[j], r) for j in range(d))
        ys = [c] * (r - 1) + [tuple(s[j] - (r - 1) * c[j] for j in range(d))]
        seed_t = sum(qform(q, [s[j] - r * y[j] for j in range(d)]) for y in ys)
        if m_compute(lat, r, a).scaled_objective > seed_t:
            bad += 1
    return PropertyResult("m-balanced-seed-bound", count, bad)


def prop_delta_parity(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        lat = random_nsd_lattice(rng, rng.randint(1, 3))
        bundle = random_bundle(rng, lat)
        delta = discriminant(lat, bundle)
        c1_sq = pairing(lat, bundle.c1, bundle.c1)
        if (delta + (bundle.rank - 1) * c1_sq) % (2 * bundle.rank):
            bad += 1
    return PropertyResult("delta-parity", count, bad)


def prop_chi_classical(rng: random.Random, count: int, radius: int) -> PropertyResult:
    from fractions import Fraction

    bad = 0
    for _ in range(count):
        surf = random_k3_surface(rng)
        bundle = random_bundle(rng, surf.lattice, rank=2)
        chi, integral = euler_characteristic(surf, bundle)
        c1_sq = pairing(surf.lattice, bundle.c1, bundle.c1)
        c1_k = pairing(surf.lattice, bundle.c1, surf.anticanonical)
        classical = (
            bundle.rank * surf.chi_o
            + Fraction(c1_k, 2)
            + Fraction(c1_sq - 2 * bundle.c2, 2)
        )
        # even Gram diagonal makes c1^2 even, so chi must be integral here
        if chi != classical or not integral:
            bad += 1
    return PropertyResult("chi-classical-agreement", count, bad)


def prop_w2_m_zero(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        lat = random_nsd_lattice(rng, rng.randint(1, 3))
        v = random_vector(rng, lat.rank, -1, 1)
        bundle = BundleTopology(2, vec_scale(2, v), rng.randint(-3, 3))
        if not w2_vanishes(lat, bundle):
            bad += 1
            continue
        if m_compute(lat, 2, bundle.c1).value != 0:
            bad += 1
    return PropertyResult("w2-implies-m-zero", count, bad)


def prop_decide_monotone_c2(rng: random.Random, count: int, radius: int) -> PropertyResult:
    rank_order = {NO: 0, NOT_COVERED: 1, YES: 2}
    bad = 0
    for _ in range(count):
        if rng.random() < 0.5:
            surf = random_k3_surface(rng)
            decide = decide_k3
            r = 2
        else:
            surf = random_class_vii_surface(rng)
            decide = decide_class_vii
            r = rng.choice([1, 2, 3])
        c1 = random_vector(rng, surf.lattice.rank, -2, 2)
        c2_start = rng.randint(-3, 0)
        prev = None
        for c2 in range(c2_start, c2_start + 5):
            v = decide(surf, BundleTopology(r, c1, c2))
            if v.exceptional_case:
                prev = None  # the excluded configuration interrupts the scan
                continue
            if prev is not None:
                if rank_order[v.holomorphic] < rank_order[prev.holomorphic]:
                    bad += 1
                if rank_order[v.filtrable] < rank_order[prev.filtrable]:
                    bad += 1
            prev = v
    return PropertyResult("verdict-monotone-in-c2", count, bad)


def prop_verdict_coherence(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        style = rng.randint(0, 2)
        if style == 0:
            surf = random_k3_surface(rng)
            v = decide_k3(surf, random_bundle(rng, surf.lattice, rank=2, allow_outside_ns=True))
        elif style == 1:
            surf = random_class_vii_surface(rng)
            v = decide_class_vii(surf, random_bundle(rng, surf.lattice, allow_outside_ns=True))
        else:
            lat = random_nsd_lattice(rng, rng.randint(0, 3))
            surf = SurfaceModel(SurfaceKind.GENERIC, lat, rng.randint(0, 2), (0,) * lat.rank)
            v = decide_filtrable_generic(surf, random_bundle(rng, surf.lattice, allow_outside_ns=True))
        if v.filtrable == YES and v.holomorphic != YES:
            bad += 1
    return PropertyResult("verdict-coherence", count, bad)


def prop_vii_equivalence(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        surf = random_class_vii_surface(rng)
        bundle = random_bundle(rng, surf.lattice, allow_outside_ns=True)
        v = decide_class_vii(surf, bundle)
        if v.holomorphic != v.filtrable:
            bad += 1
            continue
        delta = discriminant(surf.lattice, bundle)
        expected = (
            YES
            if bundle.c1_in_ns and delta >= m_compute(surf.lattice, bundle.rank, bundle.c1).value
            else NO
        )
        if v.holomorphic != expected:
            bad += 1
    return PropertyResult("vii-equivalence", count, bad)


def prop_k3_exceptional_isolation(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        rank = rng.randint(1, 3)
        lat = random_even_nsd_lattice(rng, rank)
        surf = SurfaceModel(SurfaceKind.K3, lat, 2, (0,) * rank, algebraic_dimension=0)
        v = random_vector(rng, rank, -1, 1)
        c1 = vec_scale(2, v)
        c2 = 1 + pairing(lat, v, v)  # forces delta = 4
        base = BundleTopology(2, c1, c2)
        if not decide_k3(surf, base).exceptional_case:
            bad += 1
            continue
        flipped_ax = SurfaceModel(SurfaceKind.K3, lat, 2, (0,) * rank, algebraic_dimension=1)
        if decide_k3(flipped_ax, base).exceptional_case:
            bad += 1
        if decide_k3(surf, BundleTopology(2, c1, c2 + 1)).exceptional_case:
            bad += 1
        odd_c1 = vec_add(c1, tuple(1 if i == 0 else 0 for i in range(rank)))
        if decide_k3(surf, BundleTopology(2, odd_c1, c2)).exceptional_case:
            bad += 1
    return PropertyResult("k3-exceptional-isolation", count, bad)


def prop_blowup_isometry(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        base = random_nsd_lattice(rng, rng.randint(0, 3))
        bmap = blow_up(base)
        x = random_vector(rng, base.rank, -3, 3)
        y = random_vector(rng, base.rank, -3, 3)
        exc = bmap.exceptional_class
        ok = (
            pairing(bmap.total, bmap.embed(x), bmap.embed(y)) == pairing(base, x, y)
            and pairing(bmap.total, exc, bmap.embed(x)) == 0
            and pairing(bmap.total, exc, exc) == -1
        )
        if not ok:
            bad += 1
    return PropertyResult("blowup-isometry", count, bad)


def prop_blowup_roundtrip(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        base = random_nsd_lattice(rng, rng.randint(0, 3))
        bmap = blow_up(base)
        a = random_vector(rng, base.rank, -3, 3)
        k = rng.randint(-4, 4)
        c1_total = a + (k,)
        got_a, got_k = decompose_c1(bmap, c1_total)
        if got_a != a or got_k != k:
            bad += 1
    return PropertyResult("blowup-c1-roundtrip", count, bad)


def prop_twist_invariance(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        base = random_nsd_lattice(rng, rng.randint(0, 2))
        bmap = blow_up(base)
        bundle = random_bundle(rng, bmap.total, c1_lo=-4, c1_hi=4)
        twisted, _ = normalize_twist(bmap, bundle)
        _, k_new = decompose_c1(bmap, twisted.c1)
        if not 0 <= k_new < bundle.rank:
            bad += 1
            continue
        if discriminant(bmap.total, twisted) != discriminant(bmap.total, bundle):
            bad += 1
            continue
        surf = SurfaceModel(
            SurfaceKind.CLASS_VII, bmap.total, 0, (0,) * bmap.total.rank
        )
        if decide_class_vii(surf, twisted) != decide_class_vii(surf, bundle):
            bad += 1
    return PropertyResult("twist-preserves-verdicts", count, bad)


def prop_blowup_m_inequality(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        base = random_nsd_lattice(rng, rng.randint(0, 3))
        bmap = blow_up(base)
        r = rng.choice([2, 3, 4])
        k = rng.randrange(r)
        a = random_vector(rng, base.rank, -2, 2)
        rep = m_blowup_inequality_check(bmap, r, a, k)
        if not rep.holds:
            bad += 1
        if k == 0 and rep.m_total != rep.m_base:
            bad += 1
    return PropertyResult("blowup-m-inequality", count, bad)


def prop_pullback_invariance(rng: random.Random, count: int, radius: int) -> PropertyResult:
    bad = 0
    for _ in range(count):
        base = random_nsd_lattice(rng, rng.randint(0, 3))
        bmap = blow_up(base)
        bundle = random_bundle(rng, base)
        if not pullback_invariance_check(bmap, bundle).holds:
            bad += 1
    return PropertyResult("pullback-invariance", count, bad)


def prop_pr_direct_sums(rng: random.Random, count: int, radius: int) -> PropertyResult:
    # sums of line bundles are filtrable, so they must satisfy delta >= m
    bad = 0
    for _ in range(count):
        lat = random_nsd_lattice(rng, rng.randint(1, 3))
        bundle = random_direct_sum_bundle(rng, lat)
        delta = discriminant(lat, bundle)
        if delta < m_compute(lat, bundle.rank, bundle.c1).value:
            bad += 1
    return PropertyResult("pr-holds-on-direct-sums", count, bad)


def prop_basis_change(rng: random.Random, count: int, radius: int) -> PropertyResult:
    # discriminant and m are invariants of the form, not of the basis
    from . import intlinalg

    bad = 0
    for _ in range(count):
        lat = random_nsd_lattice(rng, rng.randint(1, 3))
        u, uinv = random_unimodular(rng, lat.rank)
        new_gram = intlinalg.mat_mul(intlinalg.mat_mul(intlinalg.transpose(u), [list(r) for r in lat.gram]), u)
        new_lat = IntersectionLattice(tuple(tuple(row) for row in new_gram))
        bundle = random_bundle(rng, lat)
        new_c1 = intlinalg.mat_vec(uinv, bundle.c1)
        new_bundle = BundleTopology(bundle.rank, new_c1, bundle.c2)
        same_delta = discriminant(lat, bundle) == discriminant(new_lat, new_bundle)
        same_m = (
            m_compute(lat, bundle.rank, bundle.c1).value
            == m_compute(new_lat, new_bundle.rank, new_bundle.c1).value
        )
        if not (same_delta and same_m):
            bad += 1
    return PropertyResult("basis-change-invariance", count, bad)


_Prop = Callable[[random.Random, int, int], PropertyResult]

_PROPERTIES: List[Tuple[_Prop, int]] = [
    (prop_pairing_bilinear, 40),
    (prop_semidefinite_sign, 40),
    (prop_quotient_roundtrip, 40),
    (prop_definiteness_brute_force, 30),
    (prop_oracle_agreement, 25),
    (prop_m_integrality, 30),
    (prop_m_translation, 25),
    (prop_m_zero_law, 30),
    (prop_m_permutation, 25),
    (prop_m_seed_bound, 25),
    (prop_delta_parity, 40),
    (prop_chi_classical, 30),
    (prop_w2_m_zero, 25),
    (prop_decide_monotone_c2, 15),
    (prop_verdict_coherence, 30),
    (prop_vii_equivalence, 25),
    (prop_k3_exceptional_isolation, 15),
    (prop_blowup_isometry, 30),
    (prop_blowup_roundtrip, 30),
    (prop_twist_invariance, 20),
    (prop_blowup_m_inequality, 15),
    (prop_pullback_invariance, 15),
    (prop_pr_direct_sums, 25),
    (prop_basis_change, 20),
]


def run_suite(seed: int, radius: int = 3) -> SuiteReport:
    """Run every property with a shared seeded stream."""
    rng = random.Random(seed)
    results = tuple(prop(rng, count, radius) for prop, count in _PROPERTIES)
    return SuiteReport(seed, radius, results)
