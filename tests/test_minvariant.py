import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from holobundle import intlinalg, minvariant
from holobundle.errors import (
    DimensionMismatchError,
    DomainError,
    IndefiniteLatticeError,
    InvariantError,
)
from holobundle.lattice import (
    LATTICE_CACHE_SIZE,
    IntersectionLattice,
    classify_definiteness,
    pairing,
    project_to_quotient,
    qform,
    radical_and_quotient,
)
from holobundle.minvariant import m_compute, m_oracle, m_value
from holobundle.sampling import random_nsd_lattice, random_vector


def lat(*rows):
    return IntersectionLattice(tuple(tuple(r) for r in rows))


MINUS_TWO = lat([-2])
MINUS_ONE = lat([-1])
DEGENERATE = lat([0, 0], [0, -1])
DIAG_21 = lat([-2, 0], [0, -1])


def test_m_fixture_minus_two():
    res = m_compute(MINUS_TWO, 2, (1,))
    assert res.value == 2
    assert res.scaled_objective == 4
    assert res.decomposition == ((0,), (1,))
    assert res.certified


def test_m_fixture_minus_one_rank_two():
    assert m_compute(MINUS_ONE, 2, (1,)).value == 1


def test_m_fixture_minus_one_rank_three():
    res = m_compute(MINUS_ONE, 3, (1,))
    assert res.value == 2
    assert res.decomposition == ((0,), (0,), (1,))


def test_m_zero_when_divisible():
    res = m_compute(MINUS_TWO, 2, (2,))
    assert res.value == 0
    assert res.decomposition == ((1,), (1,))
    assert m_compute(MINUS_TWO, 3, (0,)).value == 0


def test_m_degenerate_lattice():
    assert m_compute(DEGENERATE, 2, (1, 1)).value == 1


def test_m_two_dimensional_quotient():
    assert m_compute(DIAG_21, 2, (1, 1)).value == 3


def test_m_rank_one_bundle():
    res = m_compute(MINUS_TWO, 1, (5,))
    assert res.value == 0
    assert res.decomposition == ((5,),)


def test_m_rank_zero_lattice():
    res = m_compute(lat(), 3, ())
    assert res.value == 0
    assert res.decomposition == ((), (), ())


def test_m_rejects_bad_arguments():
    with pytest.raises(DomainError):
        m_compute(MINUS_TWO, 0, (1,))
    with pytest.raises(DimensionMismatchError):
        m_compute(MINUS_TWO, 2, (1, 2))
    with pytest.raises(IndefiniteLatticeError):
        m_compute(lat([2]), 2, (1,))
    with pytest.raises(DomainError):
        m_oracle(MINUS_TWO, 2, (1,), radius=0)
    for radius in (2.5, 3.0, Fraction(3)):
        with pytest.raises(DomainError, match="radius"):
            m_oracle(lat([-2, 1], [1, -2]), 2, (1, 0), radius)


@pytest.mark.parametrize(
    "lattice, radius",
    # the smallest radius whose box exceeds ORACLE_BOX_LIMIT in quotient rank 1, 2, 3
    [(MINUS_TWO, 500_000), (DIAG_21, 500), (lat([-1, 0, 0], [0, -2, 0], [0, 0, -1]), 50)],
)
def test_oracle_rejects_box_over_limit(lattice, radius):
    with pytest.raises(DomainError, match=f"more than the limit {minvariant.ORACLE_BOX_LIMIT}"):
        m_oracle(lattice, 2, (1,) * lattice.rank, radius=radius)


@pytest.mark.parametrize("solver", [m_compute, m_oracle, m_value])
def test_m_rejects_fractional_class(solver):
    with pytest.raises(DomainError):
        solver(MINUS_TWO, 2, (1.7,))


@pytest.mark.parametrize("solver", [m_compute, m_oracle, m_value])
def test_m_rejects_fractional_rank(solver):
    with pytest.raises(DomainError):
        solver(MINUS_TWO, 2.5, (1,))


def test_oracle_matches_fixtures():
    for lattice, r, a in [
        (MINUS_TWO, 2, (1,)),
        (MINUS_ONE, 3, (1,)),
        (DEGENERATE, 2, (1, 1)),
        (DIAG_21, 2, (1, 1)),
    ]:
        got = m_oracle(lattice, r, a)
        want = m_compute(lattice, r, a)
        assert got.certified
        assert (got.value, got.scaled_objective, got.decomposition) == (
            want.value,
            want.scaled_objective,
            want.decomposition,
        )


_POOL = [MINUS_TWO, MINUS_ONE, DEGENERATE, DIAG_21, lat([-2, -1], [-1, -2])]


@given(
    st.integers(0, len(_POOL) - 1),
    st.integers(2, 4),
    st.lists(st.integers(-2, 2), min_size=2, max_size=2),
    st.lists(st.integers(-2, 2), min_size=2, max_size=2),
)
def test_translation_invariance(idx, r, a_raw, lam_raw):
    lattice = _POOL[idx]
    a = tuple(a_raw[: lattice.rank])
    lam = tuple(lam_raw[: lattice.rank])
    shifted = tuple(ai + r * li for ai, li in zip(a, lam))
    assert m_compute(lattice, r, a).value == m_compute(lattice, r, shifted).value


def test_witness_contract():
    rng = random.Random(3)
    for _ in range(60):
        lattice = random_nsd_lattice(rng, rng.randint(1, 3))
        r = rng.choice([2, 3, 4])
        a = random_vector(rng, lattice.rank)
        res = m_compute(lattice, r, a)
        assert len(res.decomposition) == r
        total = tuple(sum(mu[i] for mu in res.decomposition) for i in range(lattice.rank))
        assert total == a
        recomputed = 0
        for mu in res.decomposition:
            dev = tuple(ai - r * mi for ai, mi in zip(a, mu))
            recomputed += -pairing(lattice, dev, dev)
        assert recomputed == res.scaled_objective == r * res.value
        assert isinstance(res.value, int) and res.value >= 0
        assert tuple(sorted(res.decomposition)) == res.decomposition


def test_oracle_agreement_seeded():
    rng = random.Random(17)
    for _ in range(60):
        lattice = random_nsd_lattice(rng, rng.randint(1, 3))
        r = rng.choice([2, 3, 4])
        a = random_vector(rng, lattice.rank)
        want = m_compute(lattice, r, a)
        got = m_oracle(lattice, r, a)
        if got.certified:
            assert (got.value, got.decomposition) == (want.value, want.decomposition)


def _gram_form(rng, n, d):
    # -B^T B for a random d x n matrix B: the radical is the kernel of B
    b = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(d)]
    return lat(*[[-sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)])


def test_compute_equals_certified_oracle():
    # whole MResult, witness included; radicals, d = 0..4, r = 1..6,
    # classes translated far from the fundamental box
    rng = random.Random(4)
    for d in range(5):
        for r in range(1, 7):
            checked = 0
            for _ in range(40):
                n = d + rng.randint(0, 2)
                lattice = _gram_form(rng, n, d)
                if radical_and_quotient(lattice).quotient_rank != d:
                    continue
                a = tuple(rng.randint(0, r - 1) + r * rng.randint(-60, 60) for _ in range(n))
                want = m_oracle(lattice, r, a)
                if want.certified:
                    assert m_compute(lattice, r, a) == want
                    checked += 1
                    if checked == 3:
                        break
            assert checked == 3, (d, r)


# a skewed quotient basis (quotient Gram entries up to 66)
ILL_CONDITIONED = lat([-4, 1, -1, -1], [1, -3, 0, 1], [-1, 0, -1, 0], [-1, 1, 0, -1])


@pytest.mark.parametrize("a, radius", [((0, 0, 0, 2), 3), ((0, 0, 1, 1), 7)])
def test_ill_conditioned_form(a, radius):
    want = m_oracle(ILL_CONDITIONED, 4, a, radius=radius)
    assert want.certified and m_compute(ILL_CONDITIONED, 4, a) == want


def test_bound_doubles_until_found(monkeypatch):
    bounds = []
    enumerate_points = minvariant._ellipsoid

    def recording(ldl, s, r, bound, shrink=False):
        if not shrink:
            bounds.append(bound)
        return enumerate_points(ldl, s, r, bound, shrink)

    monkeypatch.setattr(minvariant, "_ellipsoid", recording)
    assert m_compute(ILL_CONDITIONED, 4, (0, 0, 1, 1)).value == 6
    # candidate radius B - (r-1)*c_min for B = 4*2, 2*8, 2*16 (c_min = 2)
    assert bounds == [2, 10, 26]


def _definite_forms(rng, count):
    # positive quotient forms Q+ of rank 1..3, from random_nsd_lattice
    # (radicals included) and dense -B^T B forms taken in turn
    forms = []
    while len(forms) < count:
        if len(forms) % 2:
            lattice = _gram_form(rng, rng.randint(1, 3), rng.randint(1, 3))
        else:
            lattice = random_nsd_lattice(rng, rng.randint(1, 4))
        qd = radical_and_quotient(lattice)
        if 1 <= qd.quotient_rank <= 3:
            a = random_vector(rng, lattice.rank, -9, 9)
            forms.append((minvariant._positive_quotient(qd), project_to_quotient(qd, a)))
    return forms


def _box_scan(q, s, r, bound):
    # |s_j - r*y_j|^2 <= bound * (Q^-1)_jj holds whenever Q(s - r*y) <= bound
    ranges = []
    for j, inv in enumerate(intlinalg.inverse_diagonal(q)):
        t = isqrt(bound * inv.numerator // inv.denominator)
        ranges.append(range(-((t - s[j]) // r), (s[j] + t) // r + 1))
    costs = ((qform(q, [s[j] - r * y[j] for j in range(len(s))]), y) for y in product(*ranges))
    return sorted((c, y) for c, y in costs if c <= bound)


def test_ellipsoid_equals_box_scan():
    rng = random.Random(31)
    nonempty = 0
    for q, s in _definite_forms(rng, 300):
        r, bound = rng.randint(1, 4), rng.randint(0, 40)
        got = minvariant._ellipsoid(minvariant._ldl(q), s, r, bound)
        assert len({y for _, y in got}) == len(got)
        assert sorted(got) == _box_scan(q, s, r, bound), (q, s, r, bound)
        nonempty += bool(got)
    assert nonempty >= 150


def test_fraction_free_factorisation_identity():
    # Q(v) = sum_k (w_kk v_k + sum_{l>k} w_kl v_l)^2 / (w_{k-1,k-1} w_kk)
    rng = random.Random(37)
    for q, _ in _definite_forms(rng, 200):
        d = len(q)
        w, psd = intlinalg.symmetric_elimination(q)
        assert psd
        _, mult, scale = minvariant._ldl(q)
        for _ in range(5):
            v = random_vector(rng, d, -6, 6)
            rows = [sum(w[k][l] * v[l] for l in range(k, d)) for k in range(d)]
            dens = [(w[k - 1][k - 1] if k else 1) * w[k][k] for k in range(d)]
            assert sum(Fraction(x * x, den) for x, den in zip(rows, dens)) == qform(q, v)
            assert sum(m * x * x for m, x in zip(mult, rows)) == scale * qform(q, v)


def test_dense_rank_four_quotient_rank_six_bundle():
    lattice = lat([-2, -1, 1, 1], [-1, -2, 1, -1], [1, 1, -2, 0], [1, -1, 0, -3])
    res = m_compute(lattice, 6, (3, 1, 5, 3))
    assert res.value == 27
    assert res.decomposition == (
        (0, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 1, 1, 0),
        (1, 0, 1, 1),
        (1, 0, 1, 1),
        (1, 0, 1, 1),
    )
    want = m_oracle(lattice, 6, (3, 1, 5, 3))
    assert want.certified and res == want


def test_corrupted_witness_raises_invariant_error():
    res = m_compute(DIAG_21, 2, (1, 1))
    dec, t = res.decomposition, res.scaled_objective
    off_sum = ((dec[0][0] + 1,) + dec[0][1:],) + dec[1:]
    with pytest.raises(InvariantError, match="add up"):
        minvariant._finish(DIAG_21, 2, (1, 1), off_sum, t, True)
    with pytest.raises(InvariantError, match="does not match"):
        minvariant._finish(DIAG_21, 2, (1, 1), dec, t + 2, True)


def test_invariant_error_survives_optimize_flag():
    code = (
        "from holobundle.errors import InvariantError\n"
        "from holobundle.lattice import IntersectionLattice\n"
        "from holobundle.minvariant import _finish\n"
        "lattice = IntersectionLattice(((-2, 0), (0, -1)))\n"
        "try:\n"
        "    _finish(lattice, 2, (1, 1), ((0, 0), (0, 0)), 4, True)\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"


# ---------------------------------------------------------------------------
# the value path: m_value, summed over the orthogonal blocks


def _block_sum(rng):
    """An orthogonal sum of small blocks under a random signed permutation:
    <-g> with g = 0..3, the degenerate [[-1, 1], [1, -1]], and random
    semi-definite forms of rank 1-2 (radicals included)."""
    blocks = []
    for _ in range(rng.randint(1, 3)):
        pick = rng.random()
        if pick < 0.25:
            blocks.append(((-rng.randint(0, 3),),))
        elif pick < 0.35:
            blocks.append(((-1, 1), (1, -1)))
        else:
            blocks.append(random_nsd_lattice(rng, rng.randint(1, 2)).gram)
    n = sum(len(b) for b in blocks)
    g = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                g[offset + i][offset + j] = x
        offset += len(b)
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return lat(*[[signs[i] * signs[j] * g[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


def _ambient_components(lattice):
    """Component index of each coordinate in the graph of the Gram matrix."""
    n, g = lattice.rank, lattice.gram
    comp = [-1] * n
    for root in range(n):
        if comp[root] < 0:
            comp[root], stack = root, [root]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if g[i][j] and comp[j] < 0:
                        comp[j] = root
                        stack.append(j)
    return comp


def test_value_equals_compute_on_block_sums():
    rng = random.Random(41)
    split = 0
    for _ in range(600):
        lattice = _block_sum(rng)
        r = rng.randint(1, 6)
        a = tuple(rng.randint(0, r - 1) + r * rng.randint(-20, 20) for _ in range(lattice.rank))
        assert m_value(lattice, r, a) == m_compute(lattice, r, a).value, (lattice.gram, r, a)
        singles, blocks = minvariant._quotient_blocks(lattice)
        split += len(singles) + len(blocks) > 1
    assert split > 300


def test_quotient_blocks_stay_inside_one_gram_component():
    # column_reduce only combines columns that meet in one row of G.b, so the
    # quotient split is never coarser than the split of the ambient Gram
    rng = random.Random(41)
    for _ in range(600):
        lattice = _block_sum(rng)
        comp = _ambient_components(lattice)
        _, blocks = minvariant._quotient_blocks(lattice)
        for rows, _ in blocks:
            touched = {comp[c] for row in rows for c, x in enumerate(row) if x}
            assert len(touched) == 1, (lattice.gram, rows)


def test_value_equals_compute_on_connected_forms():
    # no split: the search without witness on the whole quotient, radicals included
    rng = random.Random(43)
    for d in range(1, 5):
        for r in range(1, 7):
            for _ in range(5):
                lattice = _gram_form(rng, d + rng.randint(0, 2), d)
                a = tuple(rng.randint(0, r - 1) + r * rng.randint(-60, 60) for _ in range(lattice.rank))
                assert m_value(lattice, r, a) == m_compute(lattice, r, a).value, (lattice.gram, r, a)


def test_blocks_of_interleaved_coordinates():
    # coordinate 1 spans the radical and drops out; 3 is a single; {0, 2}
    # is one block, an A2 form in column_reduce's quotient basis
    lattice = lat([-2, 0, 1, 0], [0, 0, 0, 0], [1, 0, -2, 0], [0, 0, 0, -3])
    singles, blocks = minvariant._quotient_blocks(lattice)
    assert singles == ((3, 3),)
    assert len(blocks) == 1
    rows, form = blocks[0]
    assert {c for row in rows for c, x in enumerate(row) if x} == {0, 2}
    assert len(form) == 2 and form[0][0] * form[1][1] - form[0][1] ** 2 == 3


def test_lattice_caches_are_bounded():
    caches = (classify_definiteness, radical_and_quotient, minvariant._quotient_blocks)
    for g in range(1, LATTICE_CACHE_SIZE + 20):
        m_value(lat([-g]), 2, (1,))
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == LATTICE_CACHE_SIZE
        assert info.currsize <= info.maxsize


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_diagonal_value_equals_certified_oracle(g):
    rng = random.Random(g)
    for d in range(1, 4):
        diagonal = lat(*[[-g if i == j else 0 for j in range(d)] for i in range(d)])
        for r in range(2, 6):
            a = tuple(rng.randint(-2 * r, 2 * r) for _ in range(d))
            want = m_oracle(diagonal, r, a)
            assert want.certified
            assert m_value(diagonal, r, a) == want.value == g * sum((c % r) * (r - c % r) for c in a)


def test_minus_one_chain_of_eight_is_fast():
    chain = lat(*[[-1 if i == j else 0 for j in range(8)] for i in range(8)])
    a = (0, 1, 2, 3, 4, 5, 6, 7)
    start = time.perf_counter()
    assert m_value(chain, 8, a) == sum(k * (8 - k) for k in a) == 84
    assert time.perf_counter() - start < 1.0


def test_value_path_invariant_survives_optimize_flag():
    # every candidate is reported one unit too dear, so the T the search
    # returns exceeds the recomputed cost of its summands
    code = (
        "from holobundle import minvariant\n"
        "from holobundle.errors import InvariantError\n"
        "from holobundle.lattice import IntersectionLattice\n"
        "enumerate_points = minvariant._ellipsoid\n"
        "def overpriced(ldl, s, r, bound, shrink=False):\n"
        "    return [(c + 1, y) for c, y in enumerate_points(ldl, s, r, bound, shrink)]\n"
        "minvariant._ellipsoid = overpriced\n"
        "try:\n"
        "    minvariant.m_value(IntersectionLattice(((-2, 1), (1, -2))), 2, (1, 0))\n"
        "except InvariantError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("does not match its quotient summands\n")
