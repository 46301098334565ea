import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from holobundle.errors import DomainError, IndefiniteLatticeError
from holobundle.lattice import (
    Definiteness,
    IntersectionLattice,
    classify_definiteness,
    in_scaled_sublattice,
    lift_from_quotient,
    pairing,
    project_to_quotient,
    radical_and_quotient,
    vec_add,
    vec_scale,
)
from holobundle.sampling import random_nsd_lattice, random_vector


def lat(*rows):
    return IntersectionLattice(tuple(tuple(r) for r in rows))


def test_rejects_asymmetric_gram():
    with pytest.raises(DomainError, match=r"not symmetric at \(0,1\)"):
        lat([-2, 1], [0, -2])


def test_rejects_ragged_gram():
    with pytest.raises(DomainError):
        lat([-2, 0], [0])


def test_rejects_non_integer_entries():
    with pytest.raises(DomainError):
        IntersectionLattice(((1.5,),))


def test_definiteness_fixtures():
    assert classify_definiteness(lat([-2])) is Definiteness.NEGATIVE_DEFINITE
    assert (
        classify_definiteness(lat([0, 0], [0, -1]))
        is Definiteness.NEGATIVE_SEMIDEFINITE_DEGENERATE
    )
    assert classify_definiteness(lat([2])) is Definiteness.INDEFINITE_OR_POSITIVE
    assert classify_definiteness(lat([-2, 3], [3, -2])) is Definiteness.INDEFINITE_OR_POSITIVE
    # rank zero is vacuously definite
    assert classify_definiteness(lat()) is Definiteness.NEGATIVE_DEFINITE


def _leibniz_det(m, idx):
    # determinant of the principal minor on idx, by the permutation expansion
    total = 0
    for perm in permutations(range(len(idx))):
        term = (-1) ** sum(p > q for i, p in enumerate(perm) for q in perm[i + 1 :])
        for i, p in enumerate(perm):
            term *= m[idx[i]][idx[p]]
        total += term
    return total


def _sylvester_classify(gram):
    # -G is PSD iff every principal minor is >= 0, definite iff every leading one is > 0
    neg = [[-e for e in row] for row in gram]
    n = len(neg)
    minors = (c for k in range(1, n + 1) for c in combinations(range(n), k))
    if any(_leibniz_det(neg, idx) < 0 for idx in minors):
        return Definiteness.INDEFINITE_OR_POSITIVE
    if all(_leibniz_det(neg, tuple(range(k))) > 0 for k in range(1, n + 1)):
        return Definiteness.NEGATIVE_DEFINITE
    return Definiteness.NEGATIVE_SEMIDEFINITE_DEGENERATE


def _congruent_gram(rng, n):
    """-(M^T E M) for a random unit upper-triangular M.

    E is diagonal with entries in [-1, 3], zeros included, and may carry
    one block [[0, c], [c, x]] with c != 0.  M keeps the leading minors of
    E, so elimination meets zero pivots with zero rows (E_kk = 0) and a
    zero pivot with a non-zero row (the block).
    """
    e = [[0] * n for _ in range(n)]
    for i in range(n):
        e[i][i] = rng.choice([-1, 0, 0, 1, 1, 2, 3])
    if n >= 2 and rng.random() < 0.4:
        k = rng.randrange(n - 1)
        c = rng.choice([-2, -1, 1, 2])
        e[k][k], e[k][k + 1], e[k + 1][k], e[k + 1][k + 1] = 0, c, c, rng.randint(-1, 3)
    m = [[int(i == j) if j <= i else rng.randint(-2, 2) for j in range(n)] for i in range(n)]
    return [
        [-sum(m[s][i] * e[s][t] * m[t][j] for s in range(n) for t in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _random_symmetric(rng, n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = rng.randint(-4, 2)
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = rng.randint(-3, 3)
    return g


def test_classification_equals_sylvester_criterion():
    rng = random.Random(2024)
    seen = {kind: 0 for kind in Definiteness}
    for n in range(1200):
        rank = n % 6
        pick = n % 4
        if pick == 0:
            gram = [list(row) for row in random_nsd_lattice(rng, rank).gram]
        elif pick == 1:
            gram = _random_symmetric(rng, rank)
        else:
            gram = _congruent_gram(rng, rank)
        # a signed permutation moves zero rows and zero pivots into the middle
        perm = rng.sample(range(rank), rank)
        signs = [rng.choice([-1, 1]) for _ in range(rank)]
        gram = [
            [signs[i] * signs[j] * gram[perm[i]][perm[j]] for j in range(rank)] for i in range(rank)
        ]
        want = _sylvester_classify(gram)
        assert classify_definiteness(lat(*gram)) is want, gram
        seen[want] += 1
    assert min(seen.values()) >= 200, seen


@st.composite
def symmetric_lattice_and_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    entries = st.integers(min_value=-4, max_value=4)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = draw(entries)
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(entries)
    vec = st.tuples(*[st.integers(min_value=-3, max_value=3)] * n)
    return lat(*g), draw(vec), draw(vec), draw(vec)


@given(symmetric_lattice_and_vectors(), st.integers(-2, 2), st.integers(-2, 2))
def test_pairing_symmetric_bilinear(data, p, q):
    lattice, x, y, z = data
    assert pairing(lattice, x, y) == pairing(lattice, y, x)
    comb = vec_add(vec_scale(p, x), vec_scale(q, y))
    assert pairing(lattice, comb, z) == p * pairing(lattice, x, z) + q * pairing(lattice, y, z)


def test_pairing_rejects_wrong_length():
    with pytest.raises(DomainError):
        pairing(lat([-2]), (1, 2), (1,))


def test_radical_and_quotient_definite():
    qd = radical_and_quotient(lat([-2]))
    assert qd.radical_basis == ()
    assert qd.quotient_gram == ((-2,),)
    assert project_to_quotient(qd, (3,)) == (3,)


def test_radical_and_quotient_degenerate():
    lattice = lat([0, 0], [0, -1])
    qd = radical_and_quotient(lattice)
    assert len(qd.radical_basis) == 1
    v = qd.radical_basis[0]
    assert all(pairing(lattice, v, e) == 0 for e in ((1, 0), (0, 1)))
    assert qd.quotient_gram == ((-1,),)


def test_radical_rejects_indefinite():
    with pytest.raises(IndefiniteLatticeError):
        radical_and_quotient(lat([2]))


def test_quotient_preserves_form():
    rng = random.Random(7)
    for _ in range(100):
        lattice = random_nsd_lattice(rng, rng.randint(1, 3))
        qd = radical_and_quotient(lattice)
        x = random_vector(rng, lattice.rank, -3, 3)
        y = random_vector(rng, lattice.rank, -3, 3)
        px, py = project_to_quotient(qd, x), project_to_quotient(qd, y)
        paired = sum(
            px[i] * qd.quotient_gram[i][j] * py[j]
            for i in range(len(px))
            for j in range(len(py))
        )
        assert pairing(lattice, x, y) == paired


def test_project_lift_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        lattice = random_nsd_lattice(rng, rng.randint(1, 3))
        qd = radical_and_quotient(lattice)
        y = random_vector(rng, len(qd.quotient_gram), -3, 3)
        lifted = lift_from_quotient(qd, y, lattice.rank)
        assert project_to_quotient(qd, lifted) == y


def test_in_scaled_sublattice():
    lattice = lat([-2, 0], [0, -2])
    assert in_scaled_sublattice(lattice, (2, 4), 2)
    assert not in_scaled_sublattice(lattice, (1, 2), 2)
    assert in_scaled_sublattice(lattice, (0, 0), 2)
    assert in_scaled_sublattice(lattice, (1, 2), 1)
    with pytest.raises(DomainError):
        in_scaled_sublattice(lattice, (1, 2), 0)
    for k in (2.0, 2.5, Fraction(2)):
        with pytest.raises(DomainError, match="scale factor"):
            in_scaled_sublattice(lattice, (2, 2), k)
