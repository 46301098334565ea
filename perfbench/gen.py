"""Seeded input generators and reference arithmetic for the benchmark.

Nothing here imports holobundle: the workloads must not change when the
package's own sampling code changes, and the output checks must not
trust the code under test.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Sequence, Tuple

Gram = Tuple[Tuple[int, ...], ...]
Vec = Tuple[int, ...]


def neg_gram(b: Sequence[Sequence[int]], d: int) -> Gram:
    """-B^T B for an integer matrix B with d columns: negative semi-definite by construction."""
    return tuple(tuple(-sum(row[i] * row[j] for row in b) for j in range(d)) for i in range(d))


def det(g: Gram) -> Fraction:
    a = [[Fraction(x) for x in row] for row in g]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for k in range(c, n):
                a[r][k] -= f * a[c][k]
    return out


def connected(g: Gram) -> bool:
    """Whether the Gram graph (an edge per nonzero off-diagonal entry) is connected,
    i.e. the form is indecomposable as an orthogonal sum of coordinate blocks."""
    d = len(g)
    if d == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(d):
            if j not in seen and g[i][j] != 0:
                seen.add(j)
                stack.append(j)
    return len(seen) == d


def rand_matrix(rng: random.Random, rows: int, cols: int) -> List[List[int]]:
    """Entries in {-1, 0, 1}: small forms keep each m search within a run."""
    return [[rng.randint(-1, 1) for _ in range(cols)] for _ in range(rows)]


def dense_definite(rng: random.Random, d: int) -> Gram:
    """Indecomposable negative-definite form -B^T B with B square and small."""
    while True:
        g = neg_gram(rand_matrix(rng, d, d), d)
        if det(g) != 0 and connected(g):
            return g


def even_form(rng: random.Random, d: int) -> Gram:
    """Negative semi-definite form with even diagonal (K3 style), possibly degenerate."""
    while True:
        g = neg_gram(rand_matrix(rng, d + 1, d), d)
        if all(g[i][i] % 2 == 0 for i in range(d)) and any(g[i][i] for i in range(d)):
            return g


def form_with_radical(rng: random.Random, d: int) -> Gram:
    """-B^T B with fewer rows than columns, so the radical is nontrivial."""
    if d == 0:
        return ()
    while True:
        g = neg_gram(rand_matrix(rng, d - 1, d), d)
        if d == 1 or any(any(row) for row in g):
            return g


def diag_minus_one(n: int) -> Gram:
    return tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))


def block_sum(g: Gram, h: Gram) -> Gram:
    n, k = len(g), len(h)
    return tuple(tuple(g[i]) + (0,) * k for i in range(n)) + tuple(
        (0,) * n + tuple(h[i]) for i in range(k)
    )


def pair(g: Gram, x: Sequence[int], y: Sequence[int]) -> int:
    n = len(x)
    return sum(x[i] * g[i][j] * y[j] for i in range(n) for j in range(n))


def rand_vec(rng: random.Random, n: int, lo: int, hi: int) -> Vec:
    return tuple(rng.randint(lo, hi) for _ in range(n))


# --- isometries: a signed permutation of the basis preserves every invariant


def signed_perm(rng: random.Random, n: int, permute: bool) -> Tuple[List[int], List[int]]:
    """Random signed permutation of the basis; with permute=False only signs flip.

    Reordering the basis can change the cost of the m search severalfold
    on one instance, and flipping signs by up to about a half, so the
    workloads flip signs and reorder only when they must."""
    perm = list(range(n))
    if permute:
        rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return perm, signs


def move_gram(g: Gram, perm: Sequence[int], signs: Sequence[int]) -> Gram:
    n = len(g)
    return tuple(
        tuple(signs[i] * signs[j] * g[perm[i]][perm[j]] for j in range(n)) for i in range(n)
    )


def move_vec(v: Sequence[int], perm: Sequence[int], signs: Sequence[int]) -> Vec:
    return tuple(signs[i] * v[perm[i]] for i in range(len(v)))


def check_witness(g: Gram, r: int, a: Sequence[int], m: int, decomposition, scaled) -> bool:
    """Sum of the summands is a, and the scaled objective equals r * m."""
    n = len(a)
    if len(decomposition) != r or any(len(mu) != n for mu in decomposition):
        return False
    if tuple(sum(mu[i] for mu in decomposition) for i in range(n)) != tuple(a):
        return False
    total = 0
    for mu in decomposition:
        dev = [a[i] - r * mu[i] for i in range(n)]
        total -= pair(g, dev, dev)
    return total == scaled == r * m


# --- the paper's decision table, recomputed from (delta, m)


def delta_of(g: Gram, r: int, c1: Sequence[int], c2: int) -> int:
    return 2 * r * c2 - (r - 1) * pair(g, c1, c1)


def expected_verdict(kind: str, a_x: int, vii: bool, r: int, c1, in_ns: bool, delta: int, m: int):
    """(holomorphic, filtrable, clause, m_value, exceptional) as the paper's rules give them."""
    if kind == "class7" and not vii:
        return "not_covered", "not_covered", "vii-hypothesis-not-covered", None, False
    if not in_ns:
        return "no", "no", "c1-outside-ns", None, False
    if kind == "k3":
        if a_x == 0 and delta == 4 and all(c % 2 == 0 for c in c1):
            return "no", "no", "k3-exceptional", m, True
        filt = "yes" if delta >= m else "no"
        holo = "yes" if delta >= min(6, m) else "no"
        return holo, filt, "k3-criterion", m, False
    if kind == "class7":
        ans = "yes" if delta >= m else "no"
        return ans, ans, "vii-criterion", m, False
    if delta >= m:
        return "yes", "yes", "generic-filtrable-criterion", m, False
    return "not_covered", "no", "generic-filtrable-criterion", m, False


def verdict_tuple(v) -> tuple:
    return v.holomorphic, v.filtrable, v.clause, v.m_value, v.exceptional_case
