"""Small exact linear-algebra helpers over the integers and rationals.

Matrices are row-major lists of rows; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

IntMatrix = List[List[int]]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(mat: Sequence[Sequence[int]]) -> IntMatrix:
    return [list(col) for col in zip(*mat)] if mat else []


def mat_vec(mat: Sequence[Sequence[int]], vec: Sequence[int]) -> Tuple[int, ...]:
    return tuple(sum(row[j] * vec[j] for j in range(len(vec))) for row in mat)


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def column_reduce(mat: Sequence[Sequence[int]], n_cols: int) -> Tuple[int, IntMatrix, IntMatrix]:
    """Unimodular column reduction of an integer matrix.

    Returns (rank, b, binv) with b unimodular, binv = b^-1, such that
    mat . b has its pivot columns first and exactly zero columns after
    them.  The trailing columns of b therefore form a basis of the
    integer kernel of mat; the kernel of an integer matrix is saturated,
    so this basis spans a direct summand.
    """
    n_rows = len(mat)
    w = [list(row) for row in mat]
    b = identity(n_cols)
    binv = identity(n_cols)

    def col_add(dst: int, src: int, k: int) -> None:
        # column dst += k * column src; inverse is a row op on binv
        for r in range(n_rows):
            w[r][dst] += k * w[r][src]
        for r in range(n_cols):
            b[r][dst] += k * b[r][src]
        src_row, dst_row = binv[src], binv[dst]
        for c in range(n_cols):
            src_row[c] -= k * dst_row[c]

    def col_swap(i: int, j: int) -> None:
        if i == j:
            return
        for r in range(n_rows):
            w[r][i], w[r][j] = w[r][j], w[r][i]
        for r in range(n_cols):
            b[r][i], b[r][j] = b[r][j], b[r][i]
        binv[i], binv[j] = binv[j], binv[i]

    def col_negate(i: int) -> None:
        for r in range(n_rows):
            w[r][i] = -w[r][i]
        for r in range(n_cols):
            b[r][i] = -b[r][i]
        binv[i] = [-x for x in binv[i]]

    def reduce_row(row: int, lo: int) -> int:
        # gcd-eliminate among columns >= lo until at most one nonzero remains
        while True:
            nz = [c for c in range(lo, n_cols) if w[row][c] != 0]
            if not nz:
                return -1
            if len(nz) == 1:
                return nz[0]
            cmin = min(nz, key=lambda c: (abs(w[row][c]), c))
            for c in nz:
                if c == cmin:
                    continue
                q = w[row][c] // w[row][cmin]
                if q:
                    col_add(c, cmin, -q)

    pivot = 0
    for row in range(n_rows):
        if pivot == n_cols:
            break
        c0 = reduce_row(row, pivot)
        if c0 < 0:
            continue
        if w[row][c0] < 0:
            col_negate(c0)
        col_swap(pivot, c0)
        pivot += 1
    return pivot, b, binv


def symmetric_elimination(mat: Sequence[Sequence[int]]) -> Tuple[IntMatrix, bool]:
    """Fraction-free (Bareiss) elimination of a symmetric integer matrix.

    Returns (w, psd), psd telling whether mat is positive semi-definite.
    Row k of w (upper triangle) is the k-th elimination row times the last
    non-zero pivot, so w[k][k] is a leading principal minor.  A zero pivot
    with a zero row is skipped; one with a non-zero row, or a negative one,
    stops with psd False.
    """
    w = [list(row) for row in mat]
    prev = 1
    for k, top in enumerate(w):
        piv = top[k]
        if piv < 0 or (piv == 0 and any(top[k + 1 :])):
            return w, False
        if piv:
            for i in range(k + 1, len(w)):
                f, row = top[i], w[i]
                # exact by Sylvester's determinant identity
                row[i:] = [(piv * x - f * y) // prev for x, y in zip(row[i:], top[i:])]
            prev = piv
    return w, True


def solve_fractions(mat: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> List[Fraction]:
    """Solve mat . x = rhs exactly; mat must be square and invertible."""
    n = len(rhs)
    a = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def inverse_diagonal(mat: Sequence[Sequence[int]]) -> List[Fraction]:
    """Diagonal entries of mat^-1 for a small invertible integer matrix."""
    n = len(mat)
    cols = []
    for j in range(n):
        e = [Fraction(1 if i == j else 0) for i in range(n)]
        cols.append(solve_fractions([[Fraction(x) for x in row] for row in mat], e))
    return [cols[j][j] for j in range(n)]
