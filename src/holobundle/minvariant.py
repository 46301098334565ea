"""Minimal squared-deviation decompositions of a lattice class.

For a negative semi-definite lattice, rank r >= 1 and a class a, the
invariant computed here is

    m(r, a) = r * inf { -sum_i (a/r - mu_i)^2 : mu_i in the lattice,
                        sum_i mu_i = a }

with squares taken in the intersection form.  Working with the scaled
objective T = -sum_i (a - r*mu_i)^2 keeps everything in integers; the
value is T / r, and T is always divisible by r (expand the squares and
use sum_i mu_i = a).  Deviations along the radical of the form cost
nothing, so the search happens in the negative-definite quotient, where
each summand y costs cost(y) = Q+(s - r*y) for the positive quotient
form Q+ and the projection s of a.

Two implementations are provided: m_oracle exhaustively enumerates a
coordinate box around the balanced point a/r (with a certificate that
the box provably contains the global optimum), and m_compute solves the
same problem exactly in two integer steps.  It lists every summand y
with cost(y) <= B - (r-1)*c_min by one d-dimensional Fincke-Pohst
enumeration of the ellipsoid around s/r (c_min is the cheapest cost) on
the rows of a fraction-free elimination of Q+, then searches
non-decreasing multisets of those candidates under the sum constraint.
Every summand of a decomposition of total at most B costs at most B
minus the other r-1 summands, each at least c_min, so when the optimum
is at most B the candidates contain every optimal decomposition.  B
starts at r*c_min and doubles until a decomposition is found, capped at
the cost of the balanced decomposition, which is always feasible.

The deciders and the blow-up checkers need only the value, and m_value
gives it.  The objective and the sum constraint split over an orthogonal
sum, so m is additive over the connected blocks of the positive quotient
form Q+ (Eichler: a definite lattice decomposes uniquely into
indecomposables; Conway-Sloane, SPLAG, ch. 15).  A quotient coordinate
of square g that is +-a_j has m = g*k*(r-k) with k = a_j mod r; any
other block runs the same search without the witness, which prunes every
total not below the best found.  column_reduce only adds columns that
meet in one row of G.b, so no block of Q+ straddles two blocks of G.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import Callable, List, Optional, Sequence, Tuple

from . import intlinalg
from .errors import DomainError, IndefiniteLatticeError, InvariantError
from .lattice import (
    LATTICE_CACHE_SIZE,
    Definiteness,
    IntersectionLattice,
    LatticeVector,
    QuotientData,
    _require_vector,
    classify_definiteness,
    lift_from_quotient,
    pairing,
    project_to_quotient,
    qform,
    radical_and_quotient,
    vec_add,
    vec_sub,
    vec_sum,
)


@dataclass(frozen=True)
class MResult:
    """Value, witness decomposition and scaled objective of m(r, a).

    value is the non-negative integer T / r.  certified is always True
    for m_compute; for m_oracle it records whether the search box
    provably contained the global optimum.
    """

    value: int
    decomposition: Tuple[LatticeVector, ...]
    scaled_objective: int
    certified: bool = True


def _check_args(lattice: IntersectionLattice, r: int, a: Sequence[int]) -> LatticeVector:
    if not isinstance(r, int) or r < 1:
        raise DomainError(f"rank must be a positive integer, got {r}")
    return _require_vector(lattice, a, "class")


def _require_semidefinite(lattice: IntersectionLattice) -> None:
    if classify_definiteness(lattice) is Definiteness.INDEFINITE_OR_POSITIVE:
        raise IndefiniteLatticeError(
            "lattice not negative semi-definite: m(r, a) would be -infinity "
            "(algebraic surface)"
        )


def _positive_quotient(qd: QuotientData) -> List[List[int]]:
    # negate the negative-definite quotient form to get a positive one
    return [[-e for e in row] for row in qd.quotient_gram]


def round_half_toward_zero(num: int, den: int) -> int:
    """Nearest integer to num/den, ties broken toward zero.  den > 0."""
    n, rem = divmod(num, den)
    twice = 2 * rem
    if twice > den:
        return n + 1
    if twice < den:
        return n
    return n if num >= 0 else n + 1


def _assemble(
    ys: Sequence[LatticeVector],
    qd: QuotientData,
    lattice: IntersectionLattice,
    a: LatticeVector,
) -> Tuple[LatticeVector, ...]:
    """Lift quotient vectors and pin the radical part of the decomposition.

    The radical remainder is absorbed into one summand (it has zero
    square, so the objective is unaffected); sorting before and after
    makes the returned tuple the canonical representative used for
    tie-breaking.  ys must be expressed in the frame of a itself, not
    of a translate-reduced representative.
    """
    n = lattice.rank
    full = [lift_from_quotient(qd, y, n) for y in ys]
    rho = vec_sub(a, vec_sum(full, n))
    full.sort()
    full[-1] = vec_add(full[-1], rho)
    full.sort()
    return tuple(full)


def _scaled_objective_of(
    lattice: IntersectionLattice, r: int, a: LatticeVector, decomposition: Sequence[LatticeVector]
) -> int:
    total = 0
    for mu in decomposition:
        dev = vec_sub(a, tuple(r * c for c in mu))
        total += -pairing(lattice, dev, dev)
    return total


def _scaled_to_value(t: int, r: int) -> int:
    if t < 0:
        raise InvariantError(f"scaled objective {t} is negative")
    value, rest = divmod(t, r)
    if rest:
        raise InvariantError(f"scaled objective {t} is not divisible by rank {r}")
    return value


def _finish(
    lattice: IntersectionLattice,
    r: int,
    a: LatticeVector,
    decomposition: Tuple[LatticeVector, ...],
    t: int,
    certified: bool,
) -> MResult:
    if vec_sum(decomposition, lattice.rank) != a:
        raise InvariantError(f"witness summands do not add up to {a}")
    if _scaled_objective_of(lattice, r, a, decomposition) != t:
        raise InvariantError(f"scaled objective {t} does not match its witness")
    return MResult(_scaled_to_value(t, r), decomposition, t, certified)


# ---------------------------------------------------------------------------
# exhaustive oracle

# largest (2 * radius + 1)^d box m_oracle materialises and sorts
ORACLE_BOX_LIMIT = 10**6


def m_oracle(
    lattice: IntersectionLattice, r: int, a: Sequence[int], radius: int = 3
) -> MResult:
    """Exhaustive box search for m(r, a).

    Every decomposition whose quotient coordinates all lie within
    radius (sup norm) of the rounded balanced point a/r is enumerated,
    subject to the sum constraint.  The certificate is True when the
    best value found is provably below the cost of any decomposition
    that leaves the box: a single out-of-box summand already costs at
    least (r(radius+1) - rho_j)^2 / (Q^-1)_jj along some coordinate j.
    A box of more than ORACLE_BOX_LIMIT points raises DomainError.
    """
    av = _check_args(lattice, r, a)
    if not isinstance(radius, int) or radius < 1:
        raise DomainError(f"radius must be a positive integer, got {radius}")
    _require_semidefinite(lattice)
    if r == 1:
        return _finish(lattice, 1, av, (av,), 0, True)
    qd = radical_and_quotient(lattice)
    d = qd.quotient_rank
    if d == 0:
        dec = _assemble([()] * r, qd, lattice, av)
        return _finish(lattice, r, av, dec, 0, True)

    if (2 * radius + 1) ** d > ORACLE_BOX_LIMIT:
        raise DomainError(
            f"radius {radius} box has {(2 * radius + 1) ** d} points in rank {d}, "
            f"more than the limit {ORACLE_BOX_LIMIT}; decrease the radius"
        )

    q = _positive_quotient(qd)
    s = project_to_quotient(qd, av)
    center = tuple(round_half_toward_zero(s[j], r) for j in range(d))
    lo = [center[j] - radius for j in range(d)]
    hi = [center[j] + radius for j in range(d)]

    def cost(y: Sequence[int]) -> int:
        return qform(q, [s[j] - r * y[j] for j in range(d)])

    items = sorted(
        ((cost(y), y) for y in product(*(range(lo[j], hi[j] + 1) for j in range(d)))),
    )

    best_t: Optional[int] = None
    best_dec: Optional[Tuple[LatticeVector, ...]] = None

    chosen: List[LatticeVector] = []

    def feasible(partial: Sequence[int], slots_left: int) -> bool:
        # the remaining slots_left summands must stay inside the box
        for j in range(d):
            need = s[j] - partial[j]
            if need < slots_left * lo[j] or need > slots_left * hi[j]:
                return False
        return True

    def consider_leaf(partial_sum: Sequence[int], partial_cost: int) -> None:
        nonlocal best_t, best_dec
        y_last = tuple(s[j] - partial_sum[j] for j in range(d))
        if any(y_last[j] < lo[j] or y_last[j] > hi[j] for j in range(d)):
            return
        t = partial_cost + cost(y_last)
        if best_t is not None and t > best_t:
            return
        dec = _assemble(list(chosen) + [y_last], qd, lattice, av)
        if best_t is None or t < best_t or (t == best_t and dec < best_dec):
            best_t, best_dec = t, dec

    def dfs(slot: int, start: int, partial_sum: Tuple[int, ...], partial_cost: int) -> None:
        if slot == r - 1:
            consider_leaf(partial_sum, partial_cost)
            return
        remaining = r - 1 - slot
        for idx in range(start, len(items)):
            c, y = items[idx]
            # later items cost at least as much as this one
            if best_t is not None and partial_cost + remaining * c > best_t:
                break
            new_sum = tuple(partial_sum[j] + y[j] for j in range(d))
            if not feasible(new_sum, r - slot - 1):
                continue
            chosen.append(y)
            dfs(slot + 1, idx, new_sum, partial_cost + c)
            chosen.pop()

    dfs(0, 0, (0,) * d, 0)

    if best_t is None:
        raise DomainError(
            f"radius {radius} box around a/{r} contains no decomposition; "
            "increase the radius"
        )

    inv_diag = intlinalg.inverse_diagonal(q)
    rho = [abs(r * center[j] - s[j]) for j in range(d)]
    bound_out = min(
        Fraction((r * (radius + 1) - rho[j]) ** 2) / inv_diag[j] for j in range(d)
    )
    min_box = items[0][0]
    min_all = min(Fraction(min_box), bound_out)
    certified = Fraction(best_t) < bound_out + (r - 1) * min_all
    return _finish(lattice, r, av, best_dec, best_t, certified)


# ---------------------------------------------------------------------------
# candidate enumeration plus multiset search


_Ldl = Tuple[List[List[int]], List[int], int]


def _ldl(q: Sequence[Sequence[int]]) -> _Ldl:
    """Integers (w, mult, scale) such that, for every integer vector v,

        scale * q(v) = sum_k mult[k] * (w[k][k] * v[k] + sum_{l>k} w[k][l] * v[l])^2.

    w is the fraction-free elimination of q, whose pivots w[k][k] are its
    leading minors d_k; the k-th square enters q(v) divided by
    d_{k-1} * d_k (d_{-1} = 1), and scale is the lcm of those products.
    """
    w, _ = intlinalg.symmetric_elimination(q)  # definite: radical_and_quotient checked it
    dens = [(w[k - 1][k - 1] if k else 1) * w[k][k] for k in range(len(w))]
    scale = lcm(*dens)
    return w, [scale // x for x in dens], scale


def _ellipsoid(
    ldl: _Ldl, s: Sequence[int], r: int, bound: int, shrink: bool = False
) -> List[Tuple[int, LatticeVector]]:
    """All (cost(y), y) with cost(y) = Q+(s - r*y) <= bound.

    Fincke-Pohst enumeration over the rows of _ldl from the last coordinate
    down, each level visited in zigzag order from its rounded centre
    (Schnorr-Euchner), which level k divides by its own pivot w[k][k].
    With shrink the bound drops to every cost found, so the cheapest
    points are among those returned.
    """
    w, mult, scale = ldl
    d, limit = len(s), scale * bound
    y, v = [0] * d, [0] * d  # v = s - r*y on the coordinates already fixed
    found: List[Tuple[int, LatticeVector]] = []

    def descend(k: int, partial: int) -> None:
        row, rd = w[k], r * w[k][k]
        g = row[k] * s[k] + sum(row[l] * v[l] for l in range(k + 1, d))
        z0 = round_half_toward_zero(g, rd)

        def visit(z: int) -> bool:
            nonlocal limit
            total = partial + mult[k] * (g - rd * z) ** 2
            if total > limit:
                return False
            y[k], v[k] = z, s[k] - r * z
            if k:
                descend(k - 1, total)
            else:
                found.append((total // scale, tuple(y)))
                if shrink:
                    limit = total
            return True

        if not visit(z0):
            # z0 minimises the term over the integers, so nothing fits
            return
        step = 1
        up_alive = down_alive = True
        while up_alive or down_alive:
            if up_alive:
                up_alive = visit(z0 + step)
            if down_alive:
                down_alive = visit(z0 - step)
            step += 1

    descend(d - 1, 0)
    return found


def _search(
    q: Sequence[Sequence[int]],
    s: LatticeVector,
    r: int,
    lift: Optional[Callable[[List[LatticeVector]], Tuple[LatticeVector, ...]]] = None,
) -> Tuple[int, Tuple[LatticeVector, ...]]:
    """Scaled optimum T and one optimal decomposition of s under the positive
    definite form q, for r >= 2 and rank d >= 1.

    Candidate summands come from one ellipsoid enumeration around s/r;
    non-decreasing multisets of them are searched with the last summand
    fixed by the sum constraint, under a bound B that doubles from
    r*c_min up to the balanced seed's cost (see the module docstring
    for why this is exact).  With lift, ties are kept and broken toward
    the lexicographically smallest lifted decomposition, which is
    returned.  Without, nothing is lifted: once a decomposition of total
    T is found only strictly cheaper ones are searched for (T is an
    integer, so the limit drops to T - 1), and the quotient summands of
    the last one found are returned.
    """
    d = len(s)
    ldl = _ldl(q)
    center = tuple(round_half_toward_zero(s[j], r) for j in range(d))
    last = tuple(s[j] - (r - 1) * center[j] for j in range(d))
    c_center = qform(q, [s[j] - r * center[j] for j in range(d)])
    t_seed = (r - 1) * c_center + qform(q, [s[j] - r * last[j] for j in range(d)])
    c_min = min(c for c, _ in _ellipsoid(ldl, s, r, c_center, shrink=True))

    bound = r * c_min
    while True:
        items = sorted(_ellipsoid(ldl, s, r, bound - (r - 1) * c_min))
        index = {y: i for i, (_, y) in enumerate(items)}
        # limit: the largest total still searched for
        limit, best_t, best = bound, bound, None
        chosen: List[LatticeVector] = []

        def dfs(start: int, left: int, partial_sum: Tuple[int, ...], partial_cost: int) -> None:
            # left summands remain; the last one is fixed by the sum
            nonlocal limit, best_t, best
            if left == 1:
                y_last = tuple(s[j] - partial_sum[j] for j in range(d))
                idx = index.get(y_last, -1)
                if idx < start:
                    return
                t = partial_cost + items[idx][0]
                if t > limit:
                    return
                if lift is not None:
                    dec = lift(chosen + [y_last])
                    if best is None or t < best_t or dec < best:
                        limit = best_t = t
                        best = dec
                else:
                    limit, best_t, best = t - 1, t, tuple(chosen) + (y_last,)
                return
            for idx in range(start, len(items)):
                c, y = items[idx]
                # later items cost at least as much as this one
                if partial_cost + left * c > limit:
                    break
                chosen.append(y)
                dfs(idx, left - 1, tuple(partial_sum[j] + y[j] for j in range(d)), partial_cost + c)
                chosen.pop()

        dfs(0, r, (0,) * d, 0)
        if best is not None:
            return best_t, best
        if bound >= t_seed:
            raise InvariantError("the balanced decomposition was not found")
        bound = min(max(2 * bound, r), t_seed)


def m_compute(lattice: IntersectionLattice, r: int, a: Sequence[int]) -> MResult:
    """Exact global minimum of the scaled decomposition objective.

    The search runs on the whole quotient (see _search) and returns the
    lexicographically smallest optimal witness.
    """
    av = _check_args(lattice, r, a)
    _require_semidefinite(lattice)
    if r == 1:
        return _finish(lattice, 1, av, (av,), 0, True)
    qd = radical_and_quotient(lattice)
    if qd.quotient_rank == 0:
        dec = _assemble([()] * r, qd, lattice, av)
        return _finish(lattice, r, av, dec, 0, True)
    q, s = _positive_quotient(qd), project_to_quotient(qd, av)
    t, dec = _search(q, s, r, lambda ys: _assemble(ys, qd, lattice, av))
    return _finish(lattice, r, av, dec, t, True)


# ---------------------------------------------------------------------------
# value only, summed over the blocks of the quotient form


_Matrix = Tuple[Tuple[int, ...], ...]
_Blocks = Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[_Matrix, _Matrix], ...]]


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _quotient_blocks(lattice: IntersectionLattice) -> _Blocks:
    """Connected components of the graph of the positive quotient form,
    whose edges are its non-zero off-diagonal entries.

    Returns (j, g) for each isolated quotient coordinate of square g whose
    projection row is +-e_j, and (projection rows, form) on the quotient
    coordinates of every other component.  The quotient form is the
    orthogonal sum of these blocks.
    """
    qd = radical_and_quotient(lattice)
    q = _positive_quotient(qd)
    d = qd.quotient_rank
    seen = [False] * d
    singles: List[Tuple[int, int]] = []
    blocks: List[Tuple[_Matrix, _Matrix]] = []
    for root in range(d):
        if seen[root]:
            continue
        seen[root] = True
        component, stack = [root], [root]
        while stack:
            i = stack.pop()
            for j in range(d):
                if q[i][j] and not seen[j]:
                    seen[j] = True
                    component.append(j)
                    stack.append(j)
        row = [abs(c) for c in qd.projection[root]]
        if len(component) == 1 and sum(row) == 1:
            singles.append((row.index(1), q[root][root]))
        else:
            coords = sorted(component)
            form = tuple(tuple(q[i][j] for j in coords) for i in coords)
            blocks.append((tuple(qd.projection[i] for i in coords), form))
    return tuple(singles), tuple(blocks)


def m_value(lattice: IntersectionLattice, r: int, a: Sequence[int]) -> int:
    """m(r, a) without a witness; equal to m_compute(lattice, r, a).value.

    The objective and the sum constraint both split over an orthogonal
    sum, so m is the sum of m over the blocks of the positive quotient
    form (_quotient_blocks); the radical costs nothing.  A coordinate of
    square g that is +-a_j gives g * k * (r - k) with k = a_j mod r (k
    summands at the upper and r - k at the lower rounding of a_j / r;
    k * (r - k) is even in k).  Every other block runs the search
    without witness on its form and on a projected by its rows.
    """
    av = _check_args(lattice, r, a)
    _require_semidefinite(lattice)
    if r == 1:
        return 0
    singles, blocks = _quotient_blocks(lattice)
    total = 0
    for j, g in singles:
        k = av[j] % r
        total += g * k * (r - k)
    for rows, q in blocks:
        s = intlinalg.mat_vec(rows, av)
        d = len(s)
        t, ys = _search(q, s, r)
        if vec_sum(ys, d) != s:
            raise InvariantError(f"quotient summands do not add up to {s}")
        if sum(qform(q, [s[j] - r * y[j] for j in range(d)]) for y in ys) != t:
            raise InvariantError(f"scaled objective {t} does not match its quotient summands")
        total += _scaled_to_value(t, r)
    return total
