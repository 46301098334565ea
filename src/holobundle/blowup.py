"""Blowing up a point: lattice extension and bundle transformation rules.

Blowing up appends one exceptional class of square -1, orthogonal to
everything else.  For a bundle E on the blown-up surface with
c1(E) = (a, k) (base part a, exceptional coefficient k normalised into
[0, r) by twisting), the pushforward to the base satisfies

    delta(E) >= delta(pushforward) + k (r - k)
    m_total(r, c1(E)) <= m_base(r, a) + k (r - k)

and pulling back a bundle from the base preserves both delta and m.
The m inequality is in fact an equality: m is additive over orthogonal
sums and the exceptional block <-1> contributes k (r - k).  The checkers
read m from minvariant.m_value, which sums over the blocks of the
quotient form; the exceptional class stays a quotient coordinate of its
own there, read in closed form as k (r - k), so their margins are 0 by
construction.  m_compute on the whole lattice is the independent check
of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .bundles import BundleTopology, discriminant
from .errors import DimensionMismatchError, DomainError, InvariantError, LatticeError
from .lattice import IntersectionLattice, LatticeVector, as_vector, pairing
from .minvariant import m_value


@dataclass(frozen=True)
class BlowupMap:
    """Base lattice, blown-up lattice and the exceptional coordinate."""

    base: IntersectionLattice
    total: IntersectionLattice
    d_index: int

    def __post_init__(self) -> None:
        n = self.base.rank
        if self.total.rank != n + 1 or self.d_index != n:
            raise LatticeError("blow-up must append exactly one basis vector at the end")
        g = self.total.gram
        if g[n][n] != -1 or any(g[n][j] != 0 for j in range(n)):
            raise LatticeError(
                "last basis vector is not an exceptional class "
                "(need square -1, orthogonal to the rest)"
            )
        for i in range(n):
            if g[i][:n] != self.base.gram[i]:
                raise LatticeError("blown-up Gram does not extend the base Gram")

    def embed(self, v: Sequence[int]) -> LatticeVector:
        """Coordinate injection of a base class (exceptional part zero)."""
        vv = as_vector(v)
        if len(vv) != self.base.rank:
            raise DimensionMismatchError(
                f"vector has length {len(vv)}, base rank is {self.base.rank}"
            )
        return vv + (0,)

    @property
    def exceptional_class(self) -> LatticeVector:
        return (0,) * self.base.rank + (1,)


def blow_up(lattice: IntersectionLattice) -> BlowupMap:
    """Extend a lattice by one exceptional class of square -1."""
    n = lattice.rank
    total_rows = [row + (0,) for row in lattice.gram]
    total_rows.append((0,) * n + (-1,))
    return BlowupMap(lattice, IntersectionLattice(tuple(total_rows)), n)


def decompose_c1(bmap: BlowupMap, c1_total: Sequence[int]) -> Tuple[LatticeVector, int]:
    """Split a class on the blown-up lattice as pullback part plus k times
    the exceptional class, with k = -(exceptional . c1)."""
    vv = as_vector(c1_total)
    if len(vv) != bmap.total.rank:
        raise DimensionMismatchError(
            f"class has length {len(vv)}, blown-up rank is {bmap.total.rank}"
        )
    k = -pairing(bmap.total, bmap.exceptional_class, vv)
    a = vv[: bmap.base.rank]
    if a + (k,) != vv:
        raise InvariantError(f"class {vv} does not split as base part plus {k} exceptional")
    return a, k


def normalize_twist(bmap: BlowupMap, bundle: BundleTopology) -> Tuple[BundleTopology, int]:
    """Twist by a multiple of the exceptional line bundle so that the
    exceptional coefficient of c1 lands in [0, r).

    Returns the twisted bundle and the twist amount l; c2 is adjusted so
    that the discriminant is unchanged.
    """
    r = bundle.rank
    _, k = decompose_c1(bmap, bundle.c1)
    l = ((k % r) - k) // r
    if l == 0:
        return bundle, 0
    d = bmap.d_index
    c1_new = bundle.c1[:d] + (bundle.c1[d] + r * l,) + bundle.c1[d + 1 :]
    q_old = pairing(bmap.total, bundle.c1, bundle.c1)
    q_new = pairing(bmap.total, c1_new, c1_new)
    num = (r - 1) * (q_new - q_old)
    if num % (2 * r):
        raise InvariantError(f"twist by {l} changes c2 by the non-integer {num}/{2 * r}")
    c2_new = bundle.c2 + num // (2 * r)
    twisted = BundleTopology(r, c1_new, c2_new, bundle.c1_in_ns)
    if discriminant(bmap.total, twisted) != discriminant(bmap.total, bundle):
        raise InvariantError(f"twist by {l} changed the discriminant")
    return twisted, l


def pushforward_delta_bound(delta_total: int, r: int, k: int) -> int:
    """Largest discriminant the pushforward to the base can have."""
    if not isinstance(r, int) or r < 1:
        raise DomainError(f"rank must be a positive integer, got {r}")
    if not isinstance(k, int) or not 0 <= k < r:
        raise DomainError(f"exceptional coefficient must lie in [0, {r}), got {k}")
    return delta_total - k * (r - k)


@dataclass(frozen=True)
class MBlowupReport:
    r: int
    k: int
    m_total: int
    m_base: int

    @property
    def bound(self) -> int:
        return self.m_base + self.k * (self.r - self.k)

    @property
    def margin(self) -> int:
        return self.bound - self.m_total

    @property
    def holds(self) -> bool:
        return self.m_total <= self.bound


def m_blowup_inequality_check(
    bmap: BlowupMap, r: int, a: Sequence[int], k: int
) -> MBlowupReport:
    """Compare m on the blown-up lattice against the base bound.

    The class on the blown-up lattice is the embedded a plus k times the
    exceptional class, k already normalised into [0, r).
    """
    if not 0 <= k < r:
        raise DomainError(f"exceptional coefficient must lie in [0, {r}), got {k}")
    av = as_vector(a)
    c1_total = av + (k,)
    m_total = m_value(bmap.total, r, c1_total)
    m_base = m_value(bmap.base, r, av)
    return MBlowupReport(r, k, m_total, m_base)


@dataclass(frozen=True)
class PullbackReport:
    delta_base: int
    delta_total: int
    m_base: int
    m_total: int

    @property
    def holds(self) -> bool:
        return self.delta_base == self.delta_total and self.m_base == self.m_total


def pullback_invariance_check(bmap: BlowupMap, bundle: BundleTopology) -> PullbackReport:
    """Delta and m evaluated on a base bundle and on its pullback."""
    pulled = BundleTopology(bundle.rank, bmap.embed(bundle.c1), bundle.c2, bundle.c1_in_ns)
    return PullbackReport(
        discriminant(bmap.base, bundle),
        discriminant(bmap.total, pulled),
        m_value(bmap.base, bundle.rank, bundle.c1),
        m_value(bmap.total, pulled.rank, pulled.c1),
    )


@dataclass(frozen=True)
class PrTransferRecord:
    rank: int
    k: int
    twist: int
    delta_total: int
    delta_base_extremal: int
    m_total: int
    m_base: int

    @property
    def margin(self) -> int:
        return self.m_base + self.k * (self.rank - self.k) - self.m_total


@dataclass(frozen=True)
class PrTransferReport:
    records: Tuple[PrTransferRecord, ...]

    @property
    def violations(self) -> int:
        return sum(1 for rec in self.records if rec.margin < 0)


def pr_transfer_check(
    bmap: BlowupMap, instances: Iterable[BundleTopology]
) -> PrTransferReport:
    """Margins of the numerical-condition transfer under pushforward.

    Each instance is twist-normalised, split into (a, k), and compared:
    taking the pushforward discriminant at its extremal value
    delta_total - k (r - k), the condition transfers exactly when
    m_base + k (r - k) - m_total >= 0.  k = 0 instances must have
    margin 0 (pullback invariance).
    """
    records: List[PrTransferRecord] = []
    for bundle in instances:
        twisted, l = normalize_twist(bmap, bundle)
        a, k = decompose_c1(bmap, twisted.c1)
        delta_total = discriminant(bmap.total, twisted)
        m_total = m_value(bmap.total, twisted.rank, twisted.c1)
        m_base = m_value(bmap.base, twisted.rank, a)
        records.append(
            PrTransferRecord(
                twisted.rank,
                k,
                l,
                delta_total,
                pushforward_delta_bound(delta_total, twisted.rank, k),
                m_total,
                m_base,
            )
        )
    return PrTransferReport(tuple(records))
