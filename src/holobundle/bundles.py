"""Topological invariants of complex vector bundles on a surface lattice.

A bundle is described by its rank r, first Chern class c1 (coordinates
in the Neron-Severi lattice) and second Chern number c2.  Everything is
exact integer or rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import DomainError
from .lattice import IntersectionLattice, as_vector, in_scaled_sublattice, pairing


@dataclass(frozen=True)
class BundleTopology:
    """Topological data (r, c1, c2) of a complex vector bundle.

    c1_in_ns records whether c1 really lies in the Neron-Severi lattice;
    when False the coordinates are carried along but every existence
    verdict is immediately negative.
    """

    rank: int
    c1: Tuple[int, ...]
    c2: int
    c1_in_ns: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.rank, int) or self.rank < 1:
            raise DomainError(f"bundle rank must be a positive integer, got {self.rank}")
        if not isinstance(self.c2, int):
            raise DomainError("c2 must be an integer")
        object.__setattr__(self, "c1", as_vector(self.c1))


def discriminant(lattice: IntersectionLattice, bundle: BundleTopology) -> int:
    """2 r c2 - (r - 1) c1^2, the twist-invariant discriminant."""
    c1_sq = pairing(lattice, bundle.c1, bundle.c1)
    return 2 * bundle.rank * bundle.c2 - (bundle.rank - 1) * c1_sq


def pontrjagin_p1(lattice: IntersectionLattice, bundle: BundleTopology) -> int:
    """First Pontrjagin number of the associated projective bundle."""
    return -discriminant(lattice, bundle)


def w2_vanishes(lattice: IntersectionLattice, bundle: BundleTopology) -> bool:
    """Whether the associated PU(2)-bundle lifts topologically (rank 2 only)."""
    if bundle.rank != 2:
        raise DomainError(f"w2 test is defined for rank 2 bundles, got rank {bundle.rank}")
    return in_scaled_sublattice(lattice, bundle.c1, 2)


def euler_characteristic(surface, bundle: BundleTopology) -> Tuple[Fraction, bool]:
    """Riemann-Roch value chi(E) as an exact rational, plus an integrality flag.

    chi = r * (chi_O + c1.c1(X) / (2r) + (c1^2 - delta) / (2 r^2)).
    The flag is True exactly when the rational value is an integer; a
    False flag on supposedly realisable data means the input is not the
    topology of an actual bundle on that surface.
    """
    lattice = surface.lattice
    r = bundle.rank
    delta = discriminant(lattice, bundle)
    c1_sq = pairing(lattice, bundle.c1, bundle.c1)
    c1_dot_k = pairing(lattice, bundle.c1, surface.anticanonical)
    chi = r * (
        Fraction(surface.chi_o)
        + Fraction(c1_dot_k, 2 * r)
        + Fraction(c1_sq - delta, 2 * r * r)
    )
    return chi, chi.denominator == 1


def k3_simple_h1(delta: int) -> int:
    """h^1 of the traceless endomorphisms of a simple rank-2 bundle on a K3.

    Equals delta - 6; a negative value is the obstruction that rules out
    simple bundles with small discriminant.
    """
    return delta - 6
