"""Existence criteria for holomorphic and filtrable structures.

Surfaces are non-algebraic; the intersection form on the Neron-Severi
lattice is negative semi-definite.  The deciders compare the bundle's
discriminant against the minimal-decomposition invariant m(r, c1), of
which only the value is needed (minvariant.m_value):

  * K3, rank 2: filtrable iff delta >= m(2, c1); holomorphic iff
    delta >= min(6, m(2, c1)); except that delta = 4 with c1 in 2 NS on
    a surface of algebraic dimension 0 admits no holomorphic structure
    at all.
  * Class VII with the covered minimal model (b2 = 0, or a cycle of
    rational curves): holomorphic, filtrable and the numerical condition
    are all equivalent, in any rank.
  * Generic non-algebraic surface: the numerical condition decides
    filtrability; holomorphic existence beyond the filtrable case is
    reported as not covered.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from .bundles import BundleTopology, discriminant
from .errors import DomainError, InvariantError, LatticeError
from .lattice import (
    Definiteness,
    IntersectionLattice,
    as_vector,
    classify_definiteness,
    in_scaled_sublattice,
)
from .minvariant import m_value

YES = "yes"
NO = "no"
NOT_COVERED = "not_covered"


class SurfaceKind(Enum):
    K3 = "k3"
    CLASS_VII = "class7"
    GENERIC = "generic"


@dataclass(frozen=True)
class SurfaceModel:
    """A non-algebraic surface as seen by the decision rules.

    algebraic_dimension is 0 or 1; vii_applicable asserts, for class VII
    surfaces, that the minimal model is of a known covered type
    (b2 = 0 or a cycle of rational curves).  That hypothesis is supplied
    by the caller, not derived.
    """

    kind: SurfaceKind
    lattice: IntersectionLattice
    chi_o: int
    anticanonical: Tuple[int, ...]
    algebraic_dimension: int = 0
    vii_applicable: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "anticanonical", as_vector(self.anticanonical))
        if len(self.anticanonical) != self.lattice.rank:
            raise LatticeError(
                f"anticanonical has length {len(self.anticanonical)}, "
                f"lattice rank is {self.lattice.rank}"
            )
        if not isinstance(self.chi_o, int):
            raise DomainError(f"chi_o must be an integer, got {self.chi_o!r}")
        if not isinstance(self.algebraic_dimension, int) or self.algebraic_dimension not in (0, 1):
            raise DomainError(
                f"algebraic dimension must be 0 or 1, got {self.algebraic_dimension}"
            )
        if classify_definiteness(self.lattice) is Definiteness.INDEFINITE_OR_POSITIVE:
            raise LatticeError("lattice not negative semi-definite")
        if self.kind is SurfaceKind.K3:
            if self.chi_o != 2:
                raise DomainError(f"a K3 surface has chi_o = 2, got {self.chi_o}")
            if any(self.anticanonical):
                raise DomainError("a K3 surface has trivial anticanonical class")
            for i in range(self.lattice.rank):
                if self.lattice.gram[i][i] % 2:
                    raise LatticeError("K3 Gram diagonal must be even")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision rule.

    holomorphic and filtrable are each yes / no / not_covered; clause
    names the rule that fired; exceptional_case marks the excluded K3
    discriminant-4 configuration.
    """

    holomorphic: str
    filtrable: str
    clause: str
    delta: int
    m_value: Optional[int]
    exceptional_case: bool = False

    def __post_init__(self) -> None:
        allowed = (YES, NO, NOT_COVERED)
        if self.holomorphic not in allowed or self.filtrable not in allowed:
            raise InvariantError(
                f"verdict values must be in {allowed}, got {self.holomorphic!r}, {self.filtrable!r}"
            )
        if self.filtrable == YES and self.holomorphic != YES:
            raise InvariantError(f"filtrable=yes needs holomorphic=yes, got {self.holomorphic!r}")
        if self.exceptional_case and (self.holomorphic, self.filtrable) != (NO, NO):
            raise InvariantError("the exceptional K3 case must be no/no")


def _negative_c1(delta: int) -> Verdict:
    return Verdict(NO, NO, "c1-outside-ns", delta, None)


def decide_k3(surface: SurfaceModel, bundle: BundleTopology) -> Verdict:
    """Rank-2 existence on a non-algebraic K3 surface."""
    if surface.kind is not SurfaceKind.K3:
        raise DomainError(f"decide_k3 needs a k3 surface, got {surface.kind.value}")
    if bundle.rank != 2:
        raise DomainError(f"the K3 rule covers rank 2 only, got rank {bundle.rank}")
    delta = discriminant(surface.lattice, bundle)
    if not bundle.c1_in_ns:
        return _negative_c1(delta)
    m = m_value(surface.lattice, 2, bundle.c1)
    if (
        surface.algebraic_dimension == 0
        and delta == 4
        and in_scaled_sublattice(surface.lattice, bundle.c1, 2)
    ):
        return Verdict(NO, NO, "k3-exceptional", delta, m, exceptional_case=True)
    filtrable = YES if delta >= m else NO
    holomorphic = YES if delta >= min(6, m) else NO
    return Verdict(holomorphic, filtrable, "k3-criterion", delta, m)


def decide_class_vii(surface: SurfaceModel, bundle: BundleTopology) -> Verdict:
    """Any-rank existence on a class VII surface with covered minimal model."""
    if surface.kind is not SurfaceKind.CLASS_VII:
        raise DomainError(
            f"decide_class_vii needs a class7 surface, got {surface.kind.value}"
        )
    delta = discriminant(surface.lattice, bundle)
    if not surface.vii_applicable:
        return Verdict(
            NOT_COVERED, NOT_COVERED, "vii-hypothesis-not-covered", delta, None
        )
    if not bundle.c1_in_ns:
        return _negative_c1(delta)
    m = m_value(surface.lattice, bundle.rank, bundle.c1)
    answer = YES if delta >= m else NO
    return Verdict(answer, answer, "vii-criterion", delta, m)


def decide_filtrable_generic(surface: SurfaceModel, bundle: BundleTopology) -> Verdict:
    """Filtrable existence on any non-algebraic surface; holomorphic existence
    beyond the filtrable case is out of scope and reported as not covered."""
    delta = discriminant(surface.lattice, bundle)
    if not bundle.c1_in_ns:
        return _negative_c1(delta)
    m = m_value(surface.lattice, bundle.rank, bundle.c1)
    if delta >= m:
        return Verdict(YES, YES, "generic-filtrable-criterion", delta, m)
    return Verdict(NOT_COVERED, NO, "generic-filtrable-criterion", delta, m)
