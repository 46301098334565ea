"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """Input is outside the mathematical domain of an operation."""


class DimensionMismatchError(DomainError):
    """A vector's length does not match the ambient lattice rank."""


class LatticeError(DomainError):
    """A Gram matrix violates a structural requirement."""


class IndefiniteLatticeError(LatticeError):
    """The intersection form is indefinite or has a positive direction.

    On such a lattice the minimal-decomposition invariant diverges to
    minus infinity (the surface would be algebraic), so callers get an
    error instead of a number.
    """


class InvariantError(RuntimeError):
    """An internal consistency check on a computed result failed.

    Raised explicitly (never by assert) so the check survives python -O;
    it signals a defect in the program, not a bad input.
    """
