"""Integer intersection lattices with an exact bilinear pairing.

A lattice is a free Z-module with a symmetric integer Gram matrix.  The
surfaces this package cares about have negative semi-definite forms; the
classification, the radical (kernel of the form) and the induced
negative-definite quotient form are all computed with exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence, Tuple

from . import intlinalg
from .errors import (
    DimensionMismatchError,
    DomainError,
    IndefiniteLatticeError,
    InvariantError,
    LatticeError,
)

LatticeVector = Tuple[int, ...]

# entries kept by each lattice-keyed cache (here and in minvariant)
LATTICE_CACHE_SIZE = 1024


def as_vector(coords: Sequence[int]) -> LatticeVector:
    out = []
    for x in coords:
        if not isinstance(x, int):
            raise LatticeError("vector coordinates must be integers")
        out.append(int(x))
    return tuple(out)


def vec_add(x: LatticeVector, y: LatticeVector) -> LatticeVector:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: LatticeVector, y: LatticeVector) -> LatticeVector:
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(k: int, x: LatticeVector) -> LatticeVector:
    return tuple(k * a for a in x)


def vec_sum(vectors: Sequence[LatticeVector], rank: int) -> LatticeVector:
    total = [0] * rank
    for v in vectors:
        for i, a in enumerate(v):
            total[i] += a
    return tuple(total)


class Definiteness(Enum):
    NEGATIVE_DEFINITE = "negative_definite"
    NEGATIVE_SEMIDEFINITE_DEGENERATE = "negative_semidefinite_degenerate"
    INDEFINITE_OR_POSITIVE = "indefinite_or_positive"


@dataclass(frozen=True)
class IntersectionLattice:
    """Free Z-module of finite rank with a symmetric integer Gram matrix."""

    gram: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = []
        for row in self.gram:
            entries = []
            for x in row:
                if not isinstance(x, int):
                    raise LatticeError("gram entries must be integers")
                entries.append(int(x))
            rows.append(tuple(entries))
        gram = tuple(rows)
        n = len(gram)
        for i, row in enumerate(gram):
            if len(row) != n:
                raise LatticeError(f"gram row {i} has length {len(row)}, expected {n}")
        for i in range(n):
            for j in range(i + 1, n):
                if gram[i][j] != gram[j][i]:
                    raise LatticeError(f"gram not symmetric at ({i},{j})")
        object.__setattr__(self, "gram", gram)

    @property
    def rank(self) -> int:
        return len(self.gram)


@dataclass(frozen=True)
class QuotientData:
    """Radical of the form plus the induced form on the free quotient.

    projection maps ambient coordinates onto quotient coordinates; its
    kernel is exactly the span of radical_basis.  lifts is a section of
    projection (one ambient vector per quotient basis vector), used to
    pull quotient solutions back to the ambient lattice.
    """

    radical_basis: Tuple[LatticeVector, ...]
    projection: Tuple[Tuple[int, ...], ...]
    quotient_gram: Tuple[Tuple[int, ...], ...]
    lifts: Tuple[LatticeVector, ...]

    @property
    def quotient_rank(self) -> int:
        return len(self.quotient_gram)


def _require_vector(lattice: IntersectionLattice, v: Sequence[int], what: str = "vector") -> LatticeVector:
    vv = as_vector(v)
    if len(vv) != lattice.rank:
        raise DimensionMismatchError(
            f"{what} has length {len(vv)}, lattice rank is {lattice.rank}"
        )
    return vv


def pairing(lattice: IntersectionLattice, x: Sequence[int], y: Sequence[int]) -> int:
    """Exact value of the intersection form on two lattice vectors."""
    xv = _require_vector(lattice, x)
    yv = _require_vector(lattice, y)
    g = lattice.gram
    return sum(xv[i] * g[i][j] * yv[j] for i in range(len(xv)) for j in range(len(yv)))


def qform(gram: Sequence[Sequence[int]], x: Sequence[int]) -> int:
    """Value x^T gram x of the quadratic form of a square integer matrix."""
    n = len(x)
    return sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n))


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def classify_definiteness(lattice: IntersectionLattice) -> Definiteness:
    """Classify the Gram matrix by fraction-free symmetric elimination.

    The negated form is positive semi-definite exactly when the original
    form is negative semi-definite (intlinalg.symmetric_elimination), and
    a skipped zero pivot marks degeneracy.  Rank 0 counts as definite.
    """
    w, psd = intlinalg.symmetric_elimination([[-e for e in row] for row in lattice.gram])
    if not psd:
        return Definiteness.INDEFINITE_OR_POSITIVE
    if not all(w[k][k] for k in range(lattice.rank)):
        return Definiteness.NEGATIVE_SEMIDEFINITE_DEGENERATE
    return Definiteness.NEGATIVE_DEFINITE


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def radical_and_quotient(lattice: IntersectionLattice) -> QuotientData:
    """Saturated radical of the form and the negative-definite quotient."""
    if classify_definiteness(lattice) is Definiteness.INDEFINITE_OR_POSITIVE:
        raise IndefiniteLatticeError("lattice not negative semi-definite")
    n = lattice.rank
    rank_form, b, binv = intlinalg.column_reduce([list(r) for r in lattice.gram], n)
    for j in range(n):
        lead = next((b[r][j] for r in range(n) if b[r][j]), 0)
        if lead < 0:
            for r in range(n):
                b[r][j] = -b[r][j]
                binv[j][r] = -binv[j][r]
    radical = tuple(tuple(b[r][j] for r in range(n)) for j in range(rank_form, n))
    lifts = tuple(tuple(b[r][j] for r in range(n)) for j in range(rank_form))
    projection = tuple(tuple(binv[i][c] for c in range(n)) for i in range(rank_form))
    quotient = tuple(
        tuple(pairing(lattice, lifts[i], lifts[j]) for j in range(rank_form))
        for i in range(rank_form)
    )
    for v in radical:
        if any(sum(lattice.gram[i][j] * v[j] for j in range(n)) for i in range(n)):
            raise InvariantError(f"radical vector {v} pairs nontrivially with the lattice")
    if rank_form:
        w, psd = intlinalg.symmetric_elimination([[-e for e in row] for row in quotient])
        if not (psd and all(w[k][k] for k in range(rank_form))):
            raise InvariantError("quotient form is not negative definite")
    return QuotientData(radical, projection, quotient, lifts)


def in_scaled_sublattice(lattice: IntersectionLattice, v: Sequence[int], k: int) -> bool:
    """Whether v lies in k times the lattice (every coordinate divisible)."""
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"scale factor must be a positive integer, got {k}")
    vv = _require_vector(lattice, v)
    return all(c % k == 0 for c in vv)


def project_to_quotient(qd: QuotientData, v: LatticeVector) -> LatticeVector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in qd.projection)


def lift_from_quotient(qd: QuotientData, y: LatticeVector, rank: int) -> LatticeVector:
    out = [0] * rank
    for coeff, basis_vec in zip(y, qd.lifts):
        if coeff:
            for i, c in enumerate(basis_vec):
                out[i] += coeff * c
    return tuple(out)
