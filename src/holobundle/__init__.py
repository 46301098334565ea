"""Exact arithmetic for deciding holomorphic structures on surface bundles."""

from __future__ import annotations

from .blowup import (
    BlowupMap,
    MBlowupReport,
    PullbackReport,
    blow_up,
    decompose_c1,
    m_blowup_inequality_check,
    normalize_twist,
    pullback_invariance_check,
    pushforward_delta_bound,
)
from .bundles import (
    BundleTopology,
    discriminant,
    euler_characteristic,
    k3_simple_h1,
    pontrjagin_p1,
    w2_vanishes,
)
from .criteria import (
    NO,
    NOT_COVERED,
    YES,
    SurfaceKind,
    SurfaceModel,
    Verdict,
    decide_class_vii,
    decide_filtrable_generic,
    decide_k3,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    IndefiniteLatticeError,
    InvariantError,
    LatticeError,
)
from .lattice import (
    Definiteness,
    IntersectionLattice,
    LatticeVector,
    QuotientData,
    classify_definiteness,
    in_scaled_sublattice,
    pairing,
    radical_and_quotient,
)
from .minvariant import MResult, m_compute, m_oracle, m_value

__version__ = "0.1.0"

__all__ = [
    "BlowupMap",
    "BundleTopology",
    "Definiteness",
    "DimensionMismatchError",
    "DomainError",
    "IndefiniteLatticeError",
    "IntersectionLattice",
    "InvariantError",
    "LatticeError",
    "LatticeVector",
    "MBlowupReport",
    "MResult",
    "NO",
    "NOT_COVERED",
    "PullbackReport",
    "QuotientData",
    "SurfaceKind",
    "SurfaceModel",
    "Verdict",
    "YES",
    "blow_up",
    "classify_definiteness",
    "decide_class_vii",
    "decide_filtrable_generic",
    "decide_k3",
    "decompose_c1",
    "discriminant",
    "euler_characteristic",
    "in_scaled_sublattice",
    "k3_simple_h1",
    "m_blowup_inequality_check",
    "m_compute",
    "m_oracle",
    "m_value",
    "normalize_twist",
    "pairing",
    "pontrjagin_p1",
    "pullback_invariance_check",
    "pushforward_delta_bound",
    "radical_and_quotient",
    "w2_vanishes",
    "__version__",
]
