"""Sail-free linear triple systems: generators, detection, exact search,
canonical labeling and verification."""

from .canon import CanonicalForm, canonical_form, is_isomorphic, isomorphism
from .constructions import (
    ConstructionSpec,
    TwoFactorSpec,
    build,
    build_resolved,
    matching_decomposition,
    transversal_design,
    truncated_design,
    two_factor,
)
from .core import (
    LinearTripleSystem,
    NeighborhoodAnalysis,
    ShadowGraph,
    Triple,
    VertexStats,
    deficiency,
    make_system,
    neighborhood_partition,
    shadow,
    vertex_stats,
)
from .formats import parse_system, serialize_system, system_to_json
from .sails import (
    PushResult,
    SailGuard,
    SailWitness,
    count_sails,
    find_sail_bruteforce,
    find_sail_fast,
)
from .search import (
    SearchOptions,
    SearchReport,
    enumerate_extremal,
    max_sail_free,
    upper_bound,
)
from .verify import VerificationReport, formula_value, infer_k, table, verify_report

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "ConstructionSpec",
    "LinearTripleSystem",
    "NeighborhoodAnalysis",
    "PushResult",
    "SailGuard",
    "SailWitness",
    "SearchOptions",
    "SearchReport",
    "ShadowGraph",
    "Triple",
    "TwoFactorSpec",
    "VerificationReport",
    "VertexStats",
    "build",
    "build_resolved",
    "canonical_form",
    "count_sails",
    "deficiency",
    "enumerate_extremal",
    "find_sail_bruteforce",
    "find_sail_fast",
    "formula_value",
    "infer_k",
    "is_isomorphic",
    "isomorphism",
    "make_system",
    "matching_decomposition",
    "max_sail_free",
    "neighborhood_partition",
    "parse_system",
    "serialize_system",
    "shadow",
    "system_to_json",
    "table",
    "transversal_design",
    "truncated_design",
    "two_factor",
    "upper_bound",
    "verify_report",
    "vertex_stats",
]
