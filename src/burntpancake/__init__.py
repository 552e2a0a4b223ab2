"""Hamiltonian cycles and paths in burnt pancake graphs under hybrid faults.

The fault model mixes removed matching-pair vertices with faulty edges: a
cycle tolerates n-2 such elements and a path between prescribed endpoints
n-3, and both bounds are tight.  Constructions are recursive and
deterministic; an independent oracle verifies every output structurally and
can certify non-existence by exhaustive search at small sizes.
"""

from .bp_graph import CapabilityError
from .constructor import (
    BudgetExceededError,
    CaseTrace,
    ConstructionError,
    NoOrderingError,
    StrictModeFailure,
    UsageError,
    VertexCycle,
    VertexPath,
    hamiltonian_cycle,
    hamiltonian_path,
    order_subgraphs,
)
from .fault_model import FaultSet, ValidationReport, validate
from .oracle import (
    SearchResult,
    SearchStatus,
    VerificationReport,
    exhaustive_cycle_search,
    exhaustive_path_search,
    tightness_witness_cycle,
    tightness_witness_path,
    verify_cycle,
    verify_path,
)
from .signed_perm import (
    Vertex,
    all_vertices,
    compose,
    format_vertex,
    identity,
    inverse,
    left_translate,
    parse_vertex,
    prefix_reversal,
)

__all__ = [
    "BudgetExceededError",
    "CapabilityError",
    "CaseTrace",
    "ConstructionError",
    "FaultSet",
    "NoOrderingError",
    "SearchResult",
    "SearchStatus",
    "StrictModeFailure",
    "UsageError",
    "ValidationReport",
    "VerificationReport",
    "Vertex",
    "VertexCycle",
    "VertexPath",
    "all_vertices",
    "compose",
    "exhaustive_cycle_search",
    "exhaustive_path_search",
    "format_vertex",
    "hamiltonian_cycle",
    "hamiltonian_path",
    "identity",
    "inverse",
    "left_translate",
    "order_subgraphs",
    "parse_vertex",
    "prefix_reversal",
    "tightness_witness_cycle",
    "tightness_witness_path",
    "validate",
    "verify_cycle",
    "verify_path",
]
