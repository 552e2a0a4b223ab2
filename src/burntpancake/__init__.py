"""Hamiltonian cycles and paths in burnt pancake graphs under hybrid faults.

The fault model mixes removed matching-pair vertices with faulty edges: a
cycle tolerates n-2 such elements and a path between prescribed endpoints
n-3, and both bounds are tight.  Constructions are recursive and
deterministic; an independent oracle verifies every output structurally and
can certify non-existence by exhaustive search at small sizes.

``import burntpancake`` loads no submodule.  Each public name is looked up
in its defining module when it is asked for (PEP 562), so a program loads
only the modules whose names it uses: ``verify`` never loads the
constructor.  Nothing is stored in the package's namespace, so the package
always returns what the defining module holds now.
"""

from importlib import import_module

# each public name, and the module that defines it
_EXPORTS = {
    "BudgetExceededError": "errors",
    "CapabilityError": "bp_graph",
    "CaseTrace": "constructor",
    "ConstructionError": "errors",
    "FaultSet": "fault_model",
    "NoOrderingError": "errors",
    "SearchResult": "oracle",
    "SearchStatus": "oracle",
    "StrictModeFailure": "errors",
    "UsageError": "errors",
    "ValidationReport": "fault_model",
    "VerificationReport": "oracle",
    "Vertex": "signed_perm",
    "VertexCycle": "constructor",
    "VertexPath": "constructor",
    "all_vertices": "signed_perm",
    "compose": "signed_perm",
    "exhaustive_cycle_search": "oracle",
    "exhaustive_path_search": "oracle",
    "format_vertex": "signed_perm",
    "hamiltonian_cycle": "constructor",
    "hamiltonian_path": "constructor",
    "identity": "signed_perm",
    "inverse": "signed_perm",
    "left_translate": "signed_perm",
    "order_subgraphs": "constructor",
    "parse_vertex": "signed_perm",
    "prefix_reversal": "signed_perm",
    "tightness_witness_cycle": "oracle",
    "tightness_witness_path": "oracle",
    "validate": "fault_model",
    "verify_cycle": "oracle",
    "verify_path": "oracle",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
