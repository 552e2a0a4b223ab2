"""Hybrid fault sets: matching-pair vertex faults plus faulty edges.

A fault set holds two kinds of elements.  A *matching pair* removes both
end-vertices of a matching edge from the graph; the underlying edges must
form a matching.  A *faulty edge* removes only the edge, and may not touch
any removed vertex.  ``|F|`` counts elements, not vertices.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from . import bp_graph
from .signed_perm import Vertex, check_vertex, format_vertex, int_symbols

Pair = tuple[Vertex, Vertex]  # sorted vertex pair


def _canon_pair(a: Iterable[int], b: Iterable[int], n: int) -> Pair:
    va, vb = check_vertex(a, n), check_vertex(b, n)
    return (va, vb) if va <= vb else (vb, va)


class FaultSet(NamedTuple):
    """Immutable, canonically ordered hybrid fault set for ``BP_n``."""

    n: int
    matching_pairs: tuple[Pair, ...] = ()
    faulty_edges: tuple[Pair, ...] = ()

    @staticmethod
    def build(
        n: int,
        matching_pairs: Sequence[Sequence[Iterable[int]]] = (),
        faulty_edges: Sequence[Sequence[Iterable[int]]] = (),
    ) -> "FaultSet":
        pairs = tuple(sorted(_canon_pair(a, b, n) for a, b in matching_pairs))
        edges = tuple(sorted(_canon_pair(a, b, n) for a, b in faulty_edges))
        return FaultSet(n, pairs, edges)

    @property
    def size(self) -> int:
        return len(self.matching_pairs) + len(self.faulty_edges)

    def removed_vertices(self) -> frozenset[Vertex]:
        """V(F^mv): vertices deleted from the graph."""
        return frozenset(v for pair in self.matching_pairs for v in pair)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "matching_pairs": [[list(a), list(b)] for a, b in self.matching_pairs],
            "faulty_edges": [[list(a), list(b)] for a, b in self.faulty_edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "FaultSet":
        """Decode :meth:`to_json_dict`; n and every vertex symbol must be ints."""
        try:
            n = data["n"]
            pairs = data.get("matching_pairs", [])
            edges = data.get("faulty_edges", [])
            ints = type(n) is int and int_symbols(chain.from_iterable(chain(pairs, edges)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed fault set object: {exc}") from exc
        if not ints:
            raise ValueError("malformed fault set object: n and the vertex symbols must be integers")
        return FaultSet.build(n, pairs, edges)

    @staticmethod
    def from_json(text: str) -> "FaultSet":
        return FaultSet.from_json_dict(json.loads(text))


class Violation(NamedTuple):
    kind: str
    element: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} {self.element}: {self.detail}"


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...] = ()


def validate(fault_set: FaultSet, bound: int | None = None) -> ValidationReport:
    """Check all fault-set invariants; returns violations instead of raising."""
    bad: list[Violation] = []
    n = fault_set.n

    def describe(pair: Pair) -> str:
        return f"({format_vertex(pair[0])} | {format_vertex(pair[1])})"

    seen_vertices: set[Vertex] = set()
    for a, b in fault_set.matching_pairs:
        label = describe((a, b))
        if not bp_graph.is_adjacent(a, b):
            bad.append(Violation("pair-not-an-edge", label, "end-vertices are not adjacent"))
        for v in (a, b):
            if v in seen_vertices:
                bad.append(Violation("not-a-matching", label, f"vertex {format_vertex(v)} reused"))
            seen_vertices.add(v)

    removed = fault_set.removed_vertices()
    seen_edges = {bp_graph.edge_key(a, b) for a, b in fault_set.matching_pairs}
    for a, b in fault_set.faulty_edges:
        label = describe((a, b))
        if not bp_graph.is_adjacent(a, b):
            bad.append(Violation("edge-not-an-edge", label, "endpoints are not adjacent"))
            continue
        key = bp_graph.edge_key(a, b)
        if key in seen_edges:
            bad.append(Violation("duplicate-edge", label, "edge already declared faulty or matched"))
        seen_edges.add(key)
        for v in (a, b):
            if v in removed:
                bad.append(
                    Violation("edge-touches-removed", label, f"endpoint {format_vertex(v)} is a removed vertex")
                )

    if bound is not None and fault_set.size > bound:
        bad.append(Violation("budget-exceeded", f"|F|={fault_set.size}", f"exceeds bound {bound}"))

    return ValidationReport(ok=not bad, violations=tuple(bad))
