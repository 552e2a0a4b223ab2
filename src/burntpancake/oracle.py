"""Independent verification and brute-force search.

The verifiers check construction outputs structurally against the graph and
the fault set; they share no code with the constructor.  The exhaustive
searches run on small instances (n <= 4) with materialized adjacency.  They
are complete, and only claim ``ProvenAbsent`` on full exhaustion of the
search space, but not always fast: some n=4 path searches time out, and a
timeout is a distinct outcome.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from typing import Iterable

from . import bp_graph
from .fault_model import FaultSet
from .signed_perm import Vertex, all_vertices, format_vertex, identity, iter_vertices

SEARCH_LIMIT = 4
CONNECTIVITY_STRIDE = 32


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[tuple[str, int, str], ...] = ()

    def kinds(self) -> set[str]:
        return {kind for kind, _, _ in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"{k}@{p}: {d}" for k, p, d in self.violations)


def _vertex_sequence(obj) -> tuple[Vertex, ...]:
    vertices = getattr(obj, "vertices", obj)
    return tuple(map(tuple, vertices))


def _is_vertex(v: Vertex, n: int) -> bool:
    """True iff ``v`` is a signed permutation of 1..n made of ints."""
    return len(v) == n and set(map(type, v)) == {int} and sorted(map(abs, v)) == list(range(1, n + 1))


def _verify_common(
    n: int, fault_set: FaultSet, vertices: tuple[Vertex, ...], closed: bool
) -> list[tuple[str, int, str]]:
    bad: list[tuple[str, int, str]] = []
    removed = fault_set.removed_vertices()
    expected = bp_graph.vertex_count(n) - len(removed)
    if len(vertices) != expected:
        bad.append(("WrongLength", -1, f"{len(vertices)} vertices, expected {expected}"))

    seen = set(vertices)
    distinct = len(seen) == len(vertices)
    avoids_removed = removed.isdisjoint(seen)
    if not (distinct and avoids_removed):
        seen_so_far: set[Vertex] = set()
        for pos, v in enumerate(vertices):
            if v in seen_so_far:
                bad.append(("RepeatedVertex", pos, format_vertex(v)))
            seen_so_far.add(v)
            if v in removed:
                bad.append(("FaultyVertexUsed", pos, format_vertex(v)))

    successors = islice(vertices, 1, None)
    if closed:
        successors = chain(successors, vertices[:1])
    adjacent = all(map(bp_graph.is_adjacent, vertices, successors))

    # The MissingVertex walk may be skipped only when the sequence provably
    # covers every vertex outside ``removed``.  The first vertex is a vertex
    # of BP_n, and every step is a prefix reversal, which maps a vertex to a
    # vertex, so every entry equals a vertex of BP_n (symbol by symbol, and
    # numbers that compare equal hash equal, so set lookups agree).  The
    # entries are distinct, none is removed, and there are |V| - |removed|
    # of them; with removed a subset of V(BP_n), they are all of V(BP_n)
    # minus removed, and the walk would report nothing.  In every other
    # case the walk runs.
    complete = (
        adjacent
        and distinct
        and avoids_removed
        and len(vertices) == expected
        and _is_vertex(vertices[0], n)
        and all(_is_vertex(r, n) for r in removed)
    )
    if not complete:
        for v in iter_vertices(n):
            if v not in seen and v not in removed:
                bad.append(("MissingVertex", -1, format_vertex(v)))

    if adjacent and distinct:  # edge_steps needs each vertex once
        used = {pos for a, b in fault_set.faulty_edges for pos in bp_graph.edge_steps(vertices, a, b, closed)}
        for pos in sorted(used):
            a, b = vertices[pos], vertices[(pos + 1) % len(vertices)]
            bad.append(("FaultyEdgeUsed", pos, f"{format_vertex(a)} -> {format_vertex(b)}"))
        return bad
    faulty = {bp_graph.edge_key(a, b) for a, b in fault_set.faulty_edges}
    steps = len(vertices) if closed else len(vertices) - 1
    for pos in range(steps):
        a = vertices[pos]
        b = vertices[(pos + 1) % len(vertices)]
        if not bp_graph.is_adjacent(a, b):
            bad.append(("NonAdjacent", pos, f"{format_vertex(a)} -> {format_vertex(b)}"))
        elif bp_graph.edge_key(a, b) in faulty:
            bad.append(("FaultyEdgeUsed", pos, f"{format_vertex(a)} -> {format_vertex(b)}"))
    return bad


def verify_cycle(n: int, fault_set: FaultSet, cycle) -> VerificationReport:
    """Check a claimed Hamiltonian cycle of BP_n minus the fault set."""
    vertices = _vertex_sequence(cycle)
    if not vertices:
        return VerificationReport(False, (("WrongLength", -1, "empty"),))
    bad = _verify_common(n, fault_set, vertices, closed=True)
    return VerificationReport(ok=not bad, violations=tuple(bad))


def verify_path(n: int, fault_set: FaultSet, u: Vertex, v: Vertex, path) -> VerificationReport:
    """Check a claimed Hamiltonian path between ``u`` and ``v``."""
    vertices = _vertex_sequence(path)
    if not vertices:
        return VerificationReport(False, (("WrongLength", -1, "empty"),))
    bad = _verify_common(n, fault_set, vertices, closed=False)
    if vertices[0] != tuple(u) or vertices[-1] != tuple(v):
        bad.append(
            (
                "WrongEndpoints",
                0,
                f"got {format_vertex(vertices[0])}..{format_vertex(vertices[-1])}, "
                f"expected {format_vertex(u)}..{format_vertex(v)}",
            )
        )
    return VerificationReport(ok=not bad, violations=tuple(bad))


class SearchStatus(Enum):
    FOUND = "found"
    PROVEN_ABSENT = "proven-absent"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    vertices: tuple[Vertex, ...] = ()
    nodes_expanded: int = 0

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND


class _Searcher:
    """Complete DFS over a materialized residual graph, lexicographic order."""

    def __init__(self, n: int, fault_set: FaultSet, time_budget: float | None):
        if n > SEARCH_LIMIT:
            raise bp_graph.CapabilityError(f"exhaustive search supports n <= {SEARCH_LIMIT}")
        removed = fault_set.removed_vertices()
        faulty = {bp_graph.edge_key(a, b) for a, b in fault_set.faulty_edges}
        self.vertices = [v for v in all_vertices(n) if v not in removed]
        self.adj: dict[Vertex, list[Vertex]] = {}
        for v in self.vertices:
            self.adj[v] = sorted(
                w
                for w in bp_graph.neighbors(v)
                if w not in removed and bp_graph.edge_key(v, w) not in faulty
            )
        self.deadline = None if time_budget is None else time.monotonic() + time_budget
        self.nodes = 0
        self.timed_out = False

    def _tick(self) -> bool:
        self.nodes += 1
        if self.deadline is not None and self.nodes % 512 == 0:
            if time.monotonic() > self.deadline:
                self.timed_out = True
        return self.timed_out

    def _connected_over(self, seeds: Iterable[Vertex], allowed: set[Vertex]) -> bool:
        """True iff ``allowed`` is reachable in full from the seed set."""
        stack = [s for s in seeds]
        seen = set(stack)
        while stack:
            cur = stack.pop()
            for w in self.adj[cur]:
                if w in allowed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return allowed <= seen

    def _search(
        self,
        start: Vertex,
        accept_end,
        degree_anchor,
        end_min_degree: int,
        sole_end: Vertex | None = None,
    ) -> list[Vertex] | None:
        """DFS for a spanning path from ``start``, lexicographic move order.

        ``accept_end(v)`` decides whether a full-length path may stop at v;
        such vertices need only ``end_min_degree`` usable edges, every other
        unvisited vertex needs two.  ``degree_anchor(cur)`` lists visited
        vertices that still count toward usable degree (the current head,
        plus the start vertex when searching for a closed cycle).  A
        ``sole_end`` vertex is only ever entered as the last move.
        """
        total = len(self.vertices)
        unvisited = set(self.vertices)
        unvisited.discard(start)
        path = [start]

        def prune(cur: Vertex) -> bool:
            anchors = degree_anchor(cur)
            for w in unvisited:
                need = end_min_degree if accept_end(w) else 2
                usable = 0
                for x in self.adj[w]:
                    if x in unvisited or x in anchors:
                        usable += 1
                        if usable >= need:
                            break
                if usable < need:
                    return True
            if unvisited and len(path) % CONNECTIVITY_STRIDE == 0:
                if not self._connected_over([cur], set(unvisited)):
                    return True
            return False

        def rec(cur: Vertex) -> list[Vertex] | None:
            if self._tick():
                return None
            if len(path) == total:
                return list(path) if accept_end(cur) else None
            if prune(cur):
                return None
            last_step = len(path) == total - 1
            for w in self.adj[cur]:
                if w is not None and w == sole_end and not last_step:
                    continue
                if w in unvisited:
                    unvisited.discard(w)
                    path.append(w)
                    got = rec(w)
                    if got is not None:
                        return got
                    path.pop()
                    unvisited.add(w)
            return None

        return rec(start)


def exhaustive_cycle_search(
    n: int, fault_set: FaultSet, time_budget: float | None = None
) -> SearchResult:
    """Complete search for a Hamiltonian cycle of BP_n minus the fault set."""
    s = _Searcher(n, fault_set, time_budget)
    if len(s.vertices) < 3:
        return SearchResult(SearchStatus.PROVEN_ABSENT)
    start = s.vertices[0]
    closers = set(s.adj[start])
    got = s._search(
        start,
        accept_end=lambda v: v in closers,
        degree_anchor=lambda cur: (cur, start),
        end_min_degree=2,
    )
    if got is not None:
        return SearchResult(SearchStatus.FOUND, tuple(got), s.nodes)
    status = SearchStatus.TIMEOUT if s.timed_out else SearchStatus.PROVEN_ABSENT
    return SearchResult(status, (), s.nodes)


def exhaustive_path_search(
    n: int, fault_set: FaultSet, u: Vertex, v: Vertex, time_budget: float | None = None
) -> SearchResult:
    """Complete search for a Hamiltonian path between ``u`` and ``v``."""
    u, v = tuple(u), tuple(v)
    if u == v:
        raise ValueError("path endpoints must be distinct")
    s = _Searcher(n, fault_set, time_budget)
    if u not in s.adj or v not in s.adj:
        raise ValueError("endpoint is a removed vertex")
    got = s._search(
        u,
        accept_end=lambda w: w == v,
        degree_anchor=lambda cur: (cur,),
        end_min_degree=1,
        sole_end=v,
    )
    if got is not None:
        return SearchResult(SearchStatus.FOUND, tuple(got), s.nodes)
    status = SearchStatus.TIMEOUT if s.timed_out else SearchStatus.PROVEN_ABSENT
    return SearchResult(status, (), s.nodes)


def tightness_witness_cycle(n: int) -> FaultSet:
    """n-1 faulty edges at the identity vertex: one past the cycle budget."""
    if n < 3:
        raise ValueError("witnesses need n >= 3")
    root = identity(n)
    nbrs = bp_graph.neighbors(root)
    return FaultSet.build(n, faulty_edges=[(root, w) for w in nbrs[: n - 1]])


def tightness_witness_path(n: int) -> tuple[FaultSet, Vertex, Vertex]:
    """n-2 faulty edges at the identity plus the two spared neighbors."""
    if n < 3:
        raise ValueError("witnesses need n >= 3")
    root = identity(n)
    nbrs = bp_graph.neighbors(root)
    fs = FaultSet.build(n, faulty_edges=[(root, w) for w in nbrs[: n - 2]])
    x, y = nbrs[n - 2], nbrs[n - 1]
    return fs, x, y


def residual_degree(n: int, fault_set: FaultSet, v: Vertex) -> int:
    """Degree of ``v`` in BP_n minus the fault set."""
    removed = fault_set.removed_vertices()
    faulty = {bp_graph.edge_key(a, b) for a, b in fault_set.faulty_edges}
    return sum(
        1
        for w in bp_graph.neighbors(v)
        if w not in removed and bp_graph.edge_key(v, w) not in faulty
    )
