"""Independent verification and brute-force search.

The verifiers check construction outputs structurally against the graph and
the fault set; they share no code with the constructor.  They decide on
packed bytes (``bp_graph.pack``: 8 signed bytes a vertex), by
whole-sequence passes (``_packed_ok``, which argues that they accept
exactly what leaves nothing to report); tuples serve only to name the
violations of a sequence that fails.  The exhaustive
searches run on small instances (n <= 4) with materialized adjacency.  They
are complete, and only claim ``ProvenAbsent`` on full exhaustion of the
search space, but not always fast: some n=4 path searches time out, and a
timeout is a distinct outcome.
"""

from __future__ import annotations

import struct
import time
from enum import Enum
from typing import Iterable, NamedTuple

from . import bp_graph
from .fault_model import FaultSet
from .signed_perm import Vertex, all_vertices, format_vertex, identity, iter_vertices

SEARCH_LIMIT = 4
CONNECTIVITY_STRIDE = 32


class VerificationReport(NamedTuple):
    ok: bool
    violations: tuple[tuple[str, int, str], ...] = ()

    def kinds(self) -> set[str]:
        return {kind for kind, _, _ in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"{k}@{p}: {d}" for k, p, d in self.violations)


def _is_vertex(v: Vertex, n: int) -> bool:
    """True iff ``v`` is a signed permutation of 1..n made of ints."""
    return len(v) == n and set(map(type, v)) == {int} and sorted(map(abs, v)) == list(range(1, n + 1))


def _packed_ok(n: int, fault_set: FaultSet, packed: bytes, closed: bool, ends=None) -> bool:
    """Whether a packed sequence passes every check of a verifier, decided
    by whole-sequence passes on its bytes: True proves that the loop of
    :func:`_verify` finds nothing, and False only sends the sequence there.
    A removed vertex, faulty edge or endpoint that does not pack
    (``struct.error``, ``TypeError``) gives False.

    Why True leaves nothing to report.  The count (at least 3 for a cycle)
    rules out ``WrongLength`` and ``ShortCycle``, the first and last
    records ``WrongEndpoints``.  ``is_packed_walk`` answers as ``is_adjacent`` on
    every step would, so there is no ``NonAdjacent``; and since every step
    is then a prefix reversal, which maps a vertex of BP_n to a vertex, and
    the first record is one, every record is a vertex of BP_n.  With zero
    padding (checked), equal vertices have equal records, so distinct
    records rule out ``RepeatedVertex``, and records disjoint from the
    removed ones ``FaultyVertexUsed``.  That makes the records |V| -
    |removed| distinct vertices of BP_n outside ``removed``, which is
    checked to be a subset of V(BP_n): all of V(BP_n) minus ``removed``,
    so there is no ``MissingVertex``.  Each
    vertex sits at one position, so the steps next to the first record of
    a faulty edge's end are the only ones that can run along that edge: no
    ``FaultyEdgeUsed``.  Tuples that pack to these bytes have the decoded
    symbols' values (``struct`` packs integers only; ``True`` packs as 1
    and equals it), and the report compares and hashes by value, so it is
    empty on them too.
    """
    width = bp_graph.PACKED_WIDTH
    count = len(packed) // width
    removed = fault_set.removed_vertices()
    if (
        len(packed) % width
        or not 1 <= n <= width
        or count != bp_graph.vertex_count(n) - len(removed)
        or count < (3 if closed else 1)
        or not _is_vertex(struct.unpack_from(f"{n}b", packed), n)
    ):
        return False
    zero = bytes(count)
    if any(packed[j::width] != zero for j in range(n, width)) or not bp_graph.is_packed_walk(n, packed, closed):
        return False
    seen = set(memoryview(packed).cast("q"))
    try:
        if (
            len(seen) != count
            or not all(_is_vertex(r, n) for r in removed)
            or not seen.isdisjoint(memoryview(bp_graph.pack(n, removed)).cast("q"))
        ):
            return False
        for a, b in fault_set.faulty_edges:
            if bp_graph.packed_edge_used(packed, bp_graph.pack(n, [a]), bp_graph.pack(n, [b]), closed):
                return False
        return not ends or packed[:width] + packed[-width:] == bp_graph.pack(n, ends)
    except (struct.error, TypeError):
        return False


def _verify(n: int, fault_set: FaultSet, seq, ends=None) -> VerificationReport:
    """The report on a claimed cycle (``ends`` None) or path: ok when its
    bytes pass :func:`_packed_ok`, else each violation named on the
    vertices the caller gave.  A built object (``packed`` bytes) is judged
    by its bytes and reported by its own ``vertices``, whatever n it is
    checked at; anything that is not bytes is read once into tuples."""
    closed = ends is None
    packed = getattr(seq, "packed", seq)
    vertices = None
    if not isinstance(packed, (bytes, bytearray)):
        vertices = tuple(map(tuple, getattr(seq, "vertices", seq)))
        try:
            packed = bp_graph.pack(n, vertices)
        except (struct.error, TypeError):
            packed = b""  # fails _packed_ok
    if _packed_ok(n, fault_set, packed, closed, ends):
        return VerificationReport(True)
    if vertices is None:
        vertices = bp_graph.unpack(n, packed) if packed is seq else tuple(map(tuple, seq.vertices))
    if not vertices:
        return VerificationReport(False, (("WrongLength", -1, "empty"),))

    bad: list[tuple[str, int, str]] = []
    removed = fault_set.removed_vertices()
    expected = bp_graph.vertex_count(n) - len(removed)
    if len(vertices) != expected:
        bad.append(("WrongLength", -1, f"{len(vertices)} vertices, expected {expected}"))
    seen: set[Vertex] = set()
    for pos, v in enumerate(vertices):
        if v in seen:
            bad.append(("RepeatedVertex", pos, format_vertex(v)))
        seen.add(v)
        if v in removed:
            bad.append(("FaultyVertexUsed", pos, format_vertex(v)))
    for v in iter_vertices(n):
        if v not in seen and v not in removed:
            bad.append(("MissingVertex", -1, format_vertex(v)))
    # looked up both ways round: edge_key would order the symbols, and
    # symbols that do not order (complex numbers) would raise
    faulty = {(a, b) for a, b in fault_set.faulty_edges}
    for pos in range(len(vertices) if closed else len(vertices) - 1):
        a, b = vertices[pos], vertices[(pos + 1) % len(vertices)]
        if not bp_graph.is_adjacent(a, b):
            bad.append(("NonAdjacent", pos, f"{format_vertex(a)} -> {format_vertex(b)}"))
        elif (a, b) in faulty or (b, a) in faulty:
            bad.append(("FaultyEdgeUsed", pos, f"{format_vertex(a)} -> {format_vertex(b)}"))
    if closed and len(vertices) == 2:
        bad.append(("ShortCycle", -1, "2 vertices: a cycle needs at least 3"))
    if not closed and (vertices[0] != tuple(ends[0]) or vertices[-1] != tuple(ends[1])):
        got = f"{format_vertex(vertices[0])}..{format_vertex(vertices[-1])}"
        want = f"{format_vertex(ends[0])}..{format_vertex(ends[1])}"
        bad.append(("WrongEndpoints", 0, f"got {got}, expected {want}"))
    return VerificationReport(ok=not bad, violations=tuple(bad))


def verify_cycle(n: int, fault_set: FaultSet, cycle) -> VerificationReport:
    """Check a claimed Hamiltonian cycle of BP_n minus the fault set.

    A closed walk must have three vertices at least: two vertices would
    run one edge there and back (``ShortCycle``)."""
    return _verify(n, fault_set, cycle)


def verify_path(n: int, fault_set: FaultSet, u: Vertex, v: Vertex, path) -> VerificationReport:
    """Check a claimed Hamiltonian path between ``u`` and ``v``."""
    return _verify(n, fault_set, path, (u, v))


class SearchStatus(Enum):
    FOUND = "found"
    PROVEN_ABSENT = "proven-absent"
    TIMEOUT = "timeout"


class SearchResult(NamedTuple):
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
