"""Recursive construction of fault-avoiding Hamiltonian cycles and paths.

The constructor decomposes BP_n into its 2n last-symbol subgraphs, each
isomorphic to BP_{n-1}, and dispatches on how the fault weight spreads over
them.  Every "choose an element such that ..." step is a lexicographic scan
over candidates, so identical inputs produce identical outputs.  Each
construction records a tree of case labels (e.g. ``L18/3.2.2.1``); the label
set doubles as the coverage histogram for the test suite.

Faults are tracked internally in an extended form: matching pairs and faulty
edges from the public model, plus single vertices to avoid.  Singles arise
when a matching pair's carrier edge crosses two subgraphs: restricting such
a pair to one side leaves one forbidden vertex there.  Cases driven purely
by pairs and edges follow the fixed case tree; scans needed only when
singles are present carry ``EXT/`` labels.

Every level works in BP_n coordinates.  The level-m subgraph being built
is the set of BP_n vertices with one suffix (positions m..n-1, kept in
``_Faults.suffix``): there the out-neighbour of x is ``prefix_reversal(x,
m)``, its subgraph index is ``x[m-1]``, the indices are the signed symbols
the suffix leaves, in the canonical 1, -1, 2, -2, ... order, and cross
edges carry the suffix.  Only the BP_3 leaf translates: it maps its faults
and endpoints into BP_3 coordinates, so the memo keys and stored tables
are those of BP_3, and lifts its result once.  The output is what a build
that relabels at every level gives: each relabel is strictly increasing on
signed symbols and commutes with negation and with prefix reversals of
length up to m, so every lexicographic scan, sort and tie-break sees the
same sequence, and the top level's relabel is the identity.

A splice replaces an edge (s, t) of a path or ring with a detour that
leaves s and returns to t.  Where (s, t) can lie either way round on a
path, ``_splice`` does the work: it builds the detour's bridge chain from
the end that the finished path lists first, so the chain's junction scan
does not depend on the orientation, and assembles the path in the
orientation it has.  Arcs joined by connectors are oriented before they
are assembled, so each splice shape has one assembly expression.

Each rejected candidate costs one attempt (``_Ctx.spend``).  The call
that finds the budget spent raises StrictModeFailure on the spot, which
ends the whole build.  A scan that comes up empty returns None instead,
and the builder raises the same failure once None reaches it.  Both
messages come from ``_Ctx.failure``: they give the attempts spent and
either the spent budget or the empty scan (``_Ctx.note``, else "scan
exhausted").  Neither carries a partial trace.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, islice

from . import bp_graph
from .bp3_fixtures import FREE_PATHS, PAIR_CYCLES
from .bp_graph import (
    Edge,
    edge_dimension,
    edge_key,
    index_sort_key,
    iter_cross_edges,
    frame_tables,
    subgraph_indices,
)
from .fault_model import FaultSet, validate
from .signed_perm import (
    Vertex,
    all_vertices,
    check_vertex,
    format_vertex,
    left_translate,
    prefix_reversal,
)

Pair = Edge


class UsageError(ValueError):
    """A caller violated an operation's preconditions."""


class BudgetExceededError(UsageError):
    """The fault set is larger than the operation's tolerance."""


class ConstructionError(RuntimeError):
    def __init__(self, message: str, trace: "CaseTrace | None" = None):
        super().__init__(message)
        self.trace = trace


class StrictModeFailure(ConstructionError):
    """No construction found: a prescribed candidate scan came up empty, or
    the attempt budget ran out."""


class NoOrderingError(ConstructionError):
    """No complement-free arrangement of the requested subgraph indices."""


class InternalInvariantError(ConstructionError):
    """A guarantee the case dispatch should enforce failed; an internal bug."""


# ---------------------------------------------------------------------------
# case traces


@dataclass
class CaseTrace:
    label: str
    detail: dict = field(default_factory=dict)
    children: list["CaseTrace"] = field(default_factory=list)

    def labels(self) -> list[str]:
        out = [self.label]
        for child in self.children:
            out.extend(child.labels())
        return out


@dataclass(frozen=True)
class VertexPath:
    vertices: tuple[Vertex, ...]
    trace: CaseTrace

    @property
    def endpoints(self) -> tuple[Vertex, Vertex]:
        return self.vertices[0], self.vertices[-1]


@dataclass(frozen=True)
class VertexCycle:
    vertices: tuple[Vertex, ...]
    trace: CaseTrace


# ---------------------------------------------------------------------------
# extended fault bookkeeping


@dataclass(frozen=True)
class _Faults:
    n: int
    pairs: tuple[Pair, ...] = ()
    singles: tuple[Vertex, ...] = ()
    edges: tuple[Pair, ...] = ()
    suffix: Vertex = ()  # the symbols every vertex of this level ends in

    @staticmethod
    def from_fault_set(fs: FaultSet) -> "_Faults":
        return _Faults(fs.n, fs.matching_pairs, (), fs.faulty_edges)

    @cached_property
    def removed(self) -> frozenset[Vertex]:
        out = {v for pair in self.pairs for v in pair}
        out.update(self.singles)
        return frozenset(out)

    @cached_property
    def edge_set(self) -> frozenset[Pair]:
        return frozenset(self.edges)

    @cached_property
    def fault_vertices(self) -> frozenset[Vertex]:
        out = set(self.removed)
        for a, b in self.edges:
            out.add(a)
            out.add(b)
        return frozenset(out)

    @property
    def weight(self) -> int:
        return len(self.pairs) + len(self.singles) + len(self.edges)

    @cached_property
    def indices(self) -> list[int]:
        # the symbols the suffix leaves, in canonical order
        fixed = {abs(x) for x in self.suffix}
        return [i for i in subgraph_indices(self.n + len(self.suffix)) if abs(i) not in fixed]

    @cached_property
    def has_singles_anywhere(self) -> bool:
        p = self.n - 1
        return bool(self.singles) or any(a[p] != b[p] for a, b in self.pairs)

    def without_pair(self, pair: Pair) -> "_Faults":
        return replace(self, pairs=tuple(p for p in self.pairs if p != pair))

    def without_single(self, v: Vertex) -> "_Faults":
        return replace(self, singles=tuple(s for s in self.singles if s != v))

    def without_edge(self, e: Pair) -> "_Faults":
        return replace(self, edges=tuple(x for x in self.edges if x != e))


def _weights(f: _Faults) -> dict[int, int]:
    """Per-subgraph fault weight: intra elements plus straddling touches."""
    p = f.n - 1
    w = dict.fromkeys(f.indices, 0)
    for a, b in f.pairs:
        w[a[p]] += 1
        if b[p] != a[p]:
            w[b[p]] += 1
    for s in f.singles:
        w[s[p]] += 1
    for a, b in f.edges:
        if a[p] == b[p]:
            w[a[p]] += 1
    return w


def _restrict_embed(f: _Faults, i: int) -> _Faults:
    """Faults of subgraph ``i``, one level down.  Vertices keep their BP_n
    coordinates: the subgraph is the vertices whose suffix is ``f.suffix``
    with i put in front, so this only filters, and only the BP_3 leaf
    translates.

    A pair with only one endpoint in the subgraph degrades to a single.
    Cross edges (faulty edges with endpoints in two subgraphs) vanish here;
    they only constrain junction selection.
    """
    p = f.n - 1
    pairs: list[Pair] = []
    singles = [s for s in f.singles if s[p] == i]
    for a, b in f.pairs:
        if a[p] == i and b[p] == i:
            pairs.append(edge_key(a, b))
        elif a[p] == i or b[p] == i:
            singles.append(a if a[p] == i else b)
    edges = [edge_key(a, b) for a, b in f.edges if a[p] == i and b[p] == i]
    return _Faults(f.n - 1, tuple(sorted(pairs)), tuple(sorted(singles)), tuple(sorted(edges)), (i, *f.suffix))


# ---------------------------------------------------------------------------
# construction context


@dataclass
class _Ctx:
    attempts: int = 0
    max_attempts: int = 200_000
    note: str = ""

    def failure(self, why: str) -> StrictModeFailure:
        """The failure of a build that found nothing, naming why it stopped."""
        return StrictModeFailure(f"no construction found (attempts={self.attempts}, note={why})")

    def spend(self) -> bool:
        """Charge one rejected candidate; once the budget is gone, fail the
        whole build instead.  Successes are not charged: the recursion tree
        bounds them.  Returns True, which perfbench's traced run adds to its
        attempt count."""
        if self.attempts == self.max_attempts:
            raise self.failure(f"attempt budget of {self.max_attempts} spent")
        self.attempts += 1
        return True


# ---------------------------------------------------------------------------
# BP_3 base level: complete backtracking search, memoized.  Fault-free paths
# are read from the FREE_PATHS table instead of searched.

_BP3_VERTICES = all_vertices(3)
_BP3_INDEX = {x: i for i, x in enumerate(_BP3_VERTICES)}
# Neighbour indices of each BP_3 vertex, ascending.  Indices follow the
# lexicographic order of _BP3_VERTICES, so comparing indices compares vertices.
_BP3_NEIGHBORS = tuple(
    tuple(sorted(_BP3_INDEX[w] for w in bp_graph.neighbors(x))) for x in _BP3_VERTICES
)
# _BP3_STEP[i][k - 1] is the index of the k-neighbour of vertex i.
_BP3_STEP = tuple(tuple(_BP3_INDEX[prefix_reversal(x, k)] for k in (1, 2, 3)) for x in _BP3_VERTICES)
# _BP3_NEXT[d]: the two dimensions that may follow dimension d in a
# Hamiltonian path, smaller first (dimensions counted from 0 here).
_BP3_NEXT = ((1, 2), (0, 2), (0, 1))
_bp3_path_cache: dict[tuple, tuple[Vertex, ...] | None] = {}
_bp3_cycle_cache: dict[tuple, tuple[Vertex, ...] | None] = {}


def _small_search(
    n: int,
    removed: frozenset[Vertex],
    banned: frozenset[Pair],
    u: Vertex | None,
    v: Vertex | None,
) -> tuple[Vertex, ...] | None:
    """Complete DFS in BP_3 (``n`` is always 3) for a Hamiltonian path
    (u -> v) or cycle (u = v = None).

    Moves are ordered fewest-onward-options first with lexicographic
    tie-break, so results are deterministic.  Degrees of unvisited vertices
    are maintained incrementally; a vertex left with fewer usable
    connections than a Hamiltonian continuation requires prunes the branch.
    Only a vertex with at most one unvisited neighbour can fall short, so
    the pruning test scans just those (``low``).  Returns None when the
    search space is exhausted.

    This search defines every BP_3 path the constructor uses.  The
    fault-free ones are shipped precomputed as ``FREE_PATHS``, which
    tier-1 compares with this function on every ordered pair.
    """
    skip = {_BP3_INDEX[x] for x in removed}
    cut = {(_BP3_INDEX[a], _BP3_INDEX[b]) for a, b in banned}
    adj = [
        () if i in skip else tuple(j for j in ws if j not in skip and (i, j) not in cut and (j, i) not in cut)
        for i, ws in enumerate(_BP3_NEIGHBORS)
    ]
    free = [i not in skip for i in range(len(adj))]
    total = sum(free)
    if not total:
        return None
    cycle_mode = u is None
    start = free.index(True) if cycle_mode else _BP3_INDEX[u]
    end = None if cycle_mode else _BP3_INDEX[v]
    if start in skip or end in skip:
        return None
    finals = frozenset(adj[start]) if cycle_mode else frozenset((end,))
    free[start] = False
    adeg = [sum(free[j] for j in ws) for ws in adj]
    low = {i for i, ok in enumerate(free) if ok and adeg[i] <= 1}
    path = [start]

    def rec(cur: int) -> bool:
        depth = len(path)
        if depth == total:
            return cur in finals
        lows = 0
        for x in low:
            avail = adeg[x] + (x in adj[cur])
            if avail < 2:
                if avail == 0 or x not in finals or lows:
                    return False
                lows = 1
        # The target endpoint may only be stepped on as the final move.
        last_step = depth == total - 1
        for _, w in sorted((adeg[w], w) for w in adj[cur] if free[w] and (w != end or last_step)):
            free[w] = False
            low.discard(w)
            for x in adj[w]:
                if free[x]:
                    adeg[x] -= 1
                    if adeg[x] == 1:
                        low.add(x)
            path.append(w)
            if rec(w):
                return True
            path.pop()
            for x in adj[w]:
                if free[x]:
                    adeg[x] += 1
                    if adeg[x] == 2:
                        low.discard(x)
            free[w] = True
            if adeg[w] <= 1:
                low.add(w)
        return False

    return tuple(_BP3_VERTICES[i] for i in path) if rec(start) else None


def _free_path(u: Vertex, v: Vertex) -> tuple[Vertex, ...]:
    """The u -> v path of fault-free BP_3, decoded from ``FREE_PATHS``
    (layout and encoding in ``bp3_fixtures``).  A decoded path that does not
    end at v raises InternalInvariantError."""
    i, j = _BP3_INDEX[u], _BP3_INDEX[v]
    at = 6 * (48 * i + j)
    bits = int.from_bytes(FREE_PATHS[at : at + 6], "big")
    d = bits >> 46
    path = [i]
    if d < 3:
        cur = _BP3_STEP[i][d]
        path.append(cur)
        for shift in range(45, -1, -1):
            d = _BP3_NEXT[d][bits >> shift & 1]
            cur = _BP3_STEP[cur][d]
            path.append(cur)
    if path[-1] != j:
        raise InternalInvariantError(f"stored BP_3 path {format_vertex(u)} -> {format_vertex(v)} ends elsewhere")
    return tuple(_BP3_VERTICES[x] for x in path)


def _bp3_search_path(
    removed: frozenset[Vertex], banned: frozenset[Pair], u: Vertex, v: Vertex
) -> tuple[Vertex, ...] | None:
    """The BP_3 path that ``_small_search`` defines; a fault-free one is
    decoded from the table rather than searched."""
    key = (removed, banned, u, v)
    if key not in _bp3_path_cache:
        if removed or banned or u == v:
            _bp3_path_cache[key] = _small_search(3, removed, banned, u, v)
        else:
            _bp3_path_cache[key] = _free_path(u, v)
    return _bp3_path_cache[key]


def _bp3_search_cycle(
    removed: frozenset[Vertex], banned: frozenset[Pair]
) -> tuple[Vertex, ...] | None:
    key = (removed, banned)
    if key not in _bp3_cycle_cache:
        _bp3_cycle_cache[key] = _small_search(3, removed, banned, None, None)
    return _bp3_cycle_cache[key]


def _leaf_view(f: _Faults):
    """The BP_3 leaf's ``embed`` of a vertex into BP_3 coordinates (one rank
    table), ``lift`` of a list of BP_3 vertices back (the composed relabel
    table and the suffix), and its removed vertices and faulty edges embedded."""
    up, down = frame_tables(3 + len(f.suffix), f.suffix)
    suffix = f.suffix

    def embed(x: Vertex) -> Vertex:
        return down[x[0]], down[x[1]], down[x[2]]

    def lift(path) -> list[Vertex]:
        return [(up[a], up[b], up[c], *suffix) for a, b, c in path]

    return embed, lift, frozenset(map(embed, f.removed)), frozenset((embed(a), embed(b)) for a, b in f.edge_set)


def _cycle_bp3(f: _Faults, ctx: _Ctx):
    embed, lift, removed, banned = _leaf_view(f)
    if len(f.pairs) == 1 and not f.singles and not f.edges:
        # Single stored pair: translate the matching canonical fixture, since
        # left translation is a vertex-transitive automorphism family.  The
        # translator maps {identity, generator k} onto the pair; taking the
        # larger endpoint keeps identity-anchored pairs on the raw fixture.
        a, b = f.pairs[0]
        k = edge_dimension(a, b)
        verts = [left_translate(embed(b), x) for x in PAIR_CYCLES[k]]
        return lift(verts), CaseTrace(f"L13/{k}", {"pair": [format_vertex(a), format_vertex(b)]})
    got = _bp3_search_cycle(removed, banned)
    if got is None:
        return None
    if f.weight == 0:
        label = "L13/empty"
    elif f.edges and not f.removed:
        label = "L13/edge"
    else:
        label = "EXT/bp3-cycle"
    return lift(got), CaseTrace(label, {})


def _path_bp3(u: Vertex, v: Vertex, f: _Faults, ctx: _Ctx):
    embed, lift, removed, banned = _leaf_view(f)
    got = _bp3_search_path(removed, banned, embed(u), embed(v))
    if got is None:
        return None
    label = "BP3/path" if f.weight == 0 else "EXT/bp3-path"
    return lift(got), CaseTrace(label, {})


# ---------------------------------------------------------------------------
# subgraph ordering


def order_subgraphs(indices, first: int, last: int) -> tuple[int, ...]:
    """Arrange ``indices`` so no two consecutive entries are complementary.

    The arrangement starts at ``first``, ends at ``last``, and candidates are
    taken in canonical index order, so the result is deterministic.  Always
    possible for five or more indices; smaller sets may have no arrangement,
    which raises NoOrderingError.
    """
    pool = sorted(set(indices), key=index_sort_key)
    if first not in pool or last not in pool:
        raise UsageError("first/last must be members of the index set")
    if first == last:
        raise UsageError("first and last must differ")
    if len(pool) < 2:
        raise UsageError("need at least two indices")
    seq = [first]
    used = {first}

    def bt() -> bool:
        if len(seq) == len(pool) - 1:
            if last != -seq[-1]:
                seq.append(last)
                return True
            return False
        for c in pool:
            if c in used or c == last or c == -seq[-1]:
                continue
            used.add(c)
            seq.append(c)
            if bt():
                return True
            seq.pop()
            used.discard(c)
        return False

    if bt():
        return tuple(seq)
    raise NoOrderingError(f"no valid arrangement of {pool} from {first} to {last}")


# ---------------------------------------------------------------------------
# chain and loop engines


def _subgraph(n: int, i: int, f: _Faults, ctx: _Ctx, a: Vertex | None = None, b: Vertex | None = None):
    """Hamiltonian cycle of subgraph ``i`` minus its faults, or with ``a`` and
    ``b`` given a Hamiltonian path between them, via recursion.  The result
    is in BP_n coordinates already."""
    cycle = a is None
    if not cycle and a == b:
        return None
    fi = _restrict_embed(f, i)
    if fi.weight > (n - 1) - (2 if cycle else 3) and not f.has_singles_anywhere:
        raise InternalInvariantError(
            f"{'cycle' if cycle else 'path'} recursion into subgraph {i} with weight {fi.weight} at n={n - 1}"
        )
    return _cycle(n - 1, fi, ctx) if cycle else _path(n - 1, a, b, fi, ctx)


@dataclass(frozen=True)
class _cross_candidates:
    """The fault-free cross edges from subgraph i to j, in ``iter_cross_edges``
    order.  Like ``range``, a lazy view: each pass enumerates afresh and only
    as far as the caller reads, since the first usable edge usually wins."""

    n: int
    i: int
    j: int
    f: _Faults

    def __iter__(self) -> Iterator[Edge]:
        removed, edge_set = self.f.removed, self.f.edge_set
        for x, y in iter_cross_edges(self.n, self.i, self.j, self.f.suffix):
            if x in removed or y in removed or edge_key(x, y) in edge_set:
                continue
            yield x, y

    def __len__(self) -> int:
        return sum(1 for _ in self)


def _chain(n: int, I, u: Vertex, v: Vertex, f: _Faults, ctx: _Ctx):
    """Hamiltonian path over the union of subgraphs ``I`` between u and v.

    Orders the subgraphs, then recursively covers each one between junction
    vertices joined by fault-free cross edges.  Junction choices backtrack:
    if a subgraph refuses a junction pair, the next candidate cross edge is
    tried before failing.
    """
    j1, j2 = u[n - 1], v[n - 1]
    if j1 == j2:
        raise InternalInvariantError("chain endpoints in one subgraph")
    try:
        ordering = order_subgraphs(I, j1, j2)
    except NoOrderingError:
        return None
    m = len(ordering)

    def solve(t: int, entry: Vertex):
        """(path, trace) per subgraph covering ordering[t:] from entry to v,
        last subgraph first, so each level appends instead of concatenating."""
        if t == m - 1:
            if entry == v:
                return None
            seg = _subgraph(n, ordering[t], f, ctx, entry, v)
            return None if seg is None else [seg]
        for x, y in _cross_candidates(n, ordering[t], ordering[t + 1], f):
            if x == entry or (t + 1 == m - 1 and y == v):
                continue
            seg = _subgraph(n, ordering[t], f, ctx, entry, x)
            rest = None if seg is None else solve(t + 1, y)
            if rest is not None:
                rest.append(seg)
                return rest
            ctx.spend()
        return None

    got = solve(0, u)
    if got is None:
        return None
    got.reverse()
    vertices = [x for seg, _ in got for x in seg]
    return vertices, CaseTrace("L17", {"order": list(ordering)}, [tr for _, tr in got])


def _loop(n: int, I, u: Vertex, v: Vertex, f: _Faults, ctx: _Ctx):
    """Hamiltonian path over ``I`` when both endpoints share one subgraph.

    Covers the endpoint subgraph first, then scans its path for an edge whose
    out-neighbors are fault-free and land in distinct member subgraphs, and
    splices a chain over the remaining subgraphs into that edge.
    """
    k1 = u[n - 1]
    if v[n - 1] != k1:
        raise InternalInvariantError("loop endpoints must share a subgraph")
    base = _subgraph(n, k1, f, ctx, u, v)
    if base is None:
        return None
    path, base_trace = base
    rest = [i for i in I if i != k1]
    rest_set = set(rest)
    avoid = f.fault_vertices
    for pos in range(len(path) - 1):
        x, y = path[pos], path[pos + 1]
        nx, ny = prefix_reversal(x, n), prefix_reversal(y, n)
        if nx in avoid or ny in avoid:
            continue
        if nx[n - 1] not in rest_set or ny[n - 1] not in rest_set:
            continue
        if nx[n - 1] == ny[n - 1]:
            raise InternalInvariantError("out-neighbors of adjacent vertices share a subgraph")
        bridge = _chain(n, rest, nx, ny, f, ctx)
        if bridge is None:
            ctx.spend()
            continue
        bridge_vertices, bridge_trace = bridge
        full = path[: pos + 1] + bridge_vertices + path[pos + 1 :]
        return full, CaseTrace("L20", {"split": [format_vertex(x), format_vertex(y)]}, [base_trace, bridge_trace])
    ctx.note = "loop-no-usable-edge"
    return None


def _connector(n: int, I, a: Vertex, b: Vertex, f: _Faults, ctx: _Ctx):
    """Chain or loop over ``I`` from a to b, picked by endpoint subgraphs."""
    if a[n - 1] == b[n - 1]:
        if a == b:
            return None
        return _loop(n, I, a, b, f, ctx)
    return _chain(n, I, a, b, f, ctx)


# ---------------------------------------------------------------------------
# ring helpers


def _ring_index(C: list[Vertex]) -> dict[Vertex, int]:
    return {x: p for p, x in enumerate(C)}


def _ring_neighbors(C: list[Vertex], idx: dict[Vertex, int], x: Vertex) -> tuple[Vertex, Vertex]:
    p = idx[x]
    return C[p - 1], C[(p + 1) % len(C)]


def _open_ring(C: list[Vertex], idx: dict[Vertex, int], a: Vertex, b: Vertex) -> list[Vertex]:
    """The path from a to b around the ring, skipping the ring edge (a, b)."""
    L = len(C)
    pa = idx[a]
    if C[(pa + 1) % L] == b:
        return [C[(pa - t) % L] for t in range(L)]
    if C[(pa - 1) % L] == b:
        return [C[(pa + t) % L] for t in range(L)]
    raise InternalInvariantError("ring edge expected between split vertices")


def _ring_span(C: list[Vertex], start: int, end: int) -> list[Vertex]:
    """Vertices from position start to end inclusive, walking forward."""
    L = len(C)
    out = []
    t = start % L
    while True:
        out.append(C[t])
        if t == end % L:
            break
        t = (t + 1) % L
    return out


def _splice(n: int, I, P: list[Vertex], pos: dict[Vertex, int], s: Vertex, t: Vertex, middle, a, b, f, ctx):
    """Route a detour through the edge (s, t) of path P: the piece
    ``middle()``, which leaves s, then a chain over ``I`` from a to b, which
    returns to t.  Returns (vertices, chain trace), or None if no chain.

    The chain is built from the end that P lists first, so its junction
    scan does not depend on the orientation of (s, t), and ``middle()`` is
    built only once the chain exists.
    """
    forward = pos[s] < pos[t]
    bridge = _chain(n, I, *((a, b) if forward else (b, a)), f, ctx)
    if bridge is None:
        return None
    bv, trb = bridge
    if forward:
        return P[: pos[s] + 1] + middle() + bv + P[pos[t] :], trb
    return P[: pos[t] + 1] + bv + middle()[::-1] + P[pos[s] :], trb


def _usable_stub(x: Vertex, f: _Faults) -> Vertex | None:
    """Out-neighbor of a splice stub if the hop is fault-free, else None."""
    nx = prefix_reversal(x, f.n)
    if nx in f.removed or edge_key(x, nx) in f.edge_set:
        return None
    return nx


# ---------------------------------------------------------------------------
# cycle construction


def _cycle(n: int, f: _Faults, ctx: _Ctx):
    if n == 3:
        return _cycle_bp3(f, ctx)
    ws = _weights(f)
    istar = max(f.indices, key=lambda i: ws[i])  # canonical order breaks ties
    wmax = ws[istar]
    edge_only = not f.pairs and not f.singles
    if wmax > n - 2:
        return _cycle_via_chain(n, f, ctx, istar, "EXT/chain-heavy")
    if wmax <= n - 4:
        return _cycle_via_chain(n, f, ctx, istar, "L18/1")
    if wmax == n - 3:
        return _cycle_case2(n, f, ctx, istar, ws)
    if edge_only:
        return _cycle_edge_excise(n, f, ctx, istar)
    return _cycle_case3(n, f, ctx, istar)


def _cycle_via_chain(n: int, f: _Faults, ctx: _Ctx, istar: int, label: str):
    """Close a chain over all 2n subgraphs through one chosen cross edge."""
    order = f.indices
    for j in order:
        if j in (istar, -istar):
            continue
        for x, y in _cross_candidates(n, istar, j, f):
            got = _chain(n, order, x, y, f, ctx)
            if got is None:
                ctx.spend()
                continue
            vertices, tr = got
            return vertices, CaseTrace(label, {"close": [format_vertex(x), format_vertex(y)]}, [tr])
    return None


def _cycle_case2(n: int, f: _Faults, ctx: _Ctx, istar: int, ws: dict[int, int]):
    others = [j for j in f.indices if j != istar]
    maxw = max(ws[j] for j in others)
    if maxw == 0:
        candidates = [j for j in others if j not in (istar, -istar)][:1]
    else:
        candidates = sorted(
            (j for j in others if ws[j] == maxw),
            key=lambda j: (0 if j == -istar else 1, index_sort_key(j)),
        )
    for i2 in candidates:
        res = _cycle_case22(n, f, ctx, istar) if i2 == -istar else _cycle_case21(n, f, ctx, istar, i2)
        if res is not None:
            return res
    return None


def _cycle_case21(n: int, f: _Faults, ctx: _Ctx, istar: int, i2: int):
    """Two heavy subgraphs joined by one cross edge and an outside chain."""
    c1 = _subgraph(n, istar, f, ctx)
    if c1 is None:
        return None
    C1, tr1 = c1
    c2 = _subgraph(n, i2, f, ctx)
    if c2 is None:
        return None
    C2, tr2 = c2
    idx1, idx2 = _ring_index(C1), _ring_index(C2)
    rest = [j for j in f.indices if j not in (istar, i2)]
    for s in sorted(C1):
        if -s[0] != i2:
            continue
        ns = _usable_stub(s, f)
        if ns is None or ns not in idx2:
            continue
        for t in _ring_neighbors(C1, idx1, s):
            nt = _usable_stub(t, f)
            if nt is None or nt[n - 1] == i2:
                continue
            for s1 in _ring_neighbors(C2, idx2, ns):
                ns1 = _usable_stub(s1, f)
                if ns1 is None or ns1[n - 1] in (istar, nt[n - 1]):
                    continue
                bridge = _chain(n, rest, ns1, nt, f, ctx)
                if bridge is None:
                    ctx.spend()
                    continue
                bv, trb = bridge
                full = _open_ring(C1, idx1, t, s) + _open_ring(C2, idx2, ns, s1) + bv
                return full, CaseTrace(
                    "L18/2.1", {"i1": istar, "i2": i2, "s": format_vertex(s)}, [tr1, tr2, trb]
                )
    return None


def _cycle_case22(n: int, f: _Faults, ctx: _Ctx, istar: int):
    """Heavy subgraph paired with its complement: no direct cross edges, so
    both cycles are joined through a shared intermediate subgraph."""
    c1 = _subgraph(n, istar, f, ctx)
    if c1 is None:
        return None
    C1, tr1 = c1
    cb = _subgraph(n, -istar, f, ctx)
    if cb is None:
        return None
    CB, trb0 = cb
    idx1, idxb = _ring_index(C1), _ring_index(CB)
    for s in sorted(C1):
        ns = _usable_stub(s, f)
        if ns is None:
            continue
        h = ns[n - 1]
        for z in sorted(CB):
            if -z[0] != h:
                continue
            nz = _usable_stub(z, f)
            if nz is None:
                continue
            for t in _ring_neighbors(C1, idx1, s):
                nt = _usable_stub(t, f)
                if nt is None or nt[n - 1] == h:
                    continue
                for w in _ring_neighbors(CB, idxb, z):
                    nw = _usable_stub(w, f)
                    if nw is None or nw[n - 1] in (h, nt[n - 1]):
                        continue
                    mid = _subgraph(n, h, f, ctx, ns, nz)
                    if mid is None:
                        ctx.spend()
                        break  # the h-path does not depend on t, w
                    mv, trm = mid
                    rest = [j for j in f.indices if j not in (istar, -istar, h)]
                    bridge = _chain(n, rest, nw, nt, f, ctx)
                    if bridge is None:
                        ctx.spend()
                        continue
                    bv, trc = bridge
                    full = (
                        _open_ring(C1, idx1, t, s)
                        + mv
                        + _open_ring(CB, idxb, z, w)
                        + bv
                    )
                    return full, CaseTrace(
                        "L18/2.2", {"i1": istar, "h": h}, [tr1, trb0, trm, trc]
                    )
    return None


def _cycle_case3(n: int, f: _Faults, ctx: _Ctx, istar: int):
    """All fault weight in one subgraph: re-admit one removed element, build
    the subgraph cycle through it, excise it, and reconnect outside."""
    p = n - 1
    intra_pairs = sorted(x for x in f.pairs if x[0][p] == istar and x[1][p] == istar)
    for pair in intra_pairs:
        res = _cycle_case3_pair(n, f, ctx, istar, pair)
        if res is not None:
            return res
    single_candidates = sorted(
        {s for s in f.singles if s[p] == istar}
        | {e for x in f.pairs if x[0][p] != x[1][p] for e in x if e[p] == istar}
    )
    for sv in single_candidates:
        res = _cycle_case3_single(n, f, ctx, istar, sv)
        if res is not None:
            return res
    return None


def _cycle_case3_pair(n: int, f: _Faults, ctx: _Ctx, istar: int, pair: Pair):
    reduced = f.without_pair(pair)
    c1 = _subgraph(n, istar, reduced, ctx)
    if c1 is None:
        return None
    C1, tr1 = c1
    idx1 = _ring_index(C1)
    a1, b1 = pair
    if a1 not in idx1 or b1 not in idx1:
        raise InternalInvariantError("re-admitted pair missing from subgraph cycle")
    if _ring_neighbors(C1, idx1, a1)[0] == b1:
        a1, b1 = b1, a1  # normalize so b1 follows a1 when they are ring-adjacent
    pa, pb = idx1[a1], idx1[b1]
    if (pb - pa) % len(C1) == 1:
        arc = _ring_span(C1, pb + 1, pa - 1)  # y1 .. x1
        res = _reconnect_one_arc(n, f, ctx, istar, arc, "L18/3.1")
    else:
        arc_a = _ring_span(C1, pa + 1, pb - 1)  # x2 .. y2
        arc_b = _ring_span(C1, pb + 1, pa - 1)  # y1 .. x1
        res = _reconnect_two_arcs(n, f, ctx, istar, arc_a, arc_b, "L18/3.2")
    if res is None:
        return None
    vertices, tr = res
    tr.children.insert(0, tr1)
    tr.detail["pair"] = [format_vertex(a1), format_vertex(b1)]
    return vertices, tr


def _cycle_case3_single(n: int, f: _Faults, ctx: _Ctx, istar: int, sv: Vertex):
    """Excise one avoided vertex from the heavy subgraph's cycle."""
    pair = next((p for p in f.pairs if sv in p), None)
    if pair is None:
        reduced = f.without_single(sv)
    else:
        # sv's pair straddles two subgraphs: its partner outside stays avoided
        other = pair[0] if pair[1] == sv else pair[1]
        reduced = replace(f.without_pair(pair), singles=tuple(sorted({*f.singles, other})))
    c1 = _subgraph(n, istar, reduced, ctx)
    if c1 is None:
        return None
    C1, tr1 = c1
    idx1 = _ring_index(C1)
    if sv not in idx1:
        raise InternalInvariantError("re-admitted single missing from subgraph cycle")
    p = idx1[sv]
    arc = _ring_span(C1, p + 1, p - 1)
    res = _reconnect_one_arc(n, f, ctx, istar, arc, "EXT/L18/3-single")
    if res is None:
        return None
    vertices, tr = res
    tr.children.insert(0, tr1)
    tr.detail["single"] = format_vertex(sv)
    return vertices, tr


def _cycle_edge_excise(n: int, f: _Faults, ctx: _Ctx, istar: int):
    """Edge-fault-only heavy subgraph: re-admit one faulty edge for the
    recursive cycle, then erase it (or any cycle edge) by routing outside."""
    intra = sorted(e for e in f.edges if e[0][n - 1] == istar and e[1][n - 1] == istar)
    for e in intra:
        reduced = f.without_edge(e)
        c1 = _subgraph(n, istar, reduced, ctx)
        if c1 is None:
            continue
        C1, tr1 = c1
        idx1 = _ring_index(C1)
        a, b = e
        if b in _ring_neighbors(C1, idx1, a):
            arc = _open_ring(C1, idx1, a, b)  # a .. b without the faulty edge
            res = _reconnect_one_arc(n, f, ctx, istar, arc, "L16/3.1")
        else:
            res = None
            for pos in range(len(C1)):
                x, y = C1[pos], C1[(pos + 1) % len(C1)]
                arc = _open_ring(C1, idx1, y, x)
                res = _reconnect_one_arc(n, f, ctx, istar, arc, "L16/3.2")
                if res is not None:
                    break
        if res is None:
            continue
        vertices, tr = res
        tr.children.insert(0, tr1)
        tr.detail["edge"] = [format_vertex(a), format_vertex(b)]
        return vertices, tr
    return None


# ---------------------------------------------------------------------------
# splice reconnection engines


def _reconnect_one_arc(n: int, f: _Faults, ctx: _Ctx, istar: int, arc: list[Vertex], label: str):
    """Close one subgraph arc through a connector over all other subgraphs."""
    p, q = arc[0], arc[-1]
    np_, nq = _usable_stub(p, f), _usable_stub(q, f)
    if np_ is None or nq is None:
        return None
    rest = [j for j in f.indices if j != istar]
    bridge = _connector(n, rest, nq, np_, f, ctx)
    if bridge is None:
        return None
    bv, trb = bridge
    return arc + bv, CaseTrace(label, {}, [trb])


def _reconnect_two_arcs(
    n: int, f: _Faults, ctx: _Ctx, istar: int, arc_a: list[Vertex], arc_b: list[Vertex], prefix: str
):
    """Rejoin two subgraph arcs into a full cycle through outside subgraphs.

    The arcs are what remains of a ring after excising the non-adjacent pair
    (a1, b1): arc A runs x2 .. y2 and arc B runs y1 .. x1, where x1, x2 are
    a1's ring neighbors and y1, y2 are b1's.  The dispatch follows the
    coincidence pattern of the four stub out-subgraphs.

    Two shapes cannot occur, so no code handles them:

    - A one-vertex arc.  With the pair's edge it would close a triangle, but
      BP_n has girth 8, so every arc has at least six vertices.
    - Complementary out-subgraphs for x1 and x2 (or y1 and y2).  x1 and x2 are
      a1 with distinct prefixes k1, k2 < n reversed, so their out-neighbors
      lie in subgraphs a1[k1-1] and a1[k2-1] (0-based), whose absolute values
      differ.  The subgraphs are neither equal nor complementary, and in the
      double split h2 is never -h1.

    All four stubs are usable past this point, so the routines below take
    their out-neighbors without checking them again.
    """
    x2, y2 = arc_a[0], arc_a[-1]
    y1, x1 = arc_b[0], arc_b[-1]
    nx1, nx2 = _usable_stub(x1, f), _usable_stub(x2, f)
    ny1, ny2 = _usable_stub(y1, f), _usable_stub(y2, f)
    if None in (nx1, nx2, ny1, ny2):
        return None
    sx1, sx2 = nx1[n - 1], nx2[n - 1]
    sy1, sy2 = ny1[n - 1], ny2[n - 1]
    if abs(sx1) == abs(sx2) or abs(sy1) == abs(sy2):
        raise InternalInvariantError("stub out-subgraphs of one excised vertex coincide or are complementary")
    distinct = len({sx1, sx2, sy1, sy2})

    if distinct == 4:
        return _reconnect_pairings(n, f, ctx, istar, arc_a, arc_b, f"{prefix}.1")
    if distinct == 3:
        if sx1 == sy2 or sx2 == sy1:
            return _reconnect_pairings(n, f, ctx, istar, arc_a, arc_b, f"{prefix}.2.1")
        if sx1 == sy1:
            return _reconnect_same_side(n, f, ctx, istar, arc_b, arc_a, f"{prefix}.2.2")
        return _reconnect_same_side(n, f, ctx, istar, arc_a, arc_b, f"{prefix}.2.2")
    # distinct == 2
    if sx1 == sy2 and sx2 == sy1:
        return _reconnect_pairings(n, f, ctx, istar, arc_a, arc_b, f"{prefix}.3.1")
    return _reconnect_double_split(n, f, ctx, istar, arc_a, arc_b, f"{prefix}.3.2")


def _reconnect_pairings(
    n: int, f: _Faults, ctx: _Ctx, istar: int, arc_a: list[Vertex], arc_b: list[Vertex], label: str
):
    """Try the four cross-arc stub pairings with direct connectors.

    Each pairing routes one connector between a B-stub and an A-stub and a
    second connector between the remaining two stubs, partitioning all
    remaining subgraphs between them.  Each pass orients arc B to end at
    its first-connector stub and arc A to start at its own, so the pairings
    run (x1, y2), (x1, x2), (y1, y2), (y1, x2) and every one is assembled
    as B + conn1 + A + conn2.
    """
    for B in (arc_b, arc_b[::-1]):
        for A in (arc_a[::-1], arc_a):
            p_stub, other_b = B[-1], B[0]
            q_stub, other_a = A[0], A[-1]
            np_, nq = prefix_reversal(p_stub, n), prefix_reversal(q_stub, n)
            sp, sq = np_[n - 1], nq[n - 1]
            nob, noa = prefix_reversal(other_b, n), prefix_reversal(other_a, n)
            sob, soa = nob[n - 1], noa[n - 1]

            if sp == -sq:
                continue  # complementary pair: no cross edges between them
            conn1_subgraphs = (sp,) if sp == sq else (sp, sq)
            if soa in conn1_subgraphs or sob in conn1_subgraphs:
                continue
            rest = [j for j in f.indices if j != istar and j not in conn1_subgraphs]

            if sp == sq:
                conn1 = _subgraph(n, sp, f, ctx, np_, nq)
            else:
                conn1 = _chain(n, conn1_subgraphs, np_, nq, f, ctx)
            if conn1 is None:
                continue
            c1v, tr1 = conn1

            conn2 = _connector(n, rest, noa, nob, f, ctx)
            if conn2 is None:
                continue
            cv, trc = conn2
            # a two-subgraph connector records its subgraph paths, not an L17 node
            conn1_traces = [tr1] if sp == sq else tr1.children
            return B + c1v + A + cv, CaseTrace(
                label,
                {"pairing": [format_vertex(p_stub), format_vertex(q_stub)]},
                conn1_traces + [trc],
            )
    return None


def _reconnect_same_side(
    n: int, f: _Faults, ctx: _Ctx, istar: int, eq_arc: list[Vertex], free_arc: list[Vertex], label: str
):
    """Both stubs of one arc point into the same subgraph ``h``.

    Cover ``h`` by a path between the two stubs' out-neighbors, split it at
    an edge, leave the first piece through the split vertex whose
    out-neighbor reaches a free stub's subgraph, and re-enter the second
    piece from the outside chain.
    """
    e_hi, e_lo = prefix_reversal(eq_arc[-1], n), prefix_reversal(eq_arc[0], n)
    h = e_hi[n - 1]
    ends = prefix_reversal(free_arc[0], n), prefix_reversal(free_arc[-1], n)
    base = _subgraph(n, h, f, ctx, e_hi, e_lo)
    if base is None:
        return None
    ph, tr_ph = base
    # the free arc runs from the stub the middle piece reaches to the one the chain leaves
    options = ((free_arc, *ends), (free_arc[::-1], *ends[::-1]))
    for pos in range(len(ph) - 1):
        s, t = ph[pos], ph[pos + 1]
        ns, nt = _usable_stub(s, f), _usable_stub(t, f)
        if ns is None or nt is None:
            continue
        snt = nt[n - 1]
        if snt == istar:
            continue
        for free_dir, mid_target, chain_start in options:
            mid_sub = mid_target[n - 1]
            if ns[n - 1] != mid_sub or ns == mid_target or snt == mid_sub:
                continue
            mid = _subgraph(n, mid_sub, f, ctx, ns, mid_target)
            # the free stubs lead into two subgraphs other than h, so
            # chain_start lies outside h and mid_sub, among the 2n-3 in rest
            rest = [j for j in f.indices if j not in (istar, h, mid_sub)]
            bridge = mid and _connector(n, rest, chain_start, nt, f, ctx)
            if bridge is None:
                ctx.spend()
                continue
            mv, tr_mid = mid
            bv, trb = bridge
            full = eq_arc + ph[: pos + 1] + mv + free_dir + bv + ph[pos + 1 :]
            return full, CaseTrace(
                label, {"h": h, "split": [format_vertex(s), format_vertex(t)]}, [tr_ph, tr_mid, trb]
            )
    return None


def _reconnect_double_split(
    n: int, f: _Faults, ctx: _Ctx, istar: int, arc_a: list[Vertex], arc_b: list[Vertex], label: str
):
    """Stub out-subgraphs coincide side-by-side: h1 for arc B, h2 for arc A.

    Both subgraphs are covered by stub-to-stub paths: P1 closes a ring R1 with
    arc B, and P2 a ring R2 with arc A.  R1 is cut at an edge (s, t) of P1
    whose s leads into h2; R2 is opened at the P2 edge (ns, z), and a chain
    over the remaining subgraphs runs from z's out-neighbor back to t's.
    """
    nx1, ny1 = prefix_reversal(arc_b[-1], n), prefix_reversal(arc_b[0], n)
    nx2, ny2 = prefix_reversal(arc_a[0], n), prefix_reversal(arc_a[-1], n)
    h1, h2 = nx1[n - 1], nx2[n - 1]
    p1 = _subgraph(n, h1, f, ctx, nx1, ny1)
    if p1 is None:
        return None
    P1, tr1 = p1
    p2 = _subgraph(n, h2, f, ctx, nx2, ny2)
    if p2 is None:
        return None
    P2, tr2 = p2
    R1 = arc_b + P1  # y1 .. x1, nx1 .. ny1
    R2 = P2 + arc_a[::-1]  # nx2 .. ny2, y2 .. x2
    pos1, pos2 = _ring_index(R1), _ring_index(R2)
    rest = [j for j in f.indices if j not in (istar, h1, h2)]
    for i1 in range(len(P1) - 1):
        for s, t in ((P1[i1], P1[i1 + 1]), (P1[i1 + 1], P1[i1])):
            ns, nt = _usable_stub(s, f), _usable_stub(t, f)
            if ns is None or nt is None:
                continue
            if ns[n - 1] != h2 or nt[n - 1] in (istar, h2):
                continue
            i2 = pos2[ns]
            for z in (P2[i2 - 1] if i2 > 0 else None, P2[i2 + 1] if i2 + 1 < len(P2) else None):
                if z is None:
                    continue
                nz = _usable_stub(z, f)
                if nz is None or nz[n - 1] in (istar, h1):
                    continue
                if nz[n - 1] == nt[n - 1]:
                    raise InternalInvariantError("double-split chain endpoints coincide")
                got = _splice(n, rest, R1, pos1, s, t, lambda: _open_ring(R2, pos2, ns, z), nz, nt, f, ctx)
                if got is None:
                    ctx.spend()
                    continue
                full, trb = got
                return full, CaseTrace(label, {"h1": h1, "h2": h2}, [tr1, tr2, trb])
    return None


# ---------------------------------------------------------------------------
# path construction


def _path(n: int, u: Vertex, v: Vertex, f: _Faults, ctx: _Ctx):
    if u == v or u in f.removed or v in f.removed:
        return None
    if n == 3:
        return _path_bp3(u, v, f, ctx)
    ws = _weights(f)
    order = f.indices
    wmax = max(ws.values())
    if wmax <= n - 4 or wmax > n - 3:
        label = "L19/1" if wmax <= n - 4 else "EXT/path-heavy"
        got = _connector(n, order, u, v, f, ctx)
        if got is None:
            return None
        vertices, tr = got
        return vertices, CaseTrace(label, {}, [tr])
    # Two subgraphs can tie for the heaviest (a matching pair on an n-edge
    # gives both of its subgraphs weight 1); try each in scan order.
    for istar in order:
        if ws[istar] == wmax:
            got = _path_case2(n, u, v, f, ctx, istar)
            if got is not None:
                return got
    return None


def _path_case2(n: int, u: Vertex, v: Vertex, f: _Faults, ctx: _Ctx, istar: int):
    """All fault weight concentrated in one subgraph, which therefore gets a
    recursive cycle; the cycle is opened and threaded into the endpoints'
    structure depending on where the endpoints sit."""
    c1 = _subgraph(n, istar, f, ctx)
    if c1 is None:
        return None
    C1, tr1 = c1
    idx1 = _ring_index(C1)
    j1, j2 = u[n - 1], v[n - 1]
    scope = len({istar, j1, j2})

    if scope == 3:
        return _path_c2_outside_two(n, u, v, f, ctx, istar, C1, idx1, tr1)
    if scope == 2:
        if istar in (j1, j2):
            return _path_c2_endpoint_inside(n, u, v, f, ctx, istar, C1, idx1, tr1)
        if j1 == -istar:
            return _path_c2_complement_pair(n, u, v, f, ctx, istar, C1, idx1, tr1)
        return _path_c2_outside_pair(n, u, v, f, ctx, istar, C1, idx1, tr1)
    return _path_c2_inside_pair(n, u, v, f, ctx, istar, C1, idx1, tr1)


def _path_c2_outside_two(n, u, v, f, ctx, istar, C1, idx1, tr1):
    """Endpoints in two distinct subgraphs, both outside the heavy one."""
    options = []
    if u[n - 1] != -istar:
        options.append((u, v, False))
    if v[n - 1] != -istar:
        options.append((v, u, True))
    for e_x, e_y, swapped in options:
        jx = e_x[n - 1]
        rest = [j for j in f.indices if j not in (istar, jx)]
        for s in sorted(C1):
            if -s[0] != jx:
                continue
            ns = _usable_stub(s, f)
            if ns is None or ns == e_x:
                continue
            for s1 in _ring_neighbors(C1, idx1, s):
                ns1 = _usable_stub(s1, f)
                if ns1 is None or ns1[n - 1] == jx or ns1 == e_y:
                    continue
                first = _subgraph(n, jx, f, ctx, e_x, ns)
                if first is None:
                    ctx.spend()
                    break  # independent of s1
                fv, trf = first
                bridge = _connector(n, rest, ns1, e_y, f, ctx)
                if bridge is None:
                    ctx.spend()
                    continue
                bv, trb = bridge
                full = fv + _open_ring(C1, idx1, s, s1) + bv
                if swapped:
                    full = list(reversed(full))
                return full, CaseTrace("L19/2.1", {"i1": istar}, [tr1, trf, trb])
    return None


def _path_c2_endpoint_inside(n, u, v, f, ctx, istar, C1, idx1, tr1):
    """One endpoint inside the heavy subgraph, the other outside."""
    e_in, e_out, swapped = (u, v, False) if u[n - 1] == istar else (v, u, True)
    rest = [j for j in f.indices if j != istar]
    for u1 in _ring_neighbors(C1, idx1, e_in):
        nu1 = _usable_stub(u1, f)
        if nu1 is None or nu1 == e_out:
            continue
        bridge = _connector(n, rest, nu1, e_out, f, ctx)
        if bridge is None:
            ctx.spend()
            continue
        bv, trb = bridge
        full = _open_ring(C1, idx1, e_in, u1) + bv
        if swapped:
            full = list(reversed(full))
        return full, CaseTrace("L19/2.2", {"shape": "endpoint-inside"}, [tr1, trb])
    return None


def _path_c2_outside_pair(n, u, v, f, ctx, istar, C1, idx1, tr1):
    """Both endpoints in one subgraph j (not the complement of the heavy one):
    cover j endpoint-to-endpoint, then splice the heavy cycle and the rest
    into an edge of that path whose one side crosses into the heavy subgraph."""
    j = u[n - 1]
    base = _subgraph(n, j, f, ctx, u, v)
    if base is None:
        return None
    P, trp = base
    pos = _ring_index(P)
    rest = [q for q in f.indices if q not in (istar, j)]
    for i in range(len(P) - 1):
        for s, t in ((P[i], P[i + 1]), (P[i + 1], P[i])):
            if -s[0] != istar:
                continue
            ns = _usable_stub(s, f)
            if ns is None or ns not in idx1:
                continue
            nt = _usable_stub(t, f)
            if nt is None or nt[n - 1] == istar:
                continue
            for z in _ring_neighbors(C1, idx1, ns):
                nz = _usable_stub(z, f)
                if nz is None or nz[n - 1] == j:
                    continue
                if nz[n - 1] == nt[n - 1]:
                    raise InternalInvariantError("outside-pair chain endpoints coincide")
                got = _splice(n, rest, P, pos, s, t, lambda: _open_ring(C1, idx1, ns, z), nz, nt, f, ctx)
                if got is None:
                    ctx.spend()
                    continue
                full, trb = got
                return full, CaseTrace("L19/2.2", {"shape": "outside-pair", "j": j}, [tr1, trp, trb])
    return None


def _path_c2_complement_pair(n, u, v, f, ctx, istar, C1, idx1, tr1):
    """Both endpoints in the complement of the heavy subgraph.  No edges join
    the two, so the splice hands off through a shared intermediate subgraph."""
    base = _subgraph(n, -istar, f, ctx, u, v)
    if base is None:
        return None
    P, trp = base
    pos = _ring_index(P)
    ring_edges = [(C1[i], C1[(i + 1) % len(C1)]) for i in range(len(C1))]
    for i in range(len(P) - 1):
        for s, t in ((P[i], P[i + 1]), (P[i + 1], P[i])):
            ns = _usable_stub(s, f)
            if ns is None:
                continue
            g = ns[n - 1]
            if g == istar:
                continue
            nt = _usable_stub(t, f)
            if nt is None or nt[n - 1] in (istar, g):
                continue
            for z0, w0 in ring_edges:
                for z, w in ((z0, w0), (w0, z0)):
                    nz = _usable_stub(z, f)
                    if nz is None or nz[n - 1] != g or nz == ns:
                        continue
                    nw = _usable_stub(w, f)
                    if nw is None or nw[n - 1] in (g, nt[n - 1]):
                        continue
                    mid = _subgraph(n, g, f, ctx, ns, nz)
                    rest = [q for q in f.indices if q not in (istar, -istar, g)]
                    got = mid and _splice(n, rest, P, pos, s, t, lambda: mid[0] + _open_ring(C1, idx1, z, w), nw, nt, f, ctx)
                    if got is None:
                        ctx.spend()
                        continue
                    full, trb = got
                    return full, CaseTrace(
                        "L19/2.2", {"shape": "complement-pair", "g": g}, [tr1, trp, mid[1], trb]
                    )
    return None


def _path_c2_inside_pair(n, u, v, f, ctx, istar, C1, idx1, tr1):
    """Both endpoints inside the heavy subgraph."""
    rest = [q for q in f.indices if q != istar]
    if v in _ring_neighbors(C1, idx1, u):
        Q = _open_ring(C1, idx1, u, v)
        for i in range(len(Q) - 1):
            s, t = Q[i], Q[i + 1]
            ns, nt = _usable_stub(s, f), _usable_stub(t, f)
            if ns is None or nt is None:
                continue
            if ns[n - 1] == nt[n - 1]:
                raise InternalInvariantError("adjacent out-neighbors share a subgraph")
            bridge = _chain(n, rest, ns, nt, f, ctx)
            if bridge is None:
                ctx.spend()
                continue
            bv, trb = bridge
            full = Q[: i + 1] + bv + Q[i + 1 :]
            return full, CaseTrace("L19/2.3.1", {}, [tr1, trb])
        return None
    # endpoints non-adjacent on the cycle: walk one arc between them, cross
    # to the outside and come back along the other
    pu, pv = idx1[u], idx1[v]
    arc_p = _ring_span(C1, pu + 1, pv - 1)  # forward arc strictly between u and v
    arc_q = _ring_span(C1, pv + 1, pu - 1)[::-1]  # backward arc strictly between u and v
    for first, second in ((arc_q, arc_p), (arc_p, arc_q)):
        nv1, nu1 = _usable_stub(first[-1], f), _usable_stub(second[0], f)
        if nu1 is None or nv1 is None:
            continue
        bridge = _connector(n, rest, nv1, nu1, f, ctx)
        if bridge is None:
            ctx.spend()
            continue
        bv, trb = bridge
        return [u] + first + bv + second + [v], CaseTrace("L19/2.3.2", {}, [tr1, trb])
    return None


# ---------------------------------------------------------------------------
# output checking and public wrappers


def _check_output(n: int, f: _Faults, vertices: list[Vertex], closed: bool, u=None, v=None) -> None:
    """Cheap structural self-check; violations are internal bugs.

    Whole-sequence passes decide whether any step is bad; only then does the
    step-by-step loop run, to raise the error of the first bad step.  Faulty
    edges are looked up where their endpoints sit, not keyed at every step.
    """
    expected = bp_graph.vertex_count(n) - len(f.removed)
    if len(vertices) != expected:
        raise InternalInvariantError(f"built {len(vertices)} vertices, expected {expected}")
    if closed and len(vertices) < 8:  # the girth bounds any cycle below
        raise InternalInvariantError("cycles must have at least eight vertices")
    if len(set(vertices)) != len(vertices):
        raise InternalInvariantError("repeated vertex in construction")
    successors = islice(vertices, 1, None)
    if closed:
        successors = chain(successors, vertices[:1])
    if (
        not f.removed.isdisjoint(vertices)
        or not all(map(bp_graph.is_adjacent, vertices, successors))
        or any(bp_graph.edge_steps(vertices, a, b, closed) for a, b in f.edges)
    ):
        removed = f.removed
        edge_set = f.edge_set
        steps = len(vertices) if closed else len(vertices) - 1
        for pos in range(steps):
            a = vertices[pos]
            b = vertices[(pos + 1) % len(vertices)]
            if a in removed or b in removed:
                raise InternalInvariantError("construction visits a removed vertex")
            if edge_key(a, b) in edge_set:
                raise InternalInvariantError("construction uses a faulty edge")
            if not bp_graph.is_adjacent(a, b):
                raise InternalInvariantError(f"non-adjacent step {format_vertex(a)} -> {format_vertex(b)}")
    if not closed and (vertices[0] != u or vertices[-1] != v):
        raise InternalInvariantError("wrong path endpoints")


SOFT_DIMENSION_LIMIT = 8


def _public_input(n: int, fault_set: FaultSet, bound: int, u=None, v=None):
    """The public builders' one input check.

    Returns the faults in internal form and the endpoints (when given) as
    vertices; raises UsageError, or BudgetExceededError past ``bound``.
    """
    if not 3 <= n <= SOFT_DIMENSION_LIMIT:
        raise UsageError(f"construction needs 3 <= n <= {SOFT_DIMENSION_LIMIT}, got n={n}")
    if u is not None:
        u, v = check_vertex(u, n), check_vertex(v, n)
        if u == v:
            raise UsageError("path endpoints must be distinct")
    if fault_set.n != n:
        raise UsageError(f"fault set is for n={fault_set.n}, expected {n}")
    report = validate(fault_set)
    if not report.ok:
        raise UsageError("invalid fault set: " + "; ".join(str(x) for x in report.violations))
    if fault_set.size > bound:
        raise BudgetExceededError(f"|F|={fault_set.size} exceeds tolerance {bound}")
    f = _Faults.from_fault_set(fault_set)
    if u in f.removed or v in f.removed:
        raise UsageError("path endpoints must be fault-free vertices")
    return f, u, v


def _finish(trace: CaseTrace, n: int) -> CaseTrace:
    return CaseTrace("root", {"n": n}, [trace])


def hamiltonian_cycle(n: int, fault_set: FaultSet) -> VertexCycle:
    """Hamiltonian cycle of BP_n minus the fault set, for |F| <= n-2."""
    f, _, _ = _public_input(n, fault_set, n - 2)
    ctx = _Ctx()
    got = _cycle(n, f, ctx)
    if got is None:
        raise ctx.failure(ctx.note or "scan exhausted")
    vertices, tr = got
    _check_output(n, f, vertices, closed=True)
    return VertexCycle(tuple(vertices), _finish(tr, n))


def hamiltonian_path(n: int, u, v, fault_set: FaultSet) -> VertexPath:
    """Hamiltonian path between u and v in BP_n minus the fault set, |F| <= n-3."""
    f, u, v = _public_input(n, fault_set, n - 3, u, v)
    ctx = _Ctx()
    got = _path(n, u, v, f, ctx)
    if got is None:
        raise ctx.failure(ctx.note or "scan exhausted")
    vertices, tr = got
    _check_output(n, f, vertices, closed=False, u=u, v=v)
    return VertexPath(tuple(vertices), _finish(tr, n))
