"""Recursive construction of fault-avoiding Hamiltonian cycles and paths.

The constructor decomposes BP_n into its 2n last-symbol subgraphs, each
isomorphic to BP_{n-1}, and dispatches on how the fault weight spreads over
them.  Every "choose an element such that ..." step is a lexicographic scan
over candidates, so identical inputs produce identical outputs.  A junction
-- a vertex of one subgraph whose out-neighbour lies in another -- is
always picked from ``_cross_candidates``, which lists the fault-free cross
edges between the two in lexicographic order of their ends.  Each
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
edges carry the suffix.  Only the BP_3 leaf changes coordinates: it maps
its faults and endpoints into BP_3, so the memo keys and stored tables are
those of BP_3, and lifts its result once.

The leaf has one frame rule.  It picks a reference vertex r of its copy of
BP_3 and reads every vertex by the signed positions of its first three
symbols among r's first three: r itself reads as the identity.  With r the
leaf's symbols in ascending order (the cycle leaf), this is the relabel
that a build relabelling at every level would reach.  It is strictly
increasing on signed symbols and commutes with negation and with prefix
reversals, so every lexicographic scan, sort and tie-break sees the same
sequence, and at n = 3 it is the identity.  Any other r
is that relabel followed by a left translation ``x -> compose(w, x)``, an
automorphism of BP_n that keeps the dimension of every edge.  The path leaf
takes its start u as r, so its memo, ``FREE_PATHS`` and ``SINGLE_PATHS``
hold paths from the identity only; the single-pair cycle takes the pair's
larger endpoint, in whose frame the pair is {identity, generator k} and
``PAIR_CYCLES[k]`` lifts as it is.

A splice replaces an edge (s, t) of a path or ring with a detour that
leaves s and returns to t.  Where (s, t) can lie either way round on a
path, ``_splice`` does the work: it builds the detour's bridge chain from
the end that the finished path lists first, so the chain's junction scan
does not depend on the orientation, and assembles the path in the
orientation it has.  Arcs joined by connectors are oriented before they
are assembled, so each splice shape has one assembly expression.

Every cycle and path is built as one packed sequence (``bp_graph.pack``:
8 signed bytes a vertex, its symbols then zero padding), from leaf to
root.  The leaf keeps its BP_3 answers in frame form, each vertex's three
frame symbols followed by five places, and lifts one with a single
``bytes.translate`` through a 256-byte table (``_frame_table``) that sends
the frame symbols to the reference vertex's and the places to the suffix.
Above it, chains, loops, splices and ring cuts join and cut bytes at
whole records, reverse them record by record, and find a vertex by its
record; a scan that reads vertices (a loop's base path, the scans of the
heavy cases) decodes them as it reads.  ``_check_output`` runs on the
bytes, and the public objects hold them: ``vertices`` decodes on access.

The process keeps one memo of fault-free paths, ``_path_memo``
(``_free_path_memo``), shared by every build: level 4 at every dimension
n >= 5 and, above it, levels up to n-2.  Its keys are the level, the
suffix length and the endpoints in the frame of the level's symbols in
ascending order.  That relabel is strictly increasing on signed symbols
and commutes with negation and prefix reversals, so it keeps the
lexicographic order of cross edges, the canonical order of subgraph
indices and every leaf frame; with no faults to tell two fault-free
requests apart, a request whose frame matches an earlier one is built as
that one was, relabelled, whichever build made the first.  A hit
therefore lifts the stored path with one translate, moves the symbols its
trace names and charges the attempts its miss spent.  The suffix length
is part of the key because a frame's places stand for the suffix: a
frame stored under a shorter suffix would lift with padding where
suffix symbols belong.  Level n-1 requests above 4 barely repeat, and
each would hold 1/(2n) of the graph (5.2 MB at n = 8), so they are built
directly.  The stored frames are capped at ``_PATH_MEMO_CAP`` bytes (32
MiB), and the memo is emptied before a store would pass the cap.

Each rejected candidate costs one attempt (``_Ctx.spend``).  The call
that finds the budget spent raises StrictModeFailure on the spot, which
ends the whole build.  A scan that comes up empty returns None instead,
and the builder raises the same failure once None reaches it.  Both
messages come from ``_Ctx.failure``: they give the attempts spent and
either the spent budget or "scan exhausted".  Neither carries a partial
trace.
"""

from __future__ import annotations

from _thread import allocate_lock
from collections.abc import Iterator
from operator import neg
from typing import NamedTuple

from . import bp_graph
from .bp3_fixtures import FREE_PATHS, LEAF_CYCLES, NO_PATH, PAIR_CYCLES, SINGLE_PATHS
from .bp_graph import (
    SOFT_DIMENSION_LIMIT,  # re-exported
    Edge,
    edge_dimension,
    edge_key,
    index_sort_key,
    iter_cross_edges,
    subgraph_indices,
)
from .errors import (  # re-exported: the package's exceptions, as the same objects
    BudgetExceededError,
    ConstructionError,
    InternalInvariantError,
    NoOrderingError,
    StrictModeFailure,
    UsageError,
)
from .fault_model import FaultSet, validate
from .signed_perm import (
    Vertex,
    all_vertices,
    check_vertex,
    format_vertex,
    identity,
    prefix_reversal,
)

Pair = Edge
_WIDTH = bp_graph.PACKED_WIDTH  # bytes a vertex in the packed form


# ---------------------------------------------------------------------------
# case traces


class CaseTrace:
    """A case label, its details and the traces of the sub-builds under it.
    Compared attribute by attribute; mutable, so unhashable."""

    __hash__ = None

    def __init__(self, label: str, detail: dict | None = None, children: list[CaseTrace] | None = None):
        self.label = label
        self.detail = {} if detail is None else detail
        self.children = [] if children is None else children

    def __repr__(self) -> str:
        return f"CaseTrace(label={self.label!r}, detail={self.detail!r}, children={self.children!r})"

    def __eq__(self, other):
        if other.__class__ is not CaseTrace:
            return NotImplemented
        return vars(self) == vars(other)

    def labels(self) -> list[str]:
        out = [self.label]
        for child in self.children:
            out.extend(child.labels())
        return out


class VertexPath(NamedTuple):
    """A Hamiltonian path of BP_n, held as its packed sequence."""

    n: int
    packed: bytes
    trace: CaseTrace

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """The vertices, decoded from ``packed`` on each access."""
        return tuple(bp_graph.iter_unpack(self.n, self.packed))

    @property
    def endpoints(self) -> tuple[Vertex, Vertex]:
        return bp_graph.unpack_at(self.n, self.packed, 0), bp_graph.unpack_at(self.n, self.packed, -1)


class VertexCycle(NamedTuple):
    """A Hamiltonian cycle of BP_n, held as its packed sequence."""

    n: int
    packed: bytes
    trace: CaseTrace

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """The vertices, decoded from ``packed`` on each access."""
        return tuple(bp_graph.iter_unpack(self.n, self.packed))


# ---------------------------------------------------------------------------
# extended fault bookkeeping


class _cached:
    """``functools.cached_property`` without its lock (Python 3.11 takes a
    per-class lock on every first access): the first access stores the
    value in the instance's ``__dict__``, which later accesses read before
    this descriptor.  The values are pure functions of the fields, so two
    threads that race on a first access store equal values."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class _Faults:
    """The faults of one level: ``n``, ``pairs``, ``singles``, ``edges``
    and ``suffix`` (the symbols every vertex of this level ends in).

    Immutable, compared and hashed by those fields.  The cached properties
    below store their values in the instance's ``__dict__`` directly.
    """

    def __init__(
        self,
        n: int,
        pairs: tuple[Pair, ...] = (),
        singles: tuple[Vertex, ...] = (),
        edges: tuple[Pair, ...] = (),
        suffix: Vertex = (),
    ):
        self.__dict__.update(n=n, pairs=pairs, singles=singles, edges=edges, suffix=suffix)

    def _key(self) -> tuple:
        return self.n, self.pairs, self.singles, self.edges, self.suffix

    def __repr__(self) -> str:
        return (
            f"_Faults(n={self.n!r}, pairs={self.pairs!r}, singles={self.singles!r}, "
            f"edges={self.edges!r}, suffix={self.suffix!r})"
        )

    def __eq__(self, other):
        if other.__class__ is not _Faults:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @staticmethod
    def from_fault_set(fs: FaultSet) -> "_Faults":
        return _Faults(fs.n, fs.matching_pairs, (), fs.faulty_edges)

    @property
    def dim(self) -> int:
        """The n of the BP_n whose coordinates every vertex here is in."""
        return self.n + len(self.suffix)

    @_cached
    def removed(self) -> frozenset[Vertex]:
        out = {v for pair in self.pairs for v in pair}
        out.update(self.singles)
        return frozenset(out)

    @_cached
    def edge_set(self) -> frozenset[Pair]:
        return frozenset(self.edges)

    @_cached
    def fault_vertices(self) -> frozenset[Vertex]:
        out = set(self.removed)
        for a, b in self.edges:
            out.add(a)
            out.add(b)
        return frozenset(out)

    @property
    def weight(self) -> int:
        return len(self.pairs) + len(self.singles) + len(self.edges)

    @_cached
    def indices(self) -> list[int]:
        # the symbols the suffix leaves, in canonical order
        fixed = {abs(x) for x in self.suffix}
        return [i for i in subgraph_indices(self.n + len(self.suffix)) if abs(i) not in fixed]

    @_cached
    def has_singles_anywhere(self) -> bool:
        p = self.n - 1
        return bool(self.singles) or any(a[p] != b[p] for a, b in self.pairs)

    def without_pair(self, pair: Pair) -> "_Faults":
        pairs = tuple(p for p in self.pairs if p != pair)
        return _Faults(self.n, pairs, self.singles, self.edges, self.suffix)

    def without_single(self, v: Vertex) -> "_Faults":
        singles = tuple(s for s in self.singles if s != v)
        return _Faults(self.n, self.pairs, singles, self.edges, self.suffix)

    def without_edge(self, e: Pair) -> "_Faults":
        edges = tuple(x for x in self.edges if x != e)
        return _Faults(self.n, self.pairs, self.singles, edges, self.suffix)


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


class _Ctx:
    """One build's attempt count and budget; compared attribute by
    attribute."""

    __hash__ = None

    def __init__(self, attempts: int = 0, max_attempts: int = 200_000):
        self.attempts = attempts
        self.max_attempts = max_attempts

    def __repr__(self) -> str:
        return f"_Ctx(attempts={self.attempts!r}, max_attempts={self.max_attempts!r})"

    def __eq__(self, other):
        if other.__class__ is not _Ctx:
            return NotImplemented
        return vars(self) == vars(other)

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
# BP_3 base level: complete backtracking search, memoized in frame form.
# The search defines three tables that are read instead of searched: paths
# are asked for from the identity, fault-free ones come from FREE_PATHS and
# those with one removed vertex and no banned edge from SINGLE_PATHS;
# cycles with at most one removed vertex or banned edge come from
# LEAF_CYCLES.

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
_BP3_IDENTITY = identity(3)
# The index of the identity, where every stored path starts.
_BP3_START = _BP3_INDEX[_BP3_IDENTITY]
# _BP3_EDGE_RANK[e]: the rank of edge e among the 72 edges of BP_3 in sorted
# edge_key order, which numbers the banned-edge slots of LEAF_CYCLES.
_BP3_EDGE_RANK = {
    (_BP3_VERTICES[i], _BP3_VERTICES[j]): r
    for r, (i, j) in enumerate((i, j) for i, ws in enumerate(_BP3_NEIGHBORS) for j in ws if i < j)
}
# The frame record of each BP_3 vertex (``_frame_bytes``): its three symbols
# as signed bytes, then the places 19..23.
_BP3_RECORD = {x: bytes(map((255).__and__, x)) + bytes(range(19, 24)) for x in _BP3_VERTICES}
_bp3_path_cache: dict[tuple, bytes | None] = {}
_bp3_cycle_cache: dict[tuple, bytes | None] = {}


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

    This search defines every BP_3 path and cycle the constructor uses,
    and so three tables shipped precomputed in ``bp3_fixtures``: the
    fault-free paths as ``FREE_PATHS``, the paths with one removed vertex
    and no banned edge as ``SINGLE_PATHS`` and the cycles with at most one
    removed vertex or banned edge as ``LEAF_CYCLES``.  Tier-1 compares each
    with this function, slot by slot.
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


def _decode_steps(table: bytes, slot: int, start: int, steps: int, ends, removed: int = -1) -> tuple[Vertex, ...]:
    """The BP_3 path of ``steps`` steps from the vertex of index ``start``
    stored in slot ``slot`` of ``table`` (step code in ``bp3_fixtures``).
    A decoded path that repeats a vertex, visits the vertex of index
    ``removed``, or whose last vertex's index is not in ``ends``, raises
    InternalInvariantError naming the slot; callers memoize, so each slot is
    checked once per key and process."""
    bits = int.from_bytes(table[6 * slot : 6 * slot + 6], "big")
    d = bits >> 46
    path = [start]
    if d < 3:
        cur = _BP3_STEP[start][d]
        path.append(cur)
        for shift in range(45, 46 - steps, -1):
            d = _BP3_NEXT[d][bits >> shift & 1]
            cur = _BP3_STEP[cur][d]
            path.append(cur)
    if len(set(path)) != len(path):
        raise InternalInvariantError(f"stored BP_3 path in slot {slot} repeats a vertex")
    if removed in path:
        raise InternalInvariantError(f"stored BP_3 path in slot {slot} visits its removed vertex")
    if path[-1] not in ends:
        raise InternalInvariantError(f"stored BP_3 path in slot {slot} ends elsewhere")
    return tuple(_BP3_VERTICES[x] for x in path)


def _free_path(v: Vertex) -> tuple[Vertex, ...]:
    """The path of fault-free BP_3 from the identity to v, decoded from
    ``FREE_PATHS``; one that does not end at v raises InternalInvariantError."""
    j = _BP3_INDEX[v]
    return _decode_steps(FREE_PATHS, j, _BP3_START, 47, (j,))


def _frame_bytes(path) -> bytes:
    """A BP_3 path or cycle, given as vertices, in frame form: each record
    holds the vertex's three symbols, then the places 19..23 that a lift
    table (:func:`_frame_table`) fills with the suffix or zero padding."""
    return b"".join(map(_BP3_RECORD.__getitem__, path))


# PAIR_CYCLES in frame form, for the single-pair cycle leaf.
_PAIR_FRAMES = {k: _frame_bytes(cycle) for k, cycle in PAIR_CYCLES.items()}


def _frame_table(ref, suffix: Vertex) -> bytes:
    """The 256-byte translate table that lifts a sequence in frame form into
    the copy of BP_m, m = len(ref), whose vertices end in ``suffix``: frame
    symbol k becomes ref[k-1] and -k becomes -ref[k-1] (as signed bytes),
    place 16 + m + j becomes suffix[j], and every other place zero padding."""
    table = bytearray(256)
    for k, x in enumerate(ref, 1):
        table[k] = x & 255
        table[-k] = -x & 255
    start = 16 + len(ref)
    table[start : start + len(suffix)] = bytes(map((255).__and__, suffix))
    return bytes(table)


def _bp3_search_path(removed: frozenset[Vertex], banned: frozenset[Pair], v: Vertex) -> bytes | None:
    """The BP_3 path from the identity to v that ``_small_search`` defines,
    in frame form.  A fault-free one is decoded from ``FREE_PATHS``, and one
    with a single removed vertex x and no banned edge from ``SINGLE_PATHS``:
    slot ``48 * i + j`` for x and v the i-th and j-th vertex of
    ``_BP3_VERTICES``, 46 steps in ``FREE_PATHS``'s step code, and the
    marker ``NO_PATH`` for the six keys without a path, tested before
    decoding.  No table is checked on import; ``_decode_steps`` checks each
    decoded path, and tier-1 compares every slot with the search and prints
    the regenerated table on a mismatch.  Every other key is searched,
    among them those with x or v the identity or v = x, for which the
    search answers None at once."""
    key = (removed, banned, v)
    if key not in _bp3_path_cache:
        if not removed and not banned:
            got = _free_path(v)
        elif len(removed) == 1 and not banned and removed.isdisjoint((_BP3_IDENTITY, v)) and v != _BP3_IDENTITY:
            (x,) = removed
            slot = 48 * _BP3_INDEX[x] + _BP3_INDEX[v]
            if SINGLE_PATHS[6 * slot : 6 * slot + 6] == NO_PATH:
                got = None
            else:
                got = _decode_steps(SINGLE_PATHS, slot, _BP3_START, 46, (_BP3_INDEX[v],), _BP3_INDEX[x])
        else:
            got = _small_search(3, removed, banned, _BP3_IDENTITY, v)
        _bp3_path_cache[key] = got and _frame_bytes(got)
    return _bp3_path_cache[key]


def _bp3_search_cycle(removed: frozenset[Vertex], banned: frozenset[Pair]) -> bytes | None:
    """The BP_3 cycle that ``_small_search`` defines, in frame form; one with
    at most one removed vertex or banned edge is decoded from the table
    rather than searched.  The search starts from the first vertex not
    removed, and a decoded cycle that does not end beside it raises
    InternalInvariantError."""
    key = (removed, banned)
    if key not in _bp3_cycle_cache:
        if len(removed) + len(banned) > 1:
            got = _small_search(3, removed, banned, None, None)
        else:
            skip = -1
            if removed:
                (x,) = removed
                skip = _BP3_INDEX[x]
                slot = 1 + skip
            elif banned:
                (e,) = banned
                slot = 49 + _BP3_EDGE_RANK[e]
            else:
                slot = 0
            start = 1 if slot == 1 else 0
            got = _decode_steps(LEAF_CYCLES, slot, start, 47 - len(removed), _BP3_NEIGHBORS[start], skip)
        _bp3_cycle_cache[key] = got and _frame_bytes(got)
    return _bp3_cycle_cache[key]


def _leaf_view(f: _Faults, ref: Vertex | None = None):
    """The BP_3 leaf's frame, read off a reference vertex r of the leaf: a
    symbol's BP_3 symbol is its signed position among r's first three.
    Returns ``embed`` of a vertex into BP_3 coordinates, the translate table
    (:func:`_frame_table`) that lifts a BP_3 sequence in frame form back,
    suffix and all, and the removed vertices and faulty edges embedded
    (each edge in ``edge_key`` order, which a change of r does not keep).
    r defaults to the leaf's symbols in ascending order, whose frame is the
    order-preserving relabel."""
    r0, r1, r2 = ref = ref[:3] if ref else [i for i in f.indices if i > 0]
    down = {r0: 1, r1: 2, r2: 3, -r0: -1, -r1: -2, -r2: -3}

    def embed(x: Vertex) -> Vertex:
        return down[x[0]], down[x[1]], down[x[2]]

    lift = _frame_table(ref, f.suffix)
    return embed, lift, frozenset(map(embed, f.removed)), frozenset(edge_key(embed(a), embed(b)) for a, b in f.edge_set)


def _cycle_bp3(f: _Faults, ctx: _Ctx):
    if len(f.pairs) == 1 and not f.singles and not f.edges:
        # Single stored pair: in the frame of its larger endpoint b the pair
        # is {identity, generator k}, which the matching fixture avoids.  A
        # pair that holds the identity has it as b, so gets the raw fixture.
        a, b = f.pairs[0]
        k = edge_dimension(a, b)
        lift = _leaf_view(f, b)[1]
        return _PAIR_FRAMES[k].translate(lift), CaseTrace(
            f"L13/{k}", {"pair": [format_vertex(a), format_vertex(b)]}
        )
    _, lift, removed, banned = _leaf_view(f)
    got = _bp3_search_cycle(removed, banned)
    if got is None:
        return None
    if f.weight == 0:
        label = "L13/empty"
    elif f.edges and not f.removed:
        label = "L13/edge"
    else:
        label = "EXT/bp3-cycle"
    return got.translate(lift), CaseTrace(label, {})


def _path_bp3(u: Vertex, v: Vertex, f: _Faults, ctx: _Ctx):
    # in the frame of u, u is the identity
    embed, lift, removed, banned = _leaf_view(f, u)
    got = _bp3_search_path(removed, banned, embed(v))
    if got is None:
        return None
    label = "BP3/path" if f.weight == 0 else "EXT/bp3-path"
    return got.translate(lift), CaseTrace(label, {})


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


def _cross_candidates(n: int, i: int, j: int, f: _Faults) -> Iterator[Edge]:
    """The fault-free cross edges (s, stub) from subgraph i to j, read only as
    far as the caller needs, since the first usable edge usually wins.  The
    ends s ascend: they are the unremoved vertices of subgraph i with
    ``-s[0] == j`` and a ``_usable_stub``, in ``iter_cross_edges`` order."""
    removed, edge_set = f.removed, f.edge_set
    for x, y in iter_cross_edges(n, i, j, f.suffix):
        if x in removed or y in removed or edge_key(x, y) in edge_set:
            continue
        yield x, y


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
    return b"".join(seg for seg, _ in got), CaseTrace("L17", {"order": list(ordering)}, [tr for _, tr in got])


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
    for pos, x, y in _steps(f, path):
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
        cut = (pos + 1) * _WIDTH
        full = path[:cut] + bridge_vertices + path[cut:]
        return full, CaseTrace("L20", {"split": [format_vertex(x), format_vertex(y)]}, [base_trace, bridge_trace])
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


def _record(x: Vertex) -> bytes:
    """The packed record of one vertex."""
    return bp_graph.pack(len(x), (x,))


def _at(f: _Faults, C: bytes, p: int) -> Vertex:
    """Vertex p (negative: from the end) of the packed sequence C at f's level."""
    return bp_graph.unpack_at(f.dim, C, p)


def _pos(C: bytes, x: Vertex) -> int:
    """The position of x in the packed sequence C, which must hold it."""
    p = bp_graph.record_index(C, _record(x))
    if p < 0:
        raise InternalInvariantError(f"{format_vertex(x)} missing from a subgraph's cycle or path")
    return p


def _steps(f: _Faults, P: bytes) -> Iterator[tuple[int, Vertex, Vertex]]:
    """(p, x, y) for each step of the packed path P, x at position p,
    decoded only as far as the scan reads."""
    records = bp_graph.iter_unpack(f.dim, P)
    x = next(records)
    for p, y in enumerate(records):
        yield p, x, y
        x = y


def _ring_neighbors(f: _Faults, C: bytes, p: int) -> list[tuple[Vertex, int]]:
    """(vertex, position) of the two neighbours of position p on the packed
    ring C: the one before, then the one after."""
    size = len(C) // _WIDTH
    return [(_at(f, C, q), q) for q in ((p - 1) % size, (p + 1) % size)]


def _ring_from(C: bytes, p: int) -> bytes:
    """The packed ring read forward from position p."""
    return C[p * _WIDTH :] + C[: p * _WIDTH]


def _open_ring(C: bytes, pa: int, pb: int) -> bytes:
    """The path from position pa to its ring neighbour pb around the packed
    ring C, skipping the ring edge between them."""
    size = len(C) // _WIDTH
    if (pa + 1) % size == pb:
        return bp_graph.reverse_records(_ring_from(C, pa + 1))
    if (pa - 1) % size == pb:
        return _ring_from(C, pa)
    raise InternalInvariantError("ring edge expected between split vertices")


def _splice(n: int, I, P: bytes, ps: int, pt: int, middle, a, b, f, ctx):
    """Route a detour through the edge of path P between positions ps and
    pt (s and t): the piece ``middle()``, which leaves s, then a chain over
    ``I`` from a to b, which returns to t.  Returns (packed path, chain
    trace), or None if no chain.

    The chain is built from the end that P lists first, so its junction
    scan does not depend on the orientation of (s, t), and ``middle()`` is
    built only once the chain exists.
    """
    forward = ps < pt
    bridge = _chain(n, I, *((a, b) if forward else (b, a)), f, ctx)
    if bridge is None:
        return None
    bv, trb = bridge
    if forward:
        return P[: (ps + 1) * _WIDTH] + middle() + bv + P[pt * _WIDTH :], trb
    return P[: (pt + 1) * _WIDTH] + bv + bp_graph.reverse_records(middle()) + P[ps * _WIDTH :], trb


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
    rest = [j for j in f.indices if j not in (istar, i2)]
    for s, ns in _cross_candidates(n, istar, i2, f):
        ps, pns = _pos(C1, s), _pos(C2, ns)
        for t, pt in _ring_neighbors(f, C1, ps):
            nt = _usable_stub(t, f)
            if nt is None or nt[n - 1] == i2:
                continue
            for s1, ps1 in _ring_neighbors(f, C2, pns):
                ns1 = _usable_stub(s1, f)
                if ns1 is None or ns1[n - 1] in (istar, nt[n - 1]):
                    continue
                bridge = _chain(n, rest, ns1, nt, f, ctx)
                if bridge is None:
                    ctx.spend()
                    continue
                bv, trb = bridge
                full = _open_ring(C1, pt, ps) + _open_ring(C2, pns, ps1) + bv
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
    # s ascends as in the sorted ring: by s[0] = -h first, then within h
    for h in sorted((j for j in f.indices if abs(j) != abs(istar)), key=neg):
        rest = [j for j in f.indices if j not in (istar, -istar, h)]
        for s, ns in _cross_candidates(n, istar, h, f):
            ps = _pos(C1, s)
            ts = [
                (t, pt, nt)
                for t, pt in _ring_neighbors(f, C1, ps)
                if (nt := _usable_stub(t, f)) is not None and nt[n - 1] != h
            ]
            if not ts:
                continue  # no z below could give an end
            for z, nz in _cross_candidates(n, -istar, h, f):
                pz = _pos(CB, z)
                ends = [
                    (t, pt, nt, pw, nw)
                    for t, pt, nt in ts
                    for w, pw in _ring_neighbors(f, CB, pz)
                    if (nw := _usable_stub(w, f)) is not None and nw[n - 1] not in (h, nt[n - 1])
                ]
                if not ends:
                    continue
                # the h-path does not depend on t, w: ask for it once
                mid = _subgraph(n, h, f, ctx, ns, nz)
                if mid is None:
                    ctx.spend()
                    continue
                mv, trm = mid
                for t, pt, nt, pw, nw in ends:
                    bridge = _chain(n, rest, nw, nt, f, ctx)
                    if bridge is None:
                        ctx.spend()
                        continue
                    bv, trc = bridge
                    full = _open_ring(C1, pt, ps) + mv + _open_ring(CB, pz, pw) + bv
                    return full, CaseTrace("L18/2.2", {"i1": istar, "h": h}, [tr1, trb0, trm, trc])
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
    size = len(C1) // _WIDTH
    a1, b1 = pair
    pa, pb = (bp_graph.record_index(C1, _record(x)) for x in pair)
    if pa < 0 or pb < 0:
        raise InternalInvariantError("re-admitted pair missing from subgraph cycle")
    if (pa - 1) % size == pb:
        a1, b1, pa, pb = b1, a1, pb, pa  # normalize so b1 follows a1 when they are ring-adjacent
    R = _ring_from(C1, pa)
    k = (pb - pa) % size
    if k == 1:
        res = _reconnect_one_arc(n, f, ctx, istar, R[2 * _WIDTH :], "L18/3.1")  # y1 .. x1
    else:
        # arc A runs x2 .. y2, arc B y1 .. x1
        res = _reconnect_two_arcs(n, f, ctx, istar, R[_WIDTH : k * _WIDTH], R[(k + 1) * _WIDTH :], "L18/3.2")
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
        pairs = tuple(p for p in f.pairs if p != pair)
        reduced = _Faults(f.n, pairs, tuple(sorted({*f.singles, other})), f.edges, f.suffix)
    c1 = _subgraph(n, istar, reduced, ctx)
    if c1 is None:
        return None
    C1, tr1 = c1
    p = bp_graph.record_index(C1, _record(sv))
    if p < 0:
        raise InternalInvariantError("re-admitted single missing from subgraph cycle")
    res = _reconnect_one_arc(n, f, ctx, istar, _ring_from(C1, p)[_WIDTH:], "EXT/L18/3-single")
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
        a, b = e
        pa = _pos(C1, a)
        at_b = [q for w, q in _ring_neighbors(f, C1, pa) if w == b]
        if at_b:
            arc = _open_ring(C1, pa, at_b[0])  # a .. b without the faulty edge
            res = _reconnect_one_arc(n, f, ctx, istar, arc, "L16/3.1")
        else:
            res = None
            size = len(C1) // _WIDTH
            for pos in range(size):
                # the ring opened at its edge (pos, pos + 1), from pos + 1 round to pos
                arc = _ring_from(C1, (pos + 1) % size)
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


def _reconnect_one_arc(n: int, f: _Faults, ctx: _Ctx, istar: int, arc: bytes, label: str):
    """Close one subgraph arc through a connector over all other subgraphs."""
    p, q = _at(f, arc, 0), _at(f, arc, -1)
    np_, nq = _usable_stub(p, f), _usable_stub(q, f)
    if np_ is None or nq is None:
        return None
    rest = [j for j in f.indices if j != istar]
    bridge = _connector(n, rest, nq, np_, f, ctx)
    if bridge is None:
        return None
    bv, trb = bridge
    return arc + bv, CaseTrace(label, {}, [trb])


def _reconnect_two_arcs(n: int, f: _Faults, ctx: _Ctx, istar: int, arc_a: bytes, arc_b: bytes, prefix: str):
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
    x2, y2 = _at(f, arc_a, 0), _at(f, arc_a, -1)
    y1, x1 = _at(f, arc_b, 0), _at(f, arc_b, -1)
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


def _reconnect_pairings(n: int, f: _Faults, ctx: _Ctx, istar: int, arc_a: bytes, arc_b: bytes, label: str):
    """Try the four cross-arc stub pairings with direct connectors.

    Each pairing routes one connector between a B-stub and an A-stub and a
    second connector between the remaining two stubs, partitioning all
    remaining subgraphs between them.  Each pass orients arc B to end at
    its first-connector stub and arc A to start at its own, so the pairings
    run (x1, y2), (x1, x2), (y1, y2), (y1, x2) and every one is assembled
    as B + conn1 + A + conn2.
    """
    ends_b = _at(f, arc_b, 0), _at(f, arc_b, -1)
    ends_a = _at(f, arc_a, 0), _at(f, arc_a, -1)
    for b_forward in (True, False):
        other_b, p_stub = ends_b if b_forward else ends_b[::-1]
        for a_forward in (False, True):
            q_stub, other_a = ends_a if a_forward else ends_a[::-1]
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
            B = arc_b if b_forward else bp_graph.reverse_records(arc_b)
            A = arc_a if a_forward else bp_graph.reverse_records(arc_a)
            return B + c1v + A + cv, CaseTrace(
                label,
                {"pairing": [format_vertex(p_stub), format_vertex(q_stub)]},
                conn1_traces + [trc],
            )
    return None


def _reconnect_same_side(
    n: int, f: _Faults, ctx: _Ctx, istar: int, eq_arc: bytes, free_arc: bytes, label: str
):
    """Both stubs of one arc point into the same subgraph ``h``.

    Cover ``h`` by a path between the two stubs' out-neighbors, split it at
    an edge, leave the first piece through the split vertex whose
    out-neighbor reaches a free stub's subgraph, and re-enter the second
    piece from the outside chain.
    """
    e_hi, e_lo = prefix_reversal(_at(f, eq_arc, -1), n), prefix_reversal(_at(f, eq_arc, 0), n)
    h = e_hi[n - 1]
    ends = prefix_reversal(_at(f, free_arc, 0), n), prefix_reversal(_at(f, free_arc, -1), n)
    base = _subgraph(n, h, f, ctx, e_hi, e_lo)
    if base is None:
        return None
    ph, tr_ph = base
    # the free arc runs from the stub the middle piece reaches to the one the
    # chain leaves: forward, or reversed
    options = ((False, *ends), (True, *ends[::-1]))
    for pos, s, t in _steps(f, ph):
        ns, nt = _usable_stub(s, f), _usable_stub(t, f)
        if ns is None or nt is None:
            continue
        snt = nt[n - 1]
        if snt == istar:
            continue
        for reverse_free, mid_target, chain_start in options:
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
            free_dir = bp_graph.reverse_records(free_arc) if reverse_free else free_arc
            cut = (pos + 1) * _WIDTH
            full = eq_arc + ph[:cut] + mv + free_dir + bv + ph[cut:]
            return full, CaseTrace(
                label, {"h": h, "split": [format_vertex(s), format_vertex(t)]}, [tr_ph, tr_mid, trb]
            )
    return None


def _reconnect_double_split(n: int, f: _Faults, ctx: _Ctx, istar: int, arc_a: bytes, arc_b: bytes, label: str):
    """Stub out-subgraphs coincide side-by-side: h1 for arc B, h2 for arc A.

    Both subgraphs are covered by stub-to-stub paths: P1 closes a ring R1 with
    arc B, and P2 a ring R2 with arc A.  R1 is cut at an edge (s, t) of P1
    whose s leads into h2; R2 is opened at the P2 edge (ns, z), and a chain
    over the remaining subgraphs runs from z's out-neighbor back to t's.
    """
    nx1, ny1 = prefix_reversal(_at(f, arc_b, -1), n), prefix_reversal(_at(f, arc_b, 0), n)
    nx2, ny2 = prefix_reversal(_at(f, arc_a, 0), n), prefix_reversal(_at(f, arc_a, -1), n)
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
    R2 = P2 + bp_graph.reverse_records(arc_a)  # nx2 .. ny2, y2 .. x2
    off = len(arc_b) // _WIDTH  # where P1 starts on R1
    size2 = len(P2) // _WIDTH
    rest = [j for j in f.indices if j not in (istar, h1, h2)]
    for i1, x, y in _steps(f, P1):
        for s, t, ps, pt in ((x, y, i1, i1 + 1), (y, x, i1 + 1, i1)):
            ns, nt = _usable_stub(s, f), _usable_stub(t, f)
            if ns is None or nt is None:
                continue
            if ns[n - 1] != h2 or nt[n - 1] in (istar, h2):
                continue
            i2 = _pos(P2, ns)
            for iz in (i2 - 1, i2 + 1):
                if not 0 <= iz < size2:
                    continue
                nz = _usable_stub(_at(f, P2, iz), f)
                if nz is None or nz[n - 1] in (istar, h1):
                    continue
                if nz[n - 1] == nt[n - 1]:
                    raise InternalInvariantError("double-split chain endpoints coincide")
                got = _splice(n, rest, R1, off + ps, off + pt, lambda: _open_ring(R2, i2, iz), nz, nt, f, ctx)
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
    if f.weight == 0 and (len(f.suffix) >= 2 or (n == 4 and f.suffix)):
        return _free_path_memo(n, u, v, f, ctx)
    return _path_cases(n, u, v, f, ctx)


# The process's fault-free paths (``_free_path_memo``), their frames' bytes,
# the cap on those bytes and the lock that stores take.  Anything may empty
# the memo, so the count starts again at zero whenever a store finds the
# memo empty.
_path_memo: dict[tuple, tuple] = {}
_path_memo_bytes = 0
_PATH_MEMO_CAP = 32 << 20
_path_memo_store = allocate_lock()


def _free_path_memo(n: int, u: Vertex, v: Vertex, f: _Faults, ctx: _Ctx):
    """A fault-free path of level n through the process's memo
    ``_path_memo``: level 4 in any BP_dim with dim >= 5, or 5 <= n <= dim - 2.

    The key is (n, len(f.suffix), u, v) with u and v in the frame of the
    level's symbols in ascending order, the order-preserving relabel, and a
    miss stores its path in that frame (:func:`_frame_table`'s places hold
    the suffix), its trace as tuples (``_frozen``), the attempts it spent
    and the symbols it was built in.  A hit charges the same attempts,
    lifts the path with one translate and moves every symbol that the
    trace details name, subgraph indices and vertices alike, so it returns
    what a miss would: the relabel keeps every scan's order (module
    docstring).  A frame larger than ``_PATH_MEMO_CAP`` is not stored; any
    other miss whose frame would take the stored bytes past the cap empties
    the memo first.  Lookups take no lock: a dict's get and set are atomic,
    and two builds racing to store one key store equal entries.  A store
    takes ``_path_memo_store`` so that the byte count and the cap test see
    every store.
    """
    global _path_memo_bytes
    ref = [i for i in f.indices if i > 0]
    rank = {}
    for k, x in enumerate(ref, 1):
        rank[x], rank[-x] = k, -k
    key = (n, len(f.suffix), tuple(map(rank.__getitem__, u[:n])), tuple(map(rank.__getitem__, v[:n])))
    symbols = (*ref, *f.suffix)
    hit = _path_memo.get(key)
    if hit is None:
        before = ctx.attempts
        got = _path_cases(n, u, v, f, ctx)
        frame = trace = None
        if got is not None:
            lift = _frame_table(ref, f.suffix)
            drop = bytearray(256)
            for place, x in enumerate(lift):
                if x:
                    drop[x] = place
            frame = got[0].translate(drop)
            trace = _frozen(got[1])
        size = len(frame or b"")
        if size > _PATH_MEMO_CAP:
            return got
        with _path_memo_store:
            if not _path_memo or _path_memo_bytes + size > _PATH_MEMO_CAP:
                _path_memo.clear()
                _path_memo_bytes = 0
            _path_memo[key] = (frame, trace, ctx.attempts - before, symbols)
            _path_memo_bytes += size
        return got
    frame, trace, spent, built_in = hit
    for _ in range(spent):
        ctx.spend()
    if frame is None:
        return None
    moved = {}
    for a, b in zip(built_in, symbols):
        moved[a], moved[-a] = b, -b
    return frame.translate(_frame_table(ref, f.suffix)), _relabeled(trace, moved)


def _frozen(trace: CaseTrace) -> tuple:
    """``trace`` as the memo holds it: (label, detail items, children) in
    tuples, each detail list as a tuple.  Nothing done to a built trace
    reaches it, and it takes about half the memory of the nodes."""
    return (
        trace.label,
        tuple((key, tuple(value) if isinstance(value, list) else value) for key, value in trace.detail.items()),
        tuple(map(_frozen, trace.children)),
    )


def _relabeled(frozen: tuple, moved: dict[int, int]) -> CaseTrace:
    """The trace that ``frozen`` holds, with every symbol its details name
    moved: subgraph indices, and the symbols of vertices written by
    ``format_vertex``."""

    def move(value):
        if isinstance(value, tuple):
            return [move(x) for x in value]
        if isinstance(value, str):
            return format_vertex(moved[int(x)] for x in value.split(","))
        return moved[value]

    label, detail, children = frozen
    return CaseTrace(
        label,
        {key: move(value) for key, value in detail},
        [_relabeled(child, moved) for child in children],
    )


def _path_cases(n: int, u: Vertex, v: Vertex, f: _Faults, ctx: _Ctx):
    """The path case dispatch above BP_3, on the fault weights."""
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
    j1, j2 = u[n - 1], v[n - 1]
    scope = len({istar, j1, j2})

    if scope == 3:
        return _path_c2_outside_two(n, u, v, f, ctx, istar, C1, tr1)
    if scope == 2:
        if istar in (j1, j2):
            return _path_c2_endpoint_inside(n, u, v, f, ctx, istar, C1, tr1)
        if j1 == -istar:
            return _path_c2_complement_pair(n, u, v, f, ctx, istar, C1, tr1)
        return _path_c2_outside_pair(n, u, v, f, ctx, istar, C1, tr1)
    return _path_c2_inside_pair(n, u, v, f, ctx, istar, C1, tr1)


def _path_c2_outside_two(n, u, v, f, ctx, istar, C1, tr1):
    """Endpoints in two distinct subgraphs, both outside the heavy one."""
    options = []
    if u[n - 1] != -istar:
        options.append((u, v, False))
    if v[n - 1] != -istar:
        options.append((v, u, True))
    for e_x, e_y, swapped in options:
        jx = e_x[n - 1]
        rest = [j for j in f.indices if j not in (istar, jx)]
        for s, ns in _cross_candidates(n, istar, jx, f):
            if ns == e_x:
                continue
            ps = _pos(C1, s)
            for s1, ps1 in _ring_neighbors(f, C1, ps):
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
                full = fv + _open_ring(C1, ps, ps1) + bv
                if swapped:
                    full = bp_graph.reverse_records(full)
                return full, CaseTrace("L19/2.1", {"i1": istar}, [tr1, trf, trb])
    return None


def _path_c2_endpoint_inside(n, u, v, f, ctx, istar, C1, tr1):
    """One endpoint inside the heavy subgraph, the other outside."""
    e_in, e_out, swapped = (u, v, False) if u[n - 1] == istar else (v, u, True)
    rest = [j for j in f.indices if j != istar]
    pe = _pos(C1, e_in)
    for u1, pu1 in _ring_neighbors(f, C1, pe):
        nu1 = _usable_stub(u1, f)
        if nu1 is None or nu1 == e_out:
            continue
        bridge = _connector(n, rest, nu1, e_out, f, ctx)
        if bridge is None:
            ctx.spend()
            continue
        bv, trb = bridge
        full = _open_ring(C1, pe, pu1) + bv
        if swapped:
            full = bp_graph.reverse_records(full)
        return full, CaseTrace("L19/2.2", {"shape": "endpoint-inside"}, [tr1, trb])
    return None


def _path_c2_outside_pair(n, u, v, f, ctx, istar, C1, tr1):
    """Both endpoints in one subgraph j (not the complement of the heavy one):
    cover j endpoint-to-endpoint, then splice the heavy cycle and the rest
    into an edge of that path whose one side crosses into the heavy subgraph."""
    j = u[n - 1]
    base = _subgraph(n, j, f, ctx, u, v)
    if base is None:
        return None
    P, trp = base
    rest = [q for q in f.indices if q not in (istar, j)]
    for i, x, y in _steps(f, P):
        for s, t, ps, pt in ((x, y, i, i + 1), (y, x, i + 1, i)):
            if -s[0] != istar:
                continue
            ns = _usable_stub(s, f)
            if ns is None:
                continue
            pns = bp_graph.record_index(C1, _record(ns))
            if pns < 0:
                continue
            nt = _usable_stub(t, f)
            if nt is None or nt[n - 1] == istar:
                continue
            for z, pz in _ring_neighbors(f, C1, pns):
                nz = _usable_stub(z, f)
                if nz is None or nz[n - 1] == j:
                    continue
                if nz[n - 1] == nt[n - 1]:
                    raise InternalInvariantError("outside-pair chain endpoints coincide")
                got = _splice(n, rest, P, ps, pt, lambda: _open_ring(C1, pns, pz), nz, nt, f, ctx)
                if got is None:
                    ctx.spend()
                    continue
                full, trb = got
                return full, CaseTrace("L19/2.2", {"shape": "outside-pair", "j": j}, [tr1, trp, trb])
    return None


def _path_c2_complement_pair(n, u, v, f, ctx, istar, C1, tr1):
    """Both endpoints in the complement of the heavy subgraph.  No edges join
    the two, so the splice hands off through a shared intermediate subgraph."""
    base = _subgraph(n, -istar, f, ctx, u, v)
    if base is None:
        return None
    P, trp = base
    ring = bp_graph.unpack(f.dim, C1)  # every ring edge is read for each edge of P
    size = len(ring)
    mids = {}  # the g-path from ns to nz, asked for once per (ns, nz)
    for i, x, y in _steps(f, P):
        for s, t, ps, pt in ((x, y, i, i + 1), (y, x, i + 1, i)):
            ns = _usable_stub(s, f)
            if ns is None:
                continue
            g = ns[n - 1]
            if g == istar:
                continue
            nt = _usable_stub(t, f)
            if nt is None or nt[n - 1] in (istar, g):
                continue
            rest = [q for q in f.indices if q not in (istar, -istar, g)]
            for p0, z0 in enumerate(ring):
                p1 = (p0 + 1) % size
                for z, w, pz, pw in ((z0, ring[p1], p0, p1), (ring[p1], z0, p1, p0)):
                    nz = _usable_stub(z, f)
                    if nz is None or nz[n - 1] != g or nz == ns:
                        continue
                    nw = _usable_stub(w, f)
                    if nw is None or nw[n - 1] in (g, nt[n - 1]):
                        continue
                    if (ns, nz) not in mids:
                        mids[ns, nz] = _subgraph(n, g, f, ctx, ns, nz)
                    mid = mids[ns, nz]
                    got = mid and _splice(
                        n, rest, P, ps, pt, lambda: mid[0] + _open_ring(C1, pz, pw), nw, nt, f, ctx
                    )
                    if got is None:
                        ctx.spend()
                        continue
                    full, trb = got
                    return full, CaseTrace(
                        "L19/2.2", {"shape": "complement-pair", "g": g}, [tr1, trp, mid[1], trb]
                    )
    return None


def _path_c2_inside_pair(n, u, v, f, ctx, istar, C1, tr1):
    """Both endpoints inside the heavy subgraph."""
    rest = [q for q in f.indices if q != istar]
    pu = _pos(C1, u)
    at_v = [q for w, q in _ring_neighbors(f, C1, pu) if w == v]
    if at_v:
        Q = _open_ring(C1, pu, at_v[0])
        for i, s, t in _steps(f, Q):
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
            cut = (i + 1) * _WIDTH
            return Q[:cut] + bv + Q[cut:], CaseTrace("L19/2.3.1", {}, [tr1, trb])
        return None
    # endpoints non-adjacent on the cycle: walk one arc between them, cross
    # to the outside and come back along the other
    R = _ring_from(C1, pu)
    k = (_pos(C1, v) - pu) % (len(C1) // _WIDTH)
    arc_p = R[_WIDTH : k * _WIDTH]  # forward arc strictly between u and v
    arc_q = bp_graph.reverse_records(R[(k + 1) * _WIDTH :])  # backward arc strictly between u and v
    for first, second in ((arc_q, arc_p), (arc_p, arc_q)):
        nv1, nu1 = _usable_stub(_at(f, first, -1), f), _usable_stub(_at(f, second, 0), f)
        if nu1 is None or nv1 is None:
            continue
        bridge = _connector(n, rest, nv1, nu1, f, ctx)
        if bridge is None:
            ctx.spend()
            continue
        bv, trb = bridge
        return _record(u) + first + bv + second + _record(v), CaseTrace("L19/2.3.2", {}, [tr1, trb])
    return None


# ---------------------------------------------------------------------------
# output checking and public wrappers


def _check_output(n: int, f: _Faults, packed: bytes, closed: bool, u=None, v=None) -> None:
    """Cheap structural self-check of a packed sequence; violations are
    internal bugs.

    Whole-sequence passes on the bytes decide whether any step is bad: the
    count, distinctness from a set over the 8-byte records, no removed
    vertex, the column walk and where the faulty edges' ends sit.  Only
    then is the sequence decoded for the step-by-step loop, to raise the
    error of the first bad step.
    """
    width = bp_graph.PACKED_WIDTH
    count = len(packed) // width
    expected = bp_graph.vertex_count(n) - len(f.removed)
    if count != expected:
        raise InternalInvariantError(f"built {count} vertices, expected {expected}")
    if closed and count < 8:  # the girth bounds any cycle below
        raise InternalInvariantError("cycles must have at least eight vertices")
    records = set(memoryview(packed).cast("q"))
    if len(records) != count:
        raise InternalInvariantError("repeated vertex in construction")
    if (
        not records.isdisjoint(memoryview(bp_graph.pack(n, f.removed)).cast("q"))
        or not bp_graph.is_packed_walk(n, packed, closed)
        or any(bp_graph.packed_edge_used(packed, _record(a), _record(b), closed) for a, b in f.edges)
    ):
        vertices = bp_graph.unpack(n, packed)
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
    if not closed and packed[:width] + packed[-width:] != bp_graph.pack(n, (u, v)):
        raise InternalInvariantError("wrong path endpoints")


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
        raise ctx.failure("scan exhausted")
    packed, tr = got
    _check_output(n, f, packed, closed=True)
    return VertexCycle(n, packed, _finish(tr, n))


def hamiltonian_path(n: int, u, v, fault_set: FaultSet) -> VertexPath:
    """Hamiltonian path between u and v in BP_n minus the fault set, |F| <= n-3."""
    f, u, v = _public_input(n, fault_set, n - 3, u, v)
    ctx = _Ctx()
    got = _path(n, u, v, f, ctx)
    if got is None:
        raise ctx.failure("scan exhausted")
    packed, tr = got
    _check_output(n, f, packed, closed=False, u=u, v=v)
    return VertexPath(n, packed, _finish(tr, n))
