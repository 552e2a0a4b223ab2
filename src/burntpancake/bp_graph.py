"""Burnt pancake graph structure.

The graph is never materialized: neighbors are computed on demand from the
signed-permutation algebra.  Vertices with the same last symbol ``i`` form
the subgraph ``BP_n^i``, which is isomorphic to ``BP_{n-1}``; the vertices
with one suffix of length n-k form a copy of ``BP_k``.  Reading a vertex
of the copy by the signed positions of its first k symbols in a reference
vertex r of the copy is an isomorphism onto ``BP_k`` that sends r to the
identity.  With r the copy's symbols in ascending order, it is the relabel
that is strictly increasing on signed symbols, so it keeps lexicographic
order and commutes with the prefix reversals of length up to k; other
choices of r add a left translation.  The constructor builds in BP_n
coordinates at every level (:func:`iter_cross_edges` takes the suffix)
and reads its BP_3 leaf in such a frame.  :func:`frame_tables` gives the
ascending relabel as signed tables, :func:`lift_all` applies one table to
a whole list, and :func:`subgraph_lift` / :func:`subgraph_embed` are the
one-level forms; tests compare the leaf with them.

Adjacency is tested in two ways.  :func:`is_adjacent` tests one step: if
``v`` is the k-th prefix reversal of ``u``, the last position where the two
differ is k (the symbol arriving there is ``-u[0]``, which differs from what
was there), so one comparison of the first k symbols decides.  It is the
reference, and it names the bad step when a check fails.  The column test
answers the same question for every step of a whole sequence at once: it
compares columns of a packed sequence as big integers, with no Python call
per step.  :func:`is_packed_walk` runs it on a packed sequence as it lies,
for the constructor's self-check and the oracle; both decide on the bytes
and use tuples only to name what is wrong.

The packed form of a vertex of BP_n, n <= :data:`PACKED_WIDTH`, is
``PACKED_WIDTH`` signed bytes: its n symbols, then zero padding.  A packed
sequence is its vertices' records one after another (:func:`pack`,
:func:`unpack`); with zero padding, equal vertices have equal records, so
the records can serve as 8-byte keys, found with :func:`record_index`.
The constructor assembles its cycles and paths in this form, so the
record helpers here (:func:`iter_unpack`, :func:`unpack_at`,
:func:`reverse_records`, :func:`packed_edge_used`) serve both it and the
oracle.
Cross edges between two subgraphs are produced lazily by
:func:`iter_cross_edges`, already in lexicographic order, so a caller that
wants only the first usable edge builds no more than it reads.
"""

from __future__ import annotations

import struct
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from itertools import starmap
from math import factorial
from operator import neg

from .signed_perm import Vertex, check_vertex, prefix_reversal

# An edge is an unordered vertex pair, canonically stored sorted.
Edge = tuple[Vertex, Vertex]

DISTANCE_LIMIT = 6


class CapabilityError(Exception):
    """Raised when an operation exceeds its supported instance size."""


def neighbors(u: Vertex) -> list[Vertex]:
    """The n prefix-reversal neighbors of ``u``."""
    return [prefix_reversal(u, k) for k in range(1, len(u) + 1)]


def last_symbol(u: Vertex) -> int:
    return u[-1]


def out_neighbor(u: Vertex) -> Vertex:
    """The n-neighbor of ``u``; the unique neighbor outside u's subgraph."""
    return prefix_reversal(u, len(u))


def edge_key(u: Vertex, v: Vertex) -> Edge:
    return (u, v) if u <= v else (v, u)


def _dimension(u: Vertex, v: Vertex) -> int:
    """The k with ``v == prefix_reversal(u, k)``, or 0 when there is none.

    Only one k can work: one past the last position where u and v differ.
    """
    k = len(u)
    if len(v) != k:
        return 0
    while k and u[k - 1] == v[k - 1]:
        k -= 1
    if k and v[:k] == tuple(map(neg, u[k - 1 :: -1])):
        return k
    return 0


def edge_dimension(u: Vertex, v: Vertex) -> int:
    """The k with ``v == prefix_reversal(u, k)``; ValueError if not adjacent."""
    k = _dimension(u, v)
    if not k:
        raise ValueError(f"not adjacent: {u!r}, {v!r}")
    return k


def is_adjacent(u: Vertex, v: Vertex) -> bool:
    return _dimension(u, v) != 0


# Bytes a vertex in the packed form; an n=8 vertex has no padding.
PACKED_WIDTH = 8
# The largest n that the builders and the commands accept; an n=8 vertex
# fills a packed record.
SOFT_DIMENSION_LIMIT = 8
# Steps per block of the column test; a block packs 32 776 bytes.
_WALK_BLOCK = 1 << 12
# Byte of -x for the byte of x, in two's complement (exact except for -128).
_NEGATE = bytes([0, *range(255, 0, -1)])


_RECORDS: dict[int, struct.Struct] = {}


def _record(n: int) -> struct.Struct:
    rec = _RECORDS.get(n)
    if rec is None:
        rec = _RECORDS[n] = struct.Struct(f"{n}b{PACKED_WIDTH - n}x")
    return rec


def pack(n: int, vertices: Iterable[Vertex]) -> bytes:
    """``vertices`` as a packed sequence; ``struct.error`` unless each is n
    integers in -128..127, and n <= :data:`PACKED_WIDTH`."""
    return b"".join(starmap(_record(n).pack, vertices))


def _records(n: int, packed: bytes) -> int:
    """The number of vertices in a packed sequence of BP_n; ValueError when
    n is not in 0..:data:`PACKED_WIDTH` or the length is not a whole number
    of records."""
    if not 0 <= n <= PACKED_WIDTH or len(packed) % PACKED_WIDTH:
        raise ValueError(f"not a packed sequence of BP_{n}: {len(packed)} bytes")
    return len(packed) // PACKED_WIDTH


def unpack(n: int, packed: bytes) -> list[Vertex]:
    """The vertices of a packed sequence of BP_n, as tuples (ValueError as
    for :func:`_records`)."""
    _records(n, packed)
    return list(_record(n).iter_unpack(packed))


def iter_unpack(n: int, packed: bytes) -> Iterator[Vertex]:
    """The vertices of a packed sequence of BP_n, decoded as they are read."""
    return _record(n).iter_unpack(packed)


def unpack_at(n: int, packed: bytes, p: int) -> Vertex:
    """Vertex ``p`` of a packed sequence of BP_n; a negative p counts from
    the end."""
    if p < 0:
        p += len(packed) // PACKED_WIDTH
    return _record(n).unpack_from(packed, p * PACKED_WIDTH)


def record_index(packed: bytes, key: bytes) -> int:
    """The index of the first record of ``packed`` equal to ``key``, or -1."""
    pos = packed.find(key)
    while pos > 0 and pos % PACKED_WIDTH:
        pos = packed.find(key, pos + 1)
    return pos // PACKED_WIDTH if pos >= 0 else -1


def reverse_records(packed: bytes) -> bytes:
    """The packed sequence read backwards, record by record."""
    return memoryview(packed).cast("q")[::-1].tobytes()


def packed_edge_used(packed: bytes, a: bytes, b: bytes, closed: bool) -> bool:
    """Whether a step of a packed sequence runs between the records a and
    b, the last record stepping to the first when ``closed``.  Only the
    first record equal to ``a`` is looked at, so the sequence must not
    repeat a vertex."""
    pos = record_index(packed, a)
    if pos < 0:
        return False
    size = len(packed) // PACKED_WIDTH
    for other in (pos - 1, pos + 1):
        at = other % size * PACKED_WIDTH
        if (0 <= other < size or closed) and packed[at : at + PACKED_WIDTH] == b:
            return True
    return False


def is_packed_walk(n: int, packed: bytes, closed: bool) -> bool:
    """Whether every step of a packed sequence of BP_n joins adjacent
    vertices: exactly ``all(map(is_adjacent, vertices, successors))`` on
    ``vertices = unpack(n, packed)``, where the successors are
    ``vertices[1:]``, followed by ``vertices[0]`` when ``closed``.

    When the first vertex is a signed permutation of 1..n, the column test
    (:func:`_prefix_reversal_steps`) runs on the records as they lie, a
    block of :data:`_WALK_BLOCK` steps at a time, blocks overlapping by one
    vertex, and the answer is whether each step is an exact prefix
    reversal: some k with ``v[j] == -u[k-1-j]`` for j < k and
    ``v[j] == u[j]`` for j >= k.  Otherwise the decoded steps go through
    :func:`is_adjacent` one by one.

    Why the answers agree.  Every step the column test accepts is an exact
    prefix reversal of its first vertex, and a prefix reversal of a signed
    permutation of 1..n is one too; so, from the valid first vertex, every
    vertex up to the first rejected step is valid, and byte negation, exact
    on valid symbols (not on -128), was exact wherever it decided.  For a
    valid ``u``, ``_dimension(u, v)`` is nonzero exactly when v is some
    prefix reversal of u (the module docstring's argument), so every
    accepted step is accepted by :func:`is_adjacent`, and the first
    rejected one is rejected by it.  The first-vertex guard is needed:
    ``(1, -1, 3)`` is its own 2-prefix reversal, a step that the column
    test accepts and :func:`is_adjacent` rejects.  A record's bytes are
    its symbols, so the decoded tuples are what the column test read.
    """
    size = _records(n, packed)
    if not size or sorted(map(abs, struct.unpack_from(f"{n}b", packed))) != list(range(1, n + 1)):
        vertices = unpack(n, packed)
        return all(map(is_adjacent, vertices, vertices[1:] + vertices[:1] if closed else vertices[1:]))
    steps = size if closed else size - 1
    span = _WALK_BLOCK * PACKED_WIDTH
    for start in range(0, steps * PACKED_WIDTH, span):
        block = packed[start : start + span + PACKED_WIDTH]
        if closed and start + span >= len(packed):
            block += packed[:PACKED_WIDTH]
        if not _prefix_reversal_steps(n, block):
            return False
    return True


def _prefix_reversal_steps(n: int, flat: bytes) -> bool:
    """Whether each step of ``flat``, a packed sequence of at least two
    vertices, is a prefix reversal of its first vertex.

    Column j of the block, ``flat[j::PACKED_WIDTH]``, read as one big-endian
    integer, holds symbol j of every vertex, one byte each; less its last
    byte it is the steps' first vertices (``u[j]``), less its first byte
    their second (``v[j]``).  A byte of ``v[j] ^ u[j]`` is zero where the
    two agree, so the k-th prefix reversal's mismatch is the OR of
    ``v[j] ^ -u[k-1-j]`` over j < k and ``v[j] ^ u[j]`` over j >= k.  Each
    mismatch is cut to the top bit of each nonzero byte, and a step passes
    when some k leaves its byte zero: when the AND over k is zero there.
    """
    width = len(flat) // PACKED_WIDTH - 1
    last = (1 << 8 * width) - 1
    high = int.from_bytes(b"\x80" * width, "big")
    low = high - (high >> 7)  # 0x7f in every byte
    u, v, neg_u = [], [], []
    for j in range(n):
        column = flat[j::PACKED_WIDTH]
        whole = int.from_bytes(column, "big")
        u.append(whole >> 8)
        v.append(whole & last)
        neg_u.append(int.from_bytes(column.translate(_NEGATE), "big") >> 8)
    failing = high
    suffix = 0  # where some v[j] != u[j], j >= k
    for k in range(n, 0, -1):
        mismatch = suffix
        for j in range(k):
            mismatch |= v[j] ^ neg_u[k - 1 - j]
        failing &= ((mismatch & low) + low | mismatch) & high
        suffix |= v[k - 1] ^ u[k - 1]
    return not failing


def subgraph_indices(n: int) -> list[int]:
    """Canonical enumeration order of subgraph indices: 1, -1, 2, -2, ..."""
    out = []
    for a in range(1, n + 1):
        out.append(a)
        out.append(-a)
    return out


def index_sort_key(i: int) -> tuple[int, int]:
    """Sort key realizing the canonical subgraph index order."""
    return (abs(i), 0 if i > 0 else 1)


def vertex_count(n: int) -> int:
    return 2**n * factorial(n)


def edge_count(n: int) -> int:
    return n * factorial(n) * 2 ** (n - 1)


def cross_edge_count(n: int) -> int:
    """Edges between two non-complementary distinct subgraphs."""
    return factorial(n - 2) * 2 ** (n - 2)


def _signed_perms(symbols: list[int]) -> Iterator[Vertex]:
    """Signed permutations of the sorted positive ``symbols``, in lexicographic order."""
    if not symbols:
        yield ()
        return
    for head in [-x for x in reversed(symbols)] + symbols:
        rest = [x for x in symbols if x != abs(head)]
        for tail in _signed_perms(rest):
            yield (head,) + tail


def iter_cross_edges(n: int, i: int, j: int, suffix: Vertex = ()) -> Iterator[Edge]:
    """All edges between subgraphs i and j, as (i-side, j-side) pairs.

    The i-side endpoint is ``(-j, middle..., i)``, so lexicographic order
    of the endpoints is that of the middles, which are generated in order.
    With a ``suffix``, BP_n is the subgraph of BP_{n+len(suffix)} whose
    vertices end in it: every endpoint ends in the suffix too, and the
    middles run over the symbols the suffix leaves.
    Empty when j == -i; a ValueError, raised at the call, when i == j.
    """
    fixed = {abs(x) for x in suffix}
    for x in (i, j):
        if x == 0 or abs(x) > n + len(suffix) or abs(x) in fixed:
            raise ValueError(f"subgraph index {x} out of range for n={n}")
    if i == j:
        raise ValueError(f"cross edges need distinct subgraphs, got {i} twice")
    if i == -j:
        return iter(())
    rest = [x for x in range(1, n + len(suffix) + 1) if x not in (abs(i), abs(j)) and x not in fixed]
    sides = ((-j,) + middle + (i,) + suffix for middle in _signed_perms(rest))
    return ((u, prefix_reversal(u, n)) for u in sides)


def cross_edges(n: int, i: int, j: int) -> list[Edge]:
    """:func:`iter_cross_edges` as a list."""
    return list(iter_cross_edges(n, i, j))


def distance(u: Vertex, v: Vertex) -> int:
    """Shortest-path distance via breadth-first search (n <= 6 only)."""
    u = check_vertex(u)
    v = check_vertex(v, len(u))
    n = len(u)
    if n > DISTANCE_LIMIT:
        raise CapabilityError(f"distance supports n <= {DISTANCE_LIMIT}, got {n}")
    if u == v:
        return 0
    seen = {u: 0}
    queue = deque([u])
    while queue:
        cur = queue.popleft()
        d = seen[cur] + 1
        for w in neighbors(cur):
            if w == v:
                return d
            if w not in seen:
                seen[w] = d
                queue.append(w)
    raise RuntimeError("graph is connected; unreachable")  # pragma: no cover


def bfs_ball(u: Vertex, radius: int) -> dict[Vertex, int]:
    """All vertices within ``radius`` of ``u``, mapped to their distance."""
    seen = {u: 0}
    queue = deque([u])
    while queue:
        cur = queue.popleft()
        d = seen[cur]
        if d == radius:
            continue
        for w in neighbors(cur):
            if w not in seen:
                seen[w] = d + 1
                queue.append(w)
    return seen


def frame_tables(n: int, suffix: Vertex) -> tuple[list[int], list[int]]:
    """(lift, rank): the relabel tables between BP_k, k = n - len(suffix),
    and the subgraph of BP_n whose vertices end in ``suffix``.  ``lift[x]``
    is the BP_n symbol for BP_k symbol x, ``rank[y]`` the BP_k symbol for
    BP_n symbol y (0 for the suffix's own); negative indices count from the end."""
    fixed = {abs(x) for x in suffix}
    rest = [a for a in range(1, n + 1) if a not in fixed]
    if len(rest) != n - len(suffix):  # a repeated or out-of-range symbol
        raise ValueError(f"suffix {suffix!r} does not fit n={n}")
    rank = [0] * (2 * n + 1)
    for r, a in enumerate(rest, start=1):
        rank[a], rank[-a] = r, -r
    return [0, *rest, *(-a for a in reversed(rest))], rank


def subgraph_embed(u: Vertex) -> Vertex:
    """Map ``u`` in ``BP_n^i`` to the corresponding vertex of ``BP_{n-1}``.

    Drops the last symbol and relabels each remaining absolute value to its
    rank within {1..n} minus |i|, preserving signs.  Prefix reversals with
    k < n commute with this relabeling, so it is a subgraph isomorphism.
    """
    return tuple(map(frame_tables(len(u), u[-1:])[1].__getitem__, u[:-1]))


def lift_all(suffix: Vertex, vertices: Sequence[Vertex]) -> list[Vertex]:
    """Each of ``vertices``, all of one ``BP_k``, as the vertex of
    ``BP_{k+len(suffix)}`` that ends in ``suffix`` and stands for it, through
    one lift table: the composition of the levels' relabels."""
    if not vertices:
        return []
    look = frame_tables(len(vertices[0]) + len(suffix), suffix)[0].__getitem__
    return [tuple(map(look, v)) + suffix for v in vertices]


def subgraph_lift(i: int, v: Vertex) -> Vertex:
    """Inverse of :func:`subgraph_embed` into subgraph ``i`` of ``BP_{len(v)+1}``."""
    return lift_all((i,), [v])[0]
