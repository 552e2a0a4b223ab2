import itertools
import random
from collections import deque

import pytest

from burntpancake import bp_graph
from burntpancake.bp_graph import (
    CapabilityError,
    bfs_ball,
    cross_edge_count,
    cross_edges,
    distance,
    edge_count,
    edge_dimension,
    frame_tables,
    is_adjacent,
    is_packed_walk,
    iter_cross_edges,
    last_symbol,
    lift_all,
    neighbors,
    out_neighbor,
    subgraph_embed,
    subgraph_indices,
    subgraph_lift,
    vertex_count,
)
from burntpancake.signed_perm import all_vertices, identity, prefix_reversal


def test_neighbors_of_identity():
    assert set(neighbors((1, 2, 3))) == {(-1, 2, 3), (-2, -1, 3), (-3, -2, -1)}


def test_regular_degree():
    for u in ((1, 2, 3), (-3, 1, -2), (2, -4, 1, 3)):
        ns = neighbors(u)
        assert len(ns) == len(set(ns)) == len(u)
        assert u not in ns


def test_last_symbol():
    assert last_symbol((-1, 3, -2)) == -2
    assert last_symbol(identity(5)) == 5
    u = (2, -4, 1, 3)
    for k in range(1, 4):
        assert last_symbol(prefix_reversal(u, k)) == last_symbol(u)


def test_out_neighbor():
    s = (-1, 3, -2)
    assert out_neighbor(s) == (2, -3, 1)
    for u in ((1, 2, 3), (-3, 1, -2), (2, -4, 1, 3)):
        assert out_neighbor(out_neighbor(u)) == u
        assert last_symbol(out_neighbor(u)) == -u[0]


def test_vertex_and_edge_counts_enumerated():
    for n in range(1, 6):
        verts = all_vertices(n)
        assert len(verts) == vertex_count(n)
        seen = set()
        for v in verts:
            for w in neighbors(v):
                seen.add(bp_graph.edge_key(v, w))
        assert len(seen) == edge_count(n)


def test_cross_edges_example_n3():
    edges = cross_edges(3, 1, 3)
    assert edges == [
        ((-3, -2, 1), (-1, 2, 3)),
        ((-3, 2, 1), (-1, -2, 3)),
    ]
    assert len(edges) == cross_edge_count(3) == 2


def test_cross_edges_complementary_empty():
    assert cross_edges(3, 1, -1) == []
    assert cross_edges(4, -2, 2) == []


def test_cross_edges_same_subgraph_rejected():
    with pytest.raises(ValueError):
        cross_edges(3, 1, 1)


def test_cross_edges_counts():
    assert len(cross_edges(4, 1, 2)) == 8
    for n in (3, 4, 5):
        want = cross_edge_count(n)
        for i in subgraph_indices(n):
            for j in subgraph_indices(n):
                if i == j:
                    continue
                got = len(cross_edges(n, i, j))
                assert got == (0 if i == -j else want), (n, i, j)


def test_cross_edges_equal_sorted_enumeration():
    # every edge between subgraphs i and j, found from the full vertex set
    for n in (3, 4, 5):
        by_pair = {}
        for u in all_vertices(n):
            w = out_neighbor(u)
            by_pair.setdefault((last_symbol(u), last_symbol(w)), []).append((u, w))
        for i in subgraph_indices(n):
            for j in subgraph_indices(n):
                if i != j:
                    assert cross_edges(n, i, j) == sorted(by_pair.get((i, j), [])), (n, i, j)


def test_cross_edges_endpoints_live_in_right_subgraphs():
    for u, v in cross_edges(4, -2, 3):
        assert last_symbol(u) == -2
        assert last_symbol(v) == 3
        assert out_neighbor(u) == v


def test_distance():
    assert distance((1, 2, 3), (1, 2, 3)) == 0
    u = (2, -3, 1)
    for k in range(1, 4):
        assert distance(u, prefix_reversal(u, k)) == 1
    assert distance((1, 2, 3), (3, 2, 1)) == 5


def test_distance_capability_limit():
    with pytest.raises(CapabilityError):
        distance(identity(7), identity(7))


def test_out_neighbors_within_distance_two_land_apart():
    # any two vertices at distance <= 2 have out-neighbors in different
    # subgraphs (n = 3 here; the n = 4 sweep lives in the acceptance suite)
    for u in all_vertices(3):
        for v, d in bfs_ball(u, 2).items():
            if v == u:
                continue
            assert last_symbol(out_neighbor(u)) != last_symbol(out_neighbor(v))


def test_out_neighbors_of_splice_pattern_land_apart():
    # the separation the constructions actually rely on at distance 3: an
    # in-subgraph neighbor of x versus an in-subgraph neighbor of x's
    # out-neighbor always exit into different subgraphs
    for x in all_vertices(3):
        nx = out_neighbor(x)
        for k1 in range(1, 3):
            t = prefix_reversal(x, k1)
            for k2 in range(1, 3):
                z = prefix_reversal(nx, k2)
                assert last_symbol(out_neighbor(t)) != last_symbol(out_neighbor(z))


def test_distance_three_separation_has_exceptions():
    # the blanket claim at distance exactly 3 is false: vertices in
    # different subgraphs can share an out-neighbor subgraph
    u, v = (-3, -2, -1), (-3, -2, 1)
    assert last_symbol(u) != last_symbol(v)
    assert distance(u, v) == 3
    assert last_symbol(out_neighbor(u)) == last_symbol(out_neighbor(v))


def test_connected_n_up_to_5():
    for n in (2, 3, 4, 5):
        assert len(bfs_ball(identity(n), 10**9)) == vertex_count(n)


def test_not_bipartite_n3():
    # attempt a 2-coloring; some edge must join equal colors
    color = {identity(3): 0}
    queue = [identity(3)]
    conflict = False
    while queue:
        u = queue.pop()
        for w in neighbors(u):
            if w not in color:
                color[w] = 1 - color[u]
                queue.append(w)
            elif color[w] == color[u]:
                conflict = True
    assert conflict


def _girth(n: int) -> int:
    """Shortest cycle length: BFS from every vertex, closing each non-tree edge."""
    best = None
    for root in all_vertices(n):
        dist, parent = {root: 0}, {root: None}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in neighbors(x):
                if y not in dist:
                    dist[y], parent[y] = dist[x] + 1, x
                    queue.append(y)
                elif y != parent[x]:
                    length = dist[x] + dist[y] + 1
                    best = length if best is None else min(best, length)
    return best


def test_girth_is_eight():
    # no cycle shorter than 8: the constructor relies on this for its
    # splice arcs and for _check_output's length bound
    assert _girth(3) == 8
    assert _girth(4) == 8


def test_subgraph_embed_lift_round_trip():
    for n in (3, 4):
        for u in all_vertices(n):
            i = last_symbol(u)
            v = subgraph_embed(u)
            assert len(v) == n - 1
            assert subgraph_lift(i, v) == u


def test_lift_all_matches_per_vertex_lift():
    for n in (3, 4):
        below = all_vertices(n - 1)
        for i in subgraph_indices(n):
            lifted = lift_all((i,), below)
            assert lifted == [subgraph_lift(i, v) for v in below]
            assert sorted(lifted) == [u for u in all_vertices(n) if last_symbol(u) == i]
            assert [subgraph_embed(u) for u in lifted] == below
    assert lift_all((2,), []) == []


def test_iter_cross_edges_with_suffix_lift_local_edges():
    # a subgraph of BP_5 one or two levels down (its vertices share one
    # suffix) has BP_4's or BP_3's cross edges, relabelled, in the same order
    for length in (1, 2):
        m = 5 - length
        for suffix in sorted({u[m:] for u in all_vertices(5)}):
            lift = frame_tables(5, suffix)[0]
            for i in subgraph_indices(m):
                for j in subgraph_indices(m):
                    if i != j:
                        want = [tuple(lift_all(suffix, e)) for e in iter_cross_edges(m, i, j)]
                        assert list(iter_cross_edges(m, lift[i], lift[j], suffix)) == want
    with pytest.raises(ValueError):
        iter_cross_edges(3, 2, 1, (2, 5))


@pytest.mark.parametrize("suffix", [(9,), (4, 4), (4, -4), (0,), (-6,)])
def test_iter_cross_edges_rejects_a_suffix_that_does_not_fit(suffix):
    # the suffix symbols must be nonzero, distinct in absolute value and
    # within 1..n+len(suffix); the error comes at the call, before any edge
    with pytest.raises(ValueError, match="suffix"):
        iter_cross_edges(3, 1, 2, suffix)


def _defined_signed_perms(symbols):
    """The signed permutations of the ascending positive ``symbols`` in
    lexicographic order, by their recursive definition: each head from
    -max up to max, then the rest."""
    if not symbols:
        yield ()
        return
    for head in [-x for x in reversed(symbols)] + symbols:
        for tail in _defined_signed_perms([x for x in symbols if x != abs(head)]):
            yield (head,) + tail


def _defined_cross_edges(n, i, j, suffix):
    if i == -j:
        return
    fixed = {abs(i), abs(j), *map(abs, suffix)}
    for middle in _defined_signed_perms([x for x in range(1, n + len(suffix) + 1) if x not in fixed]):
        u = (-j, *middle, i, *suffix)
        yield u, prefix_reversal(u, n)


def test_cross_edge_order_is_the_definition_up_to_dimension_6():
    # every level of every dimension up to 6 takes its middles from the
    # tables (m = n - 2 <= 4): each suffix, each i != j
    compared = 0
    for dim in range(2, 7):
        for n in range(2, dim + 1):
            for suffix in sorted({u[n:] for u in all_vertices(dim)}):
                leaves = [i for i in subgraph_indices(dim) if abs(i) not in map(abs, suffix)]
                for i in leaves:
                    for j in leaves:
                        if i != j:
                            want = list(_defined_cross_edges(n, i, j, suffix))
                            assert list(iter_cross_edges(n, i, j, suffix)) == want, (n, i, j, suffix)
                            compared += len(want)
    assert compared > 200_000


@pytest.mark.parametrize(
    "n, i, j, suffix", [(7, 1, 2, ()), (7, -7, 3, ()), (8, 8, -1, ()), (8, -2, 5, ()), (7, 2, -8, (4,))]
)
def test_cross_edge_order_is_the_definition_above_the_tables(n, i, j, suffix):
    # m = n - 2 >= 5 enumerates the middles without a table
    got = list(itertools.islice(iter_cross_edges(n, i, j, suffix), 400))
    assert got == list(itertools.islice(_defined_cross_edges(n, i, j, suffix), 400))
    assert len(got) == 400


def test_subgraph_embed_examples():
    assert subgraph_embed((1, 2, 3)) == (1, 2)
    assert subgraph_embed((3, -4, 1, -2)) == (2, -3, 1)


def test_subgraph_embed_preserves_adjacency_exhaustive():
    # the 8-vertex subgraph of BP_3 with last symbol 1 maps onto BP_2
    sub = [u for u in all_vertices(3) if last_symbol(u) == 1]
    assert len(sub) == 8
    for u in sub:
        for v in sub:
            if u == v:
                continue
            inner = bp_graph.is_adjacent(u, v)
            outer = bp_graph.is_adjacent(subgraph_embed(u), subgraph_embed(v))
            assert inner == outer


def test_edge_dimension():
    u = (1, 2, 3)
    assert edge_dimension(u, (-1, 2, 3)) == 1
    assert edge_dimension(u, (-3, -2, -1)) == 3
    with pytest.raises(ValueError):
        edge_dimension(u, (3, 2, 1))


def _brute_dimension(u, v):
    """Every k tried, as the definition of adjacency reads."""
    hits = [k for k in range(1, len(u) + 1) if prefix_reversal(u, k) == v]
    assert len(hits) <= 1
    return hits[0] if hits else None


def _check_dimension(u, v):
    k = _brute_dimension(u, v)
    assert is_adjacent(u, v) == (k is not None), (u, v)
    if k is None:
        with pytest.raises(ValueError):
            edge_dimension(u, v)
    else:
        assert edge_dimension(u, v) == k


def test_edge_dimension_matches_brute_force():
    bp3 = all_vertices(3)
    for u in bp3:
        for v in bp3:
            _check_dimension(u, v)
    for u in all_vertices(4):
        for v in neighbors(u):
            _check_dimension(u, v)
    for u, v in (((1, 2, 3), (1, 2)), ((-1, 2), (1, -2, 3)), ((1, 2, 3, 4), (-1, 2, 3)), ((), ())):
        assert not is_adjacent(u, v)
        with pytest.raises(ValueError):
            edge_dimension(u, v)
    for u in ((1, 2, 3), (-2, 1, -3, 4)):
        assert not is_adjacent(u, u)
        with pytest.raises(ValueError):
            edge_dimension(u, u)


def _steps_reference(vertices, closed):
    """Every step through ``is_adjacent``, as ``is_packed_walk`` promises
    to answer on the decoded vertices."""
    steps = len(vertices) if closed else len(vertices) - 1
    return all(is_adjacent(vertices[i], vertices[(i + 1) % len(vertices)]) for i in range(steps))


def _check_walk(n, vertices):
    """``is_packed_walk`` on the packed ``vertices`` against the per-step
    loop on what they decode to."""
    packed = bp_graph.pack(n, vertices)
    decoded = bp_graph.unpack(n, packed)
    for closed in (False, True):
        assert is_packed_walk(n, packed, closed) == _steps_reference(decoded, closed), (n, closed, vertices[:4])


def _random_walk(rng, n, steps):
    v = tuple(rng.choice((1, -1)) * x for x in rng.sample(range(1, n + 1), n))
    walk = [v]
    for _ in range(steps):
        walk.append(prefix_reversal(walk[-1], rng.randint(1, n)))
    return walk


def test_is_walk_matches_steps_on_every_pair_up_to_n3():
    for n in (1, 2, 3):
        vertices = all_vertices(n)
        for u in vertices:
            for v in vertices:
                _check_walk(n, [u, v])
                _check_walk(n, [u, v, u])


@pytest.mark.parametrize("n", [4, 5])
def test_is_walk_matches_steps_on_random_walks(n):
    rng = random.Random(n)
    for _ in range(40):
        walk = _random_walk(rng, n, rng.randint(1, 60))
        _check_walk(n, walk)
        if rng.random() < 0.5:  # closable: walk back along the first steps
            _check_walk(n, walk + walk[-2:0:-1])
        bad = list(walk)
        bad[rng.randrange(len(bad))] = _random_walk(rng, n, 0)[0]
        _check_walk(n, bad)


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_is_walk_matches_steps_across_block_boundaries(monkeypatch, block):
    monkeypatch.setattr(bp_graph, "_WALK_BLOCK", block)
    rng = random.Random(block)
    for length in range(1, 3 * block + 3):
        walk = _random_walk(rng, 4, length - 1)
        _check_walk(4, walk)
        for pos in range(length):  # one bad vertex in every position
            bad = list(walk)
            bad[pos] = _random_walk(rng, 4, 0)[0]
            _check_walk(4, bad)
            if length > 1:
                _check_walk(4, bad[:pos] + bad[pos + 1 :])


def test_is_walk_falls_back_on_entries_that_are_not_vertices():
    """Entries that pack but are no vertex of BP_4, first (where the
    column test does not run) and inside: True, a repeated symbol, 0,
    -128 (whose byte negation is not exact), 127, a list, the self-loop."""
    walk = _random_walk(random.Random(0), 4, 12)
    e = identity(4)
    loop = (1, -1, 3, 4)
    odd = [
        (True, 2, 3, 4),
        (-1, 2, 3, 4),
        (0, 2, 3, 4),
        (-128, 2, 3, 4),
        (127, 2, 3, 4),
        [1, 2, 3, 4],
        loop,
    ]
    for v in odd:
        for pos in (0, 1, 6, 12):
            _check_walk(4, walk[:pos] + [v] + walk[pos + 1 :])
        _check_walk(4, [v, e])
        _check_walk(4, [e, v])
        _check_walk(4, [v])
    # True packs as 1: the walk is still a walk
    _check_walk(4, [tuple(True if x == 1 else x for x in v) for v in walk])
    # the self-loop: the column test alone would accept each step
    assert prefix_reversal(loop, 2) == loop
    _check_walk(4, [loop, loop, loop])
    # empty and one-vertex sequences
    for n in (0, 4):
        _check_walk(n, [])
    _check_walk(0, [()])
    _check_walk(0, [(), ()])
    _check_walk(4, [e])


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_is_packed_walk_matches_steps(monkeypatch, block):
    """The packed entry point of the column test answers as the per-step
    loop on the decoded tuples: random walks at n = 1, 3, 4 and 8 with one
    bad vertex in every position, across block boundaries, and sequences
    whose first vertex is no vertex of BP_n, which go to the tuples."""
    monkeypatch.setattr(bp_graph, "_WALK_BLOCK", block)
    rng = random.Random(block)
    for n in (1, 3, 4, 8):
        for length in range(1, 3 * block + 3):
            walk = _random_walk(rng, n, length - 1)
            for pos in (None, *range(length)):
                seq = list(walk)
                if pos is not None:
                    seq[pos] = _random_walk(rng, n, 0)[0]
                for closed in (False, True):
                    assert bp_graph.is_packed_walk(n, bp_graph.pack(n, seq), closed) == _steps_reference(seq, closed)
    loop, zero = (1, -1, 3, 4), (0, 2, 3, 4)
    for seq in ([loop, loop, loop], [zero, (-0, 2, 3, 4)], [(-128, 2, 3, 4), (127, 2, 3, 4)], []):
        for closed in (False, True):
            assert bp_graph.is_packed_walk(4, bp_graph.pack(4, seq), closed) == _steps_reference(seq, closed)
    with pytest.raises(ValueError):
        bp_graph.is_packed_walk(4, bytes(12), True)
