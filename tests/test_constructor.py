import base64
import copy
import itertools
from pathlib import Path

import pytest

from burntpancake.bp3_fixtures import FREE_PATHS, LEAF_CYCLES, NO_PATH, PAIR_CYCLES, SINGLE_PATHS
from burntpancake.bp_graph import (
    edge_dimension,
    pack,
    unpack,
    edge_key,
    frame_tables,
    is_adjacent,
    lift_all,
    neighbors,
    out_neighbor,
    subgraph_indices,
    vertex_count,
)
from burntpancake.constructor import (
    BudgetExceededError,
    InternalInvariantError,
    NoOrderingError,
    StrictModeFailure,
    UsageError,
    _chain,
    _check_output,
    _cross_candidates,
    _Ctx,
    _Faults,
    _frame_bytes,
    _free_path,
    _leaf_view,
    _loop,
    _open_ring,
    _path,
    _restrict_embed,
    _ring_from,
    _small_search,
    _subgraph,
    _usable_stub,
    _weights,
    hamiltonian_cycle,
    hamiltonian_path,
    order_subgraphs,
)
from burntpancake.fault_model import FaultSet
from burntpancake.fuzz import run_fuzz, sample_endpoints, sample_fault_set, trial_rng
from burntpancake.oracle import SearchStatus, exhaustive_path_search, verify_cycle, verify_path
from burntpancake.signed_perm import (
    all_vertices,
    generator,
    identity,
    inverse,
    left_translate,
    parse_vertex,
    prefix_reversal,
)


# ---------------------------------------------------------------- orderings


def test_order_subgraphs_worked_example():
    got = order_subgraphs({1, -1, 2, -2, 3}, 1, 3)
    assert got == (1, 2, -1, -2, 3)


def test_order_subgraphs_validity():
    got = order_subgraphs({1, -1, 2, -2, 3}, 1, 3)
    for a, b in zip(got, got[1:]):
        assert a != -b


def test_order_subgraphs_two_elements():
    assert order_subgraphs({1, 2}, 1, 2) == (1, 2)
    with pytest.raises(NoOrderingError):
        order_subgraphs({1, -1}, 1, -1)


def test_order_subgraphs_preconditions():
    with pytest.raises(UsageError):
        order_subgraphs({1, 2}, 1, 1)
    with pytest.raises(UsageError):
        order_subgraphs({1, 2}, 1, 3)


# ------------------------------------------------------------- BP_3 bases


def test_base_cycle_fixture_cases():
    for k in (1, 2, 3):
        fs = FaultSet.build(3, matching_pairs=[[identity(3), generator(3, k)]])
        got = hamiltonian_cycle(3, fs)
        assert tuple(got.vertices) == PAIR_CYCLES[k]
        assert verify_cycle(3, fs, got).ok


def test_base_cycle_case2_opening():
    fs = FaultSet.build(3, matching_pairs=[[(1, 2, 3), (-1, 2, 3)]])
    got = hamiltonian_cycle(3, fs)
    assert got.vertices[:3] == ((-2, -1, 3), (2, -1, 3), (-3, 1, -2))
    fs = FaultSet.build(3, matching_pairs=[[(1, 2, 3), (-3, -2, -1)]])
    got = hamiltonian_cycle(3, fs)
    assert got.vertices[:3] == ((-2, -1, 3), (2, -1, 3), (1, -2, 3))


def test_base_cycle_translated_instance_is_fixture_image():
    a = (2, -3, 1)
    b = prefix_reversal(a, 2)
    fs = FaultSet.build(3, matching_pairs=[[a, b]])
    got = hamiltonian_cycle(3, fs)
    want = tuple(left_translate(max(a, b), x) for x in PAIR_CYCLES[2])
    assert tuple(got.vertices) == want
    assert verify_cycle(3, fs, got).ok


def test_base_cycle_budget():
    fs = FaultSet.build(
        3, matching_pairs=[[(1, 2, 3), (-1, 2, 3)]], faulty_edges=[[(2, 1, 3), (-2, 1, 3)]]
    )
    with pytest.raises(UsageError):
        hamiltonian_cycle(3, fs)


def test_base_path_examples():
    got = hamiltonian_path(3, (1, 2, 3), (-1, 2, 3), FaultSet.build(3))
    assert len(got.vertices) == 48
    assert verify_path(3, FaultSet.build(3), (1, 2, 3), (-1, 2, 3), got).ok
    # reversal answers the swapped endpoints
    rev = list(reversed(got.vertices))
    assert verify_path(3, FaultSet.build(3), (-1, 2, 3), (1, 2, 3), rev).ok


def test_base_path_rejects_equal_endpoints():
    with pytest.raises(UsageError):
        hamiltonian_path(3, (1, 2, 3), (1, 2, 3), FaultSet.build(3))


def _step_slot(path) -> bytes:
    """One FREE_PATHS, SINGLE_PATHS or LEAF_CYCLES slot for ``path``
    (encoding in bp3_fixtures): a path of 47 vertices leaves the low bit 0."""
    dims = [edge_dimension(a, b) for a, b in zip(path, path[1:])]
    bits = dims[0] - 1
    for prev, d in zip(dims, dims[1:]):
        bits = bits << 1 | sorted({1, 2, 3} - {prev}).index(d)
    return (bits << 48 - len(path)).to_bytes(6, "big")


def _base64_lines(table) -> str:
    """``table`` as the base64 lines of a bytes literal in bp3_fixtures."""
    text = base64.b64encode(table).decode()
    return "\n".join(f'    "{text[k : k + 76]}"' for k in range(0, len(text), 76))


def test_free_path_table_matches_search():
    # the table is a stored copy of the search's fault-free paths from the
    # identity; on a mismatch the failure prints the table the search gives,
    # as base64 lines ready to paste into bp3_fixtures
    none = frozenset()
    e = identity(3)
    vertices = all_vertices(3)
    paths = {}
    wrong = []
    for v in vertices:
        if v == e:
            continue
        paths[v] = _small_search(3, none, none, e, v)
        try:
            if _free_path(v) != paths[v]:
                wrong.append(v)
        except InternalInvariantError:
            wrong.append(v)
    assert len(paths) == 47
    if wrong:
        table = bytearray(len(FREE_PATHS))
        for v, path in paths.items():
            at = 6 * vertices.index(v)
            table[at : at + 6] = _step_slot(path)
        pytest.fail(
            f"{len(wrong)} stored paths differ from the search, first {wrong[:3]}; "
            f"regenerated:\n{_base64_lines(table)}"
        )


def test_corrupt_free_path_raises(monkeypatch):
    import burntpancake.constructor as cons

    # flipping the last bit of a slot swaps the path's final step, so the
    # decoded path ends beside the target, not on it
    u, v = (1, 2, 3), (-1, 2, 3)
    table = bytearray(FREE_PATHS)
    table[6 * cons._BP3_INDEX[v] + 5] ^= 1
    monkeypatch.setattr(cons, "FREE_PATHS", bytes(table))
    monkeypatch.setattr(cons, "_bp3_path_cache", {})
    with pytest.raises(InternalInvariantError, match="stored BP_3 path"):
        hamiltonian_path(3, u, v, FaultSet.build(3))


def _leaf_cycle_keys():
    """The (removed, banned) key of every LEAF_CYCLES slot, in slot order."""
    none = frozenset()
    vertices = all_vertices(3)
    edges = sorted({edge_key(x, w) for x in vertices for w in neighbors(x)})
    return (
        [(none, none)]
        + [(frozenset((x,)), none) for x in vertices]
        + [(none, frozenset((e,))) for e in edges]
    )


def test_leaf_cycle_table_matches_search(monkeypatch):
    # the table is a stored copy of the search's cycles for the keys with at
    # most one fault; on a mismatch the failure prints the table the search
    # gives, as base64 lines ready to paste into bp3_fixtures
    import burntpancake.constructor as cons

    keys = _leaf_cycle_keys()
    assert len(keys) == 121 == len(LEAF_CYCLES) // 6
    cycles = [_small_search(3, removed, banned, None, None) for removed, banned in keys]
    monkeypatch.setattr(cons, "_bp3_cycle_cache", {})
    wrong = []
    for slot, (key, cycle) in enumerate(zip(keys, cycles)):
        cons._bp3_cycle_cache.clear()
        try:
            if cons._bp3_search_cycle(*key) != _frame_bytes(cycle):
                wrong.append(slot)
        except InternalInvariantError:
            wrong.append(slot)
    if wrong:
        table = b"".join(map(_step_slot, cycles))
        pytest.fail(
            f"{len(wrong)} stored cycles differ from the search, first slots {wrong[:3]}; "
            f"regenerated:\n{_base64_lines(table)}"
        )


def test_corrupt_leaf_cycle_raises(monkeypatch):
    import burntpancake.constructor as cons

    # flipping the last bit of slot 0 swaps the fault-free cycle's final
    # step, so the decoded path ends on a vertex that is not beside its start
    table = bytearray(LEAF_CYCLES)
    table[5] ^= 1
    monkeypatch.setattr(cons, "LEAF_CYCLES", bytes(table))
    monkeypatch.setattr(cons, "_bp3_cycle_cache", {})
    with pytest.raises(InternalInvariantError, match="stored BP_3 path"):
        hamiltonian_cycle(3, FaultSet.build(3))


def test_leaf_cycles_are_read_not_searched(monkeypatch):
    """Cold builds of the eight one-element n=4 cycle instances, and of a
    full-budget n=5 cycle and path, ask the cycle leaf only for keys that
    LEAF_CYCLES holds, so they make no cycle-mode search.  A count, not a
    time, so it holds on any machine."""
    import burntpancake.constructor as cons

    search = cons._small_search
    cycle_searches = []

    def counted(n, removed, banned, u, v):
        if u is None:
            cycle_searches.append((removed, banned))
        return search(n, removed, banned, u, v)

    monkeypatch.setattr(cons, "_small_search", counted)
    monkeypatch.setattr(cons, "_bp3_cycle_cache", {})
    monkeypatch.setattr(cons, "_bp3_path_cache", {})
    e = identity(4)
    for k in range(1, 5):
        pair = [e, generator(4, k)]
        for fs in (FaultSet.build(4, matching_pairs=[pair]), FaultSet.build(4, faulty_edges=[pair])):
            assert verify_cycle(4, fs, hamiltonian_cycle(4, fs)).ok
    for op, budget in (("cycle", 3), ("path", 2)):
        # the first trial of seed 21 whose fault set is at the budget
        trial = next(t for t in itertools.count() if sample_fault_set(5, budget, trial_rng(21, t)).size == budget)
        rng = trial_rng(21, trial)
        fs = sample_fault_set(5, budget, rng)
        if op == "cycle":
            assert verify_cycle(5, fs, hamiltonian_cycle(5, fs)).ok
        else:
            u, v = sample_endpoints(rng, 5, fs)
            assert verify_path(5, fs, u, v, hamiltonian_path(5, u, v, fs)).ok
    assert cons._bp3_cycle_cache and cycle_searches == []


def test_single_path_table_matches_search(monkeypatch):
    # the table is a stored copy of the search's paths from the identity
    # with one vertex x removed, for every x other than the identity and
    # every v other than the identity and x; the marker slots are exactly
    # the keys without a path.  On a mismatch the failure prints the table
    # the search gives, as base64 lines ready to paste into bp3_fixtures
    import burntpancake.constructor as cons

    none = frozenset()
    e = identity(3)
    vertices = all_vertices(3)
    paths = {}
    for i, x in enumerate(vertices):
        for j, v in enumerate(vertices):
            if e not in (x, v) and x != v:
                paths[48 * i + j, x, v] = _small_search(3, frozenset((x,)), none, e, v)
    assert len(paths) == 2162 and len(SINGLE_PATHS) == 6 * 48 * 48
    marked = {slot for slot in range(48 * 48) if SINGLE_PATHS[6 * slot : 6 * slot + 6] == NO_PATH}
    absent = {slot for (slot, _, _), path in paths.items() if path is None}
    monkeypatch.setattr(cons, "_bp3_path_cache", {})
    wrong = []
    for (slot, x, v), path in paths.items():
        cons._bp3_path_cache.clear()
        try:
            if cons._bp3_search_path(frozenset((x,)), none, v) != (path and _frame_bytes(path)):
                wrong.append(slot)
        except InternalInvariantError:
            wrong.append(slot)
    if wrong or marked != absent:
        table = bytearray(len(SINGLE_PATHS))
        for (slot, _, _), path in paths.items():
            table[6 * slot : 6 * slot + 6] = NO_PATH if path is None else _step_slot(path)
        pytest.fail(
            f"{len(wrong)} stored paths differ from the search, first slots {wrong[:3]}; "
            f"marker slots {sorted(marked)}, keys without a path {sorted(absent)}; "
            f"regenerated:\n{_base64_lines(table)}"
        )
    assert len(absent) == 6


def test_corrupt_single_path_raises(monkeypatch):
    import burntpancake.constructor as cons

    # flipping the last step bit of a slot (bit 1: bit 0 pads a path of 46
    # steps) swaps the path's final step, so the decoded path does not end
    # at the target
    x, v = (-3, -2, -1), (-1, 2, 3)
    slot = 48 * cons._BP3_INDEX[x] + cons._BP3_INDEX[v]
    table = bytearray(SINGLE_PATHS)
    table[6 * slot + 5] ^= 2
    monkeypatch.setattr(cons, "SINGLE_PATHS", bytes(table))
    monkeypatch.setattr(cons, "_bp3_path_cache", {})
    with pytest.raises(InternalInvariantError, match="stored BP_3 path"):
        _bp3_leaf_path(identity(3), v, _Faults(3, singles=(x,)))


def test_single_removed_vertex_paths_are_read_not_searched(monkeypatch):
    """Cold fuzz campaigns at n=4 and n=5, every operation at its budget,
    ask the path leaf for keys with one removed vertex and no banned edge
    only from SINGLE_PATHS, so no path-mode search has such a key.  A
    count, not a time, so it holds on any machine."""
    import burntpancake.constructor as cons

    search = cons._small_search
    single_searches = []

    def counted(n, removed, banned, u, v):
        if u is not None and len(removed) == 1 and not banned:
            single_searches.append((removed, v))
        return search(n, removed, banned, u, v)

    monkeypatch.setattr(cons, "_small_search", counted)
    monkeypatch.setattr(cons, "_bp3_cycle_cache", {})
    monkeypatch.setattr(cons, "_bp3_path_cache", {})
    for n, op, budget, trials in ((4, "cycle", 2, 200), (4, "path", 1, 200), (5, "cycle", 3, 40), (5, "path", 2, 40)):
        assert run_fuzz(n, op, trials, budget, seed=26).ok
    read = [key for key in cons._bp3_path_cache if len(key[0]) == 1 and not key[1]]
    assert read and single_searches == []


def test_fault_free_bp3_paths_share_47_keys(monkeypatch):
    import burntpancake.constructor as cons

    # every fault-free path is keyed by its target in the frame that puts
    # its start on the identity
    monkeypatch.setattr(cons, "_bp3_path_cache", {})
    fs = FaultSet.build(3)
    for u, v in itertools.permutations(all_vertices(3), 2):
        assert hamiltonian_path(3, u, v, fs).vertices[0] == u
    assert len(cons._bp3_path_cache) == 47


def _bp3_leaf_path(u, v, f):
    got = _path(3, u, v, f, _Ctx())
    return None if got is None else unpack(3, got[0])


@pytest.mark.parametrize(
    "faults",
    [
        _Faults(3),
        _Faults(3, edges=(((-2, 1, 3), (2, 1, 3)),)),
        _Faults(3, pairs=(((-3, -2, 1), (3, -2, 1)),)),
        _Faults(3, pairs=(((1, -3, 2), (3, -1, 2)),), edges=(((-2, -1, 3), (1, 2, 3)),)),
    ],
    ids=["fault-free", "faulty edge", "pair", "pair and edge"],
)
def test_bp3_leaf_commutes_with_left_translation(faults):
    # the leaf answers in the frame of its start, so translating a whole
    # instance by any w of BP_3 translates its answer by w
    assert all(is_adjacent(a, b) for a, b in faults.pairs + faults.edges)

    def moved(w, f):
        def tr(x):
            return left_translate(w, x)

        return _Faults(3, tuple(edge_key(tr(a), tr(b)) for a, b in f.pairs), (),
                       tuple(edge_key(tr(a), tr(b)) for a, b in f.edges))

    ends = [((2, -3, 1), (-1, 3, 2)), ((-1, -2, -3), (3, 1, -2)), ((1, 2, 3), (2, 1, 3))]
    for u, v in ends:
        if {u, v} & faults.removed:
            continue
        want = _bp3_leaf_path(u, v, faults)
        assert want is not None
        for w in all_vertices(3):
            got = _bp3_leaf_path(left_translate(w, u), left_translate(w, v), moved(w, faults))
            assert got == [left_translate(w, x) for x in want], (u, v, w)


class _OneVertexRemoved:
    """The part of a fault set the oracle reads, with one vertex removed.

    A public fault set removes vertices in matching pairs only; inside the
    constructor a single removed vertex arises where a pair straddles two
    subgraphs."""

    def __init__(self, vertex, faulty_edges=()):
        self.vertex = vertex
        self.faulty_edges = tuple(faulty_edges)

    def removed_vertices(self):
        return frozenset((self.vertex,))


@pytest.mark.parametrize("faulty_edges", [(), (((-1, 2, 3), (-2, 1, 3)),)])
def test_bp3_solver_agrees_with_exhaustive_search(faulty_edges):
    # every 8th ordered pair with the identity removed; with the faulty edge
    # the identity's neighbour (-1, 2, 3) is left with one edge, so most
    # pairs have no Hamiltonian path
    e = identity(3)
    fs = _OneVertexRemoved(e, faulty_edges)
    banned = frozenset(edge_key(a, b) for a, b in faulty_edges)
    absent = 0
    for u, v in list(itertools.permutations(all_vertices(3), 2))[::8]:
        got = _small_search(3, frozenset((e,)), banned, u, v)
        if e in (u, v):
            assert got is None
            with pytest.raises(ValueError):
                exhaustive_path_search(3, fs, u, v)
            continue
        status = exhaustive_path_search(3, fs, u, v).status
        assert status is not SearchStatus.TIMEOUT
        assert (got is None) == (status is SearchStatus.PROVEN_ABSENT)
        if got is None:
            absent += 1
        else:
            assert verify_path(3, fs, u, v, got).ok
    assert absent == (259 if faulty_edges else 0)


# ----------------------------------------------------------- chain / loop
# The engines are called directly: the builders reach them only through
# the case dispatch.


def test_chain_path_closure_is_cycle_on_bp4():
    u = identity(4)
    v = out_neighbor(u)
    fs = FaultSet.build(4)
    packed, _ = _chain(4, subgraph_indices(4), u, v, _Faults.from_fault_set(fs), _Ctx())
    vertices = unpack(4, packed)
    assert vertices[0] == u and vertices[-1] == v
    assert verify_cycle(4, fs, vertices).ok  # closing edge (v, u) exists


def test_chain_path_vertex_count_with_pair_removed():
    fs = FaultSet.build(5, matching_pairs=[[(2, 1, 3, 4, 5), (-1, -2, 3, 4, 5)]])
    u = identity(5)
    v = out_neighbor(u)
    packed, _ = _chain(5, subgraph_indices(5), u, v, _Faults.from_fault_set(fs), _Ctx())
    vertices = unpack(5, packed)
    assert len(vertices) == vertex_count(5) - 2
    assert verify_path(5, fs, u, v, vertices).ok


def test_loop_path_bp4_same_subgraph():
    u = identity(4)
    v = (-2, -1, 3, 4)
    fs = FaultSet.build(4)
    packed, trace = _loop(4, subgraph_indices(4), u, v, _Faults.from_fault_set(fs), _Ctx())
    vertices = unpack(4, packed)
    assert len(vertices) == vertex_count(4)
    assert verify_path(4, fs, u, v, vertices).ok
    # the spliced edge's out-neighbors land in distinct subgraphs; the
    # splice position is recorded on the trace
    assert "L20" in trace.labels()


# ------------------------------------------------------------ full builds


def test_cycle_empty_faults_lengths():
    for n in (3, 4):
        fs = FaultSet.build(n)
        got = hamiltonian_cycle(n, fs)
        assert len(got.vertices) == vertex_count(n)
        assert verify_cycle(n, fs, got).ok


def test_cycle_mixed_faults_n4():
    fs = FaultSet.build(
        4,
        matching_pairs=[[(-4, -3, -2, 1), (4, -3, -2, 1)]],
        faulty_edges=[[(1, 2, 3, 4), (-2, -1, 3, 4)]],
    )
    got = hamiltonian_cycle(4, fs)
    assert len(got.vertices) == 382
    assert verify_cycle(4, fs, got).ok


def test_cycle_budget_enforced():
    fs = FaultSet.build(
        4,
        matching_pairs=[
            [(-4, -3, -2, 1), (4, -3, -2, 1)],
            [(1, 2, 3, 4), (-1, 2, 3, 4)],
        ],
        faulty_edges=[[(2, 1, 3, 4), (-1, -2, 3, 4)]],
    )
    with pytest.raises(BudgetExceededError):
        hamiltonian_cycle(4, fs)


def test_cycle_rejects_small_n():
    with pytest.raises(UsageError):
        hamiltonian_cycle(2, FaultSet.build(2))


def test_path_with_pair_n4():
    fs = FaultSet.build(4, matching_pairs=[[(-4, -3, -2, 1), (4, -3, -2, 1)]])
    u, v = identity(4), (2, 1, 3, 4)
    got = hamiltonian_path(4, u, v, fs)
    assert len(got.vertices) == 382
    assert verify_path(4, fs, u, v, got).ok


def test_path_usage_errors():
    fs = FaultSet.build(4, matching_pairs=[[(-4, -3, -2, 1), (4, -3, -2, 1)]])
    with pytest.raises(UsageError):
        hamiltonian_path(4, identity(4), identity(4), fs)
    with pytest.raises(UsageError):
        hamiltonian_path(4, (-4, -3, -2, 1), identity(4), fs)
    with pytest.raises(BudgetExceededError):
        hamiltonian_path(
            3, (1, 2, 3), (-1, 2, 3), FaultSet.build(3, faulty_edges=[[(2, 1, 3), (-2, 1, 3)]])
        )


def test_straddling_pair_cycle_n4():
    # a pair whose carrier edge crosses two subgraphs
    a = (2, -3, 1, 4)
    b = out_neighbor(a)
    fs = FaultSet.build(4, matching_pairs=[[a, b]])
    got = hamiltonian_cycle(4, fs)
    assert len(got.vertices) == 382
    assert verify_cycle(4, fs, got).ok


def test_determinism_same_inputs_same_output():
    fs = FaultSet.build(
        4,
        matching_pairs=[[(-4, -3, -2, 1), (4, -3, -2, 1)]],
        faulty_edges=[[(-4, -3, 2, 1), (4, -3, 2, 1)]],
    )
    first = hamiltonian_cycle(4, fs)
    second = hamiltonian_cycle(4, fs)
    assert first.vertices == second.vertices
    assert first.trace.labels() == second.trace.labels()


def test_trace_exposes_case_labels():
    fs = FaultSet.build(4, matching_pairs=[[(2, 1, 3, 4), (-1, -2, 3, 4)]])
    got = hamiltonian_cycle(4, fs)
    labels = set(got.trace.labels())
    assert "L18/2.1" in labels
    assert got.trace.detail == {"n": 4}


def test_all_single_fault_instances_on_bp3():
    # every matching-pair fault and every single-edge fault (72 each)
    seen_pairs = 0
    seen_edges = 0
    edges = set()
    from burntpancake.bp_graph import edge_key, neighbors

    for u in all_vertices(3):
        for w in neighbors(u):
            edges.add(edge_key(u, w))
    assert len(edges) == 72
    for a, b in sorted(edges):
        fs = FaultSet.build(3, matching_pairs=[[a, b]])
        got = hamiltonian_cycle(3, fs)
        assert verify_cycle(3, fs, got).ok and len(got.vertices) == 46
        seen_pairs += 1
        fs = FaultSet.build(3, faulty_edges=[[a, b]])
        got = hamiltonian_cycle(3, fs)
        assert verify_cycle(3, fs, got).ok and len(got.vertices) == 48
        seen_edges += 1
    assert seen_pairs == seen_edges == 72


def test_empty_dispatch_raises_strict_failure(monkeypatch):
    import burntpancake.constructor as cons
    from burntpancake.fuzz import run_fuzz

    # force the recursive dispatch to find nothing
    monkeypatch.setattr(cons, "_cycle", lambda *a, **k: None)
    monkeypatch.setattr(cons, "_path", lambda *a, **k: None)
    fs = FaultSet.build(4)
    with pytest.raises(cons.StrictModeFailure):
        cons.hamiltonian_cycle(4, fs)
    with pytest.raises(cons.StrictModeFailure):
        cons.hamiltonian_path(4, identity(4), (-1, 2, 3, 4), fs)
    for op in ("cycle", "path"):
        rep = run_fuzz(4, op, 5, 1, seed=0)
        assert rep.trials == rep.strict_failures == 5 and rep.successes == 0
        assert [x["kind"] for x in rep.failures] == ["strict"] * 5
        assert [x["trial"] for x in rep.failures] == list(range(5))


# Two matching pairs on n-edges: this n=4 cycle rejects nine candidate
# junctions before it builds.
_REJECTING_N4 = FaultSet.build(4, [[(1, -4, 2, -3), (3, -2, 4, -1)], [(1, 2, -4, -3), (3, 4, -2, -1)]])


def test_spent_attempt_budget_named_in_failure(monkeypatch):
    import burntpancake.constructor as cons

    ctx_type = cons._Ctx
    monkeypatch.setattr(cons, "_Ctx", lambda: ctx_type(max_attempts=5))
    with pytest.raises(cons.StrictModeFailure, match="attempt budget of 5 spent") as caught:
        cons.hamiltonian_cycle(4, _REJECTING_N4)
    assert "scan exhausted" not in str(caught.value)
    # the rejection that finds the budget gone is not counted
    assert "attempts=5," in str(caught.value)


def test_successes_do_not_spend_the_attempt_budget(monkeypatch):
    import burntpancake.constructor as cons

    # a fault-free n=5 cycle takes 80 junctions and rejects none; the n=4
    # instance above rejects exactly as many candidates as its budget
    want = cons.hamiltonian_cycle(4, _REJECTING_N4).vertices
    ctx_type = cons._Ctx
    monkeypatch.setattr(cons, "_Ctx", lambda: ctx_type(max_attempts=9))
    assert cons.hamiltonian_cycle(4, _REJECTING_N4).vertices == want
    monkeypatch.setattr(cons, "_Ctx", lambda: ctx_type(max_attempts=5))
    got = cons.hamiltonian_cycle(5, FaultSet.build(5))
    assert verify_cycle(5, FaultSet.build(5), got).ok


def test_failed_loop_leaves_no_note_on_the_build_failure(monkeypatch):
    import burntpancake.constructor as cons

    # both endpoints in subgraph 4 of fault-free BP_4: the path runs through
    # a loop, and with every chain refused the loop finds no usable edge
    monkeypatch.setattr(cons, "_chain", lambda *a, **k: None)
    with pytest.raises(StrictModeFailure, match=r"note=scan exhausted\)$"):
        cons.hamiltonian_path(4, identity(4), (-1, 2, 3, 4), FaultSet.build(4))


def test_refused_h_path_is_asked_for_once(monkeypatch):
    import burntpancake.constructor as cons

    # the heavy subgraph is paired with its complement (L18/2.2), whose two
    # rings are joined through a path of an intermediate subgraph h that
    # depends on the junctions s, z but not on their ring neighbours t, w
    fs = FaultSet.build(4, [[(-2, -1, 4, 3), (1, 2, 4, 3)], [(1, -2, -4, -3), (2, -1, -4, -3)]])
    assert "L18/2.2" in hamiltonian_cycle(4, fs).trace.labels()
    subgraph = cons._subgraph

    def no_paths(n, i, f, ctx, a=None, b=None):
        return None if a is not None else subgraph(n, i, f, ctx, a, b)

    # every refused request is one attempt: 353 distinct h-paths, each once
    monkeypatch.setattr(cons, "_subgraph", no_paths)
    with pytest.raises(StrictModeFailure, match=r"attempts=353,"):
        hamiltonian_cycle(4, fs)


def test_refused_g_path_is_asked_for_once(monkeypatch):
    import burntpancake.constructor as cons

    # both endpoints in subgraph 2, the complement of the heavy subgraph -2
    # (L19/2.2 complement-pair): the splice passes through a path of an
    # intermediate subgraph g that depends on the junctions ns, nz only, not
    # on the orientation of the P edge or on the ring neighbour w
    rng = trial_rng(11, 106)
    fs = sample_fault_set(4, 1, rng)
    u, v = sample_endpoints(rng, 4, fs)
    assert (u, v) == ((-4, -3, 1, 2), (4, 1, -3, 2))
    subgraph, complement_pair = cons._subgraph, cons._path_c2_complement_pair
    calls = []

    def no_g_paths(n, i, f, ctx, a=None, b=None):
        if a is None or i in (2, -2):
            return subgraph(n, i, f, ctx, a, b)
        calls[-1].append((i, a, b))
        return None

    def counted(*args):
        calls.append([])
        return complement_pair(*args)

    monkeypatch.setattr(cons, "_subgraph", no_g_paths)
    monkeypatch.setattr(cons, "_path_c2_complement_pair", counted)
    # every refused candidate is still one attempt
    with pytest.raises(StrictModeFailure, match=r"attempts=1166,"):
        hamiltonian_path(4, u, v, fs)
    assert calls and all(len(set(asked)) == len(asked) for asked in calls)
    assert sum(map(len, calls)) == 384


def test_benchmark_layers_are_all_found(monkeypatch):
    # the benchmark's traced run wraps package functions by name and adds
    # the return value of each _Ctx.spend call to constructor.attempts
    import burntpancake.constructor as cons

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import layers
    from tracer import Tracer

    tr = Tracer()
    try:
        assert layers.instrument(tr) == []
        cons.hamiltonian_cycle(4, _REJECTING_N4)
    finally:
        tr.uninstall()
    assert tr.counts["constructor.attempts"] == 9


def test_strict_construction_certified_on_small_n4_families():
    # every fault-free n=4 path from the identity (by left translation this
    # covers every fault-free ordered pair) and every one-element n=4 cycle
    # instance up to translation: the element sits on {e, g_k}
    e = identity(4)
    fs = FaultSet.build(4)
    for v in all_vertices(4):
        if v == e:
            continue
        got = hamiltonian_path(4, e, v, fs)
        assert verify_path(4, fs, e, v, got).ok and len(got.vertices) == 384
    for k in range(1, 5):
        pair = [e, generator(4, k)]
        for fs, size in (
            (FaultSet.build(4, matching_pairs=[pair]), 382),
            (FaultSet.build(4, faulty_edges=[pair]), 384),
        ):
            got = hamiltonian_cycle(4, fs)
            assert verify_cycle(4, fs, got).ok and len(got.vertices) == size


def test_n4_sweep_slice(monkeypatch):
    # a strided slice of tools/sweep_n4.py, whose full run certifies both
    # families; every instance of the slice builds and the oracle accepts it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import sweep_n4

    assert sum(1 for _ in sweep_n4.cycle_instances()) == 8 + 12_200
    for op, stride, offset, instances in (("cycle", 97, 41, 126), ("path", 4_999, 1_234, 234)):
        counts, labels = sweep_n4.run(op, stride, offset)
        assert counts["instances"] == counts["verified"] == instances, (op, counts)
        assert labels and "root" not in labels
        assert counts["cycle_searches"] == 0, (op, counts)


# The only strict failures of an exhaustive n=4 sweep of paths with |F| <= 1
# (up to left translation) when the path dispatch took the first of two tied
# heavy subgraphs: a matching pair on the n-edge {e, g_4} gives subgraphs -1
# and 4 weight 1 each, and with -1 taken, subgraph 4 minus e has no
# Hamiltonian path between the endpoints.
_TIED_HEAVY_PATHS = [
    ((-3, -2, 1, 4), (-2, 1, 3, 4)),
    ((-3, 1, 2, 4), (2, -1, 3, 4)),
    ((-2, 1, 3, 4), (-3, -2, 1, 4)),
]


@pytest.mark.parametrize("u, v", _TIED_HEAVY_PATHS)
def test_strict_path_n4_pair_on_n_edge(u, v):
    fs = FaultSet.build(4, matching_pairs=[[identity(4), generator(4, 4)]])
    got = hamiltonian_path(4, u, v, fs)
    assert verify_path(4, fs, u, v, got).ok


def test_cross_edge_candidates_stay_abundant_under_faults():
    # junction selection always keeps a usable cross edge: each removed
    # vertex kills at most one cross edge per subgraph pair (it has a single
    # out-edge), each faulty edge at most one
    from burntpancake.constructor import _Faults, _cross_candidates
    from burntpancake.bp_graph import cross_edge_count

    for n in (4, 5):
        for trial in range(30):
            fs = sample_fault_set(n, n - 2, trial_rng(13, trial))
            f = _Faults.from_fault_set(fs)
            floor = cross_edge_count(n) - 2 * fs.size
            assert floor > 0
            for i, j in ((1, 2), (2, -1), (-3, n)):
                got = sum(1 for _ in _cross_candidates(n, i, j, f))
                assert got >= floor


def test_cross_candidates_are_the_sorted_ring_junctions():
    # the case routines take junctions from _cross_candidates where a scan
    # of the sorted ring for -s[0] == j with a usable stub would give the
    # same vertices in the same order; n = 5 adds the frame of subgraph -2
    checked = 0
    for n in (4, 5):
        for trial in range(3):
            f = _Faults.from_fault_set(sample_fault_set(n, n - 2, trial_rng(17, trial)))
            frames = [(n, f), (4, _restrict_embed(f, -2))] if n == 5 else [(n, f)]
            for m, g in frames:
                ws = _weights(g)
                for i in g.indices:
                    built = _subgraph(m, i, g, _Ctx()) if ws[i] <= m - 3 else None
                    if built is None:
                        continue
                    ring = unpack(n, built[0])
                    for j in g.indices:
                        if j == i:
                            continue
                        got = list(_cross_candidates(m, i, j, g))
                        assert [s for s, _ in got] == [s for s in sorted(ring) if -s[0] == j and _usable_stub(s, g)]
                        assert all(ns == _usable_stub(s, g) for s, ns in got)
                        checked += bool(got)
    assert checked > 200


def test_ring_cuts_on_a_bp3_ring():
    # the ring helpers cut packed rings at positions; the cuts are read back
    # as vertices
    built = hamiltonian_cycle(3, FaultSet.build(3))
    packed, ring = built.packed, list(built.vertices)
    size = len(ring)

    def ring_from(p):
        return unpack(3, _ring_from(packed, p))

    def open_ring(pa, pb):
        return unpack(3, _open_ring(packed, pa, pb))

    for p in range(size):
        assert ring_from(p) == [ring[(p + t) % size] for t in range(size)]
    # b after a on the ring: the path walks backward from a; before it, forward
    assert open_ring(0, 1) == ring[:1] + ring[:0:-1]
    assert open_ring(1, 0) == ring[1:] + ring[:1]
    assert open_ring(size - 1, 0) == ring[::-1]
    assert open_ring(0, size - 1) == ring
    for pa in range(size):
        pb = (pa + 1) % size
        for x, y in ((pa, pb), (pb, pa)):
            got = open_ring(x, y)
            assert got[0] == ring[x] and got[-1] == ring[y] and sorted(got) == sorted(ring)
            assert all(map(is_adjacent, got, got[1:]))
    with pytest.raises(InternalInvariantError, match="ring edge expected"):
        _open_ring(packed, 0, 2)


def test_public_builders_reject_dimension_above_limit(monkeypatch):
    import burntpancake.constructor as cons

    def boom(*args, **kwargs):
        raise AssertionError("the dispatch must not run on an out-of-range n")

    # n = 9 would list 645 120 cross edges per subgraph pair before recursing
    monkeypatch.setattr(cons, "_cycle", boom)
    monkeypatch.setattr(cons, "_path", boom)
    fs = FaultSet.build(9)
    u = identity(9)
    with pytest.raises(UsageError, match="got n=9"):
        cons.hamiltonian_cycle(9, fs)
    with pytest.raises(UsageError, match="got n=9"):
        cons.hamiltonian_path(9, u, prefix_reversal(u, 2), fs)


# -------------------------------------------------------------- self-check

_CHECK_FAULTS = FaultSet.build(4, [[identity(4), generator(4, 3)]])
_CHECK_ENDS = ((2, 1, 3, 4), (-4, 1, -2, 3))


def _with(seq, **at):
    out = list(seq)
    for pos, w in at.items():
        out[int(pos[1:])] = w
    return out


_CHECK_KINDS = (
    "valid",
    "valid, unused faulty edge",
    "one short",
    "repeat",
    "removed vertex",
    "removed pair on it",
    "non-adjacent",
    "non-adjacent before removed",
    "removed before non-adjacent",
    "faulty first step",
    "faulty last step",
)
# The labels of _check_cases, in its order: parametrizing on these alone
# leaves the builds to the fixture, so a constructor defect fails the cases
# instead of the module's collection.
_CHECK_LABELS = [f"{label} {kind}" for label in ("cycle", "path") for kind in _CHECK_KINDS] + [
    "cycle faulty closing step",
    "path checked as a cycle",
    "path wrong endpoints",
    "path reversed",
    "cycle below the girth",
]


def _check_cases():
    """(label, n, faults, sequence, closed, endpoints, expected message or None)."""
    f = _Faults.from_fault_set(_CHECK_FAULTS)
    removed = identity(4)
    ring = list(hamiltonian_cycle(4, _CHECK_FAULTS).vertices)
    path = list(hamiltonian_path(4, *_CHECK_ENDS, _CHECK_FAULTS).vertices)

    def banned(a, b):
        return _Faults(4, f.pairs, (), (edge_key(a, b),))

    for label, seq, closed, ends in (("cycle", ring, True, (None, None)), ("path", path, False, _CHECK_ENDS)):
        yield f"{label} valid", 4, f, seq, closed, ends, None
        steps = {edge_key(a, b) for a, b in zip(seq, seq[1:] + seq[:1])}
        unused = next(w for w in neighbors(seq[5]) if edge_key(seq[5], w) not in steps and w != removed)
        yield f"{label} valid, unused faulty edge", 4, banned(seq[5], unused), seq, closed, ends, None
        yield f"{label} one short", 4, f, seq[:-1], closed, ends, "built 381 vertices, expected 382"
        yield f"{label} repeat", 4, f, _with(seq, p7=seq[2]), closed, ends, "repeated vertex"
        yield f"{label} removed vertex", 4, f, _with(seq, p7=removed), closed, ends, "removed vertex"
        on_it = _Faults(4, (edge_key(seq[4], seq[5]),), (), ())
        yield f"{label} removed pair on it", 4, on_it, seq, closed, ends, "removed vertex"
        swapped = _with(seq, p3=seq[10], p10=seq[3])
        yield f"{label} non-adjacent", 4, f, swapped, closed, ends, "non-adjacent step"
        yield (f"{label} non-adjacent before removed", 4, f, _with(swapped, p20=removed), closed, ends,
               "non-adjacent step")
        yield (f"{label} removed before non-adjacent", 4, f, _with(seq, p3=removed, p10=seq[3]), closed, ends,
               "removed vertex")
        yield f"{label} faulty first step", 4, banned(seq[1], seq[0]), seq, closed, ends, "faulty edge"
        yield f"{label} faulty last step", 4, banned(seq[-2], seq[-1]), seq, closed, ends, "faulty edge"
    yield "cycle faulty closing step", 4, banned(ring[-1], ring[0]), ring, True, (None, None), "faulty edge"
    yield "path checked as a cycle", 4, f, path, True, (None, None), "non-adjacent step"
    yield "path wrong endpoints", 4, f, path, False, _CHECK_ENDS[::-1], "wrong path endpoints"
    yield "path reversed", 4, f, path[::-1], False, _CHECK_ENDS, "wrong path endpoints"
    # 41 of the 48 vertices of BP_3 removed leave a length-7 cycle to ask for
    small = _Faults(3, (), tuple(all_vertices(3)[7:]), ())
    yield "cycle below the girth", 3, small, all_vertices(3)[:7], True, (None, None), "at least eight"


@pytest.fixture(scope="module")
def check_cases():
    cases = {case[0]: case for case in _check_cases()}
    assert list(cases) == _CHECK_LABELS
    return cases


@pytest.mark.parametrize("label", _CHECK_LABELS)
def test_check_output_raises_exactly_on_bad_output(check_cases, label):
    _, n, f, seq, closed, (u, v), message = check_cases[label]
    if message is None:
        _check_output(n, f, pack(n, seq), closed, u, v)
    else:
        with pytest.raises(InternalInvariantError, match=message):
            _check_output(n, f, pack(n, seq), closed, u, v)


def test_self_checks_test_no_step_alone(monkeypatch):
    """Both self-checks of a built n=6 cycle, ``_check_output`` and the
    oracle on the built object, which it reads by its packed bytes, take
    the column test of ``is_packed_walk``: neither makes one
    ``bp_graph._dimension`` call.  A count, not a time, so a check that
    silently falls back to the per-step loop fails here on any machine.
    Only the checks are counted: the builder's validation of the fault set
    tests its faulty edge with ``is_adjacent``, one call."""
    from burntpancake import bp_graph, constructor

    calls = []
    dimension = bp_graph._dimension
    monkeypatch.setattr(bp_graph, "_dimension", lambda u, v: calls.append(1) or dimension(u, v))
    checks = []
    check_output = constructor._check_output

    def counted_check(*args, **kwargs):
        before = len(calls)
        check_output(*args, **kwargs)
        checks.append(len(calls) - before)

    monkeypatch.setattr(constructor, "_check_output", counted_check)
    fs = sample_fault_set(6, 4, trial_rng(0, 0))
    built = hamiltonian_cycle(6, fs)
    before = len(calls)
    assert verify_cycle(6, fs, built).ok
    assert checks == [0] and len(calls) == before


# ---------------------------------------------------------------- frames


def test_leaf_frame_is_order_preserving_and_commutes_with_reversals():
    # builds run in BP_n coordinates and only the BP_3 leaf relabels, so
    # its scans see the same order as a build in BP_3 coordinates would;
    # the frame of a reference vertex r of the leaf is that relabel followed
    # by the left translation that takes r to the identity
    bp3 = all_vertices(3)
    bp5 = all_vertices(5)
    for suffix in sorted({u[3:] for u in bp5}):
        leaf = [u for u in bp5 if u[3:] == suffix]
        rank = frame_tables(5, suffix)[1]

        def ranked(u):
            return tuple(rank[s] for s in u[:3])

        for r in [None, *leaf]:
            embed, table, _, _ = _leaf_view(_Faults(3, suffix=suffix), r)

            def lift(vertices):
                return unpack(5, _frame_bytes(vertices).translate(table))

            if r is None:
                lifted = lift(bp3)
                assert all(a < b for a, b in zip(lifted, lifted[1:]))
                assert lifted == leaf
                assert lifted == lift_all(suffix, bp3)
                assert [embed(u) for u in lifted] == bp3 == [ranked(u) for u in leaf]
            else:
                assert embed(r) == (1, 2, 3)
                to_r = inverse(ranked(r))
                assert [embed(u) for u in leaf] == [left_translate(to_r, ranked(u)) for u in leaf]
            assert lift(map(embed, leaf)) == leaf
            for x, u in zip(bp3, lift(bp3)):
                for k in (1, 2, 3):
                    assert lift([prefix_reversal(x, k)]) == [prefix_reversal(u, k)]


def test_leaf_maps_its_faults_into_bp3():
    f = _Faults(3, (((1, -4, 2, 3, 5), (-1, -4, 2, 3, 5)),), ((2, 1, -4, 3, 5),), (), (3, 5))
    embed, _, removed, banned = _leaf_view(f)
    assert removed == {(1, -3, 2), (-1, -3, 2), (2, 1, -3)}
    assert banned == frozenset()
    assert embed((-4, 2, 1, 3, 5)) == (-3, 2, 1)


def _trace_nodes(trace):
    yield trace
    for child in trace.children:
        yield from _trace_nodes(child)


def test_trace_details_name_bp5_vertices():
    builds = []
    for trial in range(12):
        rng = trial_rng(0, trial)
        builds.append(hamiltonian_cycle(5, sample_fault_set(5, 3, rng)))
        fs = sample_fault_set(5, 2, rng)
        builds.append(hamiltonian_path(5, *sample_endpoints(rng, 5, fs), fs))
    splits = 0
    for built in builds:
        for node in _trace_nodes(built.trace):
            for key, value in node.detail.items():
                texts = value if isinstance(value, list) else [value]
                vertices = [parse_vertex(x, 5) for x in texts if isinstance(x, str) and "," in x]
                assert key not in ("split", "close", "pair", "edge", "pairing") or len(vertices) == 2
                if key == "split":
                    assert is_adjacent(*vertices)
                    splits += 1
    assert splits


def test_leaf_cycle_bit_flips_never_decode_to_repeats(monkeypatch):
    """Every single-bit flip of LEAF_CYCLES slots 0, 1 and 49 (no fault, the
    first vertex removed, the first edge banned) either raises
    InternalInvariantError naming the slot or decodes to a cycle that
    visits no vertex twice.  Some flips decode to walks that repeat a
    vertex, so the distinctness check is what catches them."""
    import burntpancake.constructor as cons

    first_edge = min(cons._BP3_EDGE_RANK, key=cons._BP3_EDGE_RANK.get)
    keys = {0: (frozenset(), frozenset()), 1: (frozenset(cons._BP3_VERTICES[:1]), frozenset()), 49: (frozenset(), frozenset([first_edge]))}
    messages = []
    for slot, key in keys.items():
        for bit in range(48):
            table = bytearray(LEAF_CYCLES)
            table[6 * slot + bit // 8] ^= 0x80 >> bit % 8
            monkeypatch.setattr(cons, "LEAF_CYCLES", bytes(table))
            monkeypatch.setattr(cons, "_bp3_cycle_cache", {})
            try:
                cycle = unpack(3, cons._bp3_search_cycle(*key))
            except InternalInvariantError as exc:
                assert f"slot {slot} " in str(exc)
                messages.append(str(exc))
            else:
                assert len(set(cycle)) == len(cycle) == 48 - len(key[0]), (slot, bit)
    assert sum("repeats a vertex" in m for m in messages) >= 12


# ------------------------------------------------------------------ memo
# Fault-free paths of level 4 at every dimension >= 5 and of levels 5..n-2
# go through one memo that every build in the process shares, keyed in the
# frame of the level's symbols in ascending order.  It rests on a build
# commuting with that relabel, which the first test checks directly.
# conftest.py empties it around every test.


def _relabel_into(m, suffix):
    """The order-preserving map of BP_m into the subgraph of BP_{m+len(suffix)}
    whose vertices end in ``suffix``, on vertices and on symbols."""
    fixed = {abs(x) for x in suffix}
    free = [a for a in range(1, m + len(suffix) + 1) if a not in fixed]
    symbol = {k: a for k, a in enumerate(free, 1)}
    symbol.update({-k: -a for k, a in enumerate(free, 1)})

    def vertex(x):
        return tuple(symbol[s] for s in x) + suffix

    return vertex, symbol


def _moved_details(trace, vertex, symbol):
    """Each node's (label, detail) with the details' vertices and subgraph
    indices carried by the relabel."""

    def move(value):
        if isinstance(value, list):
            return [move(x) for x in value]
        if isinstance(value, str) and "," in value:
            return ",".join(map(str, vertex(parse_vertex(value))))
        return symbol[value] if isinstance(value, int) else value

    return [(node.label, {k: move(v) for k, v in node.detail.items()}) for node in _trace_nodes(trace)]


@pytest.mark.parametrize("m", [4, 5])
def test_level_build_commutes_with_order_preserving_relabel(m):
    # a level-m build in BP_m coordinates, and the same instance relabelled
    # into BP_{m+2} or BP_{m+3} under a random suffix, where the memo serves
    # fault-free paths of levels 4..n-2: the relabel carries every vertex,
    # label and trace detail of the first onto the second
    import random

    faulty = fault_free = 0
    for trial in range(16):
        rng = random.Random(f"relabel:{m}:{trial}")
        extra = rng.choice((2, 3)) if m + 3 <= 8 else 2
        symbols = rng.sample(range(1, m + extra + 1), extra)
        suffix = tuple(s if rng.random() < 0.5 else -s for s in symbols)
        vertex, symbol = _relabel_into(m, suffix)
        for op in ("cycle", "path"):
            fs = sample_fault_set(m, m - 2 if op == "cycle" else m - 3, trial_rng(23 + m, trial))
            f = _Faults.from_fault_set(fs)
            moved = _Faults(
                m,
                tuple((vertex(a), vertex(b)) for a, b in f.pairs),
                (),
                tuple((vertex(a), vertex(b)) for a, b in f.edges),
                suffix,
            )
            if op == "cycle":
                want, got = cons_cycle(m, f), cons_cycle(m, moved)
            else:
                u, v = sample_endpoints(trial_rng(23 + m, trial), m, fs)
                want, got = _path(m, u, v, f, _Ctx()), _path(m, vertex(u), vertex(v), moved, _Ctx())
            assert unpack(m + extra, got[0]) == [vertex(x) for x in unpack(m, want[0])]
            assert _moved_details(want[1], vertex, symbol) == [(x.label, x.detail) for x in _trace_nodes(got[1])]
            faulty += fs.size > 0
            fault_free += fs.size == 0
    assert faulty and fault_free


def cons_cycle(m, f):
    from burntpancake.constructor import _cycle

    return _cycle(m, f, _Ctx())


def _full_n6_builds(count):
    """Full-budget n=6 cycles, loop-engine and chain-engine paths from
    ``trial_rng``, ``count`` of each, as (op, fault set, endpoints)."""
    found = {"cycle": [], "loop": [], "chain": []}
    trial = 0
    while min(map(len, found.values())) < count:
        rng = trial_rng(31, trial)
        fs = sample_fault_set(6, 4, rng)
        if fs.size == 4 and len(found["cycle"]) < count:
            found["cycle"].append(("cycle", fs, ()))
        rng = trial_rng(31, trial)
        fs = sample_fault_set(6, 3, rng)
        if fs.size == 3:
            u, v = sample_endpoints(rng, 6, fs)
            engine = "loop" if u[-1] == v[-1] else "chain"
            if len(found[engine]) < count:
                found[engine].append(("path", fs, (u, v)))
        trial += 1
    return [case for cases in found.values() for case in cases]


def _n5_campaign_builds(seed, trials):
    """The builds of full-budget n=5 cycle and path fuzz campaigns, as
    ``run_fuzz`` makes them, as (op, fault set, endpoints)."""
    cases = []
    for op, budget in (("cycle", 3), ("path", 2)):
        for trial in range(trials):
            rng = trial_rng(seed, trial)
            fs = sample_fault_set(5, budget, rng)
            cases.append((op, fs, () if op == "cycle" else sample_endpoints(rng, 5, fs)))
    return cases


def test_memo_changes_no_build(monkeypatch, recorded_builds):
    # full-budget n=6 builds and n=5 campaign builds with the memo (each run
    # from an empty one that its builds share) and with it defeated give
    # the same vertices, labels, trace details (CaseTrace equality) and
    # attempts, first as they are, then with one fault-free BP_3 path
    # request in about four refused, a rule that depends only on the
    # request's own frame, so memo hits have attempts to replay
    import burntpancake.constructor as cons

    cases = _full_n6_builds(3) + _n5_campaign_builds(28, 10)
    requests = []
    memo = cons._free_path_memo

    def counted(n, u, v, f, ctx):
        requests.append((n, f.dim))
        return memo(n, u, v, f, ctx)

    path_bp3 = cons._path_bp3

    def choosy(u, v, f, ctx):
        embed = cons._leaf_view(f, u)[0]
        if f.weight == 0 and embed(v)[1] < 0 and embed(v)[2] < 0:
            return None
        return path_bp3(u, v, f, ctx)

    for refuse in (False, True):
        if refuse:
            monkeypatch.setattr(cons, "_path_bp3", choosy)
        cons._path_memo.clear()
        monkeypatch.setattr(cons, "_free_path_memo", counted)
        with_memo = recorded_builds(cases)
        assert cons._path_memo
        monkeypatch.setattr(cons, "_free_path_memo", lambda n, u, v, f, ctx: cons._path_cases(n, u, v, f, ctx))
        without = recorded_builds(cases)
        assert with_memo == without
        assert all(attempts > 0 for _, _, attempts in with_memo) == refuse
    assert set(requests) == {(4, 5), (4, 6)}
    assert requests.count((4, 5)) > 100 and requests.count((4, 6)) > 100


def test_memo_has_no_switch():
    # the memo is always on: no builder parameter, no _Ctx argument, no
    # environment variable and no command-line option turns it off
    import inspect

    import burntpancake.constructor as cons
    from burntpancake.cli import build_parser

    assert list(inspect.signature(cons._Ctx).parameters) == ["attempts", "max_attempts"]
    assert list(inspect.signature(hamiltonian_cycle).parameters) == ["n", "fault_set"]
    assert list(inspect.signature(hamiltonian_path).parameters) == ["n", "u", "v", "fault_set"]
    source = Path(cons.__file__).read_text()
    assert "environ" not in source and "getenv" not in source
    assert "memo" not in build_parser().format_help()


@pytest.mark.parametrize("same_subgraph", [True, False], ids=["loop", "chain"])
def test_memo_hit_equals_a_fresh_build(same_subgraph):
    # one fault-free level-4 request in BP_6 under suffix (5, -6), then the
    # same request in frame under (-1, 3), where the free symbols and the
    # suffix's order both differ: the second is a hit, and it gives what a
    # build with an empty memo gives, path, labels and trace details (the
    # loop engine names its split vertices, suffix and all)
    import burntpancake.constructor as cons

    first, second = _relabel_into(4, (5, -6)), _relabel_into(4, (-1, 3))
    u = (2, -1, 4, 3)
    v = (-1, -2, 4, 3) if same_subgraph else (3, 1, -2, 4)
    ctx = _Ctx()
    for vertex, _ in (first, second):
        suffix = vertex((1, 2, 3, 4))[4:]
        got = _path(4, vertex(u), vertex(v), _Faults(4, suffix=suffix), ctx)
        assert len(cons._path_memo) == 1
    cons._path_memo.clear()
    fresh = _path(4, vertex(u), vertex(v), _Faults(4, suffix=suffix), _Ctx())
    assert got == fresh
    assert ("L20" in got[1].labels()) == same_subgraph


def test_memo_across_dimensions_equals_fresh_builds(cross_dimension_builds, recorded_builds):
    # full-budget builds at n = 5, 6, 7 and then 5 again, sharing one memo,
    # each equal a build from an empty memo in vertices, trace details and
    # attempts.  A level-4 frame holds one place for each suffix symbol, so
    # one stored under BP_5's single-symbol suffix would lift into BP_6 with
    # padding where a suffix symbol belongs: the key's suffix length keeps
    # the dimensions apart.
    import burntpancake.constructor as cons

    dims = [case[1].n for case, _ in cross_dimension_builds]
    assert dims == [5] * 6 + [6, 6, 7] + [5] * 6
    for case, warm in cross_dimension_builds:
        cons._path_memo.clear()
        assert recorded_builds([case]) == [warm], case


def test_memo_keeps_no_returned_trace(recorded_builds):
    # what a caller does to a built trace does not reach the memo: the
    # second of two equal builds still equals the first as built
    case = _n5_campaign_builds(28, 1)[1]
    (vertices, trace, attempts), = recorded_builds([case])
    want = (vertices, copy.deepcopy(trace), attempts)
    for node in _trace_nodes(trace):
        node.label = "x"
        for value in node.detail.values():
            if isinstance(value, list):
                value.clear()
        node.detail.clear()
    assert recorded_builds([case]) == [want]


def test_memo_bytes_stay_under_the_cap(monkeypatch, cross_dimension_builds, recorded_builds):
    # under a cap of 8 KiB (two level-4 frames of 3 KiB; a level-5 frame of
    # 30 KiB is not stored, and the level-4 paths its build stored stay) the
    # cross-dimension builds give what they give under the real cap, the
    # stored frames never pass it, and the memo is emptied to make room.  Under a cap of 64 KiB, with room to spare, the
    # byte count starts again at zero after the memo is emptied from outside.
    import burntpancake.constructor as cons

    monkeypatch.setattr(cons, "_PATH_MEMO_CAP", 8 << 10)
    memo = cons._free_path_memo
    sizes = []

    def checked(n, u, v, f, ctx):
        got = memo(n, u, v, f, ctx)
        stored = sum(len(frame or b"") for frame, *_ in cons._path_memo.values())
        assert stored == cons._path_memo_bytes <= cons._PATH_MEMO_CAP
        assert n == 4 or cons._path_memo
        sizes.append(len(cons._path_memo))
        return got

    monkeypatch.setattr(cons, "_free_path_memo", checked)
    cases = [case for case, _ in cross_dimension_builds]
    assert recorded_builds(cases) == [warm for _, warm in cross_dimension_builds]
    assert any(a > b for a, b in zip(sizes, sizes[1:]))
    monkeypatch.setattr(cons, "_PATH_MEMO_CAP", 64 << 10)
    for _ in range(2):
        cons._path_memo.clear()
        assert recorded_builds(cases[:1]) == [cross_dimension_builds[0][1]]


def test_memo_stores_from_threads_keep_the_count(monkeypatch):
    # four threads build the same n=5 campaign cases in rotated orders
    # under a 16 KiB cap and a short switch interval: each build equals its
    # build alone, and afterwards the byte count equals the stored frames.
    # The lock that stores take goes untested: on CPython the unlocked
    # count did not lose an update here either.
    import sys
    import threading

    import burntpancake.constructor as cons

    def build(case):
        op, fs, ends = case
        built = hamiltonian_cycle(5, fs) if op == "cycle" else hamiltonian_path(5, *ends, fs)
        return built.vertices, built.trace

    monkeypatch.setattr(cons, "_PATH_MEMO_CAP", 16 << 10)
    cases = _n5_campaign_builds(28, 10)
    want = [build(case) for case in cases]
    cons._path_memo.clear()
    got = [None] * 4

    def work(t):
        got[t] = {i: build(cases[i]) for i in ((k + 5 * t) % len(cases) for k in range(len(cases)))}

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for result in got:
        assert [result[i] for i in range(len(cases))] == want
    stored = sum(len(frame or b"") for frame, *_ in cons._path_memo.values())
    assert stored == cons._path_memo_bytes <= 16 << 10


def test_memo_spares_level4_builds_in_an_n5_campaign(monkeypatch):
    # a cold full-budget n=5 campaign serves many of its fault-free level-4
    # path requests from paths its earlier builds made
    import burntpancake.constructor as cons

    counts = {"requests": 0, "built": 0}
    path, path_cases = cons._path, cons._path_cases

    def requested(n, u, v, f, ctx):
        counts["requests"] += n == 4 and f.weight == 0
        return path(n, u, v, f, ctx)

    def built(n, u, v, f, ctx):
        counts["built"] += n == 4 and f.weight == 0
        return path_cases(n, u, v, f, ctx)

    monkeypatch.setattr(cons, "_path", requested)
    monkeypatch.setattr(cons, "_path_cases", built)
    for op, budget in (("cycle", 3), ("path", 2)):
        assert run_fuzz(5, op, 10, budget, seed=28).ok
    assert 0 < counts["built"] < counts["requests"]
