import base64
import itertools
from pathlib import Path

import pytest

from burntpancake.bp3_fixtures import FREE_PATHS, PAIR_CYCLES
from burntpancake.bp_graph import (
    edge_dimension,
    edge_key,
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
    UsageError,
    _chain,
    _check_output,
    _Ctx,
    _Faults,
    _free_path,
    _leaf_view,
    _loop,
    _small_search,
    hamiltonian_cycle,
    hamiltonian_path,
    order_subgraphs,
)
from burntpancake.fault_model import FaultSet
from burntpancake.fuzz import sample_endpoints, sample_fault_set, trial_rng
from burntpancake.oracle import SearchStatus, exhaustive_path_search, verify_cycle, verify_path
from burntpancake.signed_perm import (
    all_vertices,
    generator,
    identity,
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


def _free_path_slot(path) -> bytes:
    """One FREE_PATHS slot for ``path`` (encoding in bp3_fixtures)."""
    dims = [edge_dimension(a, b) for a, b in zip(path, path[1:])]
    bits = dims[0] - 1
    for prev, d in zip(dims, dims[1:]):
        bits = bits << 1 | sorted({1, 2, 3} - {prev}).index(d)
    return bits.to_bytes(6, "big")


def test_free_path_table_matches_search():
    # the table is a stored copy of the search's fault-free paths; on a
    # mismatch the failure prints the table the search gives, as base64
    # lines ready to paste into bp3_fixtures
    none = frozenset()
    vertices = all_vertices(3)
    paths = {}
    wrong = []
    for u, v in itertools.permutations(vertices, 2):
        paths[u, v] = _small_search(3, none, none, u, v)
        try:
            if _free_path(u, v) != paths[u, v]:
                wrong.append((u, v))
        except InternalInvariantError:
            wrong.append((u, v))
    if wrong:
        table = bytearray(len(FREE_PATHS))
        for (u, v), path in paths.items():
            at = 6 * (48 * vertices.index(u) + vertices.index(v))
            table[at : at + 6] = _free_path_slot(path)
        text = base64.b64encode(table).decode()
        lines = "\n".join(f'    "{text[k : k + 76]}"' for k in range(0, len(text), 76))
        pytest.fail(f"{len(wrong)} stored paths differ from the search, first {wrong[:3]}; regenerated:\n{lines}")


def test_corrupt_free_path_raises(monkeypatch):
    import burntpancake.constructor as cons

    # flipping the last bit of a slot swaps the path's final step, so the
    # decoded path ends beside the target, not on it
    u, v = (1, 2, 3), (-1, 2, 3)
    table = bytearray(FREE_PATHS)
    table[6 * (48 * cons._BP3_INDEX[u] + cons._BP3_INDEX[v]) + 5] ^= 1
    monkeypatch.setattr(cons, "FREE_PATHS", bytes(table))
    monkeypatch.setattr(cons, "_bp3_path_cache", {})
    with pytest.raises(InternalInvariantError, match="stored BP_3 path"):
        hamiltonian_path(3, u, v, FaultSet.build(3))


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
    vertices, _ = _chain(4, subgraph_indices(4), u, v, _Faults.from_fault_set(fs), _Ctx())
    assert vertices[0] == u and vertices[-1] == v
    assert verify_cycle(4, fs, vertices).ok  # closing edge (v, u) exists


def test_chain_path_vertex_count_with_pair_removed():
    fs = FaultSet.build(5, matching_pairs=[[(2, 1, 3, 4, 5), (-1, -2, 3, 4, 5)]])
    u = identity(5)
    v = out_neighbor(u)
    vertices, _ = _chain(5, subgraph_indices(5), u, v, _Faults.from_fault_set(fs), _Ctx())
    assert len(vertices) == vertex_count(5) - 2
    assert verify_path(5, fs, u, v, vertices).ok


def test_loop_path_bp4_same_subgraph():
    u = identity(4)
    v = (-2, -1, 3, 4)
    fs = FaultSet.build(4)
    vertices, trace = _loop(4, subgraph_indices(4), u, v, _Faults.from_fault_set(fs), _Ctx())
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
                got = len(_cross_candidates(n, i, j, f))
                assert got >= floor


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


@pytest.mark.parametrize("case", list(_check_cases()), ids=lambda case: case[0])
def test_check_output_raises_exactly_on_bad_output(case):
    _, n, f, seq, closed, (u, v), message = case
    if message is None:
        _check_output(n, f, seq, closed, u, v)
    else:
        with pytest.raises(InternalInvariantError, match=message):
            _check_output(n, f, seq, closed, u, v)


# ---------------------------------------------------------------- frames


def test_leaf_frame_is_order_preserving_and_commutes_with_reversals():
    # builds run in BP_n coordinates and only the BP_3 leaf relabels, so
    # its scans see the same order as a build in BP_3 coordinates would
    bp3 = all_vertices(3)
    bp5 = all_vertices(5)
    for suffix in sorted({u[3:] for u in bp5}):
        embed, lift, _, _ = _leaf_view(_Faults(3, suffix=suffix))
        lifted = lift(bp3)
        assert all(a < b for a, b in zip(lifted, lifted[1:]))
        assert lifted == [u for u in bp5 if u[3:] == suffix]
        assert lifted == lift_all(suffix, bp3)
        assert [embed(u) for u in lifted] == bp3
        for x, u in zip(bp3, lifted):
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
