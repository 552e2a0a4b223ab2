import pytest

from burntpancake.bp3_fixtures import PAIR_CYCLES
from burntpancake.bp_graph import out_neighbor, subgraph_indices, vertex_count
from burntpancake.constructor import (
    BudgetExceededError,
    NoOrderingError,
    StrictModeFailure,
    UsageError,
    base_cycle_bp3,
    base_path_bp3,
    chain_path,
    hamiltonian_cycle,
    hamiltonian_path,
    loop_path,
    order_subgraphs,
)
from burntpancake.fault_model import FaultSet
from burntpancake.oracle import verify_cycle, verify_path
from burntpancake.signed_perm import (
    all_vertices,
    generator,
    identity,
    left_translate,
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
        got = base_cycle_bp3(fs)
        assert tuple(got.vertices) == PAIR_CYCLES[k]
        assert verify_cycle(3, fs, got).ok


def test_base_cycle_case2_opening():
    fs = FaultSet.build(3, matching_pairs=[[(1, 2, 3), (-1, 2, 3)]])
    got = base_cycle_bp3(fs)
    assert got.vertices[:3] == ((-2, -1, 3), (2, -1, 3), (-3, 1, -2))
    fs = FaultSet.build(3, matching_pairs=[[(1, 2, 3), (-3, -2, -1)]])
    got = base_cycle_bp3(fs)
    assert got.vertices[:3] == ((-2, -1, 3), (2, -1, 3), (1, -2, 3))


def test_base_cycle_translated_instance_is_fixture_image():
    a = (2, -3, 1)
    b = prefix_reversal(a, 2)
    fs = FaultSet.build(3, matching_pairs=[[a, b]])
    got = base_cycle_bp3(fs)
    want = tuple(left_translate(max(a, b), x) for x in PAIR_CYCLES[2])
    assert tuple(got.vertices) == want
    assert verify_cycle(3, fs, got).ok


def test_base_cycle_budget():
    fs = FaultSet.build(
        3, matching_pairs=[[(1, 2, 3), (-1, 2, 3)]], faulty_edges=[[(2, 1, 3), (-2, 1, 3)]]
    )
    with pytest.raises(UsageError):
        base_cycle_bp3(fs)


def test_base_path_examples():
    got = base_path_bp3((1, 2, 3), (-1, 2, 3))
    assert len(got.vertices) == 48
    assert verify_path(3, FaultSet.build(3), (1, 2, 3), (-1, 2, 3), got).ok
    # reversal answers the swapped endpoints
    rev = list(reversed(got.vertices))
    assert verify_path(3, FaultSet.build(3), (-1, 2, 3), (1, 2, 3), rev).ok


def test_base_path_rejects_equal_endpoints():
    with pytest.raises(UsageError):
        base_path_bp3((1, 2, 3), (1, 2, 3))


# ----------------------------------------------------------- chain / loop


def test_chain_path_closure_is_cycle_on_bp4():
    u = identity(4)
    v = out_neighbor(u)
    fs = FaultSet.build(4)
    got = chain_path(4, subgraph_indices(4), u, v, fs)
    assert got.vertices[0] == u and got.vertices[-1] == v
    assert verify_cycle(4, fs, got.vertices).ok  # closing edge (v, u) exists


def test_chain_path_vertex_count_with_pair_removed():
    fs = FaultSet.build(5, matching_pairs=[[(2, 1, 3, 4, 5), (-1, -2, 3, 4, 5)]])
    u = identity(5)
    v = out_neighbor(u)
    got = chain_path(5, subgraph_indices(5), u, v, fs)
    assert len(got.vertices) == vertex_count(5) - 2
    assert verify_path(5, fs, u, v, got).ok


def test_chain_path_preconditions():
    fs = FaultSet.build(4)
    with pytest.raises(UsageError):
        chain_path(4, [1, -1, 2], identity(4), out_neighbor(identity(4)), fs)
    with pytest.raises(UsageError):
        chain_path(4, subgraph_indices(4), identity(4), (2, 1, 3, 4), fs)


def test_loop_path_bp4_same_subgraph():
    u = identity(4)
    v = (-2, -1, 3, 4)
    fs = FaultSet.build(4)
    got = loop_path(4, subgraph_indices(4), u, v, fs)
    assert len(got.vertices) == vertex_count(4)
    assert verify_path(4, fs, u, v, got).ok
    # the spliced edge's out-neighbors land in distinct subgraphs; the
    # splice position is recorded on the trace
    labels = got.trace.labels()
    assert "L20" in labels


def test_loop_path_preconditions():
    fs = FaultSet.build(4)
    with pytest.raises(UsageError):
        loop_path(4, [1, -1, 2, -2, 3], identity(4), (-2, -1, 3, 4), fs)
    with pytest.raises(UsageError):
        loop_path(4, subgraph_indices(4), identity(4), out_neighbor(identity(4)), fs)


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
    assert got.trace.detail["fallback_invocations"] == 0


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


def test_fallback_mode_rescues_and_counts(monkeypatch):
    import burntpancake.constructor as cons

    # force the recursive dispatch to fail so only the fallback can answer
    monkeypatch.setattr(cons, "_path", lambda *a, **k: None)
    fs = FaultSet.build(4)
    u, v = identity(4), (-1, 2, 3, 4)
    with pytest.raises(cons.StrictModeFailure):
        cons.hamiltonian_path(4, u, v, fs, mode="strict")
    got = cons.hamiltonian_path(4, u, v, fs, mode="fallback")
    assert got.trace.detail["fallback_invocations"] >= 1
    assert verify_path(4, fs, u, v, got).ok


def test_fallback_mode_idle_on_healthy_instances():
    fs = FaultSet.build(4, matching_pairs=[[(2, 1, 3, 4), (-1, -2, 3, 4)]])
    got = hamiltonian_cycle(4, fs, mode="fallback")
    assert got.trace.detail["fallback_invocations"] == 0
    assert verify_cycle(4, fs, got).ok


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
# (up to left translation and path reversal): a matching pair on the n-edge
# {e, g_4} gives subgraphs -1 and 4 weight 1 each, the path dispatch takes
# -1 as the heavy subgraph, and subgraph 4 minus e has no Hamiltonian path
# between the endpoints.
_TIED_HEAVY_PATHS = [((-3, -2, 1, 4), (-2, 1, 3, 4)), ((-3, 1, 2, 4), (2, -1, 3, 4))]


@pytest.mark.parametrize("u, v", _TIED_HEAVY_PATHS)
@pytest.mark.xfail(raises=StrictModeFailure, strict=True, reason="heavy-subgraph tie broken by scan order only")
def test_strict_path_n4_pair_on_n_edge(u, v):
    fs = FaultSet.build(4, matching_pairs=[[identity(4), generator(4, 4)]])
    got = hamiltonian_path(4, u, v, fs)
    assert verify_path(4, fs, u, v, got).ok


@pytest.mark.parametrize("u, v", _TIED_HEAVY_PATHS)
def test_fallback_mode_builds_strict_failures(u, v):
    fs = FaultSet.build(4, matching_pairs=[[identity(4), generator(4, 4)]])
    got = hamiltonian_path(4, u, v, fs, mode="fallback")
    assert verify_path(4, fs, u, v, got).ok and len(got.vertices) == 382


def test_cross_edge_candidates_stay_abundant_under_faults():
    # junction selection always keeps a usable cross edge: each removed
    # vertex kills at most one cross edge per subgraph pair (it has a single
    # out-edge), each faulty edge at most one
    from burntpancake.constructor import _Faults, _cross_candidates
    from burntpancake.bp_graph import cross_edge_count
    from burntpancake.fuzz import sample_fault_set, trial_rng

    for n in (4, 5):
        for trial in range(30):
            fs = sample_fault_set(n, n - 2, trial_rng(13, trial))
            f = _Faults.from_fault_set(fs)
            floor = cross_edge_count(n) - 2 * fs.size
            assert floor > 0
            for i, j in ((1, 2), (2, -1), (-3, n)):
                got = len(_cross_candidates(n, i, j, f))
                assert got >= floor


def test_chain_path_rejects_overweight_member_subgraph():
    # two faults inside one member subgraph exceed the n-4 budget at n=5
    fs = FaultSet.build(
        5,
        matching_pairs=[[(2, 1, 3, 4, 5), (-1, -2, 3, 4, 5)]],
        faulty_edges=[[(3, 1, 2, 4, 5), (-1, -3, 2, 4, 5)]],
    )
    u, v = identity(5), out_neighbor(identity(5))
    with pytest.raises(UsageError):
        chain_path(5, subgraph_indices(5), u, v, fs)


def test_public_builders_reject_unknown_mode():
    fs = FaultSet.build(4)
    u = identity(4)
    with pytest.raises(UsageError):
        hamiltonian_cycle(4, fs, mode="bogus")
    with pytest.raises(UsageError):
        hamiltonian_path(4, u, (-1, 2, 3, 4), fs, mode="bogus")
    with pytest.raises(UsageError):
        chain_path(4, subgraph_indices(4), u, out_neighbor(u), fs, mode="bogus")
    with pytest.raises(UsageError):
        loop_path(4, subgraph_indices(4), u, (-2, -1, 3, 4), fs, mode="bogus")


def test_public_builders_reject_dimension_above_limit(monkeypatch):
    import burntpancake.constructor as cons

    def boom(*args, **kwargs):
        raise AssertionError("the engines must not run on an out-of-range n")

    # n = 9 would list 645 120 cross edges per subgraph pair before recursing
    monkeypatch.setattr(cons, "_chain", boom)
    monkeypatch.setattr(cons, "_loop", boom)
    fs = FaultSet.build(9)
    u = identity(9)
    with pytest.raises(UsageError):
        chain_path(9, subgraph_indices(9), u, out_neighbor(u), fs)
    with pytest.raises(UsageError):
        loop_path(9, subgraph_indices(9), u, prefix_reversal(u, 2), fs)
