import pytest

from burntpancake.bp3_fixtures import PAIR_CYCLES
from burntpancake.bp_graph import edge_key, neighbors
from burntpancake.fault_model import FaultSet
from burntpancake.oracle import (
    SearchStatus,
    exhaustive_cycle_search,
    exhaustive_path_search,
    residual_degree,
    tightness_witness_cycle,
    tightness_witness_path,
    verify_cycle,
    verify_path,
)
from burntpancake.fault_model import validate
from burntpancake.signed_perm import all_vertices, generator, identity

PAIR_K2 = FaultSet.build(3, matching_pairs=[[identity(3), generator(3, 2)]])


def test_fixture_verifies_against_its_pair():
    report = verify_cycle(3, PAIR_K2, PAIR_CYCLES[2])
    assert report.ok
    assert len(PAIR_CYCLES[2]) == 46


def test_dropped_vertex_detected():
    broken = PAIR_CYCLES[2][:10] + PAIR_CYCLES[2][11:]
    report = verify_cycle(3, PAIR_K2, broken)
    kinds = report.kinds()
    assert "MissingVertex" in kinds
    assert "NonAdjacent" in kinds or "WrongLength" in kinds


def test_non_integer_symbols_never_prove_completeness():
    # abs(1j) == 1, and every step of the relabelled cycle is still a prefix
    # reversal, so only the symbols' type tells it from a cycle of BP_3
    relabelled = [tuple(x * 1j if abs(x) == 1 else x for x in v) for v in PAIR_CYCLES[2]]
    report = verify_cycle(3, PAIR_K2, relabelled)
    assert report.kinds() == {"MissingVertex"}
    assert len(report.violations) == 46


def test_traversed_edge_declared_faulty_detected():
    a, b = PAIR_CYCLES[2][0], PAIR_CYCLES[2][1]
    fs = FaultSet.build(
        3, matching_pairs=[[identity(3), generator(3, 2)]], faulty_edges=[[a, b]]
    )
    report = verify_cycle(3, fs, PAIR_CYCLES[2])
    assert not report.ok
    assert "FaultyEdgeUsed" in report.kinds()


def test_single_mutations_flip_cycle_verdict():
    good = list(PAIR_CYCLES[1])
    fs = FaultSet.build(3, matching_pairs=[[identity(3), generator(3, 1)]])
    assert verify_cycle(3, fs, good).ok
    # swap two interior vertices
    mutated = list(good)
    mutated[3], mutated[10] = mutated[10], mutated[3]
    assert not verify_cycle(3, fs, mutated).ok
    # duplicate a vertex
    mutated = list(good)
    mutated[7] = mutated[20]
    assert not verify_cycle(3, fs, mutated).ok
    # reinsert a removed vertex
    mutated = list(good)
    mutated[7] = identity(3)
    report = verify_cycle(3, fs, mutated)
    assert not report.ok and "FaultyVertexUsed" in report.kinds()
    # rotating is harmless
    assert verify_cycle(3, fs, good[5:] + good[:5]).ok


def test_path_verifier_endpoints_and_length():
    fs = FaultSet.build(3)
    res = exhaustive_path_search(3, fs, (1, 2, 3), (-1, 2, 3))
    assert res.found
    path = list(res.vertices)
    assert verify_path(3, fs, (1, 2, 3), (-1, 2, 3), path).ok
    # reversed path answers the swapped endpoints
    assert verify_path(3, fs, (-1, 2, 3), (1, 2, 3), list(reversed(path))).ok
    assert not verify_path(3, fs, (1, 2, 3), (-1, 2, 3), list(reversed(path))).ok
    # truncated path
    report = verify_path(3, fs, (1, 2, 3), (-1, 2, 3), path[:-1])
    assert "WrongLength" in report.kinds() or "MissingVertex" in report.kinds()
    # wrong endpoint labels
    report = verify_path(3, fs, (1, 2, 3), (-2, -1, 3), path)
    assert "WrongEndpoints" in report.kinds()


def test_cycle_search_empty_faults():
    res = exhaustive_cycle_search(3, FaultSet.build(3))
    assert res.status is SearchStatus.FOUND
    assert verify_cycle(3, FaultSet.build(3), res.vertices).ok


def test_cycle_search_single_pairs_found():
    for k in (1, 2, 3):
        fs = FaultSet.build(3, matching_pairs=[[identity(3), generator(3, k)]])
        res = exhaustive_cycle_search(3, fs)
        assert res.found
        assert verify_cycle(3, fs, res.vertices).ok


def test_cycle_search_degree_one_proven_absent():
    root = identity(3)
    fs = FaultSet.build(
        3, faulty_edges=[[root, (-1, 2, 3)], [root, (-2, -1, 3)]]
    )
    assert residual_degree(3, fs, root) == 1
    res = exhaustive_cycle_search(3, fs)
    assert res.status is SearchStatus.PROVEN_ABSENT


def test_path_search_usage_errors():
    with pytest.raises(ValueError):
        exhaustive_path_search(3, FaultSet.build(3), (1, 2, 3), (1, 2, 3))


def test_search_timeout_is_distinct():
    fs = FaultSet.build(4)
    res = exhaustive_cycle_search(4, fs, time_budget=0.0)
    assert res.status in (SearchStatus.TIMEOUT, SearchStatus.FOUND)
    # with a zero budget the very first tick trips, so expect a timeout
    assert res.status is SearchStatus.TIMEOUT


def test_tightness_witnesses_structure():
    for n in (3, 4, 5):
        w = tightness_witness_cycle(n)
        assert w.size == n - 1
        assert validate(w, bound=n - 1).ok
        assert residual_degree(n, w, identity(n)) == 1
        fs, x, y = tightness_witness_path(n)
        assert fs.size == n - 2
        assert validate(fs, bound=n - 2).ok
        assert residual_degree(n, fs, identity(n)) == 2
        banned = set(fs.faulty_edges)
        remaining = {
            w for w in neighbors(identity(n)) if edge_key(identity(n), w) not in banned
        }
        assert remaining == {x, y}


def test_tightness_proven_absent_at_n3():
    res = exhaustive_cycle_search(3, tightness_witness_cycle(3))
    assert res.status is SearchStatus.PROVEN_ABSENT
    fs, x, y = tightness_witness_path(3)
    res = exhaustive_path_search(3, fs, x, y)
    assert res.status is SearchStatus.PROVEN_ABSENT


def test_search_agrees_with_verifier():
    fs = FaultSet.build(
        3, matching_pairs=[[(2, -3, 1), (3, -2, 1)]], faulty_edges=[]
    )
    res = exhaustive_cycle_search(3, fs)
    assert res.found
    assert verify_cycle(3, fs, res.vertices).ok
    assert len(res.vertices) == 46


def test_search_and_constructor_agree_on_single_fault_existence():
    # independent existence cross-check over every single-fault instance
    edges = set()
    for u in all_vertices(3):
        for w in neighbors(u):
            edges.add(edge_key(u, w))
    for a, b in sorted(edges):
        for fs in (
            FaultSet.build(3, matching_pairs=[[a, b]]),
            FaultSet.build(3, faulty_edges=[[a, b]]),
        ):
            assert exhaustive_cycle_search(3, fs).found


def test_two_vertex_closed_walk_is_no_cycle():
    """A closed sequence of two adjacent vertices runs one edge twice; the
    oracle rejects it on tuples and on the packed form alike."""
    from burntpancake.bp_graph import pack

    c = [(1, 2), (-1, 2), (-2, 1), (2, 1), (-1, -2), (1, -2), (2, -1), (-2, -1)]  # BP_2, an 8-cycle
    assert all(b in neighbors(a) for a, b in zip(c, c[1:] + c[:1]))
    fs2 = FaultSet.build(2, matching_pairs=[c[2:4], c[4:6], c[6:8]])
    assert validate(fs2).ok
    for n, fs, seq in ((1, FaultSet.build(1), [(1,), (-1,)]), (2, fs2, c[:2])):
        for got in (seq, pack(n, seq)):
            report = verify_cycle(n, fs, got)
            assert not report.ok and report.kinds() == {"ShortCycle"}, report
    # one vertex is reported as before, with no ShortCycle
    assert verify_cycle(1, FaultSet.build(1), [(1,)]).kinds() == {"NonAdjacent", "WrongLength", "MissingVertex"}
