import json

import pytest

from burntpancake.bp_graph import subgraph_embed, subgraph_indices
from burntpancake.constructor import _Faults, _restrict_embed, _weights
from burntpancake.fault_model import FaultSet, validate

# worked example on BP_3: two matching pairs plus three faulty edges
EXAMPLE = FaultSet.build(
    3,
    matching_pairs=[[(1, 2, 3), (-1, 2, 3)], [(1, -2, 3), (-3, 2, -1)]],
    faulty_edges=[
        [(-2, 1, 3), (2, 1, 3)],
        [(-1, -2, 3), (-3, 2, 1)],
        [(-1, 2, -3), (-2, 1, -3)],
    ],
)


def test_example_is_valid_with_size_five():
    report = validate(EXAMPLE, bound=5)
    assert report.ok
    assert EXAMPLE.size == 5


def test_example_removed_vertices():
    assert EXAMPLE.removed_vertices() == {(1, 2, 3), (-1, 2, 3), (1, -2, 3), (-3, 2, -1)}


def test_example_restriction():
    # the constructor's view of each subgraph keeps BP_3 coordinates: its
    # vertices end in the subgraph index, and subgraph_embed gives BP_2 ones
    f = _Faults.from_fault_set(EXAMPLE)
    views = {i: _restrict_embed(f, i) for i in subgraph_indices(3)}
    for i, x in views.items():
        assert x.n == 2 and x.suffix == (i,)
        assert all(len(v) == 3 and v[-1] == i for v in x.fault_vertices)

    def below(pairs):
        return tuple((subgraph_embed(a), subgraph_embed(b)) for a, b in pairs)

    # only the 1-dimensional pair sits inside a single subgraph
    assert below(views[3].pairs) == (((-1, 2), (1, 2)),)
    assert all(not x.pairs for i, x in views.items() if i != 3)
    # the other pair's carrier is 3-dimensional and straddles subgraphs 3
    # and -1: it leaves one single on each side
    singles = {i: tuple(map(subgraph_embed, x.singles)) for i, x in views.items() if x.singles}
    assert singles == {-1: ((-2, 1),), 3: ((1, -2),)}
    # the edge straddling subgraphs 3 and 1 appears in no subgraph
    assert {i: below(x.edges) for i, x in views.items() if x.edges} == {
        3: (((-2, 1), (2, 1)),),
        -3: (((-2, 1), (-1, 2)),),
    }
    weights = _weights(f)
    for i, x in views.items():
        assert x.weight == weights[i]


def test_empty_fault_set():
    fs = FaultSet.build(3)
    assert validate(fs, bound=0).ok
    assert fs.size == 0
    assert fs.removed_vertices() == frozenset()


def test_pairs_sharing_a_vertex_rejected():
    fs = FaultSet.build(
        3, matching_pairs=[[(1, 2, 3), (-1, 2, 3)], [(1, 2, 3), (-2, -1, 3)]]
    )
    report = validate(fs)
    assert not report.ok
    assert "not-a-matching" in {v.kind for v in report.violations}


def test_pair_must_be_an_edge():
    fs = FaultSet.build(3, matching_pairs=[[(1, 2, 3), (3, 2, 1)]])
    report = validate(fs)
    assert not report.ok
    assert "pair-not-an-edge" in {v.kind for v in report.violations}


def test_faulty_edge_cannot_touch_removed_vertex():
    fs = FaultSet.build(
        3,
        matching_pairs=[[(1, 2, 3), (-1, 2, 3)]],
        faulty_edges=[[(1, 2, 3), (-2, -1, 3)]],
    )
    report = validate(fs)
    assert not report.ok
    assert "edge-touches-removed" in {v.kind for v in report.violations}


def test_duplicate_edges_rejected():
    fs = FaultSet.build(
        3,
        faulty_edges=[[(1, 2, 3), (-1, 2, 3)], [(-1, 2, 3), (1, 2, 3)]],
    )
    report = validate(fs)
    assert not report.ok
    assert "duplicate-edge" in {v.kind for v in report.violations}


def test_budget_check():
    report = validate(EXAMPLE, bound=4)
    assert not report.ok
    assert "budget-exceeded" in {v.kind for v in report.violations}


def test_validate_idempotent():
    first = validate(EXAMPLE, bound=5)
    second = validate(EXAMPLE, bound=5)
    assert first == second


def test_json_round_trip_bit_exact():
    text = EXAMPLE.to_json()
    back = FaultSet.from_json(text)
    assert back == EXAMPLE
    assert back.to_json() == text
    doc = json.loads(text)
    assert doc["n"] == 3
    assert all(isinstance(v, list) for pair in doc["matching_pairs"] for v in pair)


def test_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        FaultSet.from_json("{}")
    with pytest.raises(ValueError):
        FaultSet.from_json('{"n": 3, "matching_pairs": [[[1,2,3]]]}')


def test_canonical_ordering_is_stable():
    a = FaultSet.build(3, matching_pairs=[[(-1, 2, 3), (1, 2, 3)]])
    b = FaultSet.build(3, matching_pairs=[[(1, 2, 3), (-1, 2, 3)]])
    assert a == b


def test_residual_degree_coarse_bound():
    # removing the matched vertices leaves every survivor with degree at
    # least n - 2|F|
    from burntpancake.oracle import residual_degree
    from burntpancake.signed_perm import all_vertices

    n = 3
    removed = EXAMPLE.removed_vertices()
    floor = n - 2 * EXAMPLE.size
    for v in all_vertices(n):
        if v not in removed:
            assert residual_degree(n, EXAMPLE, v) >= floor


def test_edge_only_set_removes_no_vertices():
    fs = FaultSet.build(3, faulty_edges=[[(2, 1, 3), (-1, -2, 3)]])
    assert fs.removed_vertices() == frozenset()
    assert len(EXAMPLE.removed_vertices()) == 2 * len(EXAMPLE.matching_pairs)
