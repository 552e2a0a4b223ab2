"""The package's record classes: repr, equality, hashing and immutability.

Each repr is pinned as a literal string, so a change of how a record is
declared cannot change what it prints.  Frozen records hash as the tuple
of their fields and refuse assignment; mutable ones compare field by field
and are unhashable.
"""

import pytest

from burntpancake import bp_graph
from burntpancake.constructor import CaseTrace, VertexCycle, VertexPath, _Ctx, _Faults
from burntpancake.fault_model import FaultSet, ValidationReport, Violation
from burntpancake.fuzz import FuzzReport
from burntpancake.oracle import SearchResult, SearchStatus, VerificationReport

PACKED = bp_graph.pack(2, [(1, 2), (-1, 2)])
VIOLATION = Violation("pair-not-an-edge", "(1,2,3 | 2,1,3)", "end-vertices are not adjacent")


def _frozen_records():
    """(make, fields, repr, changed): ``make()`` builds a fresh record whose
    field values are ``fields``; ``changed`` differs from it in one field."""
    return [
        (
            lambda: FaultSet.build(3, [[(1, 2, 3), (-1, 2, 3)]], [[(2, 1, 3), (-2, 1, 3)]]),
            (3, (((-1, 2, 3), (1, 2, 3)),), (((-2, 1, 3), (2, 1, 3)),)),
            "FaultSet(n=3, matching_pairs=(((-1, 2, 3), (1, 2, 3)),), faulty_edges=(((-2, 1, 3), (2, 1, 3)),))",
            FaultSet.build(3, [[(1, 2, 3), (-1, 2, 3)]]),
        ),
        (
            lambda: Violation("pair-not-an-edge", "(1,2,3 | 2,1,3)", "end-vertices are not adjacent"),
            ("pair-not-an-edge", "(1,2,3 | 2,1,3)", "end-vertices are not adjacent"),
            "Violation(kind='pair-not-an-edge', element='(1,2,3 | 2,1,3)', detail='end-vertices are not adjacent')",
            Violation("not-a-matching", "(1,2,3 | 2,1,3)", "end-vertices are not adjacent"),
        ),
        (
            lambda: ValidationReport(False, (VIOLATION,)),
            (False, (VIOLATION,)),
            "ValidationReport(ok=False, violations=(Violation(kind='pair-not-an-edge', "
            "element='(1,2,3 | 2,1,3)', detail='end-vertices are not adjacent'),))",
            ValidationReport(False),
        ),
        (
            lambda: ValidationReport(ok=True),
            (True, ()),
            "ValidationReport(ok=True, violations=())",
            ValidationReport(False),
        ),
        (
            lambda: VerificationReport(False, (("RepeatedVertex", 2, "1,2,3"),)),
            (False, (("RepeatedVertex", 2, "1,2,3"),)),
            "VerificationReport(ok=False, violations=(('RepeatedVertex', 2, '1,2,3'),))",
            VerificationReport(False, (("RepeatedVertex", 3, "1,2,3"),)),
        ),
        (
            lambda: SearchResult(SearchStatus.FOUND, ((1, 2), (-1, 2)), 4),
            (SearchStatus.FOUND, ((1, 2), (-1, 2)), 4),
            "SearchResult(status=<SearchStatus.FOUND: 'found'>, vertices=((1, 2), (-1, 2)), nodes_expanded=4)",
            SearchResult(SearchStatus.FOUND, ((1, 2), (-1, 2)), 5),
        ),
        (
            lambda: SearchResult(SearchStatus.TIMEOUT),
            (SearchStatus.TIMEOUT, (), 0),
            "SearchResult(status=<SearchStatus.TIMEOUT: 'timeout'>, vertices=(), nodes_expanded=0)",
            SearchResult(SearchStatus.PROVEN_ABSENT),
        ),
        (
            lambda: _Faults(2, (((1, 2), (-1, 2)),), ((2, 1),), (), (3,)),
            (2, (((1, 2), (-1, 2)),), ((2, 1),), (), (3,)),
            "_Faults(n=2, pairs=(((1, 2), (-1, 2)),), singles=((2, 1),), edges=(), suffix=(3,))",
            _Faults(2, (((1, 2), (-1, 2)),), ((2, 1),), (), (-3,)),
        ),
        (
            lambda: _Faults(3),
            (3, (), (), (), ()),
            "_Faults(n=3, pairs=(), singles=(), edges=(), suffix=())",
            _Faults(4),
        ),
    ]


@pytest.mark.parametrize("k", range(9))
def test_frozen_record_repr_eq_hash(k):
    make, fields, text, changed = _frozen_records()[k]
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and not a != b
    assert a != changed and not a == changed
    assert hash(a) == hash(b) == hash(fields)
    name = text[: text.index("(")]
    first = text[len(name) + 1 : text.index("=")]
    with pytest.raises(AttributeError):
        setattr(a, first, None)
    with pytest.raises(AttributeError):
        delattr(a, first)
    assert getattr(a, first) == fields[0]


@pytest.mark.parametrize("cls", [VertexCycle, VertexPath])
def test_built_object_repr_eq_hash(cls):
    a, b = cls(2, PACKED, CaseTrace("root")), cls(2, PACKED, CaseTrace("root"))
    assert repr(a) == (
        f"{cls.__name__}(n=2, packed=b'\\x01\\x02\\x00\\x00\\x00\\x00\\x00\\x00\\xff\\x02"
        "\\x00\\x00\\x00\\x00\\x00\\x00', trace=CaseTrace(label='root', detail={}, children=[]))"
    )
    assert a == b
    assert a != cls(2, PACKED, CaseTrace("L17"))
    assert a != cls(2, PACKED[8:] + PACKED[:8], CaseTrace("root"))
    assert a.vertices == ((1, 2), (-1, 2))
    with pytest.raises(TypeError):  # the trace is mutable, so the object is unhashable
        hash(a)
    with pytest.raises(AttributeError):
        a.n = 3


def test_faults_cached_properties_survive():
    f = _Faults(2, (((1, 2), (-1, 2)),), ((2, 1),), (((1, -2), (-1, -2)),), (3,))
    assert f.removed == {(1, 2), (-1, 2), (2, 1)}
    assert f.fault_vertices == {(1, 2), (-1, 2), (2, 1), (1, -2), (-1, -2)}
    assert f.dim == 3 and f.weight == 3
    assert f.removed is f.removed
    assert f == _Faults(2, (((1, 2), (-1, 2)),), ((2, 1),), (((1, -2), (-1, -2)),), (3,))
    assert f.without_single((2, 1)).singles == ()
    assert f.without_pair(((1, 2), (-1, 2))).pairs == ()
    assert f.without_edge(((1, -2), (-1, -2))).edges == ()


def test_case_trace_repr_eq_mutable():
    a = CaseTrace("root", {"n": 2}, [CaseTrace("L17", {"order": [1, -1]})])
    assert repr(a) == (
        "CaseTrace(label='root', detail={'n': 2}, children=[CaseTrace(label='L17', "
        "detail={'order': [1, -1]}, children=[])])"
    )
    assert a == CaseTrace("root", {"n": 2}, [CaseTrace("L17", {"order": [1, -1]})])
    assert a != CaseTrace("root", {"n": 2}, [CaseTrace("L18", {"order": [1, -1]})])
    assert CaseTrace("x").detail == {} and CaseTrace("x").children == []
    assert CaseTrace("x").detail is not CaseTrace("x").detail
    with pytest.raises(TypeError):
        hash(a)
    a.label = "top"
    assert a.labels() == ["top", "L17"]


def test_ctx_repr_eq_mutable():
    a = _Ctx()
    assert repr(a) == "_Ctx(attempts=0, max_attempts=200000)"
    assert repr(_Ctx(2, 5)) == "_Ctx(attempts=2, max_attempts=5)"
    assert a == _Ctx() and a != _Ctx(1)
    assert vars(a) == {"attempts": 0, "max_attempts": 200_000}  # the path memo is the process's
    with pytest.raises(TypeError):
        hash(a)
    a.attempts = 3
    assert a.attempts == 3


def test_fuzz_report_repr_eq_mutable():
    a = FuzzReport(4, "cycle", 1, 2)
    assert repr(a) == (
        "FuzzReport(n=4, op='cycle', seed=1, max_faults=2, trials=0, successes=0, "
        "verification_failures=0, strict_failures=0, case_histogram={}, failures=[], wall_time=0.0)"
    )
    assert a == FuzzReport(n=4, op="cycle", seed=1, max_faults=2)
    assert a != FuzzReport(4, "path", 1, 2)
    assert a.case_histogram is not FuzzReport(4, "cycle", 1, 2).case_histogram
    with pytest.raises(TypeError):
        hash(a)
    a.trials += 1
    a.failures.append({"trial": 0})
    assert a != FuzzReport(4, "cycle", 1, 2)
    assert a == FuzzReport(4, "cycle", 1, 2, trials=1, failures=[{"trial": 0}])
