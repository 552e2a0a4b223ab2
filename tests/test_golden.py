"""Golden digests: constructions stay byte-identical across refactors.

Each group hashes (sha256) the vertex sequence and the trace labels of every
build in it, in a fixed order.  A digest changes when any vertex, its order,
or any case label changes, so a refactor of the constructor that keeps these
digests keeps its output for these inputs exactly.

Groups:

- every ``CASE_TABLE`` scenario of the acceptance suite;
- the first 200 seed-0 fuzz trials of n=4 cycles and paths, and the first 50
  of n=5, rebuilt from ``trial_rng`` with the acceptance suite's fault
  budgets (fuzz reports hold no vertices);
- two of the acceptance suite's n=6 smoke instances;
- ``full_n7``: one full-budget n=7 cycle (|F| = 5), four levels of recursion
  above BP_3;
- ``full_n6``: full-budget n=6 builds drawn from ``trial_rng``, an L18/1
  and an L18/2.1 cycle (|F| = 4), and a path (|F| = 3) whose top level runs
  the loop engine (L20) and one that runs the chain engine (L17).  Their
  fault-free level-4 subpaths repeat up to a relabel of their symbols, and
  this group's digest also hashes every trace node's details;
- directed instances that reach each splice orientation a sweep reached;
- directed instances that reach ``_reconnect_pairings`` in pairings (x1,y2)
  and (x1,x2) and ``_cycle_case3_single`` on both kinds of single;
- ``bp3_solver``: the BP_3 base solver ``_small_search`` called directly,
  past its memo, on every fault-free ordered endpoint pair, every cycle with
  one edge banned, every cycle with one matching pair removed, and every 8th
  ordered pair (``itertools.permutations`` order) with the identity removed,
  whose pairs that contain the identity give None;
- ``oracle_reports``: the full violation lists of ``verify_cycle`` and
  ``verify_path`` on valid and corrupted sequences at n=3 and n=4 (a vertex
  dropped, duplicated, swapped, a removed vertex put back, a faulty edge
  used at step 0, an interior step or the closing step, a vertex that is
  not one of BP_n, a rotation, a reversal, an empty sequence), and on fault
  stand-ins that remove one vertex, inside or outside BP_3, with faulty
  edges in either order;
- ``oracle_walk_reports``: the same reports on a built n=5 cycle and path
  under swaps, drops, duplicates, rotations and a reversal, and with
  entries that are not vertices of BP_5 (floats, ``True``, 0, 200, -128,
  short and long tuples, the self-loop ``(1, -1, 3, 4, 5)``), and on the
  whole objects checked against the wrong dimension.

On orientations.  ``_reconnect_double_split`` splits the path P1 at an edge
(s, t) and the path P2 at an edge (ns, z), so it has four orientations: s
before or after t on P1, ns before or after z on P2.  The n=4 cycle sweep of
``tools/sweep_n4.py`` (12 208 fault sets) reached two of them (t before s
with ns after z, and s before t with ns after z), and 1 500 random n=5
cycles with all three faults in one subgraph reached a third (t before s
with ns before z).  The orientation with s before t on P1 and ns before z on
P2 never ran.  The same-side splice ran only with its free arc forward in
the n=4 sweep; the reversed instance is one of those n=5 cycles.
``_path_c2_outside_pair`` ran in both orientations of its split edge;
``_path_c2_complement_pair`` ran only with s before t on the endpoint path,
never with t before s (every 10th instance of the sweep's n=4 paths,
117 046 builds).
"""

import hashlib
import struct
import itertools

import pytest

from burntpancake import bp_graph
from burntpancake.bp_graph import edge_key, neighbors
from burntpancake.constructor import VertexCycle, VertexPath, _small_search, hamiltonian_cycle, hamiltonian_path
from burntpancake.fault_model import FaultSet
from burntpancake.fuzz import sample_endpoints, sample_fault_set, trial_rng
from burntpancake.oracle import exhaustive_path_search, verify_cycle, verify_path
from burntpancake.signed_perm import all_vertices, generator, identity
from test_acceptance import CASE_TABLE
from test_bp_graph import _steps_reference
from test_constructor import _OneVertexRemoved

# Splice orientations: (what the build reaches, n, pairs, edges, endpoints).
DIRECTED = [
    (
        "double split, t before s on P1, ns after z on P2",
        4,
        [[(-1, 2, 3, 4), (1, 2, 3, 4)], [(-4, -3, 1, -2), (2, -1, 3, 4)]],
        [],
        None,
    ),
    (
        "double split, s before t on P1, ns after z on P2",
        4,
        [[(-1, 2, 3, 4), (1, 2, 3, 4)], [(-3, -1, -2, 4), (3, -1, -2, 4)]],
        [],
        None,
    ),
    (
        "double split, t before s on P1, ns before z on P2",
        5,
        [[(-5, 3, -4, 2, -1), (5, 3, -4, 2, -1)], [(-3, -2, -5, 4, -1), (3, -2, -5, 4, -1)]],
        [[(-4, -5, -2, -3, -1), (3, 2, 5, 4, -1)]],
        None,
    ),
    (
        "same side, free arc forward",
        4,
        [[(-1, 2, 3, 4), (1, 2, 3, 4)], [(-1, -2, 3, 4), (2, 1, 3, 4)]],
        [],
        None,
    ),
    (
        "same side, free arc reversed",
        5,
        [[(-4, -3, -2, -1, -5), (4, -3, -2, -1, -5)], [(-2, -4, 3, 1, -5), (-1, -3, 4, 2, -5)]],
        [[(1, -2, 3, -4, -5), (2, -1, 3, -4, -5)]],
        None,
    ),
    (
        "outside pair, s before t",
        4,
        [[(-3, 1, 2, 4), (3, 1, 2, 4)]],
        [],
        ((-4, -2, -3, 1), (-4, -3, -2, 1)),
    ),
    (
        "outside pair, t before s",
        4,
        [[(-3, 1, 2, 4), (3, 1, 2, 4)]],
        [],
        ((4, -3, -2, 1), (-2, 3, -4, 1)),
    ),
    (
        "complement pair, s before t",
        4,
        [[(-3, 1, 2, 4), (3, 1, 2, 4)]],
        [],
        ((-2, -3, 1, -4), (1, -3, 2, -4)),
    ),
]

# Cycle reconnections after excising a fault from the heavy subgraph, in the
# same shape.  x1, y1 end arc B and x2, y2 arc A (``_reconnect_two_arcs``).
# The pairings found below are the first of their kind in a sweep of cycles
# with every fault in one subgraph; pairings (y1,y2) and (y1,x2) never won.
# "directed" already reaches both free-arc orientations of the same-side splice.
DIRECTED_RECONNECT = [
    (
        "pairing (x1,y2), first connector in one subgraph",
        4,
        [[(-1, 3, 2, -4), (1, 3, 2, -4)]],
        [[(-3, 1, 2, -4), (3, 1, 2, -4)]],
        None,
    ),
    (
        "pairing (x1,y2), first connector over two subgraphs",
        4,
        [[(2, -1, -4, 3), (4, 1, -2, 3)]],
        [[(-4, 1, -2, 3), (2, -1, 4, 3)]],
        None,
    ),
    (
        "pairing (x1,x2), first connector over two subgraphs",
        4,
        [[(-3, 4, -2, -1), (2, -4, 3, -1)], [(-2, -3, -4, -1), (2, -3, -4, -1)]],
        [],
        None,
    ),
    (
        "single excised, its pair's partner in another subgraph",
        5,
        [[(-4, -2, -5, -3, 1), (5, 2, 4, -3, 1)], [(2, -4, 5, -3, 1), (3, -5, 4, -2, 1)]],
        [[(-3, -4, -5, -2, 1), (3, -4, -5, -2, 1)]],
        None,
    ),
    (
        # the straddling pair leaves a plain single beside the edge one level down
        "plain single excised",
        5,
        [[(1, 2, 3, 4, 5), (-5, -4, -3, -2, -1)]],
        [[(2, 1, 3, 4, 5), (-2, 1, 3, 4, 5)]],
        None,
    ),
]

GOLDEN = {
    "case_table": "939a27e1d052583a020f720684164747aa9297531b3c7ea0925cb318660d9015",
    "fuzz_n4": "218a20eec2417a3d216bd6a16b52abdabd4ecca533a28a9ef67c55a250dc5399",
    "fuzz_n5": "c12152f72e9994a1cad11115b6bcacc2dab9788f431930e6bca1105452faa313",
    "smoke_n6": "8d8c777dae836f2562fd589ed64b6beeb89c691dbaff56be3e74a23a2c38384e",
    "directed": "cae7a6d36c76549d7b33788365e9f554aae29b13ed4a867eb753b9024f7c703a",
    "directed_reconnect": "002bca4dc39c0a0762be7934e0fd8a420ef51e44255e3daa78e9ce3e96d0e6d0",
    "bp3_solver": "be288b6ef999d84dd14413d40b34e92de57bec92b5101f4aff6d4fafd0d98d1e",
    "oracle_reports": "7a196be78e6bb19fbaee74667753d4583b7b9bede9bab51e21e6e8e133ac89a9",
    "full_n7": "beed4682ffeaf287f0645953c74cde6830df6bded1ba5a9109b7f3e1f188e14c",
    "full_n6": "ed6abb950ce754f8d291934b661f8618e60216f54b217defeab730a6163e0e87",
    "oracle_walk_reports": "8ea2c6f00f825bbd683ff661dc18b46e32436ca3e7084c5e0d68e8874443d17a",
}


def _digest(builds) -> str:
    h = hashlib.sha256()
    for built in builds:
        h.update(repr(built.vertices).encode())
        h.update(b"\n")
        h.update("\n".join(built.trace.labels()).encode())
        h.update(b"\n\n")
    return h.hexdigest()


def _case_table():
    for label, spec in sorted(CASE_TABLE.items()):
        n = spec["n"]
        fs = FaultSet.build(n, spec.get("matching_pairs", ()), spec.get("faulty_edges", ()))
        if label.startswith("L19"):
            yield hamiltonian_path(n, tuple(spec["source"]), tuple(spec["target"]), fs)
        else:
            yield hamiltonian_cycle(n, fs)


def _fuzz(n: int, trials: int, cycle_faults: int, path_faults: int):
    for trial in range(trials):
        yield hamiltonian_cycle(n, sample_fault_set(n, cycle_faults, trial_rng(0, trial)))
    for trial in range(trials):
        rng = trial_rng(0, trial)
        fs = sample_fault_set(n, path_faults, rng)
        u, v = sample_endpoints(rng, n, fs)
        yield hamiltonian_path(n, u, v, fs)


def _smoke_n6():
    yield hamiltonian_cycle(6, sample_fault_set(6, 4, trial_rng(0, 0)))
    rng = trial_rng(1, 0)
    fs = sample_fault_set(6, 3, rng)
    u, v = sample_endpoints(rng, 6, fs)
    yield hamiltonian_path(6, u, v, fs)


# A full-budget n=7 cycle: one matching pair straddling two subgraphs, two
# more pairs and two faulty edges (``scale-n7`` seed 1 of the benchmark).
FULL_N7 = FaultSet.build(
    7,
    [
        [(4, -6, 3, 7, 2, -1, 5), (-5, 1, -2, -7, -3, 6, -4)],
        [(1, 7, 4, -3, 5, 2, 6), (-2, -5, 3, -4, -7, -1, 6)],
        [(2, 7, -6, -5, 4, -1, -3), (6, -7, -2, -5, 4, -1, -3)],
    ],
    [
        [(6, 4, -7, -2, -1, -5, -3), (-6, 4, -7, -2, -1, -5, -3)],
        [(5, 2, -7, -4, -3, -1, -6), (-5, 2, -7, -4, -3, -1, -6)],
    ],
)


# (seed, trial, top-level label) of ``trial_rng`` draws at the full budget
FULL_N6_CYCLES = [(1, 11, "L18/1"), (2, 15, "L18/2.1")]
FULL_N6_PATHS = [(1, 18, "L20"), (1, 11, "L17")]


def _full_n6():
    for seed, trial, label in FULL_N6_CYCLES:
        fs = sample_fault_set(6, 4, trial_rng(seed, trial))
        assert fs.size == 4
        built = hamiltonian_cycle(6, fs)
        assert built.trace.children[0].label == label
        yield built
    for seed, trial, label in FULL_N6_PATHS:
        rng = trial_rng(seed, trial)
        fs = sample_fault_set(6, 3, rng)
        assert fs.size == 3
        built = hamiltonian_path(6, *sample_endpoints(rng, 6, fs), fs)
        assert built.trace.children[0].children[0].label == label
        yield built


def _details(trace):
    yield trace.detail
    for child in trace.children:
        yield from _details(child)


def test_golden_full_n6_with_details():
    h = hashlib.sha256()
    for built in _full_n6():
        h.update(_digest([built]).encode())
        h.update(repr(list(_details(built.trace))).encode())
    assert h.hexdigest() == GOLDEN["full_n6"]


def _directed(instances):
    for _, n, pairs, edges, ends in instances:
        fs = FaultSet.build(n, pairs, edges)
        yield hamiltonian_cycle(n, fs) if ends is None else hamiltonian_path(n, *ends, fs)


GROUPS = {
    "case_table": _case_table,
    "fuzz_n4": lambda: _fuzz(4, 200, 2, 1),
    "fuzz_n5": lambda: _fuzz(5, 50, 3, 2),
    "smoke_n6": _smoke_n6,
    "directed": lambda: _directed(DIRECTED),
    "directed_reconnect": lambda: _directed(DIRECTED_RECONNECT),
    "full_n7": lambda: [hamiltonian_cycle(7, FULL_N7)],
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_golden_digest(group):
    assert _digest(GROUPS[group]()) == GOLDEN[group]


def _bp3_solver():
    none = frozenset()
    vertices = all_vertices(3)
    pairs = list(itertools.permutations(vertices, 2))
    edges = sorted({edge_key(x, w) for x in vertices for w in neighbors(x)})
    for u, v in pairs:
        yield _small_search(3, none, none, u, v)
    for e in edges:
        yield _small_search(3, none, frozenset((e,)), None, None)
    for e in edges:
        yield _small_search(3, frozenset(e), none, None, None)
    for u, v in pairs[::8]:
        yield _small_search(3, frozenset((identity(3),)), none, u, v)


def test_golden_bp3_solver():
    h = hashlib.sha256()
    for got in _bp3_solver():
        h.update(repr(got).encode())
        h.update(b"\n")
    assert h.hexdigest() == GOLDEN["bp3_solver"]


def _corruptions(n, fs, seq, closed, removed):
    """(label, sequence, fault set) for one valid sequence and its fault set.

    "symbol n renamed" keeps every step a prefix reversal and every vertex
    distinct, but no vertex is one of BP_n;
    "stepped back" and "pair moved onto it" keep every step a prefix
    reversal and the length right, but repeat a vertex or use a removed one.
    """
    s = list(seq)
    swapped = list(s)
    swapped[3], swapped[10] = swapped[10], swapped[3]

    def banned(a, b):
        return FaultSet(n, fs.matching_pairs, fs.faulty_edges + (edge_key(a, b),))

    yield "valid", s, fs
    yield "dropped", s[:5] + s[6:], fs
    yield "duplicated", s[:7] + [s[2]] + s[8:], fs
    yield "duplicated, inserted", s[:7] + [s[2]] + s[7:], fs
    yield "stepped back", s[:-1] + [s[-3]], fs
    yield "swapped", swapped, fs
    yield "removed put back", s[:7] + [removed] + s[8:], fs
    yield "removed inserted", s[:7] + [removed] + s[7:], fs
    yield "pair moved onto it", s, FaultSet(n, (edge_key(s[4], s[5]),), fs.faulty_edges)
    yield "faulty edge, interior step", s, banned(s[4], s[5])
    yield "faulty edge, step 0", s, banned(s[1], s[0])
    yield "faulty edge, last step", s, banned(s[-2], s[-1])
    if closed:
        yield "faulty edge, closing step", s, banned(s[-1], s[0])
    zero = (0,) + tuple(range(2, n + 1))
    twice = (1, 1) + tuple(range(3, n + 1))
    for pos in (0, 6):
        yield "zero symbol", s[:pos] + [zero] + s[pos + 1 :], fs
        yield "repeated symbol", s[:pos] + [twice] + s[pos + 1 :], fs
        yield "symbol too many", s[:pos] + [s[pos] + (n + 1,)] + s[pos + 1 :], fs
    yield "equal floats", [tuple(map(float, s[0]))] + s[1:], fs
    yield "all floats", [tuple(map(float, v)) for v in s], fs
    yield "symbol n renamed", [tuple(x + (x > 0) - (x < 0) if abs(x) == n else x for x in v) for v in s], fs
    yield "twice round, faulty edge", s + s, banned(s[4], s[5])
    yield "rotation", s[5:] + s[:5], fs
    yield "reversal", s[::-1], fs
    yield "empty", [], fs


def _oracle_reports():
    e3, e4 = identity(3), identity(4)
    fs3 = FaultSet.build(3, [[e3, generator(3, 2)]])
    fs4 = FaultSet.build(4, [[e4, generator(4, 3)]], [[(2, 1, 3, 4), (-2, 1, 3, 4)]])
    fs4p = FaultSet.build(4, [[e4, generator(4, 3)]])
    cases = [
        (3, fs3, hamiltonian_cycle(3, fs3).vertices, None),
        (3, FaultSet.build(3), hamiltonian_path(3, (1, 2, 3), (-1, 2, 3), FaultSet.build(3)).vertices,
         ((1, 2, 3), (-1, 2, 3))),
        (4, fs4, hamiltonian_cycle(4, fs4).vertices, None),
        (4, fs4p, hamiltonian_path(4, (2, 1, 3, 4), (-4, 1, -2, 3), fs4p).vertices,
         ((2, 1, 3, 4), (-4, 1, -2, 3))),
    ]
    for n, fs, seq, ends in cases:
        removed = min(fs.removed_vertices()) if fs.matching_pairs else e3
        for _, got, f in _corruptions(n, fs, seq, ends is None, removed):
            yield verify_cycle(n, f, got) if ends is None else verify_path(n, f, *ends, got)
        if ends is not None:
            yield verify_cycle(n, fs, seq)  # a path whose ends are not adjacent
    # one vertex removed, as inside the constructor; the second and third
    # stand-ins remove a tuple that is not a vertex of BP_3
    cycle = hamiltonian_cycle(3, fs3).vertices
    ends = ((1, 2, 3), (-1, 2, 3))
    path = exhaustive_path_search(3, _OneVertexRemoved((-1, -2, 3)), *ends).vertices
    for stand_in in (_OneVertexRemoved(e3), _OneVertexRemoved((9, 9, 9)), _OneVertexRemoved((1, 2))):
        yield verify_cycle(3, stand_in, cycle)
        yield verify_path(3, stand_in, *ends, path)
    # a stand-in's faulty edges keep the order they are given in
    for a, b in ((0, -1), (-1, 0), (4, 5), (5, 4)):
        yield verify_cycle(3, _OneVertexRemoved(e3, [[cycle[a], cycle[b]]]), cycle)
    for a, b in ((3, 4), (4, 3), (0, 1), (1, 0), (-2, -1), (-1, -2), (0, -1), (-1, 0)):
        yield verify_path(3, _OneVertexRemoved((-1, -2, 3), [[path[a], path[b]]]), *ends, path)


def test_golden_oracle_reports():
    h = hashlib.sha256()
    for report in _oracle_reports():
        h.update(repr((report.ok, report.violations)).encode())
        h.update(b"\n")
    assert h.hexdigest() == GOLDEN["oracle_reports"]


def _with_symbol(v, old, new):
    return tuple(new if x == old else x for x in v)


def _walk_corruptions(n, s):
    """(label, sequence) for one valid built sequence of BP_n, n >= 4: the
    step mutations of a whole object, and entries that are not vertices of
    BP_n, at the first position and inside."""
    k = len(s)
    yield "valid", s
    for i, j in ((0, 1), (100, k // 2), (k - 2, k - 1)):
        t = list(s)
        t[i], t[j] = t[j], t[i]
        yield f"swapped {i} {j}", t
    for i in (0, k // 2, k - 1):
        yield f"dropped {i}", s[:i] + s[i + 1 :]
        yield f"duplicated {i}", s[:i] + [s[i]] + s[i:]
        yield f"overwritten {i}", s[:i] + [s[(i + 7) % k]] + s[i + 1 :]
    yield "rotated 1", s[1:] + s[:1]
    yield f"rotated {k // 3}", s[k // 3 :] + s[: k // 3]
    yield "reversed", s[::-1]
    for pos in (0, k // 2):
        edit = lambda v: s[:pos] + [v] + s[pos + 1 :]  # noqa: E731
        yield f"True for 1 at {pos}", edit(_with_symbol(s[pos], 1, True))
        yield f"float at {pos}", edit(tuple(map(float, s[pos])))
        yield f"0 for 1 at {pos}", edit(_with_symbol(s[pos], 1, 0))
        yield f"200 for 1 at {pos}", edit(_with_symbol(s[pos], 1, 200))
        yield f"-128 for -1 at {pos}", edit(_with_symbol(_with_symbol(s[pos], 1, -1), -1, -128))
        yield f"short at {pos}", edit(s[pos][:-1])
        yield f"long at {pos}", edit(s[pos] + (n + 1,))
    yield "all True", [_with_symbol(v, 1, True) for v in s]
    loop = (1, -1) + tuple(range(3, n + 1))
    yield "self-loop", [loop, loop, loop]
    yield "self-loop, then the object", [loop] + s
    yield "one vertex", s[:1]
    yield "one self-loop vertex", [loop]


def _oracle_walk_reports():
    cycle_faults = sample_fault_set(5, 3, trial_rng(0, 1))
    cycle = list(hamiltonian_cycle(5, cycle_faults).vertices)
    rng = trial_rng(0, 1)
    path_faults = sample_fault_set(5, 2, rng)
    u, v = sample_endpoints(rng, 5, path_faults)
    path = list(hamiltonian_path(5, u, v, path_faults).vertices)
    for _, got in _walk_corruptions(5, cycle):
        yield verify_cycle(5, cycle_faults, got)
    for _, got in _walk_corruptions(5, path):
        yield verify_path(5, path_faults, u, v, got)
    # the right vertices of the wrong dimension
    yield verify_cycle(4, FaultSet.build(4), cycle)
    yield verify_cycle(6, FaultSet.build(6), cycle)
    yield verify_path(4, FaultSet.build(4), u[:4], v[:4], path)


def test_golden_oracle_walk_reports():
    """The oracle's full reports on whole built n=5 objects under step
    mutations, and on entries that are not vertices: floats, True, 0, 200,
    -128, short and long tuples, and the self-loop (1, -1, 3, ...), whose
    2-prefix reversal is itself."""
    h = hashlib.sha256()
    for report in _oracle_walk_reports():
        h.update(repr((report.ok, report.violations)).encode())
        h.update(b"\n")
    assert h.hexdigest() == GOLDEN["oracle_walk_reports"]


@pytest.mark.parametrize("block", [5, 64, bp_graph._WALK_BLOCK])
def test_is_walk_matches_steps_on_the_walk_corpus(monkeypatch, block):
    """``is_packed_walk`` against the per-step loop on every sequence of the
    corpus above that packs at n=5 (True, 0, -128 and the self-loop among
    them), with blocks small enough that every mutation sits near a block
    boundary (5), a few (64), and as shipped."""
    monkeypatch.setattr(bp_graph, "_WALK_BLOCK", block)
    cycle = list(hamiltonian_cycle(5, sample_fault_set(5, 3, trial_rng(0, 1))).vertices)
    packed_labels = set()
    for seq in (cycle, cycle[::-1][:1000]):
        for label, got in _walk_corruptions(5, seq):
            try:
                packed = bp_graph.pack(5, got)
            except struct.error:
                continue
            packed_labels.add(label)
            for closed in (False, True):
                assert bp_graph.is_packed_walk(5, packed, closed) == _steps_reference(got, closed), (label, closed)
    assert {"all True", "0 for 1 at 0", "-128 for -1 at 0", "self-loop", "valid"} <= packed_labels


def _oracle_sequences():
    """(n, fault set, sequence, ends) for every sequence that
    ``_oracle_reports`` and ``_oracle_walk_reports`` check."""
    e3, e4 = identity(3), identity(4)
    fs3 = FaultSet.build(3, [[e3, generator(3, 2)]])
    fs4 = FaultSet.build(4, [[e4, generator(4, 3)]], [[(2, 1, 3, 4), (-2, 1, 3, 4)]])
    fs4p = FaultSet.build(4, [[e4, generator(4, 3)]])
    free = FaultSet.build(3)
    ends3, ends4 = ((1, 2, 3), (-1, 2, 3)), ((2, 1, 3, 4), (-4, 1, -2, 3))
    cases = [
        (3, fs3, hamiltonian_cycle(3, fs3).vertices, None),
        (3, free, hamiltonian_path(3, *ends3, free).vertices, ends3),
        (4, fs4, hamiltonian_cycle(4, fs4).vertices, None),
        (4, fs4p, hamiltonian_path(4, *ends4, fs4p).vertices, ends4),
    ]
    for n, fs, seq, ends in cases:
        removed = min(fs.removed_vertices()) if fs.matching_pairs else e3
        for _, got, f in _corruptions(n, fs, seq, ends is None, removed):
            yield n, f, got, ends
        if ends is not None:
            yield n, fs, seq, None
    cycle = hamiltonian_cycle(3, fs3).vertices
    path = exhaustive_path_search(3, _OneVertexRemoved((-1, -2, 3)), *ends3).vertices
    for stand_in in (_OneVertexRemoved(e3), _OneVertexRemoved((9, 9, 9)), _OneVertexRemoved((1, 2))):
        yield 3, stand_in, cycle, None
        yield 3, stand_in, path, ends3
    for a, b in ((0, -1), (4, 5)):
        yield 3, _OneVertexRemoved(e3, [[cycle[a], cycle[b]]]), cycle, None
    for a, b in ((3, 4), (1, 0), (-1, -2), (0, -1)):
        yield 3, _OneVertexRemoved((-1, -2, 3), [[path[a], path[b]]]), path, ends3
    cycle_faults = sample_fault_set(5, 3, trial_rng(0, 1))
    cycle = list(hamiltonian_cycle(5, cycle_faults).vertices)
    rng = trial_rng(0, 1)
    path_faults = sample_fault_set(5, 2, rng)
    u, v = sample_endpoints(rng, 5, path_faults)
    path = list(hamiltonian_path(5, u, v, path_faults).vertices)
    for _, got in _walk_corruptions(5, cycle):
        yield 5, cycle_faults, got, None
    for _, got in _walk_corruptions(5, path):
        yield 5, path_faults, got, (u, v)


def test_packed_sequence_gets_the_report_of_its_tuples(monkeypatch):
    """The oracle reports on every form of a sequence what it reports on
    its vertices: for every case above, on a one-shot iterator and a list
    of lists of them; for every case that packs, on the packed bytes, a
    bytearray and a built object holding them, as on the decoded tuples;
    and on built n=5 objects checked at n=4 and n=6, as on their tuples.
    Only forms that hold bytes are decoded, and only when they are
    rejected; a valid sequence that packs passes on its bytes alone, in
    every form, with no step through ``is_adjacent``."""
    cases = list(_oracle_sequences())
    cycle_faults = sample_fault_set(5, 3, trial_rng(0, 1))
    cycle = hamiltonian_cycle(5, cycle_faults)
    rng = trial_rng(0, 1)
    path_faults = sample_fault_set(5, 2, rng)
    u, v = sample_endpoints(rng, 5, path_faults)
    path = hamiltonian_path(5, u, v, path_faults)
    unpack, iter_unpack, is_adjacent = bp_graph.unpack, bp_graph.iter_unpack, bp_graph.is_adjacent
    decoded, steps = [], []
    monkeypatch.setattr(bp_graph, "unpack", lambda n, packed: decoded.append(n) or unpack(n, packed))
    monkeypatch.setattr(bp_graph, "iter_unpack", lambda n, packed: decoded.append(n) or iter_unpack(n, packed))
    monkeypatch.setattr(bp_graph, "is_adjacent", lambda a, b: steps.append(1) or is_adjacent(a, b))
    outcomes = []
    for n, fs, got, ends in cases:

        def check(seq):
            return verify_cycle(n, fs, seq) if ends is None else verify_path(n, fs, *ends, seq)

        try:
            packed = bp_graph.pack(n, got)
        except struct.error:
            packed = None
        want = check(got)
        for seq in (iter(got), [list(x) for x in got]):
            assert check(seq) == want, (n, got[:3], ends)
        assert not decoded
        assert not (packed is not None and want.ok and steps)
        steps.clear()
        if packed is None:
            continue
        tuples = unpack(n, packed)
        want = check(tuples)
        built = VertexCycle(n, packed, None) if ends is None else VertexPath(n, packed, None)
        for seq in (packed, bytearray(packed), built):
            assert check(seq) == want, (n, tuples[:3], ends)
            assert bool(decoded) == (not want.ok)
            assert not (want.ok and steps)
            decoded.clear()
            steps.clear()
        outcomes.append(want.ok)
    assert outcomes.count(True) >= 6 and outcomes.count(False) >= 100
    assert verify_cycle(5, cycle_faults, cycle).ok and verify_path(5, path_faults, u, v, path).ok
    assert not (decoded or steps)
    for m in (4, 6):
        free = FaultSet.build(m)
        have = verify_cycle(m, free, cycle), verify_path(m, free, u[:m], v[:m], path)
        want = verify_cycle(m, free, cycle.vertices), verify_path(m, free, u[:m], v[:m], path.vertices)
        assert have == want and not (want[0].ok or want[1].ok)
