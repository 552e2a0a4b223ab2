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
- directed instances that reach each splice orientation a sweep reached;
- ``bp3_solver``: the BP_3 base solver ``_small_search`` called directly,
  past its memo, on every fault-free ordered endpoint pair, every cycle with
  one edge banned, every cycle with one matching pair removed, and every 8th
  ordered pair (``itertools.permutations`` order) with the identity removed,
  whose pairs that contain the identity give None.

On orientations.  ``_reconnect_double_split`` splits the path P1 at an edge
(s, t) and the path P2 at an edge (ns, z), so it has four orientations: s
before or after t on P1, ns before or after z on P2.  The exhaustive n=4
sweep of two-element cycle fault sets (one element at the identity, 12 200
builds) reached two of them (t before s with ns after z, and s before t with
ns after z), and 400 n=5 cycles with all three faults in one subgraph reached
a third (t before s with ns before z).  The orientation with s before t on
P1 and ns before z on P2 never ran.  ``_path_c2_outside_pair`` ran in both
orientations of its split edge; ``_path_c2_complement_pair`` ran only with s
before t on the endpoint path, never with t before s (3 600 sampled n=4 paths
with one fault and both endpoints in one other subgraph).
"""

import hashlib
import itertools

import pytest

from burntpancake.bp_graph import edge_key, neighbors
from burntpancake.constructor import _small_search, hamiltonian_cycle, hamiltonian_path
from burntpancake.fault_model import FaultSet
from burntpancake.fuzz import sample_endpoints, sample_fault_set, trial_rng
from burntpancake.signed_perm import all_vertices, identity
from test_acceptance import CASE_TABLE

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
        [
            [(2, -1, -4, -3, 5), (4, 1, -2, -3, 5)],
            [(-2, 3, -1, -4, 5), (2, 3, -1, -4, 5)],
            [(3, -2, -4, -1, 5), (4, 2, -3, -1, 5)],
        ],
        [],
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
        4,
        [[(-1, 2, 3, 4), (1, 2, 3, 4)], [(-3, 1, -2, 4), (-1, 3, -2, 4)]],
        [],
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

GOLDEN = {
    "case_table": "4b293247ab965adf9d11860a20bf2143b0fd2664f0c0e9bed8bcb9d3b28bf642",
    "fuzz_n4": "bf2984a24bff8da79d74e677de2ed47e0da4acbaabc38405343bc87d2e13e412",
    "fuzz_n5": "99e64b417cccac913bb4e6801033e9cd2d957d4f985326f751da97323e296cfb",
    "smoke_n6": "6c8f4f8e0fb49676a30a6d4dcf4b21e535b8be3135e1269e5cb65b47e46ff44f",
    "directed": "1580b0f21c71ea95213f02abe8adcd5ad61120a2509a92329848f7e426b6ae2a",
    "bp3_solver": "be288b6ef999d84dd14413d40b34e92de57bec92b5101f4aff6d4fafd0d98d1e",
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


def _directed():
    for _, n, pairs, edges, ends in DIRECTED:
        fs = FaultSet.build(n, pairs, edges)
        yield hamiltonian_cycle(n, fs) if ends is None else hamiltonian_path(n, *ends, fs)


GROUPS = {
    "case_table": _case_table,
    "fuzz_n4": lambda: _fuzz(4, 200, 2, 1),
    "fuzz_n5": lambda: _fuzz(5, 50, 3, 2),
    "smoke_n6": _smoke_n6,
    "directed": _directed,
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
