"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 2 is implemented exactly as stated and is expected to
fail: the distance-3 separation claim it asserts has concrete
counterexamples (spelled out in the failure message); the corrected
properties the constructions rely on are checked by the supplement test,
which passes.
"""

import itertools
import time

from burntpancake.bp3_fixtures import PAIR_CYCLES
from burntpancake.bp_graph import (
    bfs_ball,
    cross_edge_count,
    cross_edges,
    edge_count,
    edge_key,
    last_symbol,
    neighbors,
    out_neighbor,
    subgraph_indices,
    vertex_count,
)
from burntpancake.cli import main as cli_main
from burntpancake.constructor import hamiltonian_cycle, hamiltonian_path, order_subgraphs
from burntpancake.fault_model import FaultSet, validate
from burntpancake.fuzz import run_fuzz
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
from burntpancake.signed_perm import all_vertices, generator, identity, prefix_reversal


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


# ------------------------------------------------------------ criterion 1


def test_c01_structural_counts():
    t0 = time.monotonic()
    for n in range(1, 6):
        verts = all_vertices(n)
        assert len(verts) == vertex_count(n) == 2**n * __import__("math").factorial(n)
        edges = set()
        for v in verts:
            for w in neighbors(v):
                edges.add(edge_key(v, w))
        assert len(edges) == edge_count(n)
    for n in (3, 4, 5):
        for i in subgraph_indices(n):
            for j in subgraph_indices(n):
                if i == j:
                    continue
                want = 0 if i == -j else cross_edge_count(n)
                assert len(cross_edges(n, i, j)) == want
    elapsed = time.monotonic() - t0
    ok = elapsed < 30
    report(1, ok, f"|V|, |E| exact for n=1..5 and all cross-edge counts for n=3..5 ({elapsed:.1f}s)")
    assert ok


# ------------------------------------------------------------ criterion 2


def _distance_sweep(n: int):
    """Exceptions to the claim: same-subgraph pairs at distance 1-2 and
    different-subgraph pairs at distance <= 3 have out-neighbors in
    different subgraphs."""
    exceptions = []
    for u in all_vertices(n):
        su = last_symbol(out_neighbor(u))
        for v, d in bfs_ball(u, 3).items():
            if v == u:
                continue
            same = last_symbol(u) == last_symbol(v)
            if (same and d <= 2) or (not same and d <= 3):
                if su == last_symbol(out_neighbor(v)):
                    exceptions.append((u, v, d))
    return exceptions


def test_c02_out_neighbor_separation_as_stated():
    t0 = time.monotonic()
    exc3 = _distance_sweep(3)
    exc4 = _distance_sweep(4)
    elapsed = time.monotonic() - t0
    ok = not exc3 and not exc4 and elapsed < 120
    report(
        2,
        ok,
        f"separation sweep as stated: {len(exc3)} exceptions at n=3, "
        f"{len(exc4)} at n=4 ({elapsed:.1f}s)",
    )
    assert ok, (
        "the stated claim is false at distance exactly 3: e.g. u=-3,-2,-1 and "
        "v=-3,-2,1 lie in different subgraphs at distance 3 yet both "
        "out-neighbors land in subgraph 3.  Every exception in the sweep has "
        "distance exactly 3 (distances <= 2 are exception-free), and the "
        "distance-3 selections the constructions make are of the splice "
        "pattern checked exception-free by the supplement test below."
    )


def test_c02_supplement_corrected_separation_properties():
    t0 = time.monotonic()
    for n in (3, 4):
        for u in all_vertices(n):
            su = last_symbol(out_neighbor(u))
            # any pair at distance <= 2
            for v, d in bfs_ball(u, 2).items():
                if v != u:
                    assert su != last_symbol(out_neighbor(v)), (u, v, d)
            # splice pattern at distance 3: in-subgraph neighbor of u versus
            # in-subgraph neighbor of u's out-neighbor
            nu = out_neighbor(u)
            for k1 in range(1, n):
                t = prefix_reversal(u, k1)
                st = last_symbol(out_neighbor(t))
                for k2 in range(1, n):
                    z = prefix_reversal(nu, k2)
                    assert st != last_symbol(out_neighbor(z)), (u, t, z)
    elapsed = time.monotonic() - t0
    ok = elapsed < 120
    report(
        2,
        ok,
        f"supplement: distance-2 and splice-pattern separation exception-free at n=3,4 ({elapsed:.1f}s)",
    )
    assert ok


# ------------------------------------------------------------ criterion 3


def test_c03_stored_base_cycles():
    everything = set(all_vertices(3))
    for k in (1, 2, 3):
        fs = FaultSet.build(3, matching_pairs=[[identity(3), generator(3, k)]])
        cycle = PAIR_CYCLES[k]
        assert len(cycle) == 46
        rep = verify_cycle(3, fs, cycle)
        assert rep.ok, rep
        assert set(cycle) == everything - fs.removed_vertices()
    report(3, True, "all three stored 46-vertex base cycles verify exactly")


# ------------------------------------------------------------ criterion 4


def test_c04_bp3_single_fault_sweep():
    t0 = time.monotonic()
    edges = set()
    for u in all_vertices(3):
        for w in neighbors(u):
            edges.add(edge_key(u, w))
    assert len(edges) == 72
    done = 0
    for a, b in sorted(edges):
        fs = FaultSet.build(3, matching_pairs=[[a, b]])
        got = hamiltonian_cycle(3, fs)
        assert verify_cycle(3, fs, got).ok and len(got.vertices) == 46
        done += 1
        fs = FaultSet.build(3, faulty_edges=[[a, b]])
        got = hamiltonian_cycle(3, fs)
        assert verify_cycle(3, fs, got).ok and len(got.vertices) == 48
        done += 1
    elapsed = time.monotonic() - t0
    ok = done == 144 and elapsed < 10
    report(4, ok, f"single-fault sweep on BP_3: {done}/144 verified ({elapsed:.1f}s)")
    assert ok


def test_c04b_base_paths_all_ordered_pairs():
    # companion exhaustive run: a Hamiltonian path exists and verifies for
    # every ordered endpoint pair of the fault-free base graph
    t0 = time.monotonic()
    free = FaultSet.build(3)
    done = 0
    for u, v in itertools.permutations(all_vertices(3), 2):
        got = hamiltonian_path(3, u, v, free)
        assert len(got.vertices) == 48
        done += 1
    elapsed = time.monotonic() - t0
    report(4, True, f"all {done} ordered endpoint pairs solved on BP_3 ({elapsed:.1f}s)")
    assert done == 48 * 47


# ------------------------------------------------------------ criteria 5, 6


def _fuzz_criterion(num, n, op, trials, max_faults, limit_s):
    rep = run_fuzz(n, op, trials, max_faults, seed=0)
    ok = rep.ok and rep.trials == trials and rep.wall_time < limit_s
    report(
        num,
        ok,
        f"{op} fuzz n={n}: {rep.successes}/{rep.trials} verified, "
        f"{rep.strict_failures} strict failures "
        f"({rep.wall_time:.1f}s < {limit_s}s)",
    )
    assert ok, rep.failures[:3]
    return rep


def test_c05_fuzz_cycle_n4():
    _fuzz_criterion(5, 4, "cycle", 1000, 2, 60)


def test_c05_fuzz_cycle_n5():
    _fuzz_criterion(5, 5, "cycle", 500, 3, 300)


def test_c06_fuzz_path_n4():
    _fuzz_criterion(6, 4, "path", 1000, 1, 60)


def test_c06_fuzz_path_n5():
    _fuzz_criterion(6, 5, "path", 500, 2, 300)


# ------------------------------------------------------------ criterion 7


def test_c07_smoke_n6():
    from burntpancake.fuzz import sample_endpoints, sample_fault_set, trial_rng

    worst = 0.0
    for trial in range(10):
        rng = trial_rng(0, trial)
        fs = sample_fault_set(6, 4, rng)
        t0 = time.monotonic()
        got = hamiltonian_cycle(6, fs)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        assert dt < 30
        assert verify_cycle(6, fs, got).ok
    for trial in range(10):
        rng = trial_rng(1, trial)
        fs = sample_fault_set(6, 3, rng)
        u, v = sample_endpoints(rng, 6, fs)
        t0 = time.monotonic()
        got = hamiltonian_path(6, u, v, fs)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        assert dt < 30
        assert verify_path(6, fs, u, v, got).ok
    report(7, True, f"n=6 smoke: 10 cycles and 10 paths verified, worst build {worst:.1f}s < 30s")


# ------------------------------------------------------------ criterion 8


def test_c08_tightness():
    t0 = time.monotonic()
    for n in (3, 4, 5):
        w = tightness_witness_cycle(n)
        assert w.size == n - 1
        assert validate(w, bound=n - 1).ok
        assert residual_degree(n, w, identity(n)) == 1  # no Hamiltonian cycle
    res = exhaustive_cycle_search(3, tightness_witness_cycle(3))
    assert res.status is SearchStatus.PROVEN_ABSENT
    fs, x, y = tightness_witness_path(3)
    assert fs.size == 1 and validate(fs, bound=1).ok
    res = exhaustive_path_search(3, fs, x, y)
    assert res.status is SearchStatus.PROVEN_ABSENT
    elapsed = time.monotonic() - t0
    ok = elapsed < 120
    report(
        8,
        ok,
        f"tightness: degree-1 rejection n=3..5, certified absence at n=3 ({elapsed:.1f}s)",
    )
    assert ok


# ------------------------------------------------------------ criterion 9


def test_c09_orderings_exhaustive():
    pool = subgraph_indices(5)
    count = 0
    for size in range(5, 11):
        for subset in itertools.combinations(pool, size):
            members = set(subset)
            for first in subset:
                for last in subset:
                    if first == last:
                        continue
                    got = order_subgraphs(members, first, last)
                    assert got[0] == first and got[-1] == last
                    assert sorted(got) == sorted(members)
                    assert all(a != -b for a, b in zip(got, got[1:]))
                    count += 1
    report(9, True, f"orderings exist for all {count} (subset, first, last) choices at n=5")


# ------------------------------------------------------------ criterion 10

CASE_TABLE = {
    "L18/1": {
        "n": 5,
        "matching_pairs": [[[-1, -2, 3, 4, 5], [2, 1, 3, 4, 5]]],
    },
    "L18/2.1": {
        "n": 4,
        "matching_pairs": [[[-1, -2, 3, 4], [2, 1, 3, 4]]],
    },
    "L18/2.2": {
        "n": 4,
        "matching_pairs": [[[-4, -3, -2, 1], [4, -3, -2, 1]]],
        "faulty_edges": [[[-4, -3, -2, -1], [4, -3, -2, -1]]],
    },
    "L18/3.1": {
        "n": 4,
        "matching_pairs": [[[-4, -3, -2, 1], [4, -3, -2, 1]]],
        "faulty_edges": [[[-4, -3, 2, 1], [-2, 3, 4, 1]]],
    },
    "L18/3.2.1": {
        "n": 4,
        "matching_pairs": [[[-4, -3, -2, 1], [2, 3, 4, 1]]],
        "faulty_edges": [[[-3, 4, -2, 1], [3, 4, -2, 1]]],
    },
    "L18/3.2.2.1": {
        "n": 4,
        "matching_pairs": [[[-4, -3, -2, 1], [3, 4, -2, 1]]],
        "faulty_edges": [[[-4, -3, 2, 1], [-2, 3, 4, 1]]],
    },
    "L18/3.2.2.2": {
        "n": 4,
        "matching_pairs": [[[-4, -3, -2, 1], [3, 4, -2, 1]]],
        "faulty_edges": [[[-4, 2, 3, 1], [-3, -2, 4, 1]]],
    },
    "L18/3.2.3.1": {
        "n": 4,
        "matching_pairs": [[[-4, -3, -2, 1], [4, -3, -2, 1]]],
        "faulty_edges": [[[-4, -2, -3, 1], [2, 4, -3, 1]]],
    },
    "L18/3.2.3.2": {
        "n": 4,
        "matching_pairs": [[[-4, -3, -2, 1], [4, -3, -2, 1]]],
        "faulty_edges": [[[-4, -3, 2, 1], [4, -3, 2, 1]]],
    },
    "L19/1": {
        "n": 5,
        "matching_pairs": [[[-1, -2, 3, 4, 5], [2, 1, 3, 4, 5]]],
        "source": [1, 2, 3, 4, -5],
        "target": [1, 2, 3, 5, 4],
    },
    "L19/2.1": {
        "n": 4,
        "matching_pairs": [[[-4, -3, -2, 1], [4, -3, -2, 1]]],
        "source": [1, 3, 4, 2],
        "target": [1, 2, 4, 3],
    },
    "L19/2.2": {
        "n": 4,
        "matching_pairs": [[[-4, -3, -2, 1], [4, -3, -2, 1]]],
        "source": [2, 3, 4, 1],
        "target": [1, 3, 4, 2],
    },
    "L19/2.3.1": {
        "n": 4,
        "matching_pairs": [[[-4, -3, -2, 1], [4, -3, -2, 1]]],
        "source": [-4, -3, 2, 1],
        "target": [3, 4, 2, 1],
    },
    "L19/2.3.2": {
        "n": 4,
        "matching_pairs": [[[-4, -3, -2, 1], [4, -3, -2, 1]]],
        "source": [-4, -3, 2, 1],
        "target": [-4, -2, -3, 1],
    },
}


def test_c10_directed_case_coverage():
    covered = {}
    for label, spec_ in sorted(CASE_TABLE.items()):
        n = spec_["n"]
        fs = FaultSet.build(
            n, spec_.get("matching_pairs", ()), spec_.get("faulty_edges", ())
        )
        if label.startswith("L19"):
            u = tuple(spec_["source"])
            v = tuple(spec_["target"])
            built = hamiltonian_path(n, u, v, fs)
            assert verify_path(n, fs, u, v, built).ok
        else:
            built = hamiltonian_cycle(n, fs)
            assert verify_cycle(n, fs, built).ok
        labels = set(built.trace.labels())
        assert label in labels, (label, sorted(labels))
        covered[label] = True
    ok = len(covered) == len(CASE_TABLE)
    report(10, ok, f"directed scenarios cover {sorted(covered)}")
    assert ok


# ------------------------------------------------------------ criterion 11


def test_c11_determinism(tmp_path):
    # repeat the n=4 fuzz campaigns and compare serialized reports bytewise
    rep_a = run_fuzz(4, "cycle", 1000, 2, seed=0)
    rep_b = run_fuzz(4, "cycle", 1000, 2, seed=0)
    assert rep_a.to_json() == rep_b.to_json()
    rep_a = run_fuzz(4, "path", 200, 1, seed=0)
    rep_b = run_fuzz(4, "path", 200, 1, seed=0)
    assert rep_a.to_json() == rep_b.to_json()
    # repeat artifact emission through the command line
    fs = FaultSet.build(4, matching_pairs=[[(-4, -3, -2, 1), (4, -3, -2, 1)]])
    faults = tmp_path / "faults.json"
    faults.write_text(fs.to_json())
    outputs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        assert cli_main(["cycle", "--n", "4", "--faults", str(faults), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    report(11, True, "seeded fuzz reports and emitted artifacts are byte-identical on repeat")
