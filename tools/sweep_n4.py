"""Strict-mode sweep of BP_4: build every instance of two families and check
each built object with the oracle.

Run from the root of a checkout:

    PYTHONPATH=src python tools/sweep_n4.py [--stride K] [--jobs J]

Both families put their first fault element on an edge {e, g_k} at the
identity e, where g_k is the k-th prefix reversal of e:

* ``cycle``: one element (a matching pair or a faulty edge on {e, g_k},
  8 fault sets), and two elements, the second any other matching pair or
  faulty edge of BP_4 that gives a valid fault set (12 200 fault sets);
* ``path``: one element on {e, g_k} and every ordered pair of distinct
  endpoints it leaves (1 170 456 instances).

Every fault set is a left translate of one of these, and left translation
is an automorphism of BP_n, but the constructor does not commute with it
above the BP_3 leaf.  So the sweep certifies these families, not every n=4
instance, and the endpoints are not reduced by the stabiliser of the
element.

``--stride K`` builds only every K-th instance of each family, from the
first; ``--jobs`` splits the work over that many processes.  Prints, per
family, one line of counts, one histogram of the case labels of the built
objects' traces (every trace node but the root, sorted by label) and one
line with the number of cycle-mode and path-mode BP_3 searches
(``constructor._small_search`` calls, which the leaf's three tables and
its memo spare) summed over the processes, one line with the number of
distinct faulted path keys ``(removed, banned, v)`` those searches were
asked for, by shape ``(|removed|, |banned|)`` and over all processes, and
each failing instance to stderr; exits 1 if any instance fails to build or
to verify.  Each process keeps its own memo, so the path-mode count grows
with ``--jobs`` and the key count does not.  ``FREE_PATHS`` holds the
fault-free path keys, ``SINGLE_PATHS`` those of shape ``1,0`` and
``LEAF_CYCLES`` the cycle keys with at most one fault, so no key of shape
``1,0`` is searched and a build of the cycle family makes no cycle-mode
search.
"""

from __future__ import annotations

import argparse
import itertools
import multiprocessing
import sys
import time
import traceback
from collections import Counter

from burntpancake import constructor
from burntpancake.bp_graph import edge_key, neighbors
from burntpancake.constructor import StrictModeFailure, hamiltonian_cycle, hamiltonian_path
from burntpancake.fault_model import FaultSet, validate
from burntpancake.oracle import verify_cycle, verify_path
from burntpancake.signed_perm import all_vertices, generator, identity

N = 4


def first_elements() -> list[FaultSet]:
    """The 8 one-element fault sets on {e, g_k}: a matching pair, then a
    faulty edge, for k = 1..4."""
    e = identity(N)
    out = []
    for k in range(1, N + 1):
        pair = [e, generator(N, k)]
        out += [FaultSet.build(N, matching_pairs=[pair]), FaultSet.build(N, faulty_edges=[pair])]
    return out


def cycle_instances():
    """The cycle family's fault sets, in a fixed order."""
    vertices = all_vertices(N)
    edges = sorted({edge_key(x, w) for x in vertices for w in neighbors(x)})
    firsts = first_elements()
    yield from firsts
    for fs in firsts:
        for e in edges:
            for more in (
                FaultSet.build(N, fs.matching_pairs + (e,), fs.faulty_edges),
                FaultSet.build(N, fs.matching_pairs, fs.faulty_edges + (e,)),
            ):
                if validate(more).ok:
                    yield more


def path_instances():
    """The path family's (fault set, u, v), in a fixed order."""
    vertices = all_vertices(N)
    for fs in first_elements():
        free = [x for x in vertices if x not in fs.removed_vertices()]
        for u, v in itertools.permutations(free, 2):
            yield fs, u, v


def _build_and_verify(op: str, item) -> tuple[str, list[str]]:
    """The outcome of one instance and the case labels of the built object's
    trace (none when it fails to build); a failure is printed to stderr."""
    labels = []
    try:
        if op == "cycle":
            built = hamiltonian_cycle(N, item)
            ok = verify_cycle(N, item, built).ok
        else:
            fs, u, v = item
            built = hamiltonian_path(N, u, v, fs)
            ok = verify_path(N, fs, u, v, built).ok
        labels = [label for label in built.trace.labels() if label != "root"]
        outcome = "verified" if ok else "oracle_rejects"
    except StrictModeFailure:
        outcome = "strict_failures"
    except Exception:  # a defect of the constructor: report it and sweep on
        traceback.print_exc()
        outcome = "errors"
    if outcome != "verified":
        print(f"{op} {outcome}: {item!r}", file=sys.stderr)
    return outcome, labels


def run_keyed(op: str, stride: int = 1, offset: int = 0) -> tuple[Counter, Counter, set]:
    """Counts of outcomes and of BP_3 searches (``cycle_searches`` and
    ``path_searches``), of case labels, and the set of path keys searched,
    over the instances of ``op`` whose index is ``offset`` modulo
    ``stride``."""
    items = cycle_instances() if op == "cycle" else path_instances()
    counts, labels, path_keys = Counter(), Counter(), set()
    search = constructor._small_search

    def counted(n, removed, banned, u, v):
        counts["cycle_searches" if u is None else "path_searches"] += 1
        if u is not None:
            path_keys.add((removed, banned, v))
        return search(n, removed, banned, u, v)

    constructor._small_search = counted
    try:
        for item in itertools.islice(items, offset, None, stride):
            outcome, seen = _build_and_verify(op, item)
            counts["instances"] += 1
            counts[outcome] += 1
            labels.update(seen)
    finally:
        constructor._small_search = search
    return counts, labels, path_keys


def run(op: str, stride: int = 1, offset: int = 0) -> tuple[Counter, Counter]:
    """:func:`run_keyed` without the path keys."""
    return run_keyed(op, stride, offset)[:2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stride", type=int, default=1)
    ap.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    args = ap.parse_args(argv)
    if args.stride < 1 or not 1 <= args.jobs <= 8:
        ap.error("need --stride >= 1 and 1 <= --jobs <= 8")
    bad = 0
    for op in ("cycle", "path"):
        t0 = time.perf_counter()
        # job j takes every (stride * jobs)-th instance from j * stride
        parts = [(op, args.stride * args.jobs, j * args.stride) for j in range(args.jobs)]
        if args.jobs == 1:
            results = [run_keyed(*parts[0])]
        else:
            with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
                results = pool.starmap(run_keyed, parts)
        counts = sum((c for c, _, _ in results), Counter())
        labels = sum((h for _, h, _ in results), Counter())
        shapes = Counter((len(r), len(b)) for r, b, _ in set().union(*(k for _, _, k in results)))
        bad += counts["instances"] - counts["verified"]
        fields = ("instances", "verified", "strict_failures", "oracle_rejects", "errors")
        print(op, " ".join(f"{k}={counts[k]}" for k in fields), f"seconds={time.perf_counter() - t0:.1f}")
        print(op, "labels", " ".join(f"{k}={labels[k]}" for k in sorted(labels)))
        print(op, "searches", f"cycle={counts['cycle_searches']} path={counts['path_searches']}")
        print(op, "path keys", f"total={sum(shapes.values())}", " ".join(f"{r},{b}={shapes[r, b]}" for r, b in sorted(shapes)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
