"""Fixed BP_3 data that the base-case solver is built on.

``PAIR_CYCLES[k]``, one per generator dimension k, is a Hamiltonian cycle of
BP_3 minus the pair {identity, generator(3, k)}.  The constructor's BP_3
leaf reads a vertex by the signed positions of its symbols in a reference
vertex r, and a single-pair instance in the frame of the pair's larger
endpoint b: there b is the identity and the pair is {identity, generator
k}, so the fixture answers it as it is.  Reading back out of a frame is a
left translation, an automorphism of the graph.  Validated on import; the
data is load-bearing for the base-case solver.

``FREE_PATHS`` holds, for every vertex v other than the identity, the
Hamiltonian path of fault-free BP_3 from the identity to v that
``constructor._small_search`` finds.  That search stays the definition of
these paths; the table only saves running it.  Every other fault-free path
is one of these, read in the frame of its start, where the start is the
identity.

* Layout: 48 slots of 6 bytes.  The path to the j-th vertex of
  ``all_vertices(3)`` (lexicographic order) is in the slot at byte ``6 * j``.
  The identity's slot is zero and unused.
* Encoding: a slot is a 48-bit big-endian integer holding the 47
  prefix-reversal dimensions of the path, first step first.  The top 2 bits
  are the first dimension minus 1.  A reversal undoes itself, so a
  Hamiltonian path never takes the same dimension twice in a row; each of
  the other 46 bits picks the next dimension among the two that differ from
  the previous one, 0 for the smaller and 1 for the larger.
* Regenerating: ``tests/test_constructor.py::test_free_path_table_matches_search``
  compares every slot with the search and, on a mismatch, prints the base64
  text below as the search gives it.

``LEAF_CYCLES`` holds the Hamiltonian cycle that
``constructor._small_search(3, removed, banned, None, None)`` finds for each
of the 121 cycle keys with at most one fault: none, one removed vertex or
one banned edge.  These are every key that the cycle leaf is asked for in
the builds of ``tools/sweep_n4.py`` and of n=4..6 fuzz campaigns.  As with
``FREE_PATHS``, the search defines these cycles and the table only saves
running it; any other key is searched.

* Layout: 121 slots of 6 bytes, the slot numbered s at byte ``6 * s``.
  Slot 0 is the fault-free key.  Slots 1..48 remove one vertex: slot
  ``1 + j`` removes the j-th vertex of ``all_vertices(3)``.  Slots 49..120
  ban one edge: slot ``49 + r`` bans the r-th of the 72 edges of BP_3 in
  sorted ``edge_key`` order.
* Encoding: the step code of ``FREE_PATHS``, read from the search's start,
  the first vertex of ``all_vertices(3)`` that is not removed (the second
  one when slot 1 removes the first).  The cycle is the path of its steps
  closed by the edge back to the start.  A 48-vertex cycle has 47 steps,
  which fill all 48 bits; a 47-vertex cycle has 46, which fill the top 47
  bits, and the low bit is 0.
* Regenerating: ``tests/test_constructor.py::test_leaf_cycle_table_matches_search``
  compares every slot with the search and, on a mismatch, prints the base64
  text below as the search gives it.

Neither table is checked on import; each decoded path is checked to end at
its target, each decoded cycle to end beside its start, and every built
object goes through the constructor's output check.
"""

from __future__ import annotations

import binascii

from .signed_perm import Vertex, generator, identity

# Pair {123, -1 2 3} (k = 1).
_CYCLE_K1: tuple[Vertex, ...] = (
    (-2, -1, 3), (2, -1, 3), (-3, 1, -2), (3, 1, -2), (-1, -3, -2),
    (1, -3, -2), (3, -1, -2), (2, 1, -3), (-1, -2, -3), (3, 2, 1),
    (-2, -3, 1), (-1, 3, 2), (1, 3, 2), (-3, -1, 2), (-2, 1, 3),
    (2, 1, 3), (-3, -1, -2), (1, 3, -2), (-1, 3, -2), (2, -3, 1),
    (3, -2, 1), (-3, -2, 1), (2, 3, 1), (-2, 3, 1), (-3, 2, 1),
    (-1, -2, 3), (1, -2, 3), (-3, 2, -1), (-2, 3, -1), (2, 3, -1),
    (-3, -2, -1), (3, -2, -1), (2, -3, -1), (-2, -3, -1), (3, 2, -1),
    (1, -2, -3), (2, -1, -3), (-2, -1, -3), (1, 2, -3), (-1, 2, -3),
    (-2, 1, -3), (3, -1, 2), (1, -3, 2), (-1, -3, 2), (3, 1, 2),
    (-3, 1, 2),
)

# Pair {123, -2 -1 3} (k = 2).
_CYCLE_K2: tuple[Vertex, ...] = (
    (-1, 2, 3), (-3, -2, 1), (2, 3, 1), (-1, -3, -2), (3, 1, -2),
    (2, -1, -3), (-2, -1, -3), (1, 2, -3), (-1, 2, -3), (3, -2, 1),
    (2, -3, 1), (-1, 3, -2), (-3, 1, -2), (2, -1, 3), (1, -2, 3),
    (-3, 2, -1), (-2, 3, -1), (1, -3, 2), (3, -1, 2), (-2, 1, -3),
    (2, 1, -3), (3, -1, -2), (1, -3, -2), (2, 3, -1), (-3, -2, -1),
    (3, -2, -1), (2, -3, -1), (1, 3, -2), (-3, -1, -2), (2, 1, 3),
    (-1, -2, 3), (-3, 2, 1), (-2, 3, 1), (-1, -3, 2), (3, 1, 2),
    (-3, 1, 2), (-1, 3, 2), (-2, -3, 1), (3, 2, 1), (-1, -2, -3),
    (1, -2, -3), (3, 2, -1), (-2, -3, -1), (1, 3, 2), (-3, -1, 2),
    (-2, 1, 3),
)

# Pair {123, -3 -2 -1} (k = 3).
_CYCLE_K3: tuple[Vertex, ...] = (
    (-2, -1, 3), (2, -1, 3), (1, -2, 3), (-1, -2, 3), (2, 1, 3),
    (-2, 1, 3), (-1, 2, 3), (-3, -2, 1), (3, -2, 1), (-1, 2, -3),
    (-2, 1, -3), (2, 1, -3), (3, -1, -2), (-3, -1, -2), (1, 3, -2),
    (2, -3, -1), (3, -2, -1), (1, 2, -3), (-2, -1, -3), (3, 1, 2),
    (-1, -3, 2), (1, -3, 2), (3, -1, 2), (-3, -1, 2), (1, 3, 2),
    (-2, -3, -1), (3, 2, -1), (-3, 2, -1), (-2, 3, -1), (2, 3, -1),
    (1, -3, -2), (-1, -3, -2), (2, 3, 1), (-2, 3, 1), (-3, 2, 1),
    (3, 2, 1), (-1, -2, -3), (1, -2, -3), (2, -1, -3), (3, 1, -2),
    (-3, 1, -2), (-1, 3, -2), (2, -3, 1), (-2, -3, 1), (-1, 3, 2),
    (-3, 1, 2),
)

PAIR_CYCLES: dict[int, tuple[Vertex, ...]] = {1: _CYCLE_K1, 2: _CYCLE_K2, 3: _CYCLE_K3}


def _check() -> None:
    from .bp_graph import is_adjacent
    from .signed_perm import all_vertices

    everything = set(all_vertices(3))
    for k, cycle in PAIR_CYCLES.items():
        missing = {identity(3), generator(3, k)}
        if len(cycle) != 46 or len(set(cycle)) != 46:
            raise AssertionError(f"fixture k={k}: expected 46 distinct vertices")
        if set(cycle) != everything - missing:
            raise AssertionError(f"fixture k={k}: wrong vertex set")
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if not is_adjacent(a, b):
                raise AssertionError(f"fixture k={k}: {a} and {b} not adjacent")


_check()

FREE_PATHS: bytes = binascii.a2b_base64(
    "e/+/+/+/pN+KmTQnpDFmyaAspZv8/v8/pZt7JlwFpNTrKJZVq3vvU6GOpMqy09LKpZv2T6A7pMs8"
    "eeeepaJLh9fhpP2b/DD+pZssDzzzpMoCbJlDt/pZXn9/pTqw4O2ipDCAqZDgpMrzzh6epZssDzyZ"
    "pu1lov6/paJL8Pr8pYFkZYFkpP1QdtF1pZv2T6B3pbsO+9vjpZsseeeepaJLh9WHofn94WR8pZss"
    "CyZZAAAAAAAApWaCaHnWpMueeecPpMoPF02TpZsoDs2TpZssDyzZpaRljYsCpMoenizZpZ/5/f5/"
    "mB4EaTJCpVkZVkiCpZuXAX7JpZssCyMspWaCbK88pNTtos1QpaRljZYFpZv2T77wpZt7FAcMpZso"
    "CbJl"
)

LEAF_CYCLES: bytes = binascii.a2b_base64(
    "vf/f/f/fjn07x258jn07x258vX9JZS5kun8yfz8+ptxSNdDqrJvxUyaEvX9Espfkv0yRGwrqueBc"
    "yFkQueIysiC6s/djtz5cmTKAmyZQvSVs27a+meBQkLI0bluLe3LgvOT2/2a+vh+NljN2t4YolhaK"
    "vh8uZCyQvfz+XP4+vH0yR8bOvf/H+7f6vH3kj42at80MMTQwS4C8LSCivSXJ9OlwvXX7ro7crPtZ"
    "aL+uDzp3jtx8SzcuAv2SveSPjZr4vTpcPpLkMDDGaA8CvjtokrDCvTJFHZr4vZGllJQqvX9HS598"
    "vR0uffPqvVm7WWi+vGGI2anaveFNvjSyvfMprN4mvSWUuZPqvX7PtZaKvfPr+jpcvfu1xf1+vRLK"
    "X5PqvfNDmU1mSyMsCyMsveFkfGWHvf/f/f/fjq6vVK61vf/f/f/fvMn7N/hhvXX9df11veFkfGWH"
    "vf/f/f/fveFkfGWHuldaeldavf/f/f/fvRSVhW1Fpv8MP5k/vf/f/f/frJ+yQXXQt4WR8ZYdvf/f"
    "/f/fvGWHfeFkveFkfGWHvf/f/f/fvf/f/f/fveFkfGWHvy5/XX+7uedZaellvf/f/f/fveFkfGWH"
    "uedZaellvn/n/n/nvf/f/f/fvRSVhW1Fvf/f/f/fs/rr/dv5mWllWWllvf/f/f/fvRSVhW1Fvf/f"
    "/f/fveFkfGWHmWllWWllvf/f/f/fveFkfGWHbn9df7t/veFkfGWHvMn7N/hhvf/f/f/fvLahhikt"
    "vRSVhW1Fvf/f/f/ft4WR8ZYdvf/f/f/fvRSVhW1Fvn/n/n/nvf/f/f/fvy2oYYpLvf/f/f/fvGWH"
    "feFkvf/f/f/fvf/f/f/fvGWHfeFkvf/f/f/fSyMsCyMsvRSVhW1FvRSVhW1FvRSVhW1Fvn/n/n/n"
    "rJ+yQXXQDwMDgMMIvRSVhW1FMCyMsCyMvf/f/f/fvXX+7fy5veFkfGWH"
)
