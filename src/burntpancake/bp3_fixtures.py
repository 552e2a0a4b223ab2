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

The table is not checked on import; each decoded path is checked to end at
its target, and every built object goes through the constructor's output
check.
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
