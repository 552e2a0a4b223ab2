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

``SINGLE_PATHS`` holds the Hamiltonian path from the identity to v that
``constructor._small_search`` finds in BP_3 minus one vertex x, for every
such key ``(removed={x}, banned=(), v)``: 47 choices of x other than the
identity times 46 of v, 2 162 keys.  These are the faulted path keys that
the path leaf is asked for most.  As with the tables above, the search
defines these paths and the table only saves running it; any path key with
two removed vertices or a banned edge is searched.

* Layout: 2 304 slots of 6 bytes, 13 824 bytes.  The key with x the i-th
  and v the j-th vertex of ``all_vertices(3)`` is in the slot numbered
  ``48 * i + j``, at byte ``6 * (48 * i + j)``.  The slots where x is the
  identity, or v is the identity or x, are zero and unused.
* Encoding: the step code of ``FREE_PATHS``, from the identity.  A path of
  47 vertices has 46 steps, which fill the top 47 bits; the low bit is 0.
* Marker: six keys have no path (x = (-3,-2,1) with v = (-2,1,3), x =
  (-3,1,2) with v = (2,-1,3), x = (2,3,-1) with v = (3,-2,-1), and the
  three with x and v swapped).  Their slots hold all ones, ``NO_PATH``,
  which no path encodes (its first dimension would be 4), and are tested
  for before decoding.
* Regenerating: ``tests/test_constructor.py::test_single_path_table_matches_search``
  compares every key with the search, checks that the marker slots are
  exactly the keys without a path and, on a mismatch, prints the base64
  text below as the search gives it.

No table is checked on import.  Each decoded path is checked to visit no
vertex twice, to avoid the removed vertex and to end at its target, each
decoded cycle to end beside its start, and every built object goes through
the constructor's output check.
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

# Slot value of a SINGLE_PATHS key whose path does not exist.
NO_PATH: bytes = b"\xff" * 6

SINGLE_PATHS: bytes = binascii.a2b_base64(
    "AAAAAAAAeffed9++e+Zcsp3+ehGyRsK2enfffPvuWSFkct2Ae9Tv+W7Mfmhh+n4Ye++/++++c6wd"
    "kRs0euvxRLKyMm/FTJoSehGwlYSMev6s3a6WfrrCRGzUe/ff+d/8eZZv2WHefxssbNu2eaHesnzK"
    "e/Z+H8ZYev6uulz6ehGyRscqePkyR8bMbwYYfhhAeuv3Li66e/ff/f/ee+ffff/efopkiNhWemSP"
    "jZ3yAAAAAAAAe++/fffeemSIy4FeemSIy4fWfD8TLN+eenfffPt2eyIy4fX4e+ZZ/esseW/FEsoY"
    "e/+/+/++e+ZTWWn8e8LI+MsOe+ZTWb/SeZZv2U7wfGyQ+XAYe+ZV/pZSe9ToY5b+fGzb5Mhwe/Z+"
    "H8yyHQjZI2OUAAAAAAAAHRdLi3KuDcVEF1aUHXRxb3F0GlK6JXX6H8Y5cXtyHePoL1loGSjixxdE"
    "Hfevj/duHRwW4RGyHXQRlZEOHfOU106O////////Hfp/Ln5wH8YbkyXEH8Zu37k6Hfp/Ln8eHfOX"
    "P4+mH8YbkyRGHRweSIxypN+KmTQmHfVuUdroHeIfpBNCHQjZILcIH8Ybk6O2HRdHbi3KHfpZToL4"
    "HfOU10/iAAAAAAAAHBy4vblwF7hcW9uKHg8/ZocOHRdHOUcWHfOU18f6H8YSI2bcHRdHVuUcHYun"
    "Rxb2GT40XRwoHf/H+7f6HR25OjtwHfVu10uKHfOUcXroHRbUWtwqGxMIDxD8HePE0Gn4HfpZTob6"
    "HRZEFuEQev6SylzIoYfGiTcCAAAAAAAApDF02TlAoYfXAtokkchEC4tKqfLnPzhirNDfy5s0psCj"
    "jTIWpCXGi8KurNuMpHGupDF4E2TkpDHn4fLmMQgIE0BAvHC4sjkypuMrwo40oYfGhg5srNDEybt+"
    "pCXGh1Ycvxjk9vcYqfXWiU0KpHzQ6s3apCOrDokcpDF4LeyaqRGuusTWpDHn73b8qfLnNDHmoYfL"
    "mzQwpDF4WTduAAAAAAAApDFmyaAsn6fiJc3Yn6fiZc3apvvCjjTIpDF4fLmyqRDE1g7cqfLnNDEy"
    "pt2OFHGmmJoHiGJupCO3GWHQpDFpQE2SpDF4WRy4pDGbt+H4qfLmzQxMpCO3Gi8KpuMrxSOKpDEy"
    "bt+GpuM0jiw6dZEZcHhUpqneKR2ypc++r796AAAAAAAAojZS4PBUpDC4yw76r2kQbF00r7aev0rq"
    "ojKQQ6wapZv8/t+epZofLdmypRdaKRxUpS5lX3zSpIWRy3YGt6++r792pQuW4yxMoWi/mn7MoXFG"
    "b7wso2WBMjSyptxlIIdYpZoKE7zupYumycoIpZvzvxQ+pQuVYmkcpc/r+f9+pS5k+bX+pZoWTLlu"
    "ojLAtLAwpS5lX+m+AAAAAAAApS400KvupZv8/v8+pc+Tn31epS400Kt2oWi/mn4Ypc/ffvf0pZoK"
    "H3neriogurSsmT7dWWi+pS5lXt80pZoKE7x2pZoLeya6pS40331Ypt8mWaH4pc/r+c++pS5k+af0"
    "pc+Tn06upZoWRy3YTroIysiGuPGbtPGyoYfezfGapqwdkaZIAAAAAAAAoWHD7wxiqmSIy4FSprzw"
    "ecEyoh3sYg8Kps89+eeepoPOH3neoYmhh3zQpqzZc5PSpvzvw/Hmsy5yfv7+qJTJre+8uOyI2a9W"
    "przz5578pqy09vdkpvzvw/EypoWTLnnupsDzwTIYpv8/8/8+oYmhh30Sps7zz56epqwdkRs0poPO"
    "E7zuoumyc84IomWfMeHyAAAAAAAApqxyekZcpvzvx5w+pv8/89+eu5cLnpc6qnfOU6UypZt7JlwE"
    "pofPPdmypqwdkae2mxyrxaTkps7zzz08pqxyeka6ps89PPPOoHRIJt4Yofhwhh34ps6y09LKomTf"
    "hw34poPPeya6poPOE7x2WTfipk0IWGHxok3CWqUSyvFSWB4EMbNoTmXLKd98AAAAAAAAWB4JtEhi"
    "Wnt89P5cWB0MaJNAXuzc8+P6WnjYtPGypNTrKJZUWTe0ICpkWaAm0WaGWa+PxR2aWSIzdfh8X8f7"
    "3ZueWaA7ND0mWb7w/9J6WTEyiTQEWGHxojHMWb89+H4mUCIYRBouWTKAmyZQWSIQFTvGWTe0WaoC"
    "Wis0I+aGWSIYHDvUWb/T/w+eAAAAAAAAXQ6y0336WlDq3La0WTfGJs1QWBiMMQE2WSIdWHDu////"
    "////WBoYgJtEWGH/pPb4X8fnuZc4WSIQFTIcWn/pPb5MWTeM1QGIWSIdYd+GWaAm08TKWaA7fpPS"
    "WTUBUyiSWSIdTvHgWTKAm0Waev6JZS/IqpRLKioSq1lot4Kgq4v5z758qyIy4PBUqUroldfiAAAA"
    "AAAAqpXX4qV0q4v5z4/eqU3b8bmgq2iWcB4KqyIy4PCqqmwOimWiqUMY2TQGt/06O3CuqIfp983Y"
    "qmxUVlosreM15wGIqmwKJZqKq1lot7FQq2vjF8fSq4v6/ffuqIfnTvHgq4vOE55wq10uKhV8mblx"
    "ZaL6q2vjFR2uqnS4Dteoqy5vv1Q+AAAAAAAAq4vOfH72qUuH11ouq3vvXwxeq4vOE58eqmwKJZUU"
    "e36RDE1gq10uKhH0qy4vh3qgmaAm0WaEq11qh9daqyI2PBU6qy5vt+KmqT0+M33gq2a+PoR8q2vj"
    "FOlwq4+9b33qq3vvU6GOq4qE5RLKfpkiNhXWqp9Orpvure1Cd47SoXFD7wtOpN+nvzzqre/9LmT6"
    "qnWHfijsAAAAAAAApP6/09+ere/9Jfs2pNvfqbOqpNPU7x50pN2aofPSrJGur6m2tfiFokrCpNLK"
    "8qy0qnfNdXr8uNjx4zVKpN2aoWnurcK2ka6GpIo5fV94pNibNUPmqnWKjtPupMrzzz08qmIXFHFQ"
    "pMs9+eeeqnf1/pfmtfhhW0SwpN+nvxUyAAAAAAAApDQefXngre1Cc0McqnWKjtN2pMrzz56epN+n"
    "vxXmqnWHfpcUqnf1/pcyqnTpcBUoma/5fPaipNvfipk0pNvfqZV4pDQeM1QGqnTpc1qgtdX38uLe"
    "pNvfqbNUpMs9PPPOqnWKjpc0pMqy09LKc8C5kLIgoh6eIQECog4sCBAQojKQQ6wYog7aKDRUog8Q"
    "gU2Cq4v5z4/compvxU3sAAAAAAAAoqKm3xqCog8QgIE0og4oCiQQomoNFTb4og4sCEQGt+SsuL+u"
    "og4sCINEojKOwPIQomhOaofMo5QUlv6Kookt+lAQomhOafiGojZIKneOog8QGDAoog4qINFAopKx"
    "Udp8og4uiQRgqmhVu0Sqog8UGyaoohYMCkEOAAAAAAAAojZPjFTuog8Q4E1gomgPIYs2og4qJBRI"
    "ohYMD8Qaq6uLe+9Uooh6UBAsog8UGipsjmVcWR9EouDipt8aogJsEBiGog8QawIEog+TVEgoookv"
    "Wn4gozxGWCAsom/ZP0/EpZv2T6A6og4sCNEgc8RlZEF0pN2USyrOrfJ3+lbSpP8/t+cOpN+eecPK"
    "Xuzc8+P4qRDrDvxsre/9Jfs0pP8/s8eeAAAAAAAApCQRjOsCpN+3vx50pP8ePPl+rCtPxN7etFyr"
    "HLi2pN+edZ84pN+edZ48reJk+2n+pN2bLFnin6T0jYV4pNvKstFkpGUB2bJCpPjRcqxypP2T6Dxc"
    "pKO3CrdEpN2U6s+WpIjHbhVuoS/ZocP8pILex4zuAAAAAAAApILPGyZcrfJzQ/SspNuFW6JGpMs8"
    "eeeepN2UPKFkqRDrDv0kpNvKs2USrfB5P0ron6T0hhA6pPjLHO3QpOecPL/OpPjLHi5epN2bJDyg"
    "qf6S/ZocpPjRcvcKpN+3vyvOpNuFWkaKpNvKs2TQZ+7Hbny4qKxGIOxCqKzQjYhIpaJLh31AoWIx"
    "By4EWnjYtPGwqLA8tEhioXJuCHxopaJLhwFepIjHbgr6AAAAAAAApaJLh4H0pIfS5QeMoEaJDEBG"
    "tCNiEjKipoOL44XEoFp4kMQsrGINiECopMoWeWnipoOL44RGqKxGINiEpaKCvvHapCICvIRApIjY"
    "r/rqoUcEKONEpIjXXV9QoUcEIjHGoECoDEGwpMoenjzyAAAAAAAApIjYryvUoEaJDEHEoUcEMaJG"
    "poDxnATIpNTrKJYqpIjHH0cEoUcEIiRwpoOb7x4mkCbBAYhApIfRwW4QpaJKdQHipMobPOHopMoS"
    "HpZ4qLNC08TKpIjHKDi+paJLh9fgpMoWaHpYpoCM0B5CMmUBNkygohwQwJrCp72TLgPOp7scKONO"
    "oYmhh3zSp51lp6WUqzVhwdtEp/nvw/Eyp7scKHpGp53nnD08p554HnnmAAAAAAAAp5wsmUPSp75M"
    "uH4mt6nfOW4Yp72OGOA8ovAmtm3sp5548888p5w9PHnmp/4YfzJ+p554Fkyyp5wE2TKGpwdtP9Jc"
    "oYmhhib4p5weLpsmp4EyGM2Ap554HnkyoYmTfhh+p5w9PFmyAAAAAAAAp1DrI1HEp51ltZaep55w"
    "HZsmp1NxSP66p5w9PHkypP2b/DD+p554Hlmyp4FD0jLGmTKstrLSp588884ep554FkZYp9v+8/9O"
    "p5wsjTxYp75MuH/op5889+POp4EyGM0Ap55wE2TKp72POA4YekrZt21+pqnfy5qOpDAsmWBYpS5l"
    "X3zQpSCbdkyqpZt2bB+KrdfxrpuSre5bSzwOpSCb76s2pZt2bAoepcH727OqpTWbxN98AAAAAAAA"
    "pMsCzZYGtBdcKty2pQsmWBZMre6HC0lMpZt2aofApSCbdmqGpsCZZ4EypZssDzzypYs2BQ9IpXip"
    "loJspQsmVZNApbWBMraepTvvm7N4pZssCzyyomWPAtLMhlAdm5bkAAAAAAAAoF4YokE2pNBNlcKs"
    "pMtzLHgWpSCbKs2WpSCbdkxUpZsDyzYEpZvvvvCyo2PI0s8Clbs27Li+pcH4qZcmpcH725V4pZtP"
    "FgTKtdI/rntypMs8CyZYpcH727NUpTvvmhzKpMtLA4WapZssCzZYM8ChIWRo////////MQgIE0BC"
    "M+ZDQ/D4M+XATGyeMIg0XRIKM4CbRZoSNcqJSVaUMI/ojZqcM+Niw6JGM+NEXhRwM84CbJlCM+ZD"
    "QH4eAAAAAAAAM6hIg1kaO2iV00PSM8bJoDYsM+NRxYdEM+1h0SW+MI/DCIkeM+NEY4sOpMoCbJlC"
    "MCiQQoNEM/ESaw4OMI+iWERQMI/DCA8QM4CNiZRIM8sWbJoCM8ChICRkAAAAAAAAM4HnATGaM+N8"
    "aLwoMOg00Gi6M4C0+W0WM8ChICbIMQaLA0BEM+NEY4/CMuKNmvj6M4CbexMoLCsI/FEiMIgOiQUQ"
    "M+2iS3+GM+0+W0XgMQkEIhTQMCiQQtEgM+34fyyIM+1h0SPkM+NEYYfGfrrCRGzWvNBeqHWStErr"
    "8NC0t6nfVu1wt8fTvpLks0MQ8E0Kt8aR9CmstR2tKvq0t+yffVlot8aVfetKtMhIIxsCt8fTJHxs"
    "t8ZaWVfetErr8NKWAAAAAAAAsBNASGLMuFgeIYGGtEq8QtFAt8ZaU76st8aR9JTWtMm3yYfottFB"
    "pV4gt4h1aQTQt/pZV9+yfnMnzDEyt/pZXn9+tDqzdv0st8fTvq3atFQtF1YSAAAAAAAAt8fT27a+"
    "tEroliHgtEroliYetMtPw2+SuINYHiFguBAYhAYEtErr879Kt+yfGVeIm4qdXQdusBGNgRjMt+yf"
    "RLKut8aVfVpSt+yfNDqys0P0pu34t4h1iaDSt/pZXk++vGo4sOikt8fTW18aecnt/s1+H8YbkyXG"
    "puefH/zupvZw71kepoPjlw70oHgm3saiqKmTe3xqpN+KmTfsps+OFxZGps+WUOsspuXH/x2yp0yH"
    "B5ICpSAqZN7eqe3uXDvet/11lHbmAAAAAAAAuC3sRljOprzh3v08pvf+fv/mpoCbexMqqe0s4Dty"
    "pTqw4OyIpVmqAm3spoHD08eSpVm/ZQE2pSPk5s1QpuXFkuP+ofzJ+f84psCgPIYyAAAAAAAApvcf"
    "8ZTupuZcfD4+puZZwH4epvcf8ZR2pvZw/Dh6pVmhOTQEpuefH/x2pSfNmqHymnjY8kBMpTqw4O2i"
    "puTJcf/GpVmqApOSpSAqZDk4puZcf/H4poPjs15wpvZw9PHgpuee/neOpuXFkf8cfD8bLGbsH8Zu"
    "37k4vND0mVmguC5kLI/YuOyI2a9UuDz5lmh6uxuLwLi2uDmT5g5kuC2iEDAsuOyIVbhguDEIGBYS"
    "uCZDGbA8ud65k55wu7Nzz4/muDDAwYHguC3sRljMAAAAAAAAuDDAwYYeufzJzz54uC3sRlgYuDk9"
    "pDByuC2ig0sCufzLNzz4uCZDGbTwpDCAqZDguC5kLIhOuCp0y0SyuDDGb8MIum6vXnDuAAAAAAAA"
    "um/DCIYQuDz5lm54uD89zLN+uCp0yRGWufzJzzh6uC3DAsiEuCZWbTxMuC55PjLGmn3hXiNOuDDD"
    "8MIGuDEIGBNguIGOVYjKnhcyPz3GuDzp0yzQuFiMsDHKuenjz3s2um/vCvXmuCZDQ9JkbEbNWOXA"
    "rGIPCrxCrdtEq+rSr9TrNecOref9JcyeWaA7ND0kr9PHnnWauNjx4zVIrdkRrq+qreJk+v9KrGIN"
    "iECqreBhjSPkrePOmV6mrFNDq0SWtEq8QtFCrfJ7dtf+ref9JcnsAAAAAAAAreFp/X7MrdtElbX+"
    "rc27a/9IrX9fs3ayreJk1p/WrdhV9BGkrdrSr6tEpMrzzh6erdkRpV9Wref9fs3areFpBUDuAAAA"
    "AAAAreFpDD6+rdtEq8TUreJk1plerdtP+kuSreFpBX3grdtElaf0rFBEq8QsreUuZPr+nXTv5z4+"
    "rcUjKs1Qrc1Suv0ireFpBUB2reFp/X4YnWiU08TWrcUjRUyqreBhjSW+reJk1Os0rdhV9WkQfD5c"
    "yFkgpr/l89qOpDDv2fh+pS/J9fzQpSCbezzqpP8eF+T6qnWHfy9SpN2aoWnspSCb+v2epN2bLFng"
    "pMs8CzyypTfzQ/J8pSCbdmqEpMsDzyYGt8ZfV962pTv2fh/Mo4Y08eBspP6/Z9hwAAAAAAAApvD/"
    "ZYd+pNBLPOs6pSW7NULSpPzsOChOpQ2edZNApNBrOs2WpSLFTLk0pNBLKs6yozWHBQnMpSCbexUy"
    "AAAAAAAApqZeFp7epNBJcPOspMt+TA4epSCbK88mpSCbexXmpMCyZYHkpMs8DzzypSeliplynX7P"
    "c0GspN2aoWyepSCbnk+upNA8oWTKt83DGn4apMs8DZ54pMs8CzZYpTv2fib+pMtPHgbOpZssDzyY"
    "e/n8ufx+poCbRZoSvxjk9vcapuXATGyepuZDQ/D4qRDYFEsaq1lot7FSpvvCm3xopoC0+W0WqRDY"
    "FCQspuNEY4/Cp5MWbJoCpvE3hTb4MI/DCIkctF4UcUjmpoCbexMoqe3uXCY8rJGitxsWpu34fy2i"
    "AAAAAAAApoCNiZRIpu1lovvqpuN8aLwopoHRJb9KpuNRxYdEpuXATGnspuNEY4sOoYfy2iS4pu1h"
    "0SW+AAAAAAAApvESaw4OvxhI5yZIpuNiw6JGqJDDAmEepuZDQH4ee1ordrRWpuNEXhRwpu1lov6+"
    "mGHxhuNEpqhIg1kapuNEYYfGpu1h0SPkpu34fyyIqJDENgTQq0UhaLewpu0+W0Xgpu2iS3+Gqfy5"
    "t2zQePpkj42cHRweSIxwqpXFtfGupaJL8n1+poWnt7s0qeISCEQqqo7XF8fSpNvdmqFopIhOXqhG"
    "pIjZ9v+uqKxGINiGpIhhH8vUpaJL8Pr8qeNi08bGtMhIKEh6puP+PyXEuDz3sTGarhXiNPl+pNvY"
    "lipkpuP+PyRGAAAAAAAApaL+v2faofHD/LRIpoWniZY8ofHCs+NEpIhcXL1QofHCI2fGofL8hXiM"
    "pIh1ZH8uAAAAAAAAqo7XFOlwoHlokMceofHDGiWepoWniZc4ps4WeWnipIjZ8f8cofHCIkfkpaWK"
    "mXOSmCMZsEYypIf8dvyQpIhOUjFSpMoWTKHops4bPOHoqeNnCQ9KpIjZ8uP+pIh1O38YpIh1jPt+"
    "qeNiEBMge/+P92/2paWVZaWUpYFy3GWKpYumycoKpYzX4ofKpYXDvYoKqjr+uvzqpGUBNkygpY8/"
    "sueepWOxFBU6pcUZcO+qpcUbNfH0pS5lXiL4pYFkZYFkttFTVNUSpV10F+yQpY886y08pYS34qZM"
    "pYs2WLLSpuwOg2T4pcUZfV94AAAAAAAApV0EXxlWpcUbNfV8pc2apkt+pf51lp7epYd/lm++oS4D"
    "DD8QpV11ZIi+AAAAAAAApYzdvxQ+pYFkZYsspYFyyhZGpcUbO+r6pYzX4oLepYGOAoTkpYd998yy"
    "pYzdvw/EmSILg5VipcUFTvHYpYGGKHy2pV11ZH0QpYs2TSygpYd998ZYpcUZcO9Upc5PSyvOpUyR"
    "F/XWpY2T6C66ePvJHxs0pPt1ZaL+pCOrDokepaR8hcqwpP2TXQ4KpPjRdHCqq3vvX1f6qRl+koV4"
    "pPmVZwE2pPjRcqxwpPjRdHBUpV4pHyNUpPt0OH+ypPjReFXGsXL1NDEapV4Vcb40pP1QeLpsreIf"
    "pTYopPzpsUHiqRDfboU0pP1QcXRIpaR9CrdiAAAAAAAApaR8heFWpPmT+OkepPzp3jxQq3vvWn9W"
    "ofiMsXL8t486dXNOAAAAAAAApI+Nmvq+qRDrFy/SmJqfLmtOpP1QdtF0pP890OH+eMYYjDD6pPmV"
    "cf0SqnWKipS+mKjm1CaEpPmT+OhwpOTQHlWapPmT/Hi4pPzpkOCgpPjRfx1YqQ0B2/SUpV4pHyOq"
    "pPxDgoTWpaR8jqw6bA6GNIJspqjscUj+pDAx4LewpQuVYmkeoYmhhiL4paJZr8Pqq4vbz3scpr8U"
    "Pkyyog4qINFCpZv2T6B2pIguv4xUoYmhhib6pQuVYmhwpIgvVA4Wt6mSPo4YpReqBwtEohgYIE0A"
    "paJZr6vwpRfV+KJYpqjg8USCpIgvVCP6pcPq+mSIpZv2TLwWAAAAAAAApZqZeC3spReqUSx4paJZ"
    "r1QOofepkj/opQx4mhVuAAAAAAAApqkcUj+upaS2lmqApZsoHZsmpqjr+NRwpr8UOFkapaS36S8E"
    "pZoTlA7MofpBRC4CmSIzXnKCpcPq+mWipIRgfxi2pZoKB50ypqkf1/Gopqjg/g4opaJZrzwUpQx4"
    "mhOUpZsoE2TKpZoTlA4Yeuv3Li64pKa6OcoOqRGuusTUpbX9JcyepKy4v666pCIFxZEKq0UKvx2s"
    "pKOW7HC4pbsC3FIWpKOW6OxwpKOUHF0cpV4ukajkpLjXXX+yoYRGOLHGfnMnzDEwof47cKyIpKXB"
    "U6uipKOVcXRwpKyf110ipuP9m4R2pKy4v47cpbX9fs3apLjXH+zcpbsOxqOWAAAAAAAApbX9Jcns"
    "pLjs3Lj+ofXXSIyspKa6R/VuAAAAAAAApbsO+9qOpKOXHC4uqRGuimhWpbsO+3FIpKXBSLq8pLjH"
    "Mn8cqscuLai6pbscLluKmIygIFpApCINZEKupbsC0saipKOVfxropbsO+9vipKOXH9HYq0ViiWIe"
    "pKa6R/OUpKXBSIdWpLfx25lwekuT6dLgppTdv9Pupf98+v96pS5k+bX8psRlZEF0pVlbUWuqmblx"
    "ZaL4pIurcXXQpSP6Tfs2pf51j5OepVlbUWtUpTJv2b38pTvvm7N6pN8ZqmTet94fxljYpSPk5s1S"
    "pSPk2qZMpZsseeeepTvvm7Kcpu37t/06peqZcW9upf51jk9Ipf51jz3sobt/0yRGpf5/sseeAAAA"
    "AAAApu10OstOoW/ww+9opTv5zLm+AAAAAAAApsRlZGugpf51/vb4pfV963t2ptxdcXRwpSPk2obM"
    "pf5wnPOEpeqZcfJypRBdWIysmGHxok3Apf51jtp6peqOTlHYpfVi3tLKpRJWRCropTq6JLg8pf/O"
    "f38+pTv5zJ82pf7fJz+upeqZN7fGeuv3XR24oGgIzQECqp2RGxqgoSNEhjiwofjZYxy4oUcKOERi"
    "q2vjFR2sofNZvx/oqmhVu0SooSERjixwoUcEIjHEofjZYzduoYUuBXiMoYUcIjHGtKbdtf1aofxj"
    "lxZIofjZR24QoEIgKgRAofX47WWioYUcIiRwofHCI2UcocHayRDqqp38uLaooYIFkQ9Kq2v6t2tI"
    "ofxjlxe2AAAAAAAAofXXVkiMoYUuBZEOAAAAAAAAoYU2iR+Oqp3ipCXEqp3ipKO2ofXFkiMcoYfi"
    "MsHaq2vjSlxUqoCpCRGWofXiNlLgmlHYIxuKoUcbHFQioUcEIjBGq/5fPtqmofX47WSIofHCIxxY"
    "q2vjSlyqoYokcWOKpaJLh9WGq84CpC0SWfay0X9eoHVhwUGyoStr8dtOoFwFQaZIoumyc84KoFzz"
    "3GWKq/ffPp1ctfhhW0SyoryrLT0soFzzyhZGofn998yyoYmTfhh8ostLPOFkoGOAoTnmt8fTvq3Y"
    "oYfhh97MoumqDz3soXMn1/5woFzk9LFQoYfhh94Yofn/lm++oS5MkP/GoXD/OChOoHWBhjNAoS34"
    "86ZMoGBwFJkgofn/n9/mAAAAAAAAotPSXCrSAAAAAAAAoumyfQeeoHjtp6SsoStp6S4eoW4o7Cr6"
    "otPSXD0qofn94WR8ofn/n98yoFwFQae2mqfTq6b6oS5Mlw/8ouvzgv2SotPSNKscoFzk9IKgoGOe"
    "e9igofn998ZYoYmTvww+uNk6XAbMoS3484YYemSPjZ3whlXQTcqyhuxbXxrohLJ99Wbsh99965bs"
    "hTdv71TKh/hjn3zkh/r/v5rejn1fuXB2hvjhi2ouh/9MuffOh/u3+/v+hlAdm5bmhlzdmqd+h95K"
    "a6R8h/h337luh+PjZ7hgh998a6a2h/rzlN/ehu2ukfSUh8ct2Hfeh2ulyr76h/rn3zlMh/hikfJ6"
    "gQ9UI+Mqhu2ulyr6h/3vv3Zqh/r/v5/KAAAAAAAAAAAAAAAAh+OxzyRAgEBNwMRgeiWV59dYh/h/"
    "Lf9+hvjUMOikh/hre+/ch/3qmXPuh+OAjZ7gh+PAxzyQh9985TXSpZssCyZYh/rpre++h+5bn0Du"
    "h/3qmXN2huxbVHF0h/hjnt8ah/rzh380h/h/Lc++AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAe8kfGzXwpqnZGo5OpDCAvxmwoF4JpBRI"
    "pqxyekZepZoeeDz6qyl6oR9EpIVfZGnsojZPjFTspZoeeBfmpoTnnA7Mp/ZGntwqpSCaFX2QpITI"
    "fQGGt/P+/lz+pSAvxmxMpqnZGntwpZoedfnApSCaHnX4ps6yMpBGpqm9uKRkpYzdgeeIpWaCaHnW"
    "pqkcUjK8pcHn15/opSIy+rE0oHRZaKC2oHX4Ymg0pSCaFX4yAAAAAAAAAAAAAAAApITIfQeEpIWR"
    "/h32oHRIKJYSoHRIJoHgpaJZt54EpZoTLgL8pSekZfVih/H+92/cpcHn154mpoTnnA4YpZoeeBcy"
    "t9EspeqEprzlOy4opaJZuwPOpSCaEyH0pSCaGH14pZoTIfQGenS4fSXIvx+e5lzun6fy5u0SpMue"
    "eecOpvsjT24UWlDq3La2qeecO92apNuFX2RopIh1Y5cGrfJzQ/SuoEaJDHHCpNYO2izUpMuWUOFk"
    "M+N8aLwqvGUdjjs2puOFDrI0oHjxIY5sreJk3ZoepMubPPHirfJuQ/SGoHjjhjRIpaRl9WLaqRDr"
    "FyxMpMoPFmyapMuOFxZGpMud4888qeJlzvHmoHjxMm7MpMubLHiyAAAAAAAApIjLh510AAAAAAAA"
    "n6fy5uzQpvsjTxY4qeJvvDoYqRDrA0LcqeJlzvEypaRl9WOSn/xvk9vkpMuOFkZQpIh1Y5SCqQxe"
    "HbE2pMuZDh54qeJlzZocoEaIxxwwpMubJlDgpMubNDh4puOFD0jKemSIy4fUmHRSFpvun6fiZc3Y"
    "mHfzSzU+mO2n73b8n6fy5rTKmJoYfLmsmO03u36mmBwsZqeImJqfLnNKkQayOTKumEfNDDFEmHb9"
    "TLTekcMIjDHGnhoWi60UmHRT75pYmqDtyauinWaU3b/SmdTblwUimJpKbt+GmHRSFpt2mBwtEs1O"
    "mJqfLmtMmBws0PUykQLiyOTKn51kfNDqm/lzWmU0mI1B24VMeiWV59daAAAAAAAAmIcEKaxAn6fy"
    "5uzSAAAAAAAAmIwxB24UnWbc10j+kQWHRSEcnWaU7/SumBwt+plomJoYfMpun6V0SxMqpMoPF02S"
    "kB508TLGmBzSzU+WnWaU3Wn8mJrNKbt+mBws0PXmmI1B25NWnWaU7/OsfHbRJWGGHRdHOUcUpvv6"
    "4stOpqgKRlZIu5cLnpc4oHgxAYWCqo5cXXFSprzgKDyypqjr24pGps7zzh6epoDyzQHmoYolhHzQ"
    "pqhydZNSpoDs0PSWtOso6/vmpoDZYzQEuCZCyQ9Kprzh6fO8przhyd6mpoDEBMhYpoWniZc6pYz7"
    "fh+IpaJZ9fh8pqjr+NRypbmXAWS2pvcXR1/GpoDyzQEyoW4o7CPopqhyd6myAAAAAAAAoHRIKJYQ"
    "pvyzQHngpvyzQH4eAAAAAAAApryFkgoCpaS2JlwEpoDs0BMspqgKRle2misRiDsQpITlB2OwpqiR"
    "qOTqpZsoDs2SpqhydZGoqo5bXxhcpaJZ9vw+pvcUj+uKpr4wuKOWoYfGFokeemSKOzXwuf2ePPey"
    "pt2bB+POpS4d9QTQqnfOU6UwpDCB5DgKqnfhu3/Sos2BjTx4pSCaCvvGpZt7FgeWpZt7FAdmpTfe"
    "PE0EomBjTx4GpsDyzYHmsBNyrN+ypvf+fhv8ufzJzzh4pZt7FeXApSCbexXkpvD+Yfn+pILw/jPu"
    "pY2LA8tIpZv8O+hOpryYHD08pcHZ1Pb2pToJv7x4pZoL878OomLw+efMhvjUMOimAAAAAAAApSCa"
    "CvIcpZt7F9ngpZt7F94epryYHJ6eAAAAAAAApZsCZZ4EpZoL7w+8sBNxUyfMn8fTLnnupcHZ1Ccm"
    "pILw/jN2pZtLPAoSpSCbeM6gpILw/h34pZssDyzYpToJocO+pN+e/Doaps88DZ54eyNLKShUeZVx"
    "ZH0Se1orFRKWe3V6+Pt2egjSCaxc////////e36RDE1ie10uK+9Ue3QpoYjSc8bJoDYsf9K5t20S"
    "paRljYsCe2qZDlOke2iU08TWeyNLNWLaeNdcyfGUeNMj86w6e2iXD0+meNQ6yPzqe1ordrRUeP+M"
    "JEbMewLSCiSgeMYYjDD4bCsI/FEiefH7tcX8e2qa163ieNF4VMhGe10uK++qe2qZDlteAAAAAAAA"
    "e3VlovjKe1uFSi2oeyNPbhUyfOi/jUcWeNMheFeeAAAAAAAAe1orFRC0e2qfTpcOeNF4V58Ye16p"
    "31HaeNF4VcWQewLSGLaKe3VluyPoe1or71RKeNFyrEZQe2qa1Q5SeyNLNWOSe1ordrSqev6Olz74"
    "qo6R9JTuqfLnNDEwpaJLmVfeofiYxzz4qeIXFBEqq0j6EfesqoKOxDq0pITlD08WpIi/lzKuofHC"
    "IkcypIi/vCvUpIi/rrqyqfLnNIaGuKOxDEaiofxjnnxoofiR+e4Qr79IiV1+pIh1Zu38q0j6SnfG"
    "ofHCIkfmpaL76s3apIi/jqzcpIi/vFTqqscuLai4paJLk76sqoCpCRGUofefXWiMpIi/vKuuAAAA"
    "AAAApIizVDvUqeIYmBc4uFxjlxe2ofefGiMcpIi/vPrqmIyjsRlEAAAAAAAApvv5rN4mmIeniEBA"
    "pIWblx/QpIi1TvFSofiM3AY4pMoenizYqfXWiNPupIi/jtzKpuP64puKpIiV1+d+q+PvW18aejpc"
    "++fWrip1dB2+pZ/5/f5+riogurSupSekZcCqpZ72TLgKrj/dh33qqnTpcBUqog8Uc1RKpZ5QHZsm"
    "pcnPg7OqpRBSMrxUre7AtLFQrJ/XX5wet/P66/j+pTvvCyP8re1TWqHAreVmvOAore/SwOoYpt8m"
    "XD8SpZ/4fk++pYzdvw/GpcfD6vvOrdiogtU0pcf/efX4pTvvC5/GpZ5YFkyyoFwFQae0rdiogurS"
    "AAAAAAAApSekZfVgpaCZcPOspcfB531eoWi/FHYSpSekZcBUpaH47NvkpZ/ffeFkAAAAAAAAmTdl"
    "EsqypS4PCr3EpcnPg5V4pZ5QE2TKtdWdZH0QpaCZeV54pcfD6/O+pRBSMryqpcfB506upZ/GWHfe"
    "erN2stF8mnjYtPGymGHxhgjGmGH+ObRImB0MaJNAn+cJzzh6maAm0WaGmGH+PEnsmTEyiTQEmb7w"
    "/9J6kCIYRBoumB0MaQTan8f73ZuemaA7ND0mmB4EaTJCmGHxojHMmn3hXiNMmB4EMYYImSIdYd+G"
    "mGHxhuEQmCMMEYwOmGH+O2iSmKJNwxNgmBiJNAQwmB54JkMYmGHxok3Cmipk0I+amB4EMbNoh/L1"
    "OhjkAAAAAAAAmB4JtEhimnt89P5cmGH3hZEOmis0I+aGnX8a6bkymlDq3La0mKJNAQxMmB4EMaJM"
    "AAAAAAAAmB4EMZoG////////mKJNwxYSn8fnuZc4mB4EIgYQmG/ZocP8mBiMMQE2mGH3hXiMmBoY"
    "gJtEeMMRs1O2pMrzzk9OpCINZGVYpP66/OTupNTvbzzqrds0/9K6q/5cw+9SpNvfipk2pcHjtoKm"
    "pPjKvca6pIfRxscqpcO9ZHycpNTrNUOSpMqyMpBGsHFiiRxYpVkZVkiCrJ+yxddArcUjKs1SpNTr"
    "NULapqdHGxwGqyIKgNiEpcUFTvHapIKnRxscpcPVBJcOpCINZEKspfZGWNlgpIVbhI4uoWRy4CoM"
    "pNTvbxUyAAAAAAAApcHZGVe2pMqyMpHEoUcaKGBGpcHZGVZIpNTvbxXmpIDhI4vUoUcaKEBwpccu"
    "HeqCmJoFpDFiAAAAAAAApcHbk6sipPjKuukcpPg7I51Yqy0gqA7cpCINjNWApcO+9vjKpMqyNRxq"
    "pcEbKsjKe8KbfGlmoIxmwRjOpaQVAdrapaJTJqdYpraekuHopIjZr1Tqq4t7cW9wpIelbT0kogJs"
    "EBiEpaJKdYGGpaJKdQHgpIgpGB0UpZuXAXxkpIhAVAa2t+SI2T+upSAqA1tEoIxmwPIQpaJKdWHA"
    "pSCiSnVgpoDEJATYpIhOUjFQpcHhV6yIpaJDDAr0pIgpGKi8pbUB4GtopZuXFkfQpIjYqL1SoP5b"
    "9ycopZuXAX7IAAAAAAAApoTnnA4apaJKdfhgpMoWRp4spIhOioRqpSCiSkCqpaQTblwEpaJKXAVA"
    "pW09JWni////////pcHhV62iAAAAAAAApZoKA8DWps6ZNvfopIhOUgKgpaJDDAtOpSCiSkBUpaJK"
    "ww+upaJKQFQGe+ZTWbxMpNBNkyrOoYRDB2EepV11ZHzQpZtLIywKpPjLHi66qnb+8K9SpNT02aoc"
    "pZvjLAuWpPjLHi5cpNTx4obMpV4m+MpcpZtPFgTIqQxY2JoGt4qdXRGypI+FW4OgpNA8qzZMpNTx"
    "4qZMpPjLHg7cpuw4f7N+ofiMsLh8pV11ZH0SpPmT/Hi6pZvjLDt2pNT9UybepZtPFjZsofjwuHzI"
    "oEBgUBAwh/rpre+8AAAAAAAApZoLAmQ0pILrhDhOpNdDh/s2pZssCyMspZtLIxYEpPjfGutUpILr"
    "mT/GpWM1QFBMkB4zwYYypPjKuukepZuW7AsiAAAAAAAApZtMZsCgpILrhD/YpNT5ybNUpWOugmh6"
    "pZtIwKEYoYQHgXAwekspcyfWtAtIYtout48ZqmQ4tf8sJEbMt9EspcxUt7ecO/zqt+QxeFketf+N"
    "m7CQt80PT8TKt83DGn7Mt/LcMc5Ot9EspcyqtdI/rntwtBNyrEZWt8bNToY4t/x+9/eunhcyPz3E"
    "t83DF6mSt83DGn4Yt/x+86d+t/P29wxytsJD/xs2t+VeFkfMt80MNDE0pWaCbK88tdI/ro5Ot/Lc"
    "MXt6t7efXMn8t80MOhjSAAAAAAAAt9EspeqGt85vGapkt85vHZqmt7HMn8fmt80MP0hit/x8+9ec"
    "t/LcMXqctdWdZH0Sn8fnuZc6sCRxY2bct/nCc84et+VeJvjKAAAAAAAAt/P2bhjmt/nB5w+8t9Es"
    "LSGKtBNyrSuit89P/Tx2ev2fay0Wqf+k9vk+qfLmzQ/Sq/+kuT2+qJDHPPewqeJqdtEqqKmUSXqa"
    "qpL1NDq0qpL1tf9Iq0q8Te36qK0SXqaGq/Gzb8eMqyfMq8TeMQkEIhTSs0P0pu36qJDF4E08qeNn"
    "njZsnWiU08TUqyfJzQ6sqJDEPTYGqeNnCQ9Iq6HVuW9uqKE08QxMq/+k/k9uqKRDE1O2pNTtos1Q"
    "qLNDZNPEq/e37lXiqnpsDopCAAAAAAAAqyfGh1YcqeJlzZoemI1Fy9TQqJDHPPAmqe/FTLmyqf6f"
    "bRJcqfXWiNPsq6HVufJymIemsRiCq0q8TU7aqyfGi8Kuq0q8TU+Sqe/Gbs14AAAAAAAAqLNDEPTY"
    "q/Gzb8kOqe/Eybs0qf+kv27ae+fX9HS4pIjNecoOqQ0O9ibepaJDHLewpIjZP666pCIEyEQKq2iW"
    "asHipPmT+d/opaJDHLAmpIjHLexwpIjHKDi8pCyIeeBcpaeNlgTIq0VmhaLet9WlLlRKpI+C3nTI"
    "qmyoqFospIjHKnRwpaRmwLJCq0Vk5RLEpIjZP47cpaKE5bhiqQ0B2/SWpWOVPFEiq0ViiWIcpaf3"
    "t8nsq2vjSlyoofO8TGb8pI+NmvVuAAAAAAAApaJDGbAspIjHLjhOrfJrTKaGpIjLgt50paRljZYE"
    "eNFyrEZSq0Vg8QtEpaBYEyGMmKjlta6EpCINjNWCpIjA6OC2pMqZNvfopWM1ZIgopIjHLj/YAAAA"
    "AAAApWOXGih6paR8nfGGq6Fot7Kie/dri/r8pTqd48USpcO+p3t6pTv9N+zepvf7N/p+pVmyaCbK"
    "qmwOjnJkpP2b/T+8pRerBRLGpV4m/ZPupWWih9dep4EyGM0CoGGBNAiGpu0/rxSWt6ner7x2pvZw"
    "9PHipTqd48TQpZv2T77wpTv2T5ocpu0+W1DqpTqdtFDgpRLKmTU6pcO+p85OpQx4mhOWpcO+p3qc"
    "pTv5zJ80pWbt7E0Oofp+GH84h/hjnt8YAAAAAAAApTvx4mhOpVmrpLagpV4my5smpTt7E0OGpToJ"
    "ocO8pV4pLfpcpV4mhOXMpTv9P5k+mBiME0BApcO+/ZPmpTqA8USWpcCplpOSpTvx4m/YpI/4d6vI"
    "pcO+/b36AAAAAAAApN+zqb+apu08UOFkeiWUvyfWtDrI+T3CvGz3GUdgpaS2krTwptPHbT0kpNU8"
    "dtEqqynVm++apNJWnjtopZt7FAcMpMtPHiZMpMuW/EyypUybexNkpZt2wj6EvN2byfp+vGo4sOim"
    "pN+e/mV4pN+e/DrMpMr1NmhwpMtPHgbMpuW/EZYGpNdaJZ76pUq9UopKt48n6VzQpZt7FAmOpNUx"
    "GoO2pZt21i+MpMuee/HmuNk6XAbOpZt7F8YSAAAAAAAApI+Mp1YcpMubNDh6mI1B25NUpvjLA8+W"
    "pN+e/DoYpMCamIcEpMuee/EypaS4elbSmB1ZqfOSpMr1NmkepMuTLND4pNdCyIfKpMtPHgYYpMub"
    "ND54pMuW/EZYpZt7F8NgAAAAAAAApuW/PAsie+aHMprMpoCYzQEyqfXWaU3apaJY6vVApoCgmWM0"
    "qQXnAdraq+Po6XFSpNTvFTJopZoTlATGpaJLg8Kuq+PoR2tqpaJY8CvUpaJXXVhwqf+mS5N2t962"
    "vjL6puXFkf8epuXFkf5wrecB4GtopZsoCbJkqfy5t2zSpoCM0BMgpYO3B4WIpaJHVhwcpZoTlA4a"
    "pbsODlxopuXF/H/Gq84CpC0Qofef+mS4pZoWHDduAAAAAAAApZoTIaAsqJDDA870puP5p4s2oYfG"
    "FokcpaJY8Prqqfy5rTJcq+PvW18YpaCgKmQsmBoCM0BApqjg6OPipaJY1QFSpZoWHBy4pZsoCYzY"
    "qJKYHAecpaJHbg8KpZoTlzHgpZoYbt+GAAAAAAAA"
)
