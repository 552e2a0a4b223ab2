"""Fixed BP_3 data that the base-case solver is built on.

``PAIR_CYCLES[k]``, one per generator dimension k, is a Hamiltonian cycle of
BP_3 minus the pair {identity, generator(3, k)}.  Arbitrary single-pair
instances reduce to these by left translation, since left translations are
graph automorphisms and act transitively on vertices.  Validated on import;
the data is load-bearing for the base-case solver.

``FREE_PATHS`` holds, for every ordered pair (u, v) of distinct vertices,
the Hamiltonian u -> v path of fault-free BP_3 that
``constructor._small_search`` finds.  That search stays the definition of
these paths; the table only saves running it.

* Layout: 48 * 48 slots of 6 bytes.  The path from the i-th to the j-th
  vertex of ``all_vertices(3)`` (lexicographic order) is in the slot at
  byte ``6 * (48 * i + j)``.  The 48 diagonal slots are zero and unused.
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
    "AAAAAAAAvPvvO+/fvfMuWU7/vQjZI2FbvTvvvn33rJCyOW7Avep3/LdmvzQw/T8Mvfff/fffudYO"
    "yI2avXX4ollZmTfipk0JvQjYSsJGvX9WbtdLv11hIjZqvfvv/O/+vMs37LDvv42WNm3bvNDvWT5l"
    "vfs/D+MsvX9XXS59vQjZI2OVvHyZI+Nmt4MMPwwgvXX7lxddvfvv/v/vvfPvvv/vv0UyRGwrvTJH"
    "xs75SwLIywLIvfffvvvvvTJEZcCvvTJEZcPrvh+Jlm/PvTvvvn27vZEZcPr8vfMs/vWWvLfiiWUM"
    "vf/f/f/fvfMprLT+veFkfGWHvfMprN/pvMs37Kd4vjZIfLgMvfMq/0spvep0Mct/vjZt8mQ4vfs/"
    "D+ZZvPvvO+/fAAAAAAAAvTvvvn33rJCyOW7AvfMuWU7/vQjZI2FbvzQw/T8Mvep3/LdmudYOyI2a"
    "vfff/fffvQjYSsJGvX9WbtdLvXX4ollZmTfipk0Jvfvv/O/+v11hIjZqvXX7lxddvfvv/v/vvfPv"
    "vv/vv0UyRGwrvTJHxs75SwLIywLIvfffvvvvvTJEZcCvvMs37LDvv42WNm3bvNDvWT5lvfs/D+Ms"
    "vX9XXS59vQjZI2OVvHyZI+Nmt4MMPwwgvh+Jlm/PvTJEZcPrvfMs/vWWvLfiiWUMvTvvvn27vZEZ"
    "cPr8vfMprLT+vf/f/f/fvfMprN/pveFkfGWHvfMq/0spvep0Mct/vMs37Kd4vjZIfLgMvfs/D+ZZ"
    "vjZt8mQ4S598/cX9S5yekF5wAAAAAAAASs2+QQ/EV/8fJ7dhSZDFmyaASQnQGOAxS4o4vvO+SaA8"
    "DFMmSyPvvvWWSmsj4PEOT7z/ODz/S4fQRl88S4o2a+PoS4d6oPjZS4fQRs18S4D6ZIgvS4o4vj7z"
    "S4fQRlw9T7WWi/r8S4CoNLKSSs2+Rofibn11+5cXSrwLg/ZIS4d6oNkjS4fQRs99SiWPJqdFS4o5"
    "fed9S4d6oIy4S4xfH0yRnP66/3b+S4d6yPg8S4d6oKOySr1lLg+iSyP8PyffQICwkEIDSrxGylwf"
    "Sw77wsj4S4DzoI2aS5bip2XLS4DzoNMkSyP2T77wSyPjLDvvS4o4vj6ZS4SNkgqdS4cHZEFTS4en"
    "jsiCSrxGyfB2udZae7LnrJCyOW7AuFhw+8MZAAAAAAAAudYOyNMkuFhh+GH4uFzJ+f48ukEYYQHY"
    "uBcyFkQ9uf+f+e/PucPnnuzZudYOyNPbuFiMsHbhb/7/7/7/ued5556evTJEZcCvudYOyI2auedZ"
    "ae7LuFX47IjLuBc89xljucHnCd53mTfipk0Juf53484fudY5PSMuud953484u3J6RrrrucLJlzz3"
    "ueB54JkMudZae3uyuf534fiZuFNmhw/zuf+f+f+fueee/PPPuFTLRJcPudZsucnpuf534fjzucHn"
    "D7zvuTU6yiWVuFef47Zot/LcMXqducHnCd47ucHnvZNduFef47aJuedZaelluFhw/z8Mukc892OF"
    "ueeennnnucLI557sS5yekF5wS598/cX9V/8fJ7dhSZDFmyaAAAAAAAAASs2+QQ/ES4o4vvO+SQnQ"
    "GOAxSyPvvvWWSaA8DFMmS4fQRl88S4o2a+PoSmsj4PEOT7z/ODz/S4fQRs18S4d6oPjZS4d6oNkj"
    "S4fQRs99SiWPJqdFS4o5fed9S4d6oIy4S4xfH0yRnP66/3b+S4d6yPg8S4D6ZIgvS4o4vj7zS4fQ"
    "Rlw9T7WWi/r8S4CoNLKSSs2+Rofibn11+5cXSrwLg/ZISr1lLg+iS4d6oKOySrxGylwfSw77wsj4"
    "SyP8PyffQICwkEIDS5bip2XLS4DzoI2aSyP2T77wS4DzoNMkS4SNkgqdS4cHZEFTSyPjLDvvS4o4"
    "vj6ZSrxGyfB2S4enjsiCrJCyOW7AudZae7LnudYOyNMkuFhh+GH4uFhw+8MZAAAAAAAAukEYYQHY"
    "uFzJ+f48uf+f+e/PuBcyFkQ9uFiMsHbhb/7/7/7/ucPnnuzZudYOyNPbvTJEZcCvued5556eud95"
    "3484u3J6RrrrucLJlzz3ueB54JkMudZae3uyuf534fiZuFNmhw/zuf+f+f+fudYOyI2auedZae7L"
    "uFX47IjLuBc89xljucHnCd53mTfipk0Juf53484fudY5PSMuuFTLRJcPueee/PPPucHnD7zvuTU6"
    "yiWVudZsucnpuf534fjzt/LcMXqduFef47ZoucHnvZNducHnCd47uFhw/z8Mukc892OFuFef47aJ"
    "uedZaellucLI557sueeennnnbn9f2/7/bn8f7sc/bWWi/r8Mbnn9/nCybimSP+Nmbdh33r4+AAAA"
    "AAAAad6/ffMubn8f/fz/bcZYdgWRbl6y0j6FbmT/ODz/bny3/f51bn8f7t/unP66/3b+Y+++9Zbs"
    "blX9HZcnd4ums3t8bk9uzX9HbI0spKFWbnnWOXF6bnn9/nWWbgOaDT8MbmT/O/84bkymsXxpT6/o"
    "llL8blWL40spb/7/7/7/bn9ef3/Lbn06O3Prbnn4fxljbn9c/lz+bk5TvVNdbmT6/o7Lbk9vj/7z"
    "bXS4r76sbnnWOXGnbn9/9/9/bn11+5cXbnpZXn9/bnn7hZH+bl99WW7Lbny3/erzbk5TXTW9bgLw"
    "tIJobnLcMXqdbn9df7t/bmT6/ollbn8f7sc/bn9f2/7/bimSP+Nmbdh33r4+bWWi/r8Mbnn9/nCy"
    "ad6/ffMuAAAAAAAAbcZYdgWRbn8f/fz/bny3/f51bn8f7t/ubl6y0j6FbmT/ODz/Y+++9ZbsnP66"
    "/3b+bkymsXxpT6/ollL8blWL40spb/7/7/7/bn9ef3/Lbn06O3Prbnn4fxljbn9c/lz+blX9HZcn"
    "d4ums3t8bk9uzX9HbI0spKFWbnnWOXF6bnn9/nWWbgOaDT8MbmT/O/84bmT6/o7Lbk5TvVNdbnnW"
    "OXGnbn9/9/9/bk9vj/7zbXS4r76sbnpZXn9/bn11+5cXbl99WW7Lbnn7hZH+bgLwtIJobnLcMXqd"
    "bny3/erzbk5TXTW9bmT6/ollbn9df7t/viiWVm7fuxNDh8ymvjzh88+ZjxGVkQXXviiRsKwkvjZI"
    "YQHbv11hIjZqvsn7ODwuAAAAAAAAvv/vO/+fvjYS4DDGvhh/n7NDvjsJBGNhrGaniGBwvn/n/ef+"
    "v111ZIjZvhh+n4Ymvn+Wb/D8vskLJBddv42WNm3bvjZ8yHD5t4MMPwwgvjzh88/zvgXMhZEPvih8"
    "uZWWv0UyRGwrvjZYzdvxvhh/MTJ+vh+Jln+fvjYSECAwvh+Iyxn3OtU6ur1Sv0UlYVtRvh+Iyxm7"
    "vhh+Ghh+vjZIfLgMvih8uZCyvh+Iyw78vjZt8mQ4vfs/D+ZZvjYSEMIDvh+Jlm/PvjYSEQbCvn+W"
    "aH4fvjZIfLmQvh+Jk/P8vn/n/n/nv11+SI2VuxNDh8ymviiWVm7fviiRsKwkvjZIYQHbvjzh88+Z"
    "jxGVkQXXvsn7ODwuv11hIjZqvv/vO/+fAAAAAAAAvjsJBGNhrGaniGBwvjYS4DDGvhh/n7NDv111"
    "ZIjZvn/n/ef+vih8uZWWv0UyRGwrvjZYzdvxvhh/MTJ+vh+Jln+fvjYSECAwvh+Iyxn3OtU6ur1S"
    "vhh+n4Ymvn+Wb/D8vskLJBddv42WNm3bvjZ8yHD5t4MMPwwgvjzh88/zvgXMhZEPvh+Iyxm7v0Ul"
    "YVtRvih8uZCyvh+Iyw78vhh+Ghh+vjZIfLgMvfs/D+ZZvjZt8mQ4vh+Jlm/PvjYSEMIDvjZIfLmQ"
    "vh+Jk/P8vjYSEQbCvn+WaH4fv11+SI2Vvn/n/n/nQPAwLCAgQICwIDAgQIwICAgIQMMCwPAgQMGN"
    "hIQHQJoS2kMWQIxsCMDGQMCAgMCAQMMY2Eh8QJoSFDGkAAAAAAAAQMDgMCAwV/8fJ7dhQICwIDEG"
    "QPAxpMkJQIDBgQGBQI2EhAcBQMMZoDwMRB2RlWRlQIDAwIDAbn11+5cXQMMCwPEGQKIKQopCQMMD"
    "BgeBQPAwICAwQIwIYEYEQmwMMDEPQMCBAYEBAWRlgWRlQIwIDgIwQMQeM1MhQJoCBiGBQICAgIDA"
    "QMDgMbCQQQEBAQEBQIDAwICAS4SNkgqdQMMbJD5bQI2SFHByQMCAgMDAQJsDDAxDQJBDAgICQI2S"
    "FW4OQICwkEIDQiBiDRQHQLIywLIyQICAgICAQIwICiQQtCNkjY5Vt/n9/nCyt/9f2/7/t/8f7sc/"
    "tLn3z6/pc86y09LKt6mSP+NmtDq3CXJyt9X9HZcnpsCZDGbAt89uzX9HAAAAAAAAt/nWOXF6t/n9"
    "/nWWt4OaDT8Mt/P3Y5+4t/8f/fz/tDq3CRvbt96y0j6Ft/P3Bz9wt/y3/f51t/8f7t/usX9Jcnt2"
    "mB4EaTJCt85TvVNdt+T6/o7Lt89vj/7ztDq3Le3bt/nWOXGnt/9/9/9/t/11+5cXt/pZXn9/t8ym"
    "sXxpucHnvZNdt9WL40sptv5c/rr/t/9ef3/Lt/06O3Prt/n4fxljt/9c/lz+t/y3/erzt85TXTW9"
    "t/n7hZH+t999WW7Lt/9df7t/t/Rz9wuft4LwtIJot/LcMXqdQICwIDAgQPAwLCAgQMGNhIQHQJoS"
    "2kMWQIwICAgIQMMCwPAgQMCAgMCAQIxsCMDGQJoSFDGkQMMY2Eh8V/8fJ7dhQICwIDEGAAAAAAAA"
    "QMDgMCAwQIDBgQGBQPAxpMkJQPAwICAwQIwIYEYEQmwMMDEPQMCBAYEBAWRlgWRlQIwIDgIwQMQe"
    "M1MhQJoCBiGBQI2EhAcBQMMZoDwMRB2RlWRlQIDAwIDAbn11+5cXQMMCwPEGQKIKQopCQMMDBgeB"
    "QMDgMbCQQICAgIDAS4SNkgqdQMMbJD5bQQEBAQEBQIDAwICAQMCAgMDAQI2SFHByQJBDAgICQJsD"
    "DAxDQiBiDRQHQLIywLIyQI2SFW4OQICwkEIDQIwICiQQQICAgICAt/n9/nCytCNkjY5VtLn3z6/p"
    "c86y09LKt/9f2/7/t/8f7sc/tDq3CXJyt6mSP+NmpsCZDGbAt9X9HZcnt/nWOXF6t/n9/nWWt89u"
    "zX9HAAAAAAAAt/P3Y5+4t4OaDT8Mt85TvVNdt+T6/o7Lt89vj/7ztDq3Le3bt/nWOXGnt/9/9/9/"
    "t/11+5cXt/pZXn9/t/8f/fz/tDq3CRvbt96y0j6Ft/P3Bz9wt/y3/f51t/8f7t/usX9Jcnt2mB4E"
    "aTJCucHnvZNdt8ymsXxpt/9ef3/Lt/06O3Prt9WL40sptv5c/rr/t/9c/lz+t/n4fxljt85TXTW9"
    "t/y3/erzt/9df7t/t/Rz9wuft/n7hZH+t999WW7Lt/LcMXqdt4LwtIJobh3qgo7LbcZYdgWRbl6y"
    "0j6FbmT/ODz/binf9531bg7WWigqnP66/3b+Zk/ZNdDgbn9f2/7/bgJrNBNDbWWi/r8MbgLwsj4y"
    "bimSP+Nmbdh33r4+AAAAAAAAad6/ffMubgOaC9TJbI0spKFWbi/r99/3fLRLNfh9bgOaDT8Mbh3q"
    "nZcUbgKgolhabnn9/nWWbgLwtIKJbwsj4yw7bgLwxNBpT9K6JLg8bineqd53bn9c/lz+binf959f"
    "bn06O3Prbh3qgollbh/6e3zzbiner7zvbgJoYYmgbgLwtIJobgMMPwwgbn9df7t/binS4d6pbgMM"
    "P0gmbineqd47bi/r87/vbXS4r76sbgJpBNDDbgWR8ZYdbi/r99+7bh/6e3yZbcZYdgWRbh3qgo7L"
    "binf9531bg7WWigqbl6y0j6FbmT/ODz/Zk/ZNdDgnP66/3b+bgJrNBNDbn9f2/7/bimSP+Nmbdh3"
    "3r4+bWWi/r8MbgLwsj4yad6/ffMuAAAAAAAAbgLwtIKJbwsj4yw7bgLwxNBpT9K6JLg8bineqd53"
    "bn9c/lz+binf959fbn06O3PrbgOaC9TJbI0spKFWbi/r99/3fLRLNfh9bgOaDT8Mbh3qnZcUbgKg"
    "olhabnn9/nWWbh/6e3zzbh3qgollbgLwtIJobgMMPwwgbiner7zvbgJoYYmgbinS4d6pbn9df7t/"
    "bineqd47bgMMP0gmbgJpBNDDbgWR8ZYdbi/r87/vbXS4r76sbh/6e3yZbi/r99+7JKQXV6oNOfXX"
    "7lxcOwOg2T4yP9LKb+/zPE33zKayPUyR8YY4P/pkv337P/j5PbsMP/pkuT75P33z77zvPj777zvv"
    "OwprF8aRP8MK2kdtPU75y3DDP92XP39/Pj6ZI+NmAAAAAAAAP/vP+/+/P8MLk9vjPj6ZI+MMP+Wz"
    "VMn3P6KSgpKwP5ye3YY4PvvmU1lpv0UlYVtRP9LKb++ZPj6d9533PvCmSPjLP8MK2kfJNoqapqiS"
    "P+krZqkuP/vO+/ffP8MLI+ZPPE3xlNZvP92/39/9P5ye3BwwPU753js1P/j5PbtmAIwICiQQP6KS"
    "sK2oP+WzVMm7P6OGFye3P8MK2iS4P+WzU79mP5bUMMUlP8MKbfGkP8MLI+T2Pj6d9527t53qgo7L"
    "tHF1+7HPt96y0j6Ft+T/ODz/t6nf9531t47WWigqsnKa6a3vj6S5Pp0ut/9f2/7/t4JrNBNDtHFH"
    "Y551t4Lwsj4yt6mSP+NmtDq3CXJytLn3z6/pOg2T9kgut4OaC9TJAAAAAAAAt6/r99/3psCZDGbA"
    "t4OaDT8Mt53qnZcUt4Kgolhat/n9/nWWt4LwtIKJtv5c/rr/t4LwxNBpvh+Iyw78t6neqd53t/9c"
    "/lz+t6nf959ft/06O3Prt53qgollt5/6e3zzt6ner7zvt4JoYYmgt4LwtIJot4MMPwwgt/9df7t/"
    "t6nS4d6pt4MMP0gmt6neqd47t6/r87/vtHbn11+7t4JpBNDDt4WR8ZYdt6/r99+7t5/6e3yZAICw"
    "IDAgAPAwLCAgAMGNhIQHAJoS2kMWAIwICAgIAMMCwPAgAMCAgMCAAIxsCMDGAJoSFDGkAMMY2Eh8"
    "EJBDAjUBAICwIDEGAtooNLAuAMDgMCAwAIDBgQGBAPAxpMkJAPAwICAwAIwIYEYEAAAAAAAAAMCB"
    "AYEBBcnt10cXAIwIDgIwAMQeM1MhAJoCBiGBAI2EhAcBAMMZoDwMQQEBAQEBAIDAwIDAC4Dtk/Zu"
    "AMMCwPEGAKIKQopCAMMDBgeBAMDgMbCQAICAgIDAJZQuW4qFAMMbJD5bAWRlgWRlAIDAwICAAMCA"
    "gMDAAI2SFHByAJBDAgICAJsDDAxDAxBsLBgdALIywLIyAI2SFW4OAICwkEIDAIwICiQQAICAgICA"
    "t/9f2/7/t/8f7sc/tHFHY551t/n9/nCyt6mSP+NmtDq3CXJytLn3z6/pOg2T9kgut/8f/fz/tHF1"
    "+7HPt96y0j6Ft+T/ODz/t/y3/f51t/8f7t/usX9Jcnt2j86w4O2it9X9HZcnpsCZDGbAt89uzX9H"
    "AAAAAAAAt/nWOXF6t/n9/nWWt4OaDT8Mt+T/O/84t8ymsXxpu7Xr1Olwt9WL40sptv5c/rr/t/9e"
    "f3/Lt/06O3Prt/n4fxljt/9c/lz+t85TvVNdt+T6/o7Lt89vj/7ztHbn11+7t/nWOXGnt/9/9/9/"
    "t/11+5cXt/pZXn9/t/n7hZH+t999WW7Lt/y3/erzt85TXTW9t4LwtIJot/LcMXqdt/9df7t/t+T6"
    "/ollQMMZsCZDQKEhZGlmQLluLZIWQPAwLCAgQMMZoDxmQLIyxsmWQLltIWkoQMMCwPAgQPAwICAw"
    "QLSwLSUUQmwMMDEPQMMDAwOAAWRlgWRlQLgMbJBbQMQeM1MhQKJY1FmpQKJY1FjUQMMY2Eh8UZcH"
    "jNUyQLluLaWNAAAAAAAAQMMDAwPAQLluMsbJQPAxpMkJQMDgMbCQQLEGkELASRsKEYvjQMMZqZDg"
    "QWINIIUBQIDAwICAQMMaS36SQLluLctyQLluW5blQMMZoDwMRNmpk34HQLlmyQsjbi/r99+7QMMC"
    "wPEGQLltIYtpQMMDBgeBQiBiDRQHQLIywLIyQKEhQxpGQLluLe3LQLaKDSwLQLEGkEKAQLg5VjZI"
    "QICwkEIDpN+KmTQne/+/+/+/pZt7JlwFpNTrKJZVpDFmyaAspZv8/v8/pMqy09LKq3vvU6GOpMs8"
    "eeeepZv2T6A7pZssDzzzpMoCbJlDpaJLh9fhpP2b/DD+pTqw4O2it/pZXn9/pbsO+9vjpZsseeee"
    "paJLh9WHofn94WR8pZssCyZZAAAAAAAApWaCaHnWpMueeecPpDCAqZDgpMrzzh6epZssDzyZpu1l"
    "ov6/paJL8Pr8pYFkZYFkpP1QdtF1pZv2T6B3pZsoDs2TpMoPF02TpMoenizZpZ/5/f5/pZssDyzZ"
    "paRljYsCpVkZVkiCmB4EaTJCpZssCyMspZuXAX7JpaRljZYFpZv2T77wpWaCbK88pNTtos1QpZso"
    "CbJlpZt7FAcMbl6y0j6FbmT/ODz/bh3qgo7LbcZYdgWRFkfGWHfeZk/ZNdDgbinf9531bg8TQTKa"
    "bgOaC9TJbI0spKFWbi/r99/3fv8/D+MsbgOaDT8MbgLwsj9kbgKgolhabn9f3/3/bn9f2/7/bgJr"
    "NBNDbWWi/r8MbgLwsj4ybimSP+Nmbdh33r4+AAAAAAAAazb5PT/xbh3qgollbgOaDT9mbiner7zv"
    "bgJoYYmgbgLwtIJobgMMPwwgbn9df7t/binS4d6pbgLwtIKJbwsj4yw7bgLwxNBpR/L1MkQwbine"
    "qd53bn9c/lz+binf959fbn06O3Prbi/r87/vbXS4r76sbgMMP0gmbineqd47bi/r99+7bgh1ZHxl"
    "bgJpBNDDbgWR8ZYddky5555wf6SykuTJfPfnnn/nfEZYGGBbfxB20SVhnP66/3b+fT27aekufdlz"
    "5ZXnfEZWRBdffP/P/P/PfD8C5kMZWB0MaQTbfFpK2FbSfDD5kMMDfp3r87/vfPdjhZH+fwwwLaJL"
    "ffnneefPfdlz5Y86fPdgfxljfpLa/ZqlfODxdNk/fODz/ZMuAAAAAAAAfPfnnef+fPdjhc/jfPdm"
    "yx5/fHnnnvzzfEMDDAsJbJlWW1lpfpLk9u16fOstPSyvfPPP/PPPfwwraJLgfZPmQxeBfLRLNfh9"
    "fPdl/nCyfHnnnvyZe8KmWiS4fPnn/ef+fD8CZDGbfPnn/n/nfcXnC37sfD8DDGb8fPdmyf5wfDE0"
    "MMTffPPPnnnnfDD5s0MMOfXX7lxcJKQXV6oNPE33zKayPUyR8YY4OwOg2T4yP9LKb+/zP/j5PbsM"
    "P/pkv337P33z77zvP/pkuT75P8MK2kdtPU75y3DDPj777zvvOwprF8aRPj6ZI+NmP92XP39/v0Ul"
    "YVtRP9LKb++ZPj6d9533PvCmSPjLP8MK2kfJNoqapqiSP+krZqkuP/vO+/ffAAAAAAAAP/vP+/+/"
    "P8MLk9vjPj6ZI+MMP+WzVMn3P6KSgpKwP5ye3YY4PvvmU1lpPE3xlNZvP8MLI+ZPPU753js1P/j5"
    "PbtmP92/39/9P5ye3BwwP6KSsK2oAIwICiQQP6OGFye3P+WzVMm7P5bUMMUlP8MKbfGkP8MK2iS4"
    "P+WzU79mPj6d9527P8MLI+T2tHF1+7HPt53qgo7Lt6nf9531t47WWigqt96y0j6Ft+T/ODz/j6S5"
    "Pp0usnKa6a3vt4JrNBNDt/9f2/7/t6mSP+NmtDq3CXJytHFHY551t4Lwsj4yOg2T9kgutLn3z6/p"
    "t4LwtIKJtv5c/rr/t4LwxNBpvh+Iyw78t6neqd53t/9c/lz+t6nf959ft/06O3Prt4OaC9TJAAAA"
    "AAAAt6/r99/3psCZDGbAt4OaDT8Mt53qnZcUt4Kgolhat/n9/nWWt5/6e3zzt53qgollt4LwtIJo"
    "t4MMPwwgt6ner7zvt4JoYYmgt6nS4d6pt/9df7t/t6neqd47t4MMP0gmt4JpBNDDt4WR8ZYdt6/r"
    "87/vtHbn11+7t5/6e3yZt6/r99+7APAwLCAgAICwIDAgAIwICAgIAMMCwPAgAMGNhIQHAJoS2kMW"
    "AIxsCMDGAMCAgMCAAMMY2Eh8AJoSFDGkAtooNLAuAMDgMCAwEJBDAjUBAICwIDEGAPAxpMkJAIDB"
    "gQGBAI2EhAcBAMMZoDwMQQEBAQEBAIDAwIDAC4Dtk/ZuAMMCwPEGAKIKQopCAMMDBgeBAPAwICAw"
    "AIwIYEYEAAAAAAAAAMCBAYEBBcnt10cXAIwIDgIwAMQeM1MhAJoCBiGBAICAgIDAAMDgMbCQAWRl"
    "gWRlAIDAwICAJZQuW4qFAMMbJD5bAI2SFHByAMCAgMDAAJsDDAxDAJBDAgICAI2SFW4OAICwkEID"
    "AxBsLBgdALIywLIyAICAgICAAIwICiQQt/8f7sc/t/9f2/7/t6mSP+NmtDq3CXJytHFHY551t/n9"
    "/nCyOg2T9kgutLn3z6/ptHF1+7HPt/8f/fz/t/y3/f51t/8f7t/ut96y0j6Ft+T/ODz/j86w4O2i"
    "sX9Jcnt2t8ymsXxpu7Xr1Olwt9WL40sptv5c/rr/t/9ef3/Lt/06O3Prt/n4fxljt/9c/lz+t9X9"
    "HZcnpsCZDGbAt89uzX9HAAAAAAAAt/nWOXF6t/n9/nWWt4OaDT8Mt+T/O/84t+T6/o7Lt85TvVNd"
    "t/nWOXGnt/9/9/9/t89vj/7ztHbn11+7t/pZXn9/t/11+5cXt999WW7Lt/n7hZH+t4LwtIJot/Lc"
    "MXqdt/y3/erzt85TXTW9t+T6/ollt/9df7t/QKEhZGlmQMMZsCZDQMMZoDxmQLIyxsmWQLluLZIW"
    "QPAwLCAgQMMCwPAgQLltIWkoQLSwLSUUQPAwICAwAWRlgWRlQLgMbJBbQmwMMDEPQMMDAwOAQKJY"
    "1FmpQMQeM1MhQMDgMbCQQLEGkELASRsKEYvjQMMZqZDgQWINIIUBQIDAwICAQMMaS36SQLluLcty"
    "QKJY1FjUQMMY2Eh8UZcHjNUyQLluLaWNAAAAAAAAQMMDAwPAQLluMsbJQPAxpMkJQMMZoDwMQLlu"
    "W5blbi/r99+7QMMCwPEGRNmpk34HQLlmyQsjQMMDBgeBQLltIYtpQLIywLIyQiBiDRQHQLaKDSwL"
    "QLEGkEKAQKEhQxpGQLluLe3LQICwkEIDQLg5VjZIe/+/+/+/pN+KmTQnpDFmyaAspZv8/v8/pZt7"
    "JlwFpNTrKJZVq3vvU6GOpMqy09LKpZv2T6A7pMs8eeeepaJLh9fhpP2b/DD+pZssDzzzpMoCbJlD"
    "t/pZXn9/pTqw4O2ipDCAqZDgpMrzzh6epZssDzyZpu1lov6/paJL8Pr8pYFkZYFkpP1QdtF1pZv2"
    "T6B3pbsO+9vjpZsseeeepaJLh9WHofn94WR8pZssCyZZAAAAAAAApWaCaHnWpMueeecPpMoPF02T"
    "pZsoDs2TpZssDyzZpaRljYsCpMoenizZpZ/5/f5/mB4EaTJCpVkZVkiCpZuXAX7JpZssCyMspWaC"
    "bK88pNTtos1QpaRljZYFpZv2T77wpZt7FAcMpZsoCbJlbmT/ODz/bl6y0j6FFkfGWHfeZk/ZNdDg"
    "bh3qgo7LbcZYdgWRbg8TQTKabinf9531bI0spKFWbgOaC9TJbgOaDT8MbgLwsj9kbi/r99/3fv8/"
    "D+Msbn9f3/3/bgKgolhabh3qgollbgOaDT9mbiner7zvbgJoYYmgbgLwtIJobgMMPwwgbn9df7t/"
    "binS4d6pbn9f2/7/bgJrNBNDbWWi/r8MbgLwsj4ybimSP+Nmbdh33r4+AAAAAAAAazb5PT/xbwsj"
    "4yw7bgLwtIKJbineqd53bn9c/lz+bgLwxNBpR/L1MkQwbn06O3Prbinf959fbXS4r76sbi/r87/v"
    "bi/r99+7bgh1ZHxlbgMMP0gmbineqd47bgWR8ZYdbgJpBNDDf6SykuTJdky5555wfxB20SVhnP66"
    "/3b+fPfnnn/nfEZYGGBbfdlz5ZXnfT27aekufP/P/P/PfEZWRBdffFpK2FbSfDD5kMMDfD8C5kMZ"
    "WB0MaQTbfPdjhZH+fp3r87/vfPfnnef+fPdjhc/jfPdmyx5/fHnnnvzzfEMDDAsJbJlWW1lpfpLk"
    "9u16fOstPSyvfwwwLaJLffnneefPfdlz5Y86fPdgfxljfpLa/ZqlfODxdNk/fODz/ZMuAAAAAAAA"
    "fwwraJLgfPPP/PPPfPdl/nCyfHnnnvyZfZPmQxeBfLRLNfh9fPnn/ef+e8KmWiS4fPnn/n/nfD8C"
    "ZDGbfPdmyf5wfDE0MMTffcXnC37sfD8DDGb8fDD5s0MMfPPPnnnnPE33zKayPX7792a/OfXX7lxc"
    "J0EYYQHYP/j5PbsMP/pkv337OwOg2T4yP9LKb+/ztv5c/rr/P9LKb++ZPj6d9533PvvvWW7LP8MK"
    "2kfJNr/6S5PbP+krZqkuP/vO+/ffP33z77zvP/pkuT75P8MK2kdtPU75y3DDPj777zvvOwprF8aR"
    "Pj6ZI+NmP92XP39/PE3xlNZvP8MLI+ZPPU753js1P/j5PbtmP92/39/9P5cXP66/P6KSsK2oBcHh"
    "V6yIAAAAAAAAP/vP+/+/P8MLk9vjPj6d94XLP+WzVMn3P33z6d47P5ye3YY4PvvmU1lpP5c/rr/d"
    "P8MKbfGkP33z6d53P+WzVMm7Pj6d9527P8MLI+T2P8MK2iS4P+WzU79mPX7792a/PE33zKayP/j5"
    "PbsMP/pkv337OfXX7lxcJ0EYYQHYP9LKb+/zOwOg2T4yP9LKb++Ztv5c/rr/P8MK2kfJNr/6S5Pb"
    "Pj6d9533PvvvWW7LP/vO+/ffP+krZqkuPE3xlNZvP8MLI+ZPPU753js1P/j5PbtmP92/39/9P5cX"
    "P66/P6KSsK2oBcHhV6yIP33z77zvP/pkuT75P8MK2kdtPU75y3DDPj777zvvOwprF8aRPj6ZI+Nm"
    "P92XP39/P/vP+/+/AAAAAAAAP+WzVMn3P33z6d47P8MLk9vjPj6d94XLPvvmU1lpP5ye3YY4P8MK"
    "bfGkP5c/rr/dPj6d9527P8MLI+T2P33z6d53P+WzVMm7P+WzU79mP8MK2iS4AIwICAgIAPOmWgmW"
    "APAwLCAgAICwIDAgAIxsCMDGAOwLCQQgAPIYGM2BAJoS2kMWAJsCZDAxAOFolmp0QWINIIUBAIDA"
    "wIDAC4OKmSKOAPOmWiWaAKIKQopCAPA1tJbSAPOmQs0EAJoSFDGkAjAgKJBCAPAwMDDAFwcqxskQ"
    "AJoTIYs2APAxpMkJAJkMZsCZAICAgIDAAOEBwGGEAWRlgWRlAJpKGNJbL4+mSPjZAOFjNwc8AJsm"
    "UNkyAMUhIgpCAPAwICAwAIwIYEYEAAAAAAAAAPAwMDCABcnt10cXAJsmUMZsAPOmWktpAJoCBiGB"
    "AJsmVZsmAJoTkyhjAJsDDAxDAJGkMWNiAICAgICAAJkMZsDzAxBsLBgdALIywLIypZv8/v8/pDGb"
    "t+H4q3vvU6GOpMqy09LKOg2T9kgupN+KmTQnpNTrKJZVpZt7JlwFpMrzzh6epDCAqZDgpaJL8Pr8"
    "pYd94WR8pZssDzyZpu1lov6/pZv2T6B3pPmVeJv5pMoPF02TpZsoDs2TpZssDyzZpaRljYsCpMoe"
    "nizZpZ/5/f5/h8cuHevOpVkZVkiCpZv2T6A7pMs8eeeepaJLh9fhpP2b/DD+pZssDzzzpMoCbJlD"
    "t/pZXn9/pWbt+H4mpZsseeeepbsCyQsjpZssCyZZAAAAAAAApaJLh9WHoFp6WB0UpMueeecPpWaC"
    "aHnWpNTtos1QpWaCbK88pZt7FAcMpZsoCbJlpZuXAX7JpZssCyMspZv2T77wpaRljZYFAPOmWgmW"
    "AIwICAgIAIxsCMDGAOwLCQQgAPAwLCAgAICwIDAgAJoS2kMWAPIYGM2BAOFolmp0AJsCZDAxC4OK"
    "mSKOAPOmWiWaQWINIIUBAIDAwIDAAPA1tJbSAKIKQopCAICAgIDAAOEBwGGEAWRlgWRlAJpKGNJb"
    "L4+mSPjZAOFjNwc8AJsmUNkyAMUhIgpCAPOmQs0EAJoSFDGkAjAgKJBCAPAwMDDAFwcqxskQAJoT"
    "IYs2APAxpMkJAJkMZsCZAIwIYEYEAPAwICAwBcnt10cXAJsmUMZsAAAAAAAAAPAwMDCAAJoCBiGB"
    "APOmWktpAJoTkyhjAJsmVZsmAICAgICAAJkMZsDzAJsDDAxDAJGkMWNiALIywLIyAxBsLBgdpDGb"
    "t+H4pZv8/v8/Og2T9kgupN+KmTQnq3vvU6GOpMqy09LKpZt7JlwFpNTrKJZVpDCAqZDgpMrzzh6e"
    "pZssDzyZpu1lov6/paJL8Pr8pYd94WR8pPmVeJv5pZv2T6B3pZv2T6A7pMs8eeeepaJLh9fhpP2b"
    "/DD+pZssDzzzpMoCbJlDt/pZXn9/pWbt+H4mpMoPF02TpZsoDs2TpZssDyzZpaRljYsCpMoenizZ"
    "pZ/5/f5/h8cuHevOpVkZVkiCpbsCyQsjpZsseeeepaJLh9WHoFp6WB0UpZssCyZZAAAAAAAApWaC"
    "aHnWpMueeecPpWaCbK88pNTtos1QpZuXAX7JpZssCyMspZt7FAcMpZsoCbJlpaRljZYFpZv2T77w"
    "FkZYFkZYfxB20SVhfmWb+fn4fpL92vX7f6SykuTJdky5555wfr+iWUvzfplz759Ofr+iWUuZfPfn"
    "nef+foI0lYXJbJleecnpfpK2apXSfplbUSkrfww/DD8MfpLk9u16fwwraJLgfoIywuZPfpLa/Zu1"
    "fpK2tFJWfoI0nt2Ffv8/D+MsfmT9m7Dge8KmWiS4fv/v/v/vfpLk+nS5foI0lYVtfp3r99+7fpLa"
    "61TJWB0MaQTbfww+2iSwfp3r87/vfn/nef+/fwwwLaJLfpLa/Zqlfr+iWV59foIpKwrafoL9m7WW"
    "AAAAAAAAfv/v/O/+fqzdrLRffv8/D+ZZfpLKXMn0foIywuT2frr/dHb+fpK2tWqVfp3r99/3fpLk"
    "9u2nfxB20SVhFkZYFkZYf6SykuTJdky5555wfmWb+fn4fpL92vX7fplz759Ofr+iWUvzfPfnnef+"
    "fr+iWUuZfpK2apXSfplbUSkrfoI0lYXJbJleecnpfpLk9u16fww/DD8Mfv/v/v/vfpLk+nS5foI0"
    "lYVtfp3r99+7fpLa61TJWB0MaQTbfww+2iSwfp3r87/vfwwraJLgfoIywuZPfpLa/Zu1fpK2tFJW"
    "foI0nt2Ffv8/D+MsfmT9m7Dge8KmWiS4fwwwLaJLfn/nef+/foIpKwrafoL9m7WWfpLa/Zqlfr+i"
    "WV59fv/v/O/+AAAAAAAAfv8/D+ZZfqzdrLRffrr/dHb+fpK2tWqVfpLKXMn0foIywuT2fpLk9u2n"
    "fp3r99/3oFkZYFkZPkyR8bNfPj6d9533PvvvWW7LPq+mSPjZNr/6S5PbPvCmstI+P/vO+/ffPE33"
    "zKayPPE0Eys2OfXX7lxcLJoJsmVZPvvvX333P/pkv337OwOg2T4yP9LKb+/zPkyQ+mSPPU75y3DD"
    "PvO+mXHxPvvjSymsPj6ZI+NmPvHZHxs1Pj777zvvOwprF8aRPFI+TmU1PvvvWWllPE3xlNZvP8ML"
    "I+ZPPvCyPjLDBcHhV6yIPvJHxs19PqCiWVmvPjLDvvCyP8MKbfGkPvO+mXFHPk9u2v/pPj6d9527"
    "PvvvX2XLPvCm3xpZP+WzU79mAAAAAAAAPvvvO+++PvvvX327Pj6d94XLP+WzVMn3Pvvqy0spPq+n"
    "V10uPvvmU1lpPkyR8bNfoFkZYFkZPq+mSPjZNr/6S5PbPj6d9533PvvvWW7LP/vO+/ffPvCmstI+"
    "PPE0Eys2PE33zKayPvvvX333P/pkv337OfXX7lxcLJoJsmVZP9LKb+/zOwOg2T4yPFI+TmU1Pvvv"
    "WWllPE3xlNZvP8MLI+ZPPvCyPjLDBcHhV6yIPvJHxs19PqCiWVmvPkyQ+mSPPU75y3DDPvO+mXHx"
    "PvvjSymsPj6ZI+NmPvHZHxs1Pj777zvvOwprF8aRP8MKbfGkPjLDvvCyPj6d9527PvvvX2XLPvO+"
    "mXFHPk9u2v/pP+WzU79mPvCm3xpZPvvvO+++AAAAAAAAP+WzVMn3Pvvqy0spPvvvX327Pj6d94XL"
    "PvvmU1lpPq+nV10uBZGlkZYFBcmp0EaQXxlh33hZBIgpGBiiC4OKmSKOBOW4YFkQBIRAUjAxBcnK"
    "OL1yB3qmWiS4BZGnixs2BRTopCikB9MhZEFvB+Hy5kLIBYhqbAoIBcBhhEF6B8t+IyxmAjAgKJBC"
    "BZHxlgXLBZGniwJkB8t+IywMBcBpEF6mBIRgRpGBFwcqxskQBQjFgRpGBZHxlh33B6eO2iWaBRSN"
    "RY1FBcHhYjKdBZGlkYsCBcmp0MaRLi659dfuBcmp0UhRBcBhh+kEBQjFhI0jB+GEB4MJAPxBsLAw"
    "BRSNRYqKBcHhV6yIBIRAcMCNBcnt06OLBORgY4CMB6eOws0EAAAAAAAABcBhqdBGBcnt10cXBZGk"
    "YFCMBcBhhEGnB+JjNvkyPOmQ4KDZNr/6S5PbPU75ymzXoFkZYFkZPOmVltQUPEODwprIPAwOAw0G"
    "PWU1m++aPAxSE5NBPP/T2/2bPAwxpBNvPPOs2TQTPPOstPSyF/RGzU6wPOmQ4PJBPqO111evPPE0"
    "Eys2PAwxpHyaPCyPjKd4P/pkv337OL+v337sLJoJsmVZPU7/pk1vOwOg2T4yPU75ymumPAwOAwwg"
    "PU75ymXDPPJoJsmVPPOs2WnpPPrr/ZIjPAxSE0E2PPAmQxmgPOmQskFBPU75y3DDPPAmVmgmPAwO"
    "A0gmPj6ZI+NmPKs2TQTZPPrr/ZLiOwprF8aRP+WzVMn3PP/T2+TJPAw37J8yAAAAAAAAPAwOTQaQ"
    "PPOs2TT0PPAmQ0EyPU75ymGOBcmp0EaQBZGlkZYFC4OKmSKOBOW4YFkQXxlh33hZBIgpGBiiBcnK"
    "OL1yBIRAUjAxBZGnixs2B3qmWiS4B+Hy5kLIBYhqbAoIBRTopCikB9MhZEFvB8t+IyxmBcBhhEF6"
    "BZHxlh33B6eO2iWaBRSNRY1FBcHhYjKdBZGlkYsCBcmp0MaRLi659dfuBcmp0UhRAjAgKJBCBZHx"
    "lgXLBZGniwJkB8t+IywMBcBpEF6mBIRgRpGBFwcqxskQBQjFgRpGBQjFhI0jBcBhh+kEBRSNRYqK"
    "BcHhV6yIB+GEB4MJAPxBsLAwBcnt06OLBIRAcMCNB6eOws0EBORgY4CMBcnt10cXBZGkYFCMAAAA"
    "AAAABcBhqdBGB+JjNvkyBcBhhEGnNr/6S5PbPOmQ4KDZPOmVltQUPEODwprIPU75ymzXoFkZYFkZ"
    "PWU1m++aPAwOAw0GPP/T2/2bPAxSE5NBPPOstPSyF/RGzU6wPAwxpBNvPPOs2TQTPqO111evPOmQ"
    "4PJBPU75ymumPAwOAwwgPU75ymXDPPJoJsmVPPOs2WnpPPrr/ZIjPAxSE0E2PPAmQxmgPPE0Eys2"
    "PAwxpHyaPCyPjKd4P/pkv337OL+v337sLJoJsmVZPU7/pk1vOwOg2T4yPU75y3DDPOmQskFBPj6Z"
    "I+NmPKs2TQTZPPAmVmgmPAwOA0gmOwprF8aRPPrr/ZLiPP/T2+TJP+WzVMn3PAwOTQaQPPOs2TT0"
    "PAw37J8yAAAAAAAAPU75ymGOPPAmQ0EyFyco6XKvFlef2XPPFyco6unVFye3a4v6FxR0uVfeFwed"
    "Orrifww/DD8MFMDgKS2iFkZYFkZYFwedOrojFz6dXXPlFzKvEbJ8FlC5bjLFFmglmvOALi659dfu"
    "Eb2KA4YsFy3Q6ty3G3xqGGKJFlC5bioWFlXTVBb2Fleeee7LFlCyMsWWFyco66vXFye3bX9HFlWb"
    "LFlpB82amTfsFz+uv92/F+7XF/X7Fyco6HVuFxR11evOFz5b90OrFm5cBfslFweFXrIiFzKvFz5b"
    "FyctyrxcFlZrzlBQFz+uufLnFyfX9HS5FwcqxskQFwVOrojZFz5b911eFweSIur1Fy3QuW5VFz97"
    "t+66Fz6dXXFvFzKvE37JAAAAAAAAFzKvFJb9Flef2XPPFyco6XKvFxR0uVfeFwedOrriFyco6unV"
    "Fye3a4v6FMDgKS2ifww/DD8MFwedOrojFkZYFkZYFlC5bjLFFmglmvOAFz6dXXPlFzKvEbJ8Eb2K"
    "A4YsLi659dfuFlWbLFlpB82amTfsFz+uv92/F+7XF/X7Fyco6HVuFxR11evOFz5b90OrFm5cBfsl"
    "Fy3Q6ty3G3xqGGKJFlC5bioWFlXTVBb2Fleeee7LFlCyMsWWFyco66vXFye3bX9HFzKvFz5bFweF"
    "XrIiFz+uufLnFyfX9HS5FyctyrxcFlZrzlBQFwVOrojZFwcqxskQFweSIur1Fz5b911eFz6dXXFv"
    "FzKvE37JFy3QuW5VFz97t+66FzKvFJb9AAAAAAAA"
)
