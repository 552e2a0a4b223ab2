"""Seeded inputs for the workloads that build single large instances.

Every instance is drawn from ``random.Random`` seeded by the workload seed
and a fixed tag, so the same seed gives the same inputs.  A full-budget fault
set holds one matching pair that straddles two subgraphs (an n-dimensional
edge, which leaves a single forbidden vertex on each side and so runs the
constructor's ``EXT/`` cases), then alternates matching pairs inside one
subgraph with faulty edges of any dimension.  No subgraph gets more fault
weight than n-4, so the top level always takes the general case (``L18/1``
for cycles, ``L19/1`` for paths) and the cost of an instance depends little
on the seed.
"""

from __future__ import annotations

import random

from checker import flip


def _random_vertex(rng: random.Random, n: int) -> tuple:
    base = list(range(1, n + 1))
    rng.shuffle(base)
    return tuple(x if rng.random() < 0.5 else -x for x in base)


def _weights(n: int, pairs, edges) -> dict[int, int]:
    """Fault weight per subgraph, counted as the constructor's case split does."""
    w = {i: 0 for a in range(1, n + 1) for i in (a, -a)}
    for a, b in pairs:
        w[a[-1]] += 1
        if b[-1] != a[-1]:
            w[b[-1]] += 1
    for a, b in edges:
        if a[-1] == b[-1]:
            w[a[-1]] += 1
    return w


def fault_spec(n: int, size: int, rng: random.Random):
    """(pairs, edges): ``size`` fault elements, one of them a straddling pair."""
    while True:
        pairs: list[tuple] = []
        edges: list[tuple] = []
        removed: set[tuple] = set()
        touched: set[tuple] = set()
        keys: set[frozenset] = set()
        while len(pairs) + len(edges) < size:
            t = len(pairs) + len(edges)
            a = _random_vertex(rng, n)
            b = flip(a, n if t == 0 else rng.randint(1, n if t % 2 else n - 1))
            key = frozenset((a, b))
            if a in removed or b in removed or key in keys:
                continue
            if t % 2 == 0:
                if a in touched or b in touched:
                    continue
                pairs.append((a, b))
                removed.update(key)
            else:
                edges.append((a, b))
            keys.add(key)
            touched.update(key)
        if max(_weights(n, pairs, edges).values()) <= n - 4:
            return pairs, edges


def endpoints(n: int, pairs, rng: random.Random, same_subgraph: bool) -> tuple[tuple, tuple]:
    """Fault-free path endpoints, in one subgraph (loop engine) or two (chain)."""
    removed = {v for pair in pairs for v in pair}
    while True:
        u = _random_vertex(rng, n)
        if same_subgraph:
            v = _random_vertex(rng, n - 1)
            v = tuple((abs(x) + (abs(x) >= abs(u[-1]))) * (1 if x > 0 else -1) for x in v) + u[-1:]
        else:
            v = _random_vertex(rng, n)
        if u != v and u not in removed and v not in removed and (u[-1] == v[-1]) == same_subgraph:
            return u, v


def instance(n: int, seed: int, tag: str, op: str, same_subgraph: bool = False) -> dict:
    """One full-budget cycle or path instance of BP_n for ``seed``."""
    rng = random.Random(f"{tag}:{n}:{op}:{seed}")
    size = n - 2 if op == "cycle" else n - 3
    pairs, edges = fault_spec(n, size, rng)
    out = {"n": n, "op": op, "pairs": pairs, "edges": edges}
    if op == "path":
        out["source"], out["target"] = endpoints(n, pairs, rng, same_subgraph)
    return out
