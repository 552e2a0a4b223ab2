"""Output checker for Hamiltonian cycles and paths of BP_n minus a fault set.

Written from the graph's definition alone and sharing no code with the
``burntpancake`` package, so that a fault common to the constructor and the
oracle cannot hide here too.  A vertex is a signed permutation of 1..n; its
k-neighbour reverses and negates the first k symbols.  Removing the matching
pairs leaves 2^n * n! - 2 * |pairs| vertices, and a Hamiltonian object must
list each of them exactly once.

Run ``python3 perfbench/checker.py`` for the self-test: it builds a cycle and
a path of BP_3 by its own search and shows that every kind of tampering is
rejected.
"""

from __future__ import annotations

import sys
from math import factorial


def flip(u: tuple, k: int) -> tuple:
    """The k-neighbour of ``u``: reverse and negate its first k symbols."""
    return tuple(-x for x in u[k - 1 :: -1]) + u[k:]


def step_dimension(a: tuple, b: tuple) -> int:
    """The k with ``b == flip(a, k)``, or 0 when a and b are not adjacent.

    A k-flip leaves positions k+1..n alone and changes position k (its sign
    at least), so k is the last position where a and b differ.
    """
    k = len(a)
    while k and a[k - 1] == b[k - 1]:
        k -= 1
    return k if k and flip(a, k) == b else 0


def vertex_count(n: int) -> int:
    return 2**n * factorial(n)


def check(n, pairs, edges, vertices, closed, source=None, target=None) -> list[str]:
    """Violations of ``vertices`` as a Hamiltonian cycle or path; [] if none.

    ``pairs`` are the removed matching pairs and ``edges`` the faulty edges,
    each given as two vertices.  Paths must run from ``source`` to ``target``.
    """
    bad: list[str] = []
    vertices = [tuple(v) for v in vertices]
    removed = {tuple(v) for pair in pairs for v in pair}
    faulty = {frozenset((tuple(a), tuple(b))) for a, b in edges}
    want = vertex_count(n) - 2 * len(pairs)
    if len(vertices) != want:
        bad.append(f"count: {len(vertices)} vertices, expected {want}")
    symbols = list(range(1, n + 1))
    seen: set[tuple] = set()
    for pos, v in enumerate(vertices):
        if sorted(map(abs, v)) != symbols:
            bad.append(f"not-a-vertex at {pos}: {v}")
            continue
        if v in seen:
            bad.append(f"repeated at {pos}: {v}")
        seen.add(v)
        if v in removed:
            bad.append(f"removed at {pos}: {v}")
    steps = len(vertices) if closed else len(vertices) - 1
    for pos in range(max(steps, 0)):
        a, b = vertices[pos], vertices[(pos + 1) % len(vertices)]
        if len(a) != n or len(b) != n or not step_dimension(a, b):
            bad.append(f"not-a-step at {pos}: {a} -> {b}")
        elif frozenset((a, b)) in faulty:
            bad.append(f"faulty-edge at {pos}: {a} -> {b}")
    if not closed and vertices and (vertices[0] != tuple(source) or vertices[-1] != tuple(target)):
        bad.append(f"endpoints: {vertices[0]} .. {vertices[-1]}, expected {source} .. {target}")
    return bad


def _hamiltonian_path(n: int, start: tuple, end: tuple | None) -> list[tuple]:
    """Depth-first search for a Hamiltonian path of fault-free BP_n (tiny n).

    With ``end`` None the path must close into a cycle.
    """
    total = vertex_count(n)
    path, on = [start], {start}

    def grow() -> bool:
        cur = path[-1]
        if len(path) == total:
            return step_dimension(cur, start) > 0 if end is None else cur == end
        for k in range(1, n + 1):
            w = flip(cur, k)
            if w in on or (w == end and len(path) < total - 1):
                continue
            path.append(w)
            on.add(w)
            if grow():
                return True
            on.discard(path.pop())
        return False

    if not grow():
        raise RuntimeError("no Hamiltonian object found")
    return path


def self_test() -> list[str]:
    """Check good BP_3 objects pass and each tampered copy is rejected.

    Returns the failures of the self-test; [] when the checker works.
    """
    n = 3
    start = tuple(range(1, n + 1))
    cycle = _hamiltonian_path(n, start, None)
    far = next(v for v in reversed(cycle) if not step_dimension(start, v))
    path = _hamiltonian_path(n, start, far)
    failures: list[str] = []

    def expect(name, kind, got):
        if kind is None and got:
            failures.append(f"{name}: good object rejected: {got}")
        elif kind is not None and not any(v.startswith(kind) for v in got):
            failures.append(f"{name}: expected a {kind!r} violation, got {got}")

    def cyc(vertices, pairs=(), edges=()):
        return check(n, pairs, edges, vertices, closed=True)

    def pth(vertices, source=start, target=far, pairs=(), edges=()):
        return check(n, pairs, edges, vertices, closed=False, source=source, target=target)

    expect("good cycle", None, cyc(cycle))
    expect("good path", None, pth(path))
    expect("repeated vertex", "repeated", cyc(cycle[:-1] + [cycle[0]]))
    expect("dropped vertex", "count", cyc(cycle[:-1]))
    expect("not a signed permutation", "not-a-vertex", cyc(cycle[:-1] + [(1, 1, 2)]))
    swapped = list(cycle)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    expect("swapped steps", "not-a-step", cyc(swapped))
    # a cycle through a matching pair's vertices visits removed vertices
    expect("removed vertex", "removed", cyc(cycle, pairs=[(cycle[0], cycle[1])]))
    expect("faulty edge", "faulty-edge", cyc(cycle, edges=[(cycle[5], cycle[6])]))
    expect("faulty closing edge", "faulty-edge", cyc(cycle, edges=[(cycle[-1], cycle[0])]))
    expect("open path as cycle", "not-a-step", cyc(path))
    expect("wrong source", "endpoints", pth(path, source=path[1]))
    expect("wrong target", "endpoints", pth(path, target=path[-2]))
    expect("reversed path", "endpoints", pth(path[::-1]))
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print(line)
    print("checker self-test:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)
