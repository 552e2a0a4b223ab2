"""Signed permutation algebra underlying burnt pancake graphs.

A vertex of the n-dimensional burnt pancake graph is a signed permutation:
a tuple of n nonzero signed integers whose absolute values permute 1..n.
The canonical text form joins the signed integers with commas and no
spaces, e.g. ``"-2,1,-3"``.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from operator import mul
from typing import Iterable, Iterator

Vertex = tuple[int, ...]


def check_vertex(u: Iterable[int], n: int | None = None) -> Vertex:
    """Validate ``u`` as a signed permutation and return it as a tuple.

    >>> check_vertex([-2, 1, -3])
    (-2, 1, -3)
    """
    v = tuple(int(x) for x in u)
    if n is not None and len(v) != n:
        raise ValueError(f"expected length {n}, got {len(v)}: {v!r}")
    if not v:
        raise ValueError("empty vertex")
    if sorted(abs(x) for x in v) != list(range(1, len(v) + 1)):
        raise ValueError(f"absolute values must permute 1..{len(v)}: {v!r}")
    return v


def identity(n: int) -> Vertex:
    return tuple(range(1, n + 1))


def prefix_reversal(u: Vertex, k: int) -> Vertex:
    """Reverse and negate the first ``k`` symbols of ``u`` (the k-neighbor).

    >>> prefix_reversal((-2, 1, -6, 4, -5, 3), 3)
    (6, -1, 2, 4, -5, 3)
    >>> prefix_reversal((-2, 1, -6, 4, -5, 3), 6)
    (-3, 5, -4, 6, -1, 2)
    """
    if not 1 <= k <= len(u):
        raise ValueError(f"prefix length {k} out of range 1..{len(u)}")
    return tuple(-x for x in u[k - 1 :: -1]) + u[k:]


def generator(n: int, k: int) -> Vertex:
    """The k-th prefix reversal of the identity."""
    return prefix_reversal(identity(n), k)


def compose(a: Vertex, b: Vertex) -> Vertex:
    """Sign-aware composition: ``c[i] = sign(b[i]) * a[|b[i]|]`` (1-based).

    Under this convention ``prefix_reversal(u, k) == compose(u, generator(n, k))``,
    so edges are right multiplications by generators and left translations
    are graph automorphisms.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(a[x - 1] if x > 0 else -a[-x - 1] for x in b)


def inverse(u: Vertex) -> Vertex:
    """The two-sided inverse under :func:`compose`.

    >>> inverse((-2, 1, -3))
    (2, -1, -3)
    """
    out = [0] * len(u)
    for i, x in enumerate(u, start=1):
        if x > 0:
            out[x - 1] = i
        else:
            out[-x - 1] = -i
    return tuple(out)


def left_translate(w: Vertex, u: Vertex) -> Vertex:
    """Apply the automorphism ``u -> compose(w, u)``."""
    return compose(w, u)


def parse_vertex(text: str, n: int | None = None) -> Vertex:
    """Parse the canonical comma-separated form, e.g. ``"-2,1,-3"``."""
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse vertex {text!r}") from exc
    return check_vertex(parts, n)


def int_symbols(vertices: Iterable[Iterable]) -> bool:
    """True iff every symbol of every vertex is an ``int``, not a bool or float.

    Decoded JSON can hold ``2.7``, ``true`` or ``Infinity`` where a symbol
    belongs, which ``int()`` would truncate or fail to convert.  Raises
    TypeError when a vertex is not iterable.
    """
    return set(map(type, chain.from_iterable(vertices))) <= {int}


def format_vertex(u: Vertex) -> str:
    return ",".join(str(x) for x in u)


def iter_vertices(n: int) -> Iterator[Vertex]:
    """All 2^n * n! signed permutations.  Not in lexicographic order: the
    absolute values run through the permutations of 1..n in lexicographic
    order, and each takes its 2^n sign patterns, all positive first and the
    last sign flipping fastest.  :func:`all_vertices` sorts them.

    >>> list(iter_vertices(1))
    [(1,), (-1,)]
    >>> list(iter_vertices(2))[:5]
    [(1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1)]
    """
    for base in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            yield tuple(map(mul, signs, base))


def all_vertices(n: int) -> list[Vertex]:
    return sorted(iter_vertices(n))
