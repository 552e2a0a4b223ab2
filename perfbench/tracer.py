"""Spans and counters recorded around the package's functions, from outside.

The package is left untouched: ``install`` swaps a wrapper in for a function
under every name that refers to it, in every loaded ``burntpancake`` module,
because modules bind some functions by name at import (``from .bp_graph
import subgraph_lift``) and a wrapper set on the defining module alone would
miss those calls.  ``uninstall`` puts the originals back.

Three kinds of wrapper:

* a *span* records (name, start, end, parent) in memory, for functions called
  at most some tens of thousands of times per build;
* a *timed leaf* adds its call count and duration to totals, for hot
  functions that call no other timed function;
* a *counted leaf* only counts calls, for the hottest functions, where two
  clock reads per call would dwarf the call itself.

Each span also sums the time of the spans and timed leaves below it, so its
self time is its duration minus that sum.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        # one record per span: [name, start, end, parent index, child seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._installed: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, on_result=None):
        spans, stack, calls, clock = self.spans, self.stack, self.calls, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
                if stack:
                    spans[stack[-1]][4] += rec[2] - rec[1]
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def timed_leaf(self, name, fn, on_result=None):
        spans, stack, calls, leaf_s, clock = self.spans, self.stack, self.calls, self.leaf_s, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[name] += 1
                leaf_s[name] += dt
                if stack:
                    spans[stack[-1]][4] += dt
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted_leaf(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, fn, wrapper) -> int:
        """Replace every module-level binding of ``fn`` in the package."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if modname != "burntpancake" and not modname.startswith("burntpancake."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._installed.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if not hits:
            raise LookupError(f"{fn!r} is bound nowhere in the package")
        return hits

    def install_method(self, cls, attr: str, wrapper) -> None:
        self._installed.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results ----------------------------------------------------------

    def span_s(self, name: str) -> float:
        """Total inclusive time of the outermost spans called ``name``."""
        spans = self.spans
        total = 0.0
        for rec in spans:
            if rec[0] != name:
                continue
            p = rec[3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total += rec[2] - rec[1]
        return total

    def self_s(self) -> dict[str, float]:
        """Self time per span name: duration minus time in timed children."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, child in self.spans:
            out[name] += end - start - child
        return out

    def dump(self, path: str) -> None:
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "self_s": e - s - c}
                for n, s, e, p, c in self.spans
            ],
            "calls": dict(self.calls),
            "leaf_s": dict(self.leaf_s),
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
