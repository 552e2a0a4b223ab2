"""Seeded random fault-set generation and fuzz campaign aggregation.

A trial's generator is derived from the campaign seed and the trial counter,
so campaigns are reproducible element-for-element regardless of how trials
are scheduled.  Sampling builds the matching first, greedily, then draws
faulty edges avoiding the removed vertices; every sample is validated before
use.
"""

from __future__ import annotations

import json
import random
import time

from . import bp_graph, oracle
from .constructor import StrictModeFailure, hamiltonian_cycle, hamiltonian_path
from .fault_model import FaultSet, validate
from .signed_perm import Vertex, prefix_reversal


def trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random((seed << 32) ^ (trial + 1))


def random_vertex(rng: random.Random, n: int) -> Vertex:
    base = list(range(1, n + 1))
    rng.shuffle(base)
    return tuple(x if rng.random() < 0.5 else -x for x in base)


def sample_fault_set(n: int, max_faults: int, rng: random.Random) -> FaultSet:
    """A uniform-budget fault set mixing matching pairs and faulty edges."""
    total = rng.randint(0, max_faults)
    want_pairs = rng.randint(0, total)
    pairs: list[tuple[Vertex, Vertex]] = []
    used: set[Vertex] = set()
    guard = 0
    while len(pairs) < want_pairs and guard < 200:
        guard += 1
        a = random_vertex(rng, n)
        b = prefix_reversal(a, rng.randint(1, n))
        if a in used or b in used:
            continue
        pairs.append((a, b))
        used.add(a)
        used.add(b)
    edges: list[tuple[Vertex, Vertex]] = []
    edge_keys: set = {bp_graph.edge_key(a, b) for a, b in pairs}
    guard = 0
    while len(pairs) + len(edges) < total and guard < 200:
        guard += 1
        a = random_vertex(rng, n)
        b = prefix_reversal(a, rng.randint(1, n))
        if a in used or b in used:
            continue
        key = bp_graph.edge_key(a, b)
        if key in edge_keys:
            continue
        edge_keys.add(key)
        edges.append(key)
    fs = FaultSet.build(n, matching_pairs=pairs, faulty_edges=edges)
    report = validate(fs)
    if not report.ok:  # sampling never produces invalid sets
        raise AssertionError(f"sampler produced invalid fault set: {report.violations}")
    return fs


def sample_endpoints(rng: random.Random, n: int, fault_set: FaultSet) -> tuple[Vertex, Vertex]:
    removed = fault_set.removed_vertices()
    while True:
        u = random_vertex(rng, n)
        v = random_vertex(rng, n)
        if u != v and u not in removed and v not in removed:
            return u, v


class FuzzReport:
    """One campaign's counts, case histogram and failures.  Its attributes
    are the fields set in ``__init__``, compared one by one; mutable, so
    unhashable."""

    __hash__ = None

    def __init__(
        self,
        n: int,
        op: str,
        seed: int,
        max_faults: int,
        trials: int = 0,
        successes: int = 0,
        verification_failures: int = 0,
        strict_failures: int = 0,
        case_histogram: dict[str, int] | None = None,
        failures: list[dict] | None = None,
        wall_time: float = 0.0,
    ):
        self.n = n
        self.op = op
        self.seed = seed
        self.max_faults = max_faults
        self.trials = trials
        self.successes = successes
        self.verification_failures = verification_failures
        self.strict_failures = strict_failures
        self.case_histogram = {} if case_histogram is None else case_histogram
        self.failures = [] if failures is None else failures
        self.wall_time = wall_time

    def __repr__(self) -> str:
        return "FuzzReport(" + ", ".join(f"{name}={value!r}" for name, value in vars(self).items()) + ")"

    def __eq__(self, other):
        if other.__class__ is not FuzzReport:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def ok(self) -> bool:
        return self.trials > 0 and self.successes == self.trials

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "op": self.op,
            "seed": self.seed,
            "max_faults": self.max_faults,
            "trials": self.trials,
            "successes": self.successes,
            "verification_failures": self.verification_failures,
            "strict_failures": self.strict_failures,
            "case_histogram": {k: self.case_histogram[k] for k in sorted(self.case_histogram)},
            "failures": self.failures,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def run_fuzz(
    n: int,
    op: str,
    trials: int,
    max_faults: int,
    seed: int = 0,
) -> FuzzReport:
    """Run seeded construction/verification trials and aggregate outcomes."""
    report = FuzzReport(n=n, op=op, seed=seed, max_faults=max_faults)
    t0 = time.monotonic()
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        fs = sample_fault_set(n, max_faults, rng)
        report.trials += 1
        try:
            if op == "cycle":
                built = hamiltonian_cycle(n, fs)
                check = oracle.verify_cycle(n, fs, built.packed)
            else:
                u, v = sample_endpoints(rng, n, fs)
                built = hamiltonian_path(n, u, v, fs)
                check = oracle.verify_path(n, fs, u, v, built.packed)
        except StrictModeFailure:
            report.strict_failures += 1
            report.failures.append({"trial": trial, "kind": "strict", "faults": fs.to_json_dict()})
            continue
        for label in built.trace.labels():
            if label != "root":
                report.case_histogram[label] = report.case_histogram.get(label, 0) + 1
        if check.ok:
            report.successes += 1
        else:
            report.verification_failures += 1
            report.failures.append(
                {
                    "trial": trial,
                    "kind": "verification",
                    "faults": fs.to_json_dict(),
                    "violations": [list(x) for x in check.violations][:5],
                }
            )
    report.wall_time = time.monotonic() - t0
    return report
