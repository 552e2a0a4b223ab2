"""The three workloads: seeded fuzz campaigns, n=7 builds, and the CLI at n=6.

A workload is made from its seed in ``__init__`` (the set-up that
``setup_s`` times), then ``run_round`` is called for rounds 0, 1, 2, ...
until the run's time is up.  A round returns the wall time of its timed
operations by kind (``cycle``, ``path``, ``verify``), as (seconds, count),
plus how many operations it attempted and how many failed.  Checks of the
outputs happen in the round but outside its timed calls, and add to
``problems``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter

import checker
import inputs

clock = time.perf_counter


def reset_memos() -> None:
    """Empty the package's process-wide caches (the BP_3 memo among them).

    Every round starts cold, as a fresh process would; a cache is any
    module-level dict whose name says cache or memo, or an ``lru_cache``.
    """
    for modname, mod in list(sys.modules.items()):
        if modname != "burntpancake" and not modname.startswith("burntpancake."):
            continue
        for attr, value in vars(mod).items():
            if isinstance(value, dict) and ("cache" in attr or "memo" in attr):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _digest_object(h, kind: str, vertices, labels) -> None:
    h.update(kind.encode())
    for start in range(0, len(vertices), 4096):
        h.update(repr(tuple(vertices[start : start + 4096])).encode())
    h.update("\n".join(labels).encode())


def _fault_json(spec: dict) -> dict:
    return {
        "n": spec["n"],
        "matching_pairs": [[list(a), list(b)] for a, b in spec["pairs"]],
        "faulty_edges": [[list(a), list(b)] for a, b in spec["edges"]],
    }


def _fault_set(spec: dict):
    from burntpancake import FaultSet

    return FaultSet.build(spec["n"], spec["pairs"], spec["edges"])


class Workload:
    name = ""
    pooled = False  # True when a round is many short trials, pooled over the run
    in_process = True  # False when the package runs in child processes
    # the workload's own figures, as (operation kind, operations per figure)
    FIGURES: dict[str, tuple[str, int]] = {}

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.problems: list[str] = []
        self.labels: Counter = Counter()
        self.digests: dict[int, str] = {}
        self.report: dict[str, float] = {}

    @property
    def digest(self) -> str:
        return self.digests.get(0, "")

    def run_round(self, r: int) -> tuple[dict[str, tuple[float, int]], int, int]:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks made once, after the measured rounds."""

    def _checked(self, what: str, violations: list[str]) -> None:
        if violations:
            self.problems.append(f"{what}: checker rejects: {violations[:3]}")

    def _digested(self, inputs_key: int, digest: str) -> None:
        """Outputs of rounds with the same inputs must have the same digest."""
        first = self.digests.setdefault(inputs_key, digest)
        if digest != first:
            self.problems.append(f"outputs of input set {inputs_key} differ between rounds")


class FuzzSmall(Workload):
    """Seeded ``fuzz.run_fuzz`` campaigns for cycles and paths at n = 4, 5.

    Round r runs four campaigns at full budget, each from its own seed
    derived from the workload seed and r and each with an empty BP_3 memo.
    Rounds draw fresh trials, so a run covers as many distinct instances as
    its time allows.
    """

    name = "fuzz-small"
    pooled = True
    # (n, op, max_faults, trials): the budgets are n-2 for cycles, n-3 for paths
    CAMPAIGNS = ((4, "cycle", 2, 40), (4, "path", 1, 40), (5, "cycle", 3, 10), (5, "path", 2, 10))
    SAMPLE_TRIALS = 3

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.wall: Counter = Counter()
        self.trials: Counter = Counter()
        self.verified: Counter = Counter()
        self.round0: list[tuple[int, str, int, int]] = []

    def campaign_seed(self, r: int, n: int, op: str) -> int:
        return random.Random(f"fuzz-small:{self.seed}:{r}:{n}:{op}").getrandbits(31)

    def run_round(self, r):
        from burntpancake import fuzz, oracle

        times = {"cycle": [0.0, 0], "path": [0.0, 0], "verify": [0.0, 0]}
        attempted = failed = 0
        h = hashlib.sha256()
        campaigns = []
        first = r not in self.digests
        for n, op, max_faults, trials in self.CAMPAIGNS:
            cs = self.campaign_seed(r, n, op)
            reset_memos()
            spent = [0.0]
            saved = oracle.verify_cycle, oracle.verify_path
            oracle.verify_cycle, oracle.verify_path = (self._timed(f, spent) for f in saved)
            try:
                t0 = clock()
                rep = fuzz.run_fuzz(n, op, trials, max_faults, seed=cs)
                wall = clock() - t0
            finally:
                oracle.verify_cycle, oracle.verify_path = saved
            times[op][0] += wall - spent[0]
            times[op][1] += rep.trials
            times["verify"][0] += spent[0]
            times["verify"][1] += rep.trials
            attempted += rep.trials
            failed += rep.strict_failures
            if rep.verification_failures:
                self.problems.append(f"n={n} {op} seed {cs}: {rep.verification_failures} trials fail the oracle")
            if rep.trials != trials:
                self.problems.append(f"n={n} {op} seed {cs}: ran {rep.trials} of {trials} trials")
            if first:
                self.wall[(n, op)] += wall
                self.trials[(n, op)] += rep.trials
                self.verified[(n, op)] += rep.successes
                self.labels.update(rep.case_histogram)
            campaigns.append((n, op, max_faults, cs))
            h.update(rep.to_json().encode())
        self._digested(r, h.hexdigest())
        if r == 0:
            self.round0 = campaigns
        return {k: tuple(v) for k, v in times.items()}, attempted, failed

    @staticmethod
    def _timed(fn, spent):
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[0] += clock() - t0

        return wrapper

    def finish(self) -> None:
        """Rebuild the first trials of round 0's campaigns and check them."""
        from burntpancake import fuzz, hamiltonian_cycle, hamiltonian_path, verify_cycle, verify_path

        h = hashlib.sha256(self.digests[0].encode())
        for n, op, max_faults, cs in self.round0:
            for trial in range(self.SAMPLE_TRIALS):
                rng = fuzz.trial_rng(cs, trial)
                fs = fuzz.sample_fault_set(n, max_faults, rng)
                if op == "cycle":
                    built = hamiltonian_cycle(n, fs)
                    ok = verify_cycle(n, fs, built).ok
                    bad = checker.check(n, fs.matching_pairs, fs.faulty_edges, built.vertices, True)
                else:
                    u, v = fuzz.sample_endpoints(rng, n, fs)
                    built = hamiltonian_path(n, u, v, fs)
                    ok = verify_path(n, fs, u, v, built).ok
                    bad = checker.check(n, fs.matching_pairs, fs.faulty_edges, built.vertices, False, u, v)
                what = f"n={n} {op} seed {cs} trial {trial}"
                self._checked(what, bad)
                if not ok:
                    self.problems.append(f"{what}: oracle rejects the rebuilt object")
                _digest_object(h, op, built.vertices, built.trace.labels())
        self.digests[0] = h.hexdigest()
        for n in (4, 5):
            trials = self.trials[(n, "cycle")] + self.trials[(n, "path")]
            verified = self.verified[(n, "cycle")] + self.verified[(n, "path")]
            wall = self.wall[(n, "cycle")] + self.wall[(n, "path")]
            self.report[f"fuzz_n{n}_trials_per_s"] = verified / wall
            self.report[f"fuzz_n{n}_trials"] = trials
        self.report["sample_rebuilds_checked"] = len(self.round0) * self.SAMPLE_TRIALS


class ScaleN7(Workload):
    """One full-budget cycle (|F| = 5) and path (|F| = 4) at n = 7.

    The path's endpoints lie in different subgraphs, so the top level runs
    the chain engine.  Each object is built, verified by the oracle, then
    checked and digested outside the timed calls and dropped before the next
    build, so the peak memory is that of one object.
    """

    name = "scale-n7"
    N = 7
    FIGURES = {"n7_cycle_build_s": ("cycle", 1), "n7_path_build_s": ("path", 1), "n7_verify_s": ("verify", 2)}

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.cycle = inputs.instance(self.N, seed, self.name, "cycle")
        self.path = inputs.instance(self.N, seed, self.name, "path", same_subgraph=False)
        self.cycle_fs = _fault_set(self.cycle)
        self.path_fs = _fault_set(self.path)

    def run_round(self, r):
        from burntpancake import ConstructionError, hamiltonian_cycle, hamiltonian_path, verify_cycle, verify_path

        times = {}
        verify = [0.0, 0]
        failed = 0
        h = hashlib.sha256()
        first = not self.digests
        reset_memos()
        for spec, fs in ((self.cycle, self.cycle_fs), (self.path, self.path_fs)):
            op, n = spec["op"], spec["n"]
            t0 = clock()
            try:
                if op == "cycle":
                    built = hamiltonian_cycle(n, fs)
                else:
                    built = hamiltonian_path(n, spec["source"], spec["target"], fs)
            except ConstructionError as exc:
                # the verify of a missing object fails with it
                times[op] = (clock() - t0, 1)
                failed += 2
                self.problems.append(f"n={n} {op}: {type(exc).__name__}: {exc}")
                continue
            t1 = clock()
            if op == "cycle":
                report = verify_cycle(n, fs, built)
            else:
                report = verify_path(n, fs, spec["source"], spec["target"], built)
            t2 = clock()
            times[op] = (t1 - t0, 1)
            verify[0] += t2 - t1
            verify[1] += 1
            if not report.ok:
                self.problems.append(f"n={n} {op}: oracle rejects: {str(report)[:200]}")
            if first:
                bad = checker.check(
                    n, spec["pairs"], spec["edges"], built.vertices, op == "cycle",
                    spec.get("source"), spec.get("target"),
                )
                self._checked(f"n={n} {op}", bad)
                labels = built.trace.labels()
                self.labels.update(x for x in labels if x != "root")
                self.report[f"n7_{op}_trace_labels"] = len(labels)
            _digest_object(h, op, built.vertices, built.trace.labels())
            del built
        times["verify"] = tuple(verify)
        self._digested(0, h.hexdigest())
        return times, 4, failed


class CliN6(Workload):
    """``burntpancake cycle``, ``path`` and ``verify`` at n = 6, as subprocesses.

    Set-up draws ``SETS`` input sets from the seed and writes their fault
    files; round r runs set r mod ``SETS``, so a run's median is taken over
    several instances, not one.  In each set the cycle has |F| = 4 and the
    path |F| = 3 with both endpoints in one subgraph, so the top level runs
    the loop engine.  Each artifact is written by ``cycle``/``path`` and
    read back by ``verify``.  With ``in_process`` the same commands run
    through ``cli.main`` in this process, which is how the traced run sees
    them.
    """

    name = "cli-n6"
    N = 6
    SETS = 12
    in_process = False
    FIGURES = {"cli_cycle_s": ("cycle", 1), "cli_path_s": ("path", 1), "cli_verify_s": ("verify", 1)}

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        os.makedirs(workdir, exist_ok=True)
        self.sets = []
        for k in range(self.SETS):
            tag = f"{self.name}.{k}"
            specs = {
                "cycle": inputs.instance(self.N, seed, tag, "cycle"),
                "path": inputs.instance(self.N, seed, tag, "path", same_subgraph=True),
            }
            files = {}
            for op, spec in specs.items():
                faults = os.path.join(workdir, f"{op}-{k}-faults.json")
                with open(faults, "w", encoding="utf-8") as fh:
                    json.dump(_fault_json(spec), fh)
                files[op] = (faults, os.path.join(workdir, f"{op}-{k}.json"))
            self.sets.append((specs, files))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def _call(self, argv: list[str]) -> tuple[int, str, str, float]:
        if self.in_process:
            from burntpancake import cli

            reset_memos()  # as a fresh process would start
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue(), clock() - t0
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, "-m", "burntpancake.cli", *argv],
            env=self.env, capture_output=True, text=True, timeout=170,
        )
        return proc.returncode, proc.stdout, proc.stderr, clock() - t0

    def run_round(self, r):
        times = {"cycle": [0.0, 0], "path": [0.0, 0], "verify": [0.0, 0]}
        attempted = failed = 0
        h = hashlib.sha256()
        k = r % self.SETS
        specs, files = self.sets[k]
        first = k not in self.digests
        for op, spec in specs.items():
            faults, artifact = files[op]
            argv = [op, "--n", str(self.N), "--faults", faults, "--out", artifact]
            if op == "path":
                argv += ["--source=" + ",".join(map(str, spec["source"])),
                         "--target=" + ",".join(map(str, spec["target"]))]
            code, _, err, wall = self._call(argv)
            attempted += 2
            times[op] = [wall, 1]
            if code != 0:
                # the verify of a missing artifact fails with it
                failed += 2
                self.problems.append(f"set {k} {op}: exit {code}: {err.strip()[-200:]}")
                continue
            code, out, err, wall = self._call(["verify", artifact, "--faults", faults])
            times["verify"][0] += wall
            times["verify"][1] += 1
            if code != 0 or out.strip() != "ok":
                self.problems.append(f"set {k} verify {op}: exit {code}: {(out + err).strip()[-200:]}")
            with open(artifact, "rb") as fh:
                data = fh.read()
            h.update(data)
            if first:
                doc = json.loads(data)
                bad = checker.check(
                    self.N, spec["pairs"], spec["edges"], doc["vertices"], op == "cycle",
                    spec.get("source"), spec.get("target"),
                )
                self._checked(f"n={self.N} set {k} {op} artifact", bad)
                if k == 0:
                    self.labels.update(doc["trace"])
                    self.report[f"cli_{op}_artifact_bytes"] = len(data)
        self._digested(k, h.hexdigest())
        return {op: tuple(v) for op, v in times.items()}, attempted, failed


WORKLOADS = {w.name: w for w in (FuzzSmall, ScaleN7, CliN6)}
