"""Benchmark of the burntpancake constructor, oracle and command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fuzz-small --seed 0 --seconds 45 --trace 0

``--workload all`` runs every workload, each in its own fresh process.  With
``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics; with ``--trace 1`` the run wraps the package's layers
(see ``layers.py``), runs one untraced and one traced round, writes the
spans to ``.bench_out/`` and reports the per-layer metrics instead.  Lines
before the result give the workload's own figures, its output digest and
its case-label histogram.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7

sys.path.insert(0, HERE)

import checker  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "cycle_s": "s", "path_s": "s", "verify_s": "s"}


def import_package() -> None:
    sys.path.insert(0, SRC)
    import burntpancake
    from burntpancake import cli, fuzz  # noqa: F401  (loaded before the traced run wraps them)

    where = os.path.dirname(os.path.abspath(burntpancake.__file__))
    if where != os.path.join(SRC, "burntpancake"):
        raise RuntimeError(f"imported burntpancake from {where}, not from {SRC}")


def make_workload(name: str, seed: int, tag: str) -> Workload:
    return WORKLOADS[name](seed, os.path.join(OUT, f"{name}-{seed}-{tag}"))


def setup_probe(name: str, seed: int) -> float:
    """Import the package and make the workload's inputs; seconds taken."""
    t0 = time.perf_counter()
    import_package()
    w = make_workload(name, seed, f"probe{os.getpid()}")
    elapsed = time.perf_counter() - t0
    shutil.rmtree(w.workdir, ignore_errors=True)
    return elapsed


def measure_setup(name: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def peak_rss_mb(w: Workload) -> float:
    """Peak RSS of the process doing the work: this one, or its largest child."""
    who = resource.RUSAGE_SELF if w.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def measured_rounds(w: Workload, seconds: float):
    """Whole rounds until ``seconds`` have passed; at least one."""
    rounds: list[dict[str, tuple[float, int]]] = []
    attempted = failed = 0
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        got, a, f = w.run_round(len(rounds))
        rounds.append(got)
        attempted += a
        failed += f
    return rounds, attempted, failed


def per_op(w: Workload, rounds: list[dict[str, tuple[float, int]]], kind: str) -> float:
    """Seconds per operation of one kind over the run's rounds.

    Rounds of many short trials are pooled; rounds of a few long calls give
    their median.
    """
    done = [r[kind] for r in rounds if r[kind][1]]
    if not done:  # every operation of this kind failed
        return 0.0
    if w.pooled:
        return sum(s for s, _ in done) / sum(n for _, n in done)
    return statistics.median(s / n for s, n in done)


def run_untraced(w: Workload, seconds: float):
    setup_s = measure_setup(w.name, w.seed)
    rounds, attempted, failed = measured_rounds(w, seconds)
    values = {f"{kind}_s": per_op(w, rounds, kind) for kind in ("cycle", "path", "verify")}
    for figure, (kind, ops) in w.FIGURES.items():
        w.report[figure] = values[f"{kind}_s"] * ops
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = peak_rss_mb(w)
    print(f"rounds {len(rounds)}")
    return {k: (values[k], E2E_UNITS[k]) for k in E2E_UNITS}, attempted, failed


def run_traced(w: Workload):
    """One untraced round, then the same round traced; per-layer metrics."""
    w.in_process = True  # the wrappers see only calls made in this process
    times, attempted, failed = w.run_round(0)
    untraced = sum(s for s, _ in times.values())
    tr = Tracer()
    for where in layers.instrument(tr):
        print(f"layer {where} not found in the package; its metrics read 0")
    try:
        times, a, f = w.run_round(0)
    finally:
        tr.uninstall()
    traced = sum(s for s, _ in times.values())
    attempted += a
    failed += f
    values, report_only = layers.metrics(tr, traced / untraced - 1.0)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{w.name}-seed{w.seed}.json")
    tr.dump(path)
    print(f"trace spans {len(tr.spans)} written to {os.path.relpath(path, ROOT)}")
    print(f"trace untraced_round_s {untraced:.4f} traced_round_s {traced:.4f} overhead_s {traced - untraced:.4f}")
    for k, v in report_only.items():
        print(f"layer {k} {v:.6f} {layers.REPORT_ONLY[k]}")
    return {k: (values[k], layers.UNITS[k]) for k in layers.UNITS}, attempted, failed


def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "burntpancake", "__init__.py")):
        print(f"no package source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(f"{setup_probe(args.workload, args.seed):.6f}")
        return 0
    if args.workload == "all":
        return run_all(args)

    problems = checker.self_test()
    import_package()
    w = make_workload(args.workload, args.seed, f"run{os.getpid()}")
    try:
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        if args.trace:
            metrics, attempted, failed = run_traced(w)
        else:
            metrics, attempted, failed = run_untraced(w, args.seconds)
        w.finish()
    finally:
        shutil.rmtree(w.workdir, ignore_errors=True)
    problems += w.problems
    for k, v in w.report.items():
        print(f"figure {k} {v:.4f}" if isinstance(v, float) else f"figure {k} {v}")
    print(f"digest {args.workload} seed {args.seed} {w.digest}")
    print("labels " + json.dumps(dict(sorted(w.labels.items()))))
    for line in problems:
        print(f"PROBLEM {line}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
