"""Command-line front end: construct, verify, fuzz, count, and witness.

Exit codes: 0 success, 1 verification or absence failure, 2 invalid input,
3 strict-mode construction failure, 4 fault budget exceeded.

Every emitted construction is self-verified against the oracle before the
process can exit 0.  Reports and artifacts are deterministic for a fixed
seed; wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

from . import bp_graph, oracle
from .constructor import (
    SOFT_DIMENSION_LIMIT,
    BudgetExceededError,
    StrictModeFailure,
    UsageError,
    hamiltonian_cycle,
    hamiltonian_path,
)
from .fault_model import FaultSet, validate
from .fuzz import run_fuzz
from .signed_perm import all_vertices, format_vertex, int_symbols, parse_vertex

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_STRICT = 3
EXIT_BUDGET = 4


def _load_faults(path: str | None, n: int) -> FaultSet:
    """The fault set in the file at ``path`` (empty when there is none),
    checked against n.  Its invariants are left to ``validate``: the
    builders run it, and ``cmd_verify`` runs it itself."""
    if path is None:
        return FaultSet.build(n)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        fs = FaultSet.from_json_dict(data)
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"cannot read fault file {path}: {exc}") from exc
    if fs.n != n:
        raise UsageError(f"fault file is for n={fs.n}, requested n={n}")
    return fs


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _artifact_json(kind: str, n: int, vertices, trace, extra: dict | None = None) -> str:
    """The artifact exactly as ``json.dumps(doc, indent=2) + "\\n"`` writes it.

    The vertex block, one signed integer per line, is most of the bytes, so
    it is formatted directly from one template for a length-n vertex (a
    built object is never empty); the other members go through
    ``json.dumps`` and are indented one level, as the encoder nests them.
    """
    doc = {
        "kind": kind,
        "n": n,
        "vertices": None,
        "trace": [label for label in trace.labels() if label != "root"],
    }
    if extra:
        doc.update(extra)
    template = "    [\n" + ",\n".join(["      %d"] * n) + "\n    ]"
    block = "[\n" + ",\n".join(map(template.__mod__, vertices)) + "\n  ]"
    members = [
        f"  {json.dumps(key)}: "
        + (block if key == "vertices" else json.dumps(value, indent=2).replace("\n", "\n  "))
        for key, value in doc.items()
    ]
    return "{\n" + ",\n".join(members) + "\n}\n"


def _artifact_text(vertices) -> str:
    return "\n".join(format_vertex(v) for v in vertices) + "\n"


def cmd_cycle(args) -> int:
    fs = _load_faults(args.faults, args.n)
    built = hamiltonian_cycle(args.n, fs)
    report = oracle.verify_cycle(args.n, fs, built)
    if not report.ok:
        print(f"self-verification failed: {report}", file=sys.stderr)
        return EXIT_VERIFY
    if args.format == "json":
        _emit(_artifact_json("cycle", args.n, built.vertices, built.trace), args.out)
    else:
        _emit(_artifact_text(built.vertices), args.out)
    return EXIT_OK


def cmd_path(args) -> int:
    fs = _load_faults(args.faults, args.n)
    u = parse_vertex(args.source, args.n)
    v = parse_vertex(args.target, args.n)
    built = hamiltonian_path(args.n, u, v, fs)
    report = oracle.verify_path(args.n, fs, u, v, built)
    if not report.ok:
        print(f"self-verification failed: {report}", file=sys.stderr)
        return EXIT_VERIFY
    extra = {"source": list(u), "target": list(v)}
    if args.format == "json":
        _emit(_artifact_json("path", args.n, built.vertices, built.trace, extra), args.out)
    else:
        _emit(_artifact_text(built.vertices), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.artifact, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        kind = doc["kind"]
        if kind not in ("cycle", "path"):
            raise ValueError(f"unknown kind {kind!r}")
        n = doc["n"]
        vertices = doc["vertices"]
        ends = [doc["source"], doc["target"]] if kind == "path" else []
        if type(n) is not int or not int_symbols(chain(vertices, ends)):
            raise ValueError("n and the vertex symbols must be integers")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed artifact file: {exc}") from exc
    if not 1 <= n <= SOFT_DIMENSION_LIMIT:
        raise UsageError(f"artifact dimension n={n} outside 1..{SOFT_DIMENSION_LIMIT}")
    fs = _load_faults(args.faults, n)
    violations = validate(fs).violations  # the oracle takes a fault set as given
    if violations:
        raise UsageError("invalid fault set: " + "; ".join(map(str, violations)))
    if kind == "cycle":
        report = oracle.verify_cycle(n, fs, vertices)
    else:
        u, v = map(tuple, ends)
        report = oracle.verify_path(n, fs, u, v, vertices)
    if report.ok:
        print("ok")
        return EXIT_OK
    for kind_, pos, detail in report.violations:
        print(f"{kind_} {pos} {detail}")
    return EXIT_VERIFY


def cmd_fuzz(args) -> int:
    if args.trials < 1:
        raise UsageError("trials must be >= 1")
    ops = ["cycle", "path"] if args.op == "both" else [args.op]
    all_ok = True
    chunks = []
    wall = 0.0
    for op in ops:
        rep = run_fuzz(args.n, op, args.trials, args.max_faults, seed=args.seed)
        chunks.append(rep.to_json_dict())
        wall += rep.wall_time
        all_ok = all_ok and rep.ok
    payload = json.dumps(chunks[0] if len(chunks) == 1 else chunks, indent=2) + "\n"
    _emit(payload, args.out)
    print(f"fuzz wall time: {wall:.2f}s", file=sys.stderr)
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_stats(args) -> int:
    n = args.n
    if not 1 <= n <= 5:
        raise UsageError(f"stats enumerates the full graph; needs 1 <= n <= 5, got n={n}")
    vertices = all_vertices(n)
    vcount = len(vertices)
    ecount = sum(len(bp_graph.neighbors(v)) for v in vertices) // 2
    ok = True
    lines = []

    def check(name, got, want):
        nonlocal ok
        good = got == want
        ok = ok and good
        lines.append(f"{'PASS' if good else 'FAIL'} {name}: {got} (expected {want})")

    check("|V|", vcount, bp_graph.vertex_count(n))
    check("|E|", ecount, bp_graph.edge_count(n))
    indices = bp_graph.subgraph_indices(n)
    lines.append("cross-edge matrix |E(i,j)|:")
    header = "      " + " ".join(f"{j:>5}" for j in indices)
    lines.append(header)
    matrix_ok = True
    for i in indices:
        row = []
        for j in indices:
            if i == j:
                row.append("    -")
                continue
            count = len(bp_graph.cross_edges(n, i, j))
            matrix_ok = matrix_ok and count == (0 if i == -j else bp_graph.cross_edge_count(n))
            row.append(f"{count:>5}")
        lines.append(f"{i:>5} " + " ".join(row))
    check("|E(i,j)| formula", matrix_ok, True)
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_tightness(args) -> int:
    n = args.n
    # the witnesses take O(n^2) memory, so n is bounded as the builders' is
    if not 3 <= n <= SOFT_DIMENSION_LIMIT:
        raise UsageError(f"tightness needs 3 <= n <= {SOFT_DIMENSION_LIMIT}, got n={n}")
    ok = True
    cycle_witness = oracle.tightness_witness_cycle(n)
    path_witness, x, y = oracle.tightness_witness_path(n)

    report = validate(cycle_witness, bound=n - 1)
    print(f"{'PASS' if report.ok else 'FAIL'} cycle witness valid with |F| = {cycle_witness.size}")
    ok = ok and report.ok

    root = tuple(range(1, n + 1))
    deg = oracle.residual_degree(n, cycle_witness, root)
    good = deg == 1
    print(f"{'PASS' if good else 'FAIL'} cycle witness leaves a degree-1 vertex (degree {deg})")
    ok = ok and good

    report = validate(path_witness, bound=n - 2)
    print(f"{'PASS' if report.ok else 'FAIL'} path witness valid with |F| = {path_witness.size}")
    ok = ok and report.ok

    deg = oracle.residual_degree(n, path_witness, root)
    good = deg == 2
    print(f"{'PASS' if good else 'FAIL'} path witness pins the pivot to its two spared neighbors")
    ok = ok and good

    if n <= oracle.SEARCH_LIMIT:
        res = oracle.exhaustive_cycle_search(n, cycle_witness, time_budget=args.time_budget)
        good = res.status is oracle.SearchStatus.PROVEN_ABSENT
        print(f"{'PASS' if good else 'FAIL'} exhaustive search: no cycle ({res.status.value})")
        ok = ok and good
        res = oracle.exhaustive_path_search(n, path_witness, x, y, time_budget=args.time_budget)
        good = res.status is oracle.SearchStatus.PROVEN_ABSENT
        print(f"{'PASS' if good else 'FAIL'} exhaustive search: no path ({res.status.value})")
        ok = ok and good

    if args.out:
        doc = {
            "cycle_witness": cycle_witness.to_json_dict(),
            "path_witness": path_witness.to_json_dict(),
            "path_endpoints": [list(x), list(y)],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burntpancake",
        description="Hamiltonian cycles and paths in burnt pancake graphs under hybrid faults",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--faults", type=str, default=None, help="fault file (JSON)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("cycle", help="construct a fault-avoiding Hamiltonian cycle")
    common(p)
    p.set_defaults(func=cmd_cycle)

    p = sub.add_parser("path", help="construct a fault-avoiding Hamiltonian path")
    common(p)
    p.add_argument("--source", type=str, required=True, help='vertex, e.g. "-2,1,3"')
    p.add_argument("--target", type=str, required=True)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("verify", help="verify an emitted artifact file")
    p.add_argument("artifact", type=str)
    p.add_argument("--faults", type=str, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fuzz", help="randomized construction/verification trials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--max-faults", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--op", choices=("cycle", "path", "both"), default="both")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("stats", help="enumerated counts against closed forms")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("tightness", help="budget tightness witnesses and checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--time-budget", type=float, default=None)
    p.set_defaults(func=cmd_tightness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"fault budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except StrictModeFailure as exc:
        print(f"strict-mode failure: {exc}", file=sys.stderr)
        return EXIT_STRICT
    except (UsageError, bp_graph.CapabilityError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
