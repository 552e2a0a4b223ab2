"""Command-line front end: construct, verify, fuzz, count, and witness.

Exit codes: 0 success, 1 verification or absence failure, 2 invalid input
(an ``--out`` that cannot be written among it), 3 strict-mode construction
failure, 4 fault budget exceeded, 5 out of memory (a ``MemoryError``
anywhere in a command, reported in one line on stderr).

Every emitted construction is self-verified against the oracle before the
process can exit 0.  Reports and artifacts are deterministic for a fixed
seed; wall-clock timings go to stderr only.

Artifacts go through the packed form (``bp_graph.pack``: 8 signed bytes a
vertex).  The builders return their objects in that form, and ``cycle``
and ``path`` hand those bytes as they are to the oracle and to
``artifact.render``, which writes the JSON from them, piece by piece,
straight to the output; the text is exactly
``json.dumps(doc, indent=2) + "\n"``.  ``--out`` is opened before any
work (``_open_out``; a file it made and nothing wrote is removed), then
written over its old bytes (``_write_in_place``); a write that fails part
way removes the file, then lets the error through; a path that cannot be
written is invalid input.  ``verify`` first offers
the file to ``artifact.read_packed``, which reads only the writer's exact
layout, into the packed form; any other file is read with ``json.load``
as it always was, so what is accepted, and every exit code and message,
is the same.

Each command imports the modules it runs and no others: ``cycle`` and
``path`` import ``constructor``, ``fuzz`` imports ``fuzz`` (and through it
``constructor``), and the commands that write or read artifacts import
``artifact``.  The exceptions that ``main`` maps to exit codes are in
``errors`` and ``SOFT_DIMENSION_LIMIT`` is in ``bp_graph``, so ``verify``,
``stats`` and ``tightness`` never load the constructor.  That matters
because a fresh interpreter without a bytecode cache compiles every module
it loads, and ``constructor`` is the largest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain

from . import bp_graph, oracle
from .bp_graph import SOFT_DIMENSION_LIMIT
from .errors import BudgetExceededError, StrictModeFailure, UsageError
from .fault_model import FaultSet, validate
from .signed_perm import all_vertices, format_vertex, int_symbols, parse_vertex

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_STRICT = 3
EXIT_BUDGET = 4
EXIT_MEMORY = 5


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
        _write_in_place(out, [text.encode()])


def _artifact_doc(kind: str, n: int, trace, extra: dict | None) -> dict:
    doc = {
        "kind": kind,
        "n": n,
        "vertices": None,
        "trace": [label for label in trace.labels() if label != "root"],
    }
    if extra:
        doc.update(extra)
    return doc


def _artifact_json(kind: str, n: int, vertices, trace, extra: dict | None = None) -> str:
    """The artifact exactly as ``json.dumps(doc, indent=2) + "\\n"`` writes it,
    as one string (the commands stream the same pieces)."""
    from . import artifact

    packed = bp_graph.pack(n, vertices)
    return b"".join(artifact.render(_artifact_doc(kind, n, trace, extra), n, packed)).decode()


def _artifact_text(vertices) -> str:
    return "\n".join(format_vertex(v) for v in vertices) + "\n"


def _emit_verified(args, kind: str, built, report, extra: dict | None = None) -> int:
    """The tail of ``cycle`` and ``path``: emit the built object once the
    oracle's ``report`` on it is ok."""
    if not report.ok:
        print(f"self-verification failed: {report}", file=sys.stderr)
        return EXIT_VERIFY
    if args.format == "text":
        _emit(_artifact_text(built.vertices), args.out)
        return EXIT_OK
    from . import artifact

    pieces = artifact.render(_artifact_doc(kind, args.n, built.trace, extra), args.n, built.packed)
    if args.out is None:
        for piece in pieces:
            sys.stdout.write(piece.decode())
    else:
        _write_in_place(args.out, pieces)
    return EXIT_OK


def _write_in_place(path: str, pieces) -> None:
    """Write ``pieces`` to the file at ``path``, over what it held.

    The file is opened without truncating it and cut to the written length
    at the end: truncating a file first frees its blocks, which on a file
    system mounted with ``discard`` took 30-90 ms for a 3 MB artifact,
    against under 1 ms to write over them.  If writing fails (say a
    ``MemoryError`` while rendering), a regular file is removed before the
    error goes on, so no part-written artifact is left behind.  A path that
    cannot be written (a directory, a missing directory, a full device) is
    invalid input: ``UsageError`` naming the path and the reason.
    """
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            regular = os.path.isfile(path)  # not a device such as /dev/null
            try:
                fh.writelines(pieces)
                if regular:
                    fh.truncate()
            except BaseException:
                fh.close()
                if regular:
                    os.remove(path)
                raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _open_out(path: str) -> bool:
    """Open ``path`` as ``_write_in_place`` will, before the command does
    its work, so that a path that cannot be written fails at once
    (``UsageError``); True when the open made the file."""
    made = not os.path.lexists(path)
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return made


def cmd_cycle(args) -> int:
    from .constructor import hamiltonian_cycle

    fs = _load_faults(args.faults, args.n)
    built = hamiltonian_cycle(args.n, fs)
    return _emit_verified(args, "cycle", built, oracle.verify_cycle(args.n, fs, built.packed))


def cmd_path(args) -> int:
    from .constructor import hamiltonian_path

    fs = _load_faults(args.faults, args.n)
    u = parse_vertex(args.source, args.n)
    v = parse_vertex(args.target, args.n)
    built = hamiltonian_path(args.n, u, v, fs)
    report = oracle.verify_path(args.n, fs, u, v, built.packed)
    return _emit_verified(args, "path", built, report, {"source": list(u), "target": list(v)})


def _load_artifact(path: str):
    """(kind, n, vertices, [source, target] or []) read with ``json.load``;
    UsageError for a malformed file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
    return kind, n, vertices, ends


def cmd_verify(args) -> int:
    from . import artifact

    kind, n, vertices, ends = artifact.read_packed(args.artifact) or _load_artifact(args.artifact)
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
    from .fuzz import run_fuzz

    if args.trials < 1:
        raise UsageError("trials must be >= 1")
    if not 3 <= args.n <= SOFT_DIMENSION_LIMIT:
        raise UsageError(f"fuzz needs 3 <= n <= {SOFT_DIMENSION_LIMIT}, got n={args.n}")
    ops = ["cycle", "path"] if args.op == "both" else [args.op]
    # a trial may draw --max-faults elements, so each operation's tolerance
    # is checked before the first trial of any campaign
    for op in ops:
        bound = args.n - 2 if op == "cycle" else args.n - 3
        if args.max_faults > bound:
            raise BudgetExceededError(f"|F|={args.max_faults} exceeds tolerance {bound}")
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

    def check(good, text):
        nonlocal ok
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'} {text}")

    cycle_witness = oracle.tightness_witness_cycle(n)
    path_witness, x, y = oracle.tightness_witness_path(n)
    check(validate(cycle_witness, bound=n - 1).ok, f"cycle witness valid with |F| = {cycle_witness.size}")
    root = tuple(range(1, n + 1))
    deg = oracle.residual_degree(n, cycle_witness, root)
    check(deg == 1, f"cycle witness leaves a degree-1 vertex (degree {deg})")
    check(validate(path_witness, bound=n - 2).ok, f"path witness valid with |F| = {path_witness.size}")
    deg = oracle.residual_degree(n, path_witness, root)
    check(deg == 2, "path witness pins the pivot to its two spared neighbors")
    if n <= oracle.SEARCH_LIMIT:
        absent = oracle.SearchStatus.PROVEN_ABSENT
        res = oracle.exhaustive_cycle_search(n, cycle_witness, time_budget=args.time_budget)
        check(res.status is absent, f"exhaustive search: no cycle ({res.status.value})")
        res = oracle.exhaustive_path_search(n, path_witness, x, y, time_budget=args.time_budget)
        check(res.status is absent, f"exhaustive search: no path ({res.status.value})")

    if args.out:
        doc = {
            "cycle_witness": cycle_witness.to_json_dict(),
            "path_witness": path_witness.to_json_dict(),
            "path_endpoints": [list(x), list(y)],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
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
    out = getattr(args, "out", None)
    made = False
    try:
        made = out is not None and _open_out(out)
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
    except MemoryError:
        print("out of memory: the command needs more memory than this process can have", file=sys.stderr)
        return EXIT_MEMORY
    finally:
        # every output has a byte at least, so an empty file that the open
        # made was never written: the command failed first
        if made and os.path.isfile(out) and not os.path.getsize(out):
            os.remove(out)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
