import json

import pytest

from burntpancake.cli import _artifact_json, main
from burntpancake.constructor import hamiltonian_cycle, hamiltonian_path
from burntpancake.fault_model import FaultSet
from burntpancake.signed_perm import generator, identity


@pytest.fixture
def pair_file_n3(tmp_path):
    fs = FaultSet.build(3, matching_pairs=[[identity(3), generator(3, 1)]])
    path = tmp_path / "faults3.json"
    path.write_text(fs.to_json())
    return str(path)


def test_cycle_command_emits_verified_artifact(pair_file_n3, tmp_path, capsys):
    out = tmp_path / "cycle.json"
    rc = main(["cycle", "--n", "3", "--faults", pair_file_n3, "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "cycle" and doc["n"] == 3
    assert len(doc["vertices"]) == 46
    assert "L13/1" in doc["trace"]


def test_cycle_text_format(pair_file_n3, capsys):
    rc = main(["cycle", "--n", "3", "--faults", pair_file_n3, "--format", "text"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 46
    assert lines[0] == "-2,-1,3"


def test_verify_round_trip(pair_file_n3, tmp_path, capsys):
    out = tmp_path / "cycle.json"
    assert main(["cycle", "--n", "3", "--faults", pair_file_n3, "--out", str(out)]) == 0
    rc = main(["verify", str(out), "--faults", pair_file_n3])
    assert rc == 0


def test_verify_detects_corruption(pair_file_n3, tmp_path, capsys):
    out = tmp_path / "cycle.json"
    main(["cycle", "--n", "3", "--faults", pair_file_n3, "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["vertices"][3] = doc["vertices"][4]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["verify", str(bad), "--faults", pair_file_n3])
    assert rc == 1
    output = capsys.readouterr().out
    assert "RepeatedVertex" in output or "MissingVertex" in output


def test_verify_malformed_file(tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2


def test_fixture_artifact_verifies(tmp_path):
    from burntpancake.bp3_fixtures import PAIR_CYCLES

    fs = FaultSet.build(3, matching_pairs=[[identity(3), generator(3, 2)]])
    faults = tmp_path / "f.json"
    faults.write_text(fs.to_json())
    artifact = tmp_path / "a.json"
    artifact.write_text(
        json.dumps(
            {"kind": "cycle", "n": 3, "vertices": [list(v) for v in PAIR_CYCLES[2]], "trace": []}
        )
    )
    assert main(["verify", str(artifact), "--faults", str(faults)]) == 0


def test_budget_exit_code(tmp_path):
    fs = FaultSet.build(
        3,
        matching_pairs=[[identity(3), generator(3, 1)]],
        faulty_edges=[[(2, 1, 3), (-1, -2, 3)]],
    )
    faults = tmp_path / "f.json"
    faults.write_text(fs.to_json())
    assert main(["cycle", "--n", "3", "--faults", str(faults)]) == 4
    # path budget at n = 3 is zero
    solo = tmp_path / "solo.json"
    solo.write_text(FaultSet.build(3, faulty_edges=[[(2, 1, 3), (-1, -2, 3)]]).to_json())
    rc = main(["path", "--n", "3", "--faults", str(solo), "--source", "1,2,3", "--target=-1,2,3"])
    assert rc == 4


def test_invalid_fault_file_exit_code(tmp_path):
    faults = tmp_path / "f.json"
    faults.write_text(json.dumps({"n": 3, "matching_pairs": [[[1, 2, 3], [3, 2, 1]]]}))
    assert main(["cycle", "--n", "3", "--faults", str(faults)]) == 2
    ends = ["--source", "1,2,3", "--target=-1,2,3"]
    assert main(["path", "--n", "3", "--faults", str(faults)] + ends) == 2
    # an artifact that visits the pair's vertices: verify must reject the
    # fault file rather than report a verification failure
    artifact = tmp_path / "path.json"
    assert main(["path", "--n", "3", "--out", str(artifact)] + ends) == 0
    assert main(["verify", str(artifact), "--faults", str(faults)]) == 2


def test_endpoint_inside_removed_set(tmp_path):
    fs = FaultSet.build(4, matching_pairs=[[identity(4), generator(4, 1)]])
    faults = tmp_path / "f.json"
    faults.write_text(fs.to_json())
    rc = main(
        ["path", "--n", "4", "--faults", str(faults), "--source", "1,2,3,4", "--target", "2,1,3,4"]
    )
    assert rc == 2


def test_path_round_trip(tmp_path):
    out = tmp_path / "path.json"
    rc = main(["path", "--n", "4", "--source", "1,2,3,4", "--target=-1,2,3,4", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "path" and doc["source"] == [1, 2, 3, 4]
    assert main(["verify", str(out)]) == 0


def test_fuzz_exit_codes_and_determinism(tmp_path, capsys):
    assert main(["fuzz", "--n", "3", "--trials", "0", "--max-faults", "1"]) == 2
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["fuzz", "--n", "4", "--trials", "8", "--max-faults", "2", "--seed", "9", "--op", "cycle"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["successes"] == doc["trials"] == 8
    assert doc["successes"] + doc["verification_failures"] + doc["strict_failures"] == doc["trials"]


def test_fuzz_checks_each_budget_before_any_trial(monkeypatch, capsys):
    # --op both at the cycle budget is past the path budget: exit 4 with one
    # line on stderr before the cycle campaign runs a trial
    import burntpancake.fuzz as fuzz

    campaigns = []
    monkeypatch.setattr(fuzz, "run_fuzz", lambda *args, **kwargs: campaigns.append(args))
    assert main(["fuzz", "--n", "4", "--trials", "1000", "--max-faults", "2", "--op", "both"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and campaigns == []
    assert err == "fault budget exceeded: |F|=2 exceeds tolerance 1\n"
    # a dimension the builders refuse is invalid input, not a budget overrun
    assert main(["fuzz", "--n", "2", "--trials", "1", "--max-faults", "1"]) == 2
    assert campaigns == []


def test_fuzz_report_keys(capsys):
    assert main(["fuzz", "--n", "4", "--trials", "3", "--max-faults", "1", "--op", "cycle"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == [
        "n",
        "op",
        "seed",
        "max_faults",
        "trials",
        "successes",
        "verification_failures",
        "strict_failures",
        "case_histogram",
        "failures",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["cycle", "--n", "4"],
        ["path", "--n", "4", "--source", "1,2,3,4", "--target=-1,2,3,4"],
        ["fuzz", "--n", "4", "--trials", "1", "--max-faults", "1"],
    ],
    ids=["cycle", "path", "fuzz"],
)
def test_mode_flag_rejected(argv):
    # construction has one mode; argparse rejects the removed flag as invalid input
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--mode", "strict"])
    assert exc.value.code == 2


def test_stats_n3(capsys):
    assert main(["stats", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS |V|: 48" in out
    assert "PASS |E|: 72" in out
    assert "PASS |E(i,j)| formula: True (expected True)" in out


def test_stats_n1(capsys):
    assert main(["stats", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS |V|: 2" in out
    assert "PASS |E|: 1" in out


@pytest.mark.parametrize("n", ["0", "-1"])
def test_stats_rejects_n_below_one(n, capsys):
    assert main(["stats", f"--n={n}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")
    assert "1 <= n <= 5" in captured.err


def test_tightness_n3(tmp_path, capsys):
    out = tmp_path / "witness.json"
    assert main(["tightness", "--n", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "PASS cycle witness valid with |F| = 2\n"
        "PASS cycle witness leaves a degree-1 vertex (degree 1)\n"
        "PASS path witness valid with |F| = 1\n"
        "PASS path witness pins the pivot to its two spared neighbors\n"
        "PASS exhaustive search: no cycle (proven-absent)\n"
        "PASS exhaustive search: no path (proven-absent)\n"
    )
    doc = json.loads(out.read_text())
    assert len(doc["cycle_witness"]["faulty_edges"]) == 2
    assert len(doc["path_witness"]["faulty_edges"]) == 1


def test_tightness_n4(capsys):
    assert main(["tightness", "--n", "4"]) == 0
    text = capsys.readouterr().out
    assert "degree-1" in text and "FAIL" not in text
    assert text.count("PASS") == 6
    assert "no cycle (proven-absent)" in text and "no path (proven-absent)" in text


@pytest.mark.parametrize("n", ["2", "9", "1000000000"])
def test_tightness_rejects_n_outside_limit(n, monkeypatch, capsys):
    import burntpancake.oracle as oracle

    def boom(n):
        raise AssertionError("no witness may be built for an out-of-range n")

    monkeypatch.setattr(oracle, "tightness_witness_cycle", boom)
    assert main(["tightness", "--n", n]) == 2
    assert capsys.readouterr().err.startswith("invalid input: ")


def test_strict_failure_exit_code(tmp_path, monkeypatch):
    import burntpancake.constructor as constructor
    from burntpancake.constructor import StrictModeFailure

    def boom(*args, **kwargs):
        raise StrictModeFailure("forced")

    monkeypatch.setattr(constructor, "hamiltonian_cycle", boom)
    assert main(["cycle", "--n", "3"]) == 3


def test_cycle_n5_mixed_faults(tmp_path):
    from burntpancake.fuzz import sample_fault_set, trial_rng

    rng = trial_rng(7, 0)
    fs = sample_fault_set(5, 3, rng)
    while fs.size != 3 or not fs.matching_pairs:
        fs = sample_fault_set(5, 3, rng)
    faults = tmp_path / "f5.json"
    faults.write_text(fs.to_json())
    out = tmp_path / "c5.json"
    assert main(["cycle", "--n", "5", "--faults", str(faults), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["vertices"]) == 3840 - 2 * len(fs.matching_pairs)
    assert main(["verify", str(out), "--faults", str(faults)]) == 0


def test_stats_n4(capsys):
    assert main(["stats", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS |V|: 384" in out
    assert "PASS |E|: 768" in out
    assert "PASS |E(i,j)| formula: True (expected True)" in out
    assert out.count("    8") > 0  # off-diagonal non-complementary entries


def test_verify_rejects_dimension_above_limit(tmp_path, monkeypatch):
    import burntpancake.oracle as oracle

    def boom(*args, **kwargs):
        raise AssertionError("the oracle must not run on an out-of-range n")

    monkeypatch.setattr(oracle, "verify_cycle", boom)
    artifact = tmp_path / "big.json"
    artifact.write_text(json.dumps({"kind": "cycle", "n": 12, "vertices": [list(range(1, 13))]}))
    assert main(["verify", str(artifact)]) == 2


def test_verify_rejects_non_integer_vertex_entry(tmp_path):
    artifact = tmp_path / "a.json"
    for entry in ("x", None, [1], 2.5, 2.0, float("inf"), True):
        artifact.write_text(json.dumps({"kind": "cycle", "n": 3, "vertices": [[1, 2, 3], [1, entry, 3]]}))
        assert main(["verify", str(artifact)]) == 2
    # a path's endpoints and the dimension are read the same way
    doc = {"kind": "path", "n": 3, "vertices": [[1, 2, 3]], "source": [1, 2, 3], "target": [True, 2, 3]}
    artifact.write_text(json.dumps(doc))
    assert main(["verify", str(artifact)]) == 2
    artifact.write_text(json.dumps({"kind": "cycle", "n": float("inf"), "vertices": [[1, 2, 3]]}))
    assert main(["verify", str(artifact)]) == 2


@pytest.mark.parametrize("entry", [-1.9, float("inf"), True])
def test_fault_file_rejects_non_integer_number(entry, tmp_path):
    faults = tmp_path / "f.json"
    faults.write_text(json.dumps({"n": 3, "matching_pairs": [[[entry, 2, 3], [-1, 2, 3]]]}))
    assert main(["cycle", "--n", "3", "--faults", str(faults)]) == 2
    faults.write_text(json.dumps({"n": float("inf")}))
    assert main(["cycle", "--n", "3", "--faults", str(faults)]) == 2


def test_artifact_json_matches_reference_encoder():
    fs = FaultSet.build(4, matching_pairs=[[identity(4), generator(4, 2)]])
    built = hamiltonian_cycle(4, fs)
    u, v = (2, 1, 3, 4), (-4, 1, -2, 3)
    path = hamiltonian_path(4, u, v, FaultSet.build(4))
    for kind, obj, extra in (("cycle", built, None), ("path", path, {"source": list(u), "target": list(v)})):
        doc = {
            "kind": kind,
            "n": 4,
            "vertices": [list(x) for x in obj.vertices],
            "trace": [label for label in obj.trace.labels() if label != "root"],
            **(extra or {}),
        }
        assert _artifact_json(kind, 4, obj.vertices, obj.trace, extra) == json.dumps(doc, indent=2) + "\n"


def test_out_of_memory_exit_code(tmp_path, monkeypatch, capsys):
    import burntpancake.cli as cli

    def boom(*args, **kwargs):
        raise MemoryError

    artifact = tmp_path / "c.json"
    artifact.write_text(json.dumps({"kind": "cycle", "n": 3, "vertices": [[1, 2, 3]]}))
    monkeypatch.setattr(cli.json, "load", boom)
    assert main(["verify", str(artifact)]) == cli.EXIT_MEMORY == 5
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1


@pytest.mark.parametrize("existing", [False, True], ids=["new file", "over an artifact"])
def test_failed_write_leaves_no_artifact(existing, tmp_path, monkeypatch, capsys):
    # a MemoryError after two pieces of an n=5 artifact: exit 5, and the
    # part-written file is gone, whether or not a file was there before
    from burntpancake import artifact

    render = artifact.render

    def two_pieces_then_boom(*args):
        pieces = render(*args)
        yield next(pieces)
        yield next(pieces)
        raise MemoryError

    out = tmp_path / "c5.json"
    if existing:
        assert main(["cycle", "--n", "5", "--out", str(out)]) == 0
    monkeypatch.setattr(artifact, "render", two_pieces_then_boom)
    assert main(["cycle", "--n", "5", "--out", str(out)]) == 5
    assert not out.exists()
    assert capsys.readouterr().err.startswith("out of memory: ")


UNWRITABLE_OUT = {
    "cycle json": ["cycle", "--n", "3"],
    "cycle text": ["cycle", "--n", "3", "--format", "text"],
    "path json": ["path", "--n", "3", "--source", "1,2,3", "--target=-1,2,3"],
    "path text": ["path", "--n", "3", "--source", "1,2,3", "--target=-1,2,3", "--format", "text"],
    "fuzz": ["fuzz", "--n", "3", "--trials", "2", "--max-faults", "0", "--op", "cycle"],
    "tightness": ["tightness", "--n", "3"],
}


@pytest.mark.parametrize("argv", UNWRITABLE_OUT.values(), ids=UNWRITABLE_OUT.keys())
def test_unwritable_out_is_invalid_input(argv, tmp_path, capsys):
    # a directory, or a file in a missing directory, as --out: exit 2 with
    # one line naming the path, not a traceback and exit 1, and before the
    # command prints anything (tightness prints its checks as it goes)
    for out, reason in ((tmp_path, "Is a directory"), (tmp_path / "no" / "a.json", "No such file or directory")):
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"invalid input: cannot write {out}: {reason}\n")
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["cycle", "fuzz"])
def test_failing_command_leaves_out_as_it_was(command, tmp_path, capsys):
    # --out is opened before the work; a command that then fails (here a
    # fault set over budget, exit 4) removes the file the open created and
    # leaves an existing file's bytes untouched
    fs = FaultSet.build(3, matching_pairs=[[identity(3), generator(3, 1)]], faulty_edges=[[(2, 1, 3), (-1, -2, 3)]])
    faults = tmp_path / "f.json"
    faults.write_text(fs.to_json())
    argv = {
        "cycle": ["cycle", "--n", "3", "--faults", str(faults)],
        "fuzz": ["fuzz", "--n", "4", "--trials", "1", "--max-faults", "3"],
    }[command]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 4
    assert not out.exists()
    out.write_bytes(b"kept")
    assert main([*argv, "--out", str(out)]) == 4
    assert out.read_bytes() == b"kept"
    assert capsys.readouterr().out == ""


def test_artifact_written_over_a_longer_file(tmp_path):
    # the artifact is written over what the file held and cut to its length
    fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
    assert main(["cycle", "--n", "4", "--out", str(fresh)]) == 0
    reused.write_bytes(b"x" * (2 * fresh.stat().st_size))
    assert main(["cycle", "--n", "4", "--out", str(reused)]) == 0
    assert reused.read_bytes() == fresh.read_bytes()
    assert main(["verify", str(reused)]) == 0


class _Trace:
    def __init__(self, labels):
        self._labels = labels

    def labels(self):
        return ["root", *self._labels]


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 4096])
def test_renderer_matches_reference_encoder_for_every_symbol(monkeypatch, chunk):
    """The vertex block rendered from packed bytes is the encoder's, for
    n = 1..8 with each symbol +-1..+-8 at each position, for cycle and path
    documents, with the vertex count below, at and past chunk boundaries."""
    from burntpancake import artifact
    from burntpancake.bp_graph import pack

    monkeypatch.setattr(artifact, "RENDER_CHUNK", chunk)
    symbols = [*range(1, 9), *range(-1, -9, -1)]
    trace = _Trace(["L13/1", "EXT/é \"quoted\"\n"])
    for n in range(1, 9):
        for count in sorted({1, 2, chunk, chunk + 1, 2 * chunk + 1, 16}):
            vertices = [tuple(symbols[(i + 5 * j) % 16] for j in range(n)) for i in range(count)]
            ends = {"source": list(vertices[0]), "target": list(vertices[-1])}
            for kind, extra in (("cycle", None), ("path", ends)):
                doc = {"kind": kind, "n": n, "vertices": [list(v) for v in vertices], "trace": trace.labels()[1:]}
                doc.update(extra or {})
                want = json.dumps(doc, indent=2) + "\n"
                assert _artifact_json(kind, n, vertices, trace, extra) == want
                pieces = list(artifact.render({**doc, "vertices": None}, n, pack(n, vertices)))
                assert b"".join(pieces).decode() == want
                assert len(pieces) == 2 + -(-count // chunk)


def test_renderer_refuses_symbols_it_cannot_write():
    from burntpancake import artifact
    from burntpancake.bp_graph import pack

    for bad in (10, -10, 127, -128):
        with pytest.raises(ValueError):
            list(artifact.vertex_block(3, pack(3, [(1, 2, 3), (1, bad, 3)])))


def _edits(text: str, n: int) -> dict:
    """Edited copies of an artifact as the writer renders it."""
    lines = text.split("\n")
    first = lines.index("    [")  # the first vertex record
    record = n + 2
    sym = first + 1  # the first symbol line
    doc = json.loads(text)

    def set_line(i, value):
        return "\n".join(lines[:i] + [value] + lines[i + 1 :])

    recs = [lines[first + k * record : first + (k + 1) * record] for k in range(3)]
    out = {
        "valid": text,
        "sign flipped": text.replace("\n      1,", "\n      -1,", 1).replace("\n      -2,", "\n      2,", 1),
        "digit 0": set_line(sym + 1, "      0,"),
        "digit 9": set_line(sym + 1, "      9,"),
        "symbol line dropped": "\n".join(lines[:sym] + lines[sym + 1 :]),
        "symbol line duplicated": "\n".join(lines[: sym + 1] + lines[sym:]),
        "record dropped": "\n".join(lines[:first] + lines[first + record :]),
        "record duplicated": "\n".join(lines[: first + record] + recs[0][:-1] + ["    ],"] + lines[first + record :]),
        "records swapped": "\n".join(lines[:first] + recs[1] + recs[0] + lines[first + 2 * record :]),
        "records merged": text.replace("\n    ],\n    [\n", "\n     ,\n     \n", 1),  # same length and symbols
        "float symbol": set_line(sym, "      1.0" + ("," if n > 1 else "")),
        "true symbol": set_line(sym, "      true" + ("," if n > 1 else "")),
        "minus zero symbol": set_line(sym, "      -0" + ("," if n > 1 else "")),
        "two-digit symbol": set_line(sym, "      12" + ("," if n > 1 else "")),
        "CRLF": text.replace("\n", "\r\n"),
        "trailing spaces": text.replace(",\n", ", \n"),
        "trailing space at end": text[:-1] + " \n",
        "BOM": "﻿" + text,
        "no final newline": text[:-1],
        "members reordered": json.dumps({"n": doc["n"], **doc}, indent=2) + "\n",
        "extra member": json.dumps({**doc, "note": 1}, indent=2) + "\n",
        "compact": json.dumps(doc),
        "indent 4": json.dumps(doc, indent=4) + "\n",
        "kind edited": text.replace(f'"{doc["kind"]}"', '"path"' if doc["kind"] == "cycle" else '"cycle"', 1),
        "kind unknown": text.replace(f'"{doc["kind"]}"', '"tour"', 1),
        "n minus one": text.replace(f'"n": {n},', f'"n": {n - 1},', 1),
        "n plus one": text.replace(f'"n": {n},', f'"n": {n + 1},', 1),
        "n as 9": text.replace(f'"n": {n},', '"n": 9,', 1),
        "n as float": text.replace(f'"n": {n},', f'"n": {n}.0,', 1),
        "trace edited": text.replace('"trace": [\n', '"trace": [\n    "X",\n', 1),
        "trace not a list": text[: text.index('"trace": ') + 9] + "7" + text[text.index("\n  ]", text.index('"trace": ')) + 4 :],
        "truncated": text[: len(text) // 2],
        "truncated in the tail": text[:-3],
        "empty": "",
    }
    if doc["kind"] == "path":
        src, tgt = doc["source"], doc["target"]
        swapped = json.dumps({**doc, "source": tgt, "target": src}, indent=2) + "\n"
        out["source and target swapped"] = swapped
        out["source edited"] = json.dumps({**doc, "source": [-x for x in src]}, indent=2) + "\n"
        out["target short"] = json.dumps({**doc, "target": tgt[:-1]}, indent=2) + "\n"
        out["target of floats"] = json.dumps({**doc, "target": [float(x) for x in tgt]}, indent=2) + "\n"
        out["target of bools"] = json.dumps({**doc, "target": [True] * n}, indent=2) + "\n"
        out["target missing"] = json.dumps({k: v for k, v in doc.items() if k != "target"}, indent=2) + "\n"
        out["source a number"] = json.dumps({**doc, "source": 5}, indent=2) + "\n"
    return out


def _artifacts(tmp_path, n):
    """(artifact text, fault file, another fault file) for a cycle and, at
    n < 6, a path of BP_n; the n=6 path would only double the test's time."""
    fs = FaultSet.build(n, matching_pairs=[[identity(n), generator(n, 2)]])
    faults = tmp_path / "faults.json"
    faults.write_text(fs.to_json())
    free = tmp_path / "free.json"
    free.write_text(FaultSet.build(n).to_json())
    cycle = tmp_path / "cycle.json"
    assert main(["cycle", "--n", str(n), "--faults", str(faults), "--out", str(cycle)]) == 0
    out = [(cycle.read_text(), faults, free)]
    if n < 6:
        path = tmp_path / "path.json"
        u, v = ",".join(map(str, generator(n, 1))), ",".join(map(str, generator(n, n)))
        argv = ["path", "--n", str(n), "--faults", str(free), f"--source={u}", f"--target={v}", "--out", str(path)]
        assert main(argv) == 0
        out.append((path.read_text(), free, faults))
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_verify_packed_reader_changes_no_output(n, tmp_path, monkeypatch, capsys):
    """``verify`` gives the same exit code, stdout and stderr with the packed
    reader on and with it declining every file, over an edit corpus of BP_n
    artifacts (each valid one also against a wrong fault file); the reader
    takes the writer's layout, edited or not, and declines everything else."""
    from burntpancake import artifact

    reader = artifact.read_packed
    taken = set()
    target = tmp_path / "edited.json"
    for text, faults, other in _artifacts(tmp_path, n):
        for label, edited in _edits(text, n).items():
            target.write_bytes(edited.encode("utf-8"))
            if reader(str(target)) is not None:
                taken.add(label)
            for fault_file in (faults, other) if label == "valid" else (faults,):
                runs = []
                for packed in (True, False):
                    monkeypatch.setattr(artifact, "read_packed", reader if packed else lambda path: None)
                    code = main(["verify", str(target), "--faults", str(fault_file)])
                    runs.append((code, *capsys.readouterr()))
                assert runs[0] == runs[1], (label, runs)
                if label == "valid":
                    assert runs[0][0] == (0 if fault_file == faults else 1)
    # the reader reads exactly the edits that keep the writer's layout
    kept = {"valid", "sign flipped", "digit 0", "digit 9", "record dropped", "record duplicated", "records swapped"}
    kept |= {"trace edited", "trace not a list"}
    if n < 6:
        kept |= {"source and target swapped", "source edited", "target short"}
    assert taken == kept


def test_verify_rejects_a_two_vertex_cycle(tmp_path, capsys):
    """A closed walk on two vertices runs one edge there and back: no
    Hamiltonian cycle of BP_1, or of BP_2 less three matching pairs."""
    c = [(1, 2), (-1, 2), (-2, 1), (2, 1), (-1, -2), (1, -2), (2, -1), (-2, -1)]  # BP_2, an 8-cycle
    faults = tmp_path / "f.json"
    faults.write_text(FaultSet.build(2, matching_pairs=[c[2:4], c[4:6], c[6:8]]).to_json())
    artifact = tmp_path / "a.json"
    for n, cycle, fault_file in ((1, [[1], [-1]], None), (2, [list(c[0]), list(c[1])], faults)):
        for text in (json.dumps({"kind": "cycle", "n": n, "vertices": cycle, "trace": []}, indent=2) + "\n",
                     json.dumps({"kind": "cycle", "n": n, "vertices": cycle})):
            artifact.write_text(text)
            argv = ["verify", str(artifact)] + (["--faults", str(fault_file)] if fault_file else [])
            assert main(argv) == 1
            assert capsys.readouterr().out.startswith("ShortCycle -1 ")
