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
    import burntpancake.cli as cli

    campaigns = []
    monkeypatch.setattr(cli, "run_fuzz", lambda *args, **kwargs: campaigns.append(args))
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
    import burntpancake.cli as cli
    from burntpancake.constructor import StrictModeFailure

    def boom(*args, **kwargs):
        raise StrictModeFailure("forced")

    monkeypatch.setattr(cli, "hamiltonian_cycle", boom)
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
