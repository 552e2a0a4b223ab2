"""The package namespace, and which modules each command loads."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import burntpancake
from burntpancake import bp_graph, constructor, errors
from burntpancake.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _defining_module(name):
    return importlib.import_module(f"burntpancake.{burntpancake._EXPORTS[name]}")


@pytest.mark.parametrize("name", burntpancake.__all__)
def test_public_name_is_the_defining_modules_object(name):
    obj = getattr(burntpancake, name)
    module = _defining_module(name)
    assert obj is getattr(module, name)
    if getattr(obj, "__module__", "").startswith("burntpancake."):
        assert obj.__module__ == module.__name__


def test_dir_and_star_import_cover_all():
    assert set(burntpancake.__all__) <= set(dir(burntpancake))
    namespace = {}
    exec("from burntpancake import *", namespace)
    assert set(burntpancake.__all__) <= set(namespace)
    for name in burntpancake.__all__:
        assert namespace[name] is getattr(_defining_module(name), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        burntpancake.no_such_name  # noqa: B018
    assert not hasattr(burntpancake, "hamiltonian")
    with pytest.raises(ImportError):
        exec("from burntpancake import no_such_name", {})


def test_names_are_looked_up_not_stored(monkeypatch):
    # a patch on the defining module is what the package returns
    sentinel = object()
    monkeypatch.setattr(constructor, "hamiltonian_cycle", sentinel)
    assert burntpancake.hamiltonian_cycle is sentinel
    assert "hamiltonian_cycle" not in vars(burntpancake)


def test_constructor_reexports_errors_and_limit():
    assert burntpancake.UsageError is constructor.UsageError
    for name in ("UsageError", "BudgetExceededError", "ConstructionError", "StrictModeFailure",
                 "NoOrderingError", "InternalInvariantError"):
        assert getattr(constructor, name) is getattr(errors, name)
    assert constructor.SOFT_DIMENSION_LIMIT is bp_graph.SOFT_DIMENSION_LIMIT == 8


def _modules_after(code: str) -> set[str]:
    """The modules loaded after ``code`` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_bare_import_loads_no_submodule():
    loaded = _modules_after("import burntpancake")
    assert "burntpancake" in loaded
    assert [m for m in loaded if m.startswith("burntpancake.")] == []


def test_each_command_loads_only_what_it_runs(tmp_path):
    artifact = tmp_path / "c4.json"
    assert main(["cycle", "--n", "4", "--out", str(artifact)]) == 0
    verify = _modules_after(f"from burntpancake import cli\nassert cli.main(['verify', {str(artifact)!r}]) == 0")
    assert {"burntpancake.cli", "burntpancake.oracle", "burntpancake.artifact"} <= verify
    assert verify.isdisjoint({"burntpancake.constructor", "burntpancake.fuzz", "dataclasses"})
    out = str(tmp_path / "again.json")
    cycle = _modules_after(f"from burntpancake import cli\nassert cli.main(['cycle', '--n', '4', '--out', {out!r}]) == 0")
    assert "burntpancake.constructor" in cycle
    assert cycle.isdisjoint({"burntpancake.fuzz", "dataclasses"})
    assert json.loads(artifact.read_text()) == json.loads((tmp_path / "again.json").read_text())
