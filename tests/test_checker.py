"""Code-disjoint verdicts: ``perfbench/checker.py``, written from the graph's
definition alone, on objects the constructor built with a warm memo.

The oracle and the constructor share the package's graph code; the checker
shares none of it, so a fault common to both cannot hide from it.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from burntpancake.fuzz import sample_endpoints, sample_fault_set, trial_rng
from test_golden import FULL_N6_CYCLES, FULL_N6_PATHS, _full_n6

CHECKER = Path(__file__).resolve().parents[1] / "perfbench" / "checker.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("perfbench_checker", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _verdict(checker, fs, vertices, ends):
    return checker.check(fs.n, fs.matching_pairs, fs.faulty_edges, vertices, not ends, *ends)


def test_checker_imports_nothing_from_the_package():
    names = []
    for node in ast.walk(ast.parse(CHECKER.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    assert names and not [x for x in names if x.startswith(".") or x.split(".")[0] == "burntpancake"]


def test_checker_accepts_cross_dimension_builds(checker, cross_dimension_builds):
    # built at n = 5, 6, 7 and 5 again, sharing one memo
    for (op, fs, ends), (vertices, _, _) in cross_dimension_builds:
        assert _verdict(checker, fs, vertices, ends) == [], (op, fs)


def _full_n6_instances():
    """The fault sets and endpoints of ``_full_n6``'s builds, in its order."""
    for seed, trial, _ in FULL_N6_CYCLES:
        yield sample_fault_set(6, 4, trial_rng(seed, trial)), ()
    for seed, trial, _ in FULL_N6_PATHS:
        rng = trial_rng(seed, trial)
        fs = sample_fault_set(6, 3, rng)
        yield fs, sample_endpoints(rng, 6, fs)


def test_checker_accepts_full_n6_builds(checker):
    # the builds of test_golden_full_n6_with_details, one after another
    instances = list(_full_n6_instances())
    builds = list(_full_n6())
    assert len(builds) == len(instances) == len(FULL_N6_CYCLES) + len(FULL_N6_PATHS)
    for (fs, ends), built in zip(instances, builds):
        assert _verdict(checker, fs, built.vertices, ends) == [], fs
