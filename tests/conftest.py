"""Fixtures shared by the test modules.

The constructor keeps one memo of fault-free subgraph paths for the whole
process (``constructor._path_memo``).  Every test starts and ends with it
empty, so that paths built under one test's patches never serve another.
"""

import pytest

import burntpancake.constructor as cons
from burntpancake.constructor import hamiltonian_cycle, hamiltonian_path
from burntpancake.fuzz import sample_endpoints, sample_fault_set, trial_rng


@pytest.fixture(autouse=True)
def empty_path_memo():
    cons._path_memo.clear()
    yield
    cons._path_memo.clear()


def _recorded_builds(cases):
    """Build each (op, fault set, endpoints) case in turn, sharing the
    process's memo, as (vertices, trace, attempts spent)."""
    made = []
    ctx_type = cons._Ctx

    def recorded():
        made.append(ctx_type())
        return made[-1]

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cons, "_Ctx", recorded)
        for op, fs, ends in cases:
            built = hamiltonian_cycle(fs.n, fs) if op == "cycle" else hamiltonian_path(fs.n, *ends, fs)
            out.append((built.vertices, built.trace, made[-1].attempts))
    return out


@pytest.fixture
def recorded_builds():
    return _recorded_builds


def _full_budget_cases(n, seed, cycles, paths):
    """The first ``cycles`` cycle and ``paths`` path instances of BP_n from
    ``trial_rng(seed, .)`` that use the whole fault budget (n-2 and n-3), as
    (op, fault set, endpoints)."""
    found = []
    for op, budget, count in (("cycle", n - 2, cycles), ("path", n - 3, paths)):
        trial = 0
        while count:
            rng = trial_rng(seed, trial)
            fs = sample_fault_set(n, budget, rng)
            if fs.size == budget:
                found.append((op, fs, () if op == "cycle" else sample_endpoints(rng, n, fs)))
                count -= 1
            trial += 1
    return found


# Full-budget builds at n = 5, 6, 7 and then the n = 5 ones again.
CROSS_DIMENSION_CASES = [
    *_full_budget_cases(5, 28, 3, 3),
    *_full_budget_cases(6, 28, 1, 1),
    *_full_budget_cases(7, 28, 1, 0),
    *_full_budget_cases(5, 28, 3, 3),
]


@pytest.fixture(scope="session")
def cross_dimension_builds():
    """``CROSS_DIMENSION_CASES`` built in order from an empty memo that they
    all share, as (case, (vertices, trace, attempts)) pairs."""
    cons._path_memo.clear()
    built = _recorded_builds(CROSS_DIMENSION_CASES)
    cons._path_memo.clear()
    return list(zip(CROSS_DIMENSION_CASES, built))
