"""The package's exceptions.

They live apart from the constructor, so a command that only reads and
checks (``verify``, ``stats``) can catch them without loading it;
``constructor`` re-exports every one, as the same objects.
"""


class UsageError(ValueError):
    """A caller violated an operation's preconditions."""


class BudgetExceededError(UsageError):
    """The fault set is larger than the operation's tolerance."""


class ConstructionError(RuntimeError):
    def __init__(self, message: str, trace: "CaseTrace | None" = None):  # noqa: F821  (constructor.CaseTrace)
        super().__init__(message)
        self.trace = trace


class StrictModeFailure(ConstructionError):
    """No construction found: a prescribed candidate scan came up empty, or
    the attempt budget ran out."""


class NoOrderingError(ConstructionError):
    """No complement-free arrangement of the requested subgraph indices."""


class InternalInvariantError(ConstructionError):
    """A guarantee the case dispatch should enforce failed; an internal bug."""
