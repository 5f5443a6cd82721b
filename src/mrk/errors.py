"""Exception hierarchy shared across the package."""


class MrkError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(MrkError):
    """Malformed edge or attribute file (message carries path and line number)."""


class CoupledGraphError(MrkError):
    """A coupled multigraph violates the structural invariants of the encoding."""


class MiningBudgetError(MrkError):
    """One pattern's embedding join would exceed its budget of embedding rows.

    Inside mining a pattern's rows are those its own join step generates
    from its parent's table; a fresh join counts the rows of every new slot.
    The error is raised before the step allocates them.
    """

    def __init__(self, pattern_code: str, budget: int):
        self.pattern_code = pattern_code
        self.budget = budget
        super().__init__(
            f"embedding join exceeded the budget of {budget} embedding rows "
            f"for pattern {pattern_code!r}; raise the budget or tighten the "
            f"mining parameters"
        )


class PatternSizeError(MrkError):
    """A pattern has more slots than a canonical code can number."""

    def __init__(self, attrs: tuple, limit: int):
        self.n_slots = len(attrs)
        self.limit = limit
        super().__init__(
            f"pattern with {len(attrs)} slots {attrs!r} exceeds the limit of "
            f"{limit} slots per pattern: canonical codes number slots with "
            f"one digit"
        )


class MiningInvariantError(MrkError):
    """Internal consistency check of the miner failed (should never happen)."""


class EvaluationError(MrkError):
    """Evaluation cannot proceed (e.g. a fold with no positives or negatives)."""
