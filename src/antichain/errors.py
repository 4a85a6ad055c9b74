"""Exception taxonomy and the evaluation budget shared by all modules."""

#: default cap on the number of surface evaluations in one estimator call
DEFAULT_EVAL_BUDGET = 100_000_000


def check_budget(count: int, budget: int) -> None:
    """Raise ``BudgetError`` when ``count`` surface evaluations exceed ``budget``."""
    if count > budget:
        raise BudgetError(f"{count} evaluations exceed budget {budget}")


class AntichainError(Exception):
    """Base class for all package errors."""


class ConfigurationError(AntichainError):
    """A spec or config object violates its invariants."""


class DomainError(AntichainError):
    """An input lies outside the mathematical domain of an operation."""


class PrecisionError(AntichainError):
    """A requested resolution exceeds what the spec's depth can certify."""


class BudgetError(AntichainError):
    """An estimator would exceed the configured evaluation budget."""


class InsufficientDataError(AntichainError):
    """Not enough data points for a meaningful regression."""
