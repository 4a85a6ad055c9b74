"""Exception taxonomy and the evaluation budget shared by all modules."""

#: default cap on the number of surface evaluations in one estimator call
DEFAULT_EVAL_BUDGET = 100_000_000


def check_budget(count: int, budget: int) -> None:
    """Raise ``BudgetError`` when ``count`` surface evaluations exceed ``budget``."""
    if count > budget:
        raise BudgetError(f"{_short(count)} evaluations exceed budget {_short(budget)}")


def _short(count: int) -> str:
    """A count as digits, or past 64 bits as the power of two it passes, so a
    huge count never meets the integer-to-string digit limit."""
    if abs(count) < 2**64:
        return str(count)
    power = f"2^{abs(count).bit_length() - 1}"
    return f"at least {power}" if count > 0 else f"at most -{power}"


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
