"""Exception taxonomy, the evaluation budget and the integer and real-number
argument rules shared by all modules."""

from numbers import Integral, Rational, Real

#: default cap on the number of surface evaluations in one estimator call
DEFAULT_EVAL_BUDGET = 100_000_000


def check_budget(count: int, budget: int) -> None:
    """Raise ``BudgetError`` when ``count`` surface evaluations exceed
    ``budget``, after ``check_int`` on the budget."""
    if count > check_int("budget", budget, None):
        raise BudgetError(f"{_short(count)} evaluations exceed budget {_short(budget)}")


def check_int(name: str, value, low: int | None, high: int | None = None):
    """Return ``value`` if it is an integer in [low, high] (numpy integers
    pass; floats, strings and bools do not); else raise ``ConfigurationError``.
    ``low=None`` checks the type alone, for callers with their own range rule."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigurationError(f"{name} must be an integer, got {_short(value, repr)}")
    if low is not None and (value < low or high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigurationError(f"{name} must be {bounds}, got {_short(value)}")
    return value


def check_real(name: str, value):
    """Return ``value`` if it is a real number (numpy reals and fractions pass;
    strings and bools do not); else raise ``ConfigurationError``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    return value


def _short(value, form=str) -> str:
    """``form(value)``, or for a rational past 64 bits in numerator or denominator
    the power of two it passes (an integer) or lies within a factor 2 of, so a
    huge number never meets the integer-to-string digit limit."""
    num, den = (value.numerator, value.denominator) if isinstance(value, Rational) else (0, 1)
    if max(abs(num), den) < 2**64:
        return form(value)
    if den > 1:
        return f"about {'-' if num < 0 else ''}2^{abs(num).bit_length() - den.bit_length()}"
    power = f"2^{abs(num).bit_length() - 1}"
    return f"at least {power}" if num > 0 else f"at most -{power}"


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
