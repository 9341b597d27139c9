"""Exception types shared across the package, and the one check each for counts and visibilities."""

import math
import numbers


class RotbellError(Exception):
    """Base class for all errors raised by rotbell."""


class DomainError(RotbellError, ValueError):
    """A parameter lies outside its valid range."""


class InvalidSizeError(DomainError):
    """A party count is zero or exceeds the configured memory cap."""


class ShapeError(RotbellError, ValueError):
    """Operands have mismatched party counts or array shapes."""


class BudgetError(RotbellError):
    """A computation would exceed its configured evaluation budget."""


def _is_integer(value) -> bool:
    """An int or a numpy integer; a bool, a float or a string is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(name: str, value, low: int = 1, cap: float = math.inf, error=DomainError) -> None:
    """Raise ``error`` unless ``value`` is an integer in [low, cap]."""
    if type(value) is not int and not _is_integer(value):  # the exact type first: it is cheap
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    if value > cap:
        raise error(f"{name}={value} exceeds the configured cap of {cap}")


def _check_visibility(value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value <= 1:
        raise DomainError(f"visibility must lie in [0, 1], got {value}")


def _check_party_count(n_parties: int, cap: float = math.inf) -> None:
    _check_count("n_parties", n_parties, 1, cap, InvalidSizeError)
