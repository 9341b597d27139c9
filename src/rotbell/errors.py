"""Exception types of the package, and the one check each for counts, reals and visibilities."""

import math
import numbers

import numpy as np


class RotbellError(Exception):
    """Base class for all errors raised by rotbell."""


class DomainError(RotbellError, ValueError):
    """A parameter lies outside its valid range."""


class InvalidSizeError(DomainError):
    """A party count is zero or exceeds the configured memory cap."""


class ShapeError(RotbellError, ValueError):
    """Operands have mismatched party counts or array shapes."""


def _check_count(name: str, value, low: int = 1, cap: float = math.inf, error=DomainError) -> None:
    """Raise ``error`` unless ``value`` is an integer in [low, cap]."""
    # an int or a numpy integer, the exact type first as it is cheap; a bool is no count
    if type(value) is not int and (type(value) is bool or not isinstance(value, numbers.Integral)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    if value > cap:
        raise error(f"{name}={value} exceeds the configured cap of {cap}")


def _check_real(name: str, values) -> None:
    """Raise unless ``values`` is real: strings, bytes, bools and complex would cast to float."""
    if np.asarray(values).dtype.kind in "USbc":
        raise DomainError(f"{name} must be real")


def _check_visibility(value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value <= 1:
        raise DomainError(f"visibility must lie in [0, 1], got {value}")


def _check_party_count(n_parties: int, cap: float = math.inf) -> None:
    _check_count("n_parties", n_parties, 1, cap, InvalidSizeError)
