"""Argument-validation helpers.

Wrong *types* raise the built-in ``TypeError`` (a caller programming
error); out-of-range *values* raise :class:`~repro.errors.ParameterError`
— a ``ValueError`` that is also a ``ReproError``, because values reach
these checks straight from the command line and must end in one
``error:`` line, not a traceback.
"""

from __future__ import annotations

import math
from typing import Any, Type

from repro.errors import ParameterError


def check_type(name: str, value: Any, expected: type) -> None:
    """Raise ``TypeError`` unless *value* is an instance of *expected*.

    ``bool`` is rejected where an ``int`` is expected, because silently
    treating ``True`` as 1 hides bugs in parameter plumbing.
    """
    if expected is int and isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got bool")
    if not isinstance(value, expected):
        raise TypeError(
            f"{name} must be {expected.__name__}, got {type(value).__name__}"
        )


def check_positive(name: str, value: int, minimum: int = 1) -> None:
    """Raise unless *value* is an integer >= *minimum*."""
    check_type(name, value, int)
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")


def check_index(name: str, value: int, size: int) -> None:
    """Raise unless ``0 <= value < size``."""
    check_type(name, value, int)
    if not 0 <= value < size:
        raise IndexError(f"{name} must be in [0, {size}), got {value}")


def check_probability(name: str, value: float) -> None:
    """Raise unless *value* is a real number in [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must be in [0, 1], got {value}")


def check_finite(
    name: str,
    value: float,
    low: float = 0.0,
    *,
    closed: bool = False,
    error: Type[Exception] = ParameterError,
) -> None:
    """Raise *error* unless *value* is a finite real number above *low*.

    *closed* admits *low* itself. One chained comparison does it, because
    NaN compares false to everything: a NaN rate or service time must
    stop here, not reach the event heap as a delay that never sorts.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not (low <= value < math.inf if closed else low < value < math.inf):
        bound = ">=" if closed else ">"
        raise error(f"{name} must be finite and {bound} {low:g}, got {value}")
