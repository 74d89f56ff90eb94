"""Lightweight argument-validation helpers.

These raise :class:`ValueError`/:class:`TypeError` with uniform, descriptive
messages.  They are deliberately tiny so hot paths can call them without
noticeable overhead; anything vectorized validates with NumPy directly.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


def _real(value, name: str) -> float:
    """``value`` as a ``float``; ``TypeError`` unless it is a real number
    other than a bool.  A plain ``float`` skips the ``numbers.Real`` check,
    an ABC ``isinstance`` that costs several times the rest of a check."""
    if type(value) is float:
        return value
    if not isinstance(value, Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    return float(value)


def check_probability(value: float, name: str, *, allow_zero: bool = True,
                      allow_one: bool = True) -> float:
    """Validate that ``value`` is a probability in [0, 1].

    ``allow_zero`` / ``allow_one`` tighten the interval to open endpoints.
    Returns the value as ``float`` for convenient chaining.
    """
    v = _real(value, name)
    if math.isnan(v):
        raise ValueError(f"{name} must not be NaN")
    lo_ok = v > 0.0 or (allow_zero and v == 0.0)
    hi_ok = v < 1.0 or (allow_one and v == 1.0)
    if not (lo_ok and hi_ok):
        lo = "[0" if allow_zero else "(0"
        hi = "1]" if allow_one else "1)"
        raise ValueError(f"{name} must be in {lo}, {hi}, got {v}")
    return v


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is a finite real > 0."""
    v = _real(value, name)
    if not math.isfinite(v) or v <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {v}")
    return v


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is a finite real >= 0."""
    v = _real(value, name)
    if not math.isfinite(v) or v < 0.0:
        raise ValueError(f"{name} must be a finite non-negative number, got {v}")
    return v


def check_in_range(value: float, name: str, lo: float, hi: float) -> float:
    """Validate ``lo <= value <= hi``."""
    v = _real(value, name)
    if math.isnan(v) or v < lo or v > hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {v}")
    return v


def check_integer(value: int, name: str, *, minimum: int | None = None,
                  maximum: int | None = None) -> int:
    """Validate that ``value`` is an integer within optional bounds."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, Integral)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    v = int(value)
    if minimum is not None and v < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {v}")
    return v
