"""Error types shared across the package, plus small argument checks."""

from __future__ import annotations

import math

__all__ = ["DomainError", "DimensionError"]


class DomainError(ValueError):
    """An argument sits outside the range an operation is defined on."""


class DimensionError(DomainError):
    """A dimension or size limit was exceeded."""


def check_range(name: str, value: float, lo: float, hi: float) -> float:
    """Coerce to float and require lo <= value <= hi."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(value) or not lo <= value <= hi:
        raise DomainError(f"{name} must lie in [{lo}, {hi}], got {value!r}")
    return value


def check_open(name: str, value: float, lo: float, hi: float) -> float:
    """Coerce to float and require lo < value < hi."""
    value = check_range(name, value, lo, hi)
    if value == lo or value == hi:
        raise DomainError(f"{name} must lie strictly inside ({lo}, {hi}), got {value!r}")
    return value
