"""Error types shared across the package, plus small argument checks."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["DomainError", "DimensionError"]


class DomainError(ValueError):
    """An argument sits outside the range an operation is defined on."""


class DimensionError(DomainError):
    """A dimension or size limit was exceeded."""


def _as_real(name: str, value) -> float:
    """Coerce to float, raising DomainError for anything that is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number, got {value!r}") from exc


def check_range(name: str, value: float, lo: float, hi: float) -> float:
    """Coerce to float and require lo <= value <= hi."""
    value = _as_real(name, value)
    if not math.isfinite(value) or not lo <= value <= hi:
        raise DomainError(f"{name} must lie in [{lo}, {hi}], got {value!r}")
    return value


def check_open(name: str, value: float, lo: float, hi: float) -> float:
    """Coerce to float and require lo < value < hi."""
    value = check_range(name, value, lo, hi)
    if value == lo or value == hi:
        raise DomainError(f"{name} must lie strictly inside ({lo}, {hi}), got {value!r}")
    return value


def check_int(name: str, value: int, lo: int, hi: int | None = None,
              error: type[DomainError] = DomainError) -> int:
    """Return value as an int if it is a Python or numpy integer, not a bool,
    in lo..hi. Without hi there is no upper end, and lo must be 0 or 1."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if ok and lo <= value and (hi is None or value <= hi):
        return int(value)
    if hi is None:
        kind = "nonnegative" if lo == 0 else "positive"
        raise error(f"{name} must be a {kind} integer, got {value!r}")
    raise error(f"{name} must be an integer in {lo}..{hi}, got {value!r}")
