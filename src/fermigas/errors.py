"""Exception types shared across the package, and the argument checks."""

import math


class FermiGasError(Exception):
    """Base class for all fermigas errors."""


class DomainError(FermiGasError, ValueError):
    """An argument is outside the supported domain of an operation."""


class NumericsError(FermiGasError, RuntimeError):
    """An internal numerical procedure failed to converge or bracket."""


def to_float(name, value, rule="finite") -> float:
    """float(value); DomainError naming the parameter for an int beyond the float range."""
    try:
        return float(value)
    except OverflowError:  # an int beyond the double range
        raise DomainError(f"{name} must be {rule}, "
                          "got an integer beyond the float range") from None


def check_real(name, value) -> float:
    """value as a float; DomainError unless finite (of either sign)."""
    v = to_float(name, value)
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {v!r}")
    return v


def check_finite(name, value, positive=False) -> float:
    """value as a float; DomainError unless finite and >= 0 (> 0 if positive)."""
    rule = "finite and positive" if positive else "finite and non-negative"
    v = to_float(name, value, rule)
    if not (math.isfinite(v) and (v > 0.0 if positive else v >= 0.0)):
        raise DomainError(f"{name} must be {rule}, got {v!r}")
    return v


def check_count(name, value) -> float:
    """value as a float; DomainError unless finite and at least 1."""
    n = to_float(name, value, "finite and at least 1")
    if not (math.isfinite(n) and n >= 1.0):
        raise DomainError(f"{name} must be finite and at least 1, got {n!r}")
    return n
