"""Exception types shared across the package, and the argument check."""

import math


class FermiGasError(Exception):
    """Base class for all fermigas errors."""


class DomainError(FermiGasError, ValueError):
    """An argument is outside the supported domain of an operation."""


class NumericsError(FermiGasError, RuntimeError):
    """An internal numerical procedure failed to converge or bracket."""


def check_finite(name, value, positive=False) -> float:
    """value as a float; DomainError unless finite and >= 0 (> 0 if positive)."""
    v = float(value)
    if not (math.isfinite(v) and (v > 0.0 if positive else v >= 0.0)):
        sign = "positive" if positive else "non-negative"
        raise DomainError(f"{name} must be finite and {sign}, got {v!r}")
    return v
