"""Exception types shared across the package, and the argument checks."""

import math


class FermiGasError(Exception):
    """Base class for all fermigas errors."""


class DomainError(FermiGasError, ValueError):
    """An argument is outside the supported domain of an operation."""


class NumericsError(FermiGasError, RuntimeError):
    """An internal numerical procedure failed to converge or bracket."""


def to_float(name, value, rule="finite") -> float:
    """value as a float, by __float__ or __index__ but never from text; else DomainError."""
    if type(value) is float:
        return value
    try:
        if hasattr(type(value), "__float__") or hasattr(type(value), "__index__"):
            return float(value)
        got = repr(value)  # text, or no number
    except OverflowError:  # an int beyond the double range
        got = "an integer beyond the float range"
    except TypeError:  # an array of more than one entry: numpy converts only 0-d ones
        got = repr(value)
    raise DomainError(f"{name} must be {rule}, got {got}")


def check_sequence(name, values) -> list:
    """A grid's or list's entries as a list; DomainError if empty, one number, text or bytes."""
    if not isinstance(values, (str, bytes)):
        try:
            if entries := list(values):
                return entries
        except TypeError:  # one number, a 0-d array or None
            pass
    raise DomainError(f"{name} must be a non-empty sequence of numbers, got {values!r}")


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


def check_temperature(t) -> float:
    """A reduced temperature t as a float; DomainError unless finite and >= 0."""
    return check_finite("reduced temperature", t)


def check_count(name, value) -> float:
    """value as a float; DomainError unless a whole number of at least 1."""
    n = to_float(name, value, "a positive integer")
    if not (n >= 1.0 and n % 1.0 == 0.0):  # NaN fails both, inf the second
        raise DomainError(f"{name} must be a positive integer, got {n!r}")
    return n
