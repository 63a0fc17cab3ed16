"""Exception types and the number checks shared across the package."""

import numpy as np


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class CertificationInfeasibleError(RuntimeError):
    """Raised when the certified path saturates and cannot produce a valid bound."""


class InternalInvariantError(AssertionError):
    """Raised when a cross-check between two independent code paths disagrees."""


def check_int(name: str, value, minimum: int) -> int:
    """value as an int, if it is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_real(name: str, value) -> float:
    """value as a float, if it is a real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)
