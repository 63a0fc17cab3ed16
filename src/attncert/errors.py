"""Exception types and the number checks shared across the package."""

import numpy as np


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class CertificationInfeasibleError(RuntimeError):
    """Raised when the certified path saturates and cannot produce a valid bound."""


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


def check_box(what: str, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) as float64 arrays, if they are 1-D arrays of one length,
    are finite and lower <= upper."""
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValidationError(f"{what} endpoints must be matched 1-D arrays, got shapes {lower.shape} and {upper.shape}")
    check_finite(what, lower, upper)
    if np.any(lower > upper):
        j = int(np.argmax(lower > upper))
        raise ValidationError(f"{what} coordinate {j} has lower {lower[j]} > upper {upper[j]}")
    return lower, upper


def check_finite(what: str, lower: np.ndarray, upper: np.ndarray) -> None:
    """check_box's finite check alone, with its error: for the boxes the
    verifier builds, whose shape and order hold by construction."""
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValidationError(f"{what} endpoints must be finite")


def check_classes(n_classes: int, y, targets) -> tuple[int, np.ndarray]:
    """(y, targets) as an int and an index array, if y is a class index below
    n_classes and targets a non-empty flat sequence of other, distinct ones."""
    if isinstance(y, bool) or not isinstance(y, (int, np.integer)) or not 0 <= y < n_classes:
        raise ValidationError(f"class index y={y!r} out of range for {n_classes} classes")
    t = np.asarray(targets)
    if t.ndim != 1 or not t.size or not np.issubdtype(t.dtype, np.integer):
        raise ValidationError("targets must be a non-empty flat sequence of integer class indices")
    out = t[(t < 0) | (t >= n_classes)]
    if out.size:
        raise ValidationError(f"target {out[0]} out of range for {n_classes} classes")
    if np.any(t == y):
        raise ValidationError(f"target equals the label y={y}")
    if len(set(t.tolist())) != t.size:
        raise ValidationError("targets must not repeat")
    return int(y), t.astype(np.intp)
