"""Exact optimization of a linear functional of softmax over a score box.

The problem: minimize c . softmax(s) subject to l <= s <= u coordinatewise.
The minimum is attained at a box vertex of threshold form: after sorting the
coefficients ascending, some prefix of coordinates sits at its upper endpoint
and the rest at the lower endpoint.  Sweeping the K+1 candidate thresholds
and taking the best ratio gives the exact optimum in O(K log K).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
import numpy as np

from .errors import ValidationError

# Denominators below the smallest normal double trigger a shift-stable
# re-evaluation of that candidate instead of a 0/0.
_DEN_TINY = sys.float_info.min


def _as_direction(c, size: int) -> np.ndarray:
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1:
        raise ValidationError(f"direction must be one-dimensional, got shape {c.shape}")
    if c.shape[0] != size:
        raise ValidationError(f"direction length {c.shape[0]} does not match box size {size}")
    if not np.all(np.isfinite(c)):
        raise ValidationError("direction entries must be finite")
    return c


@dataclass(frozen=True, eq=False)
class ScoreBox:
    """Axis-aligned box of score vectors, lower <= upper coordinatewise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise ValidationError(
                f"box endpoints must be one-dimensional and matched, got {lower.shape} and {upper.shape}"
            )
        if lower.shape[0] < 1:
            raise ValidationError("box must have at least one coordinate")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValidationError("box endpoints must be finite")
        if np.any(lower > upper):
            j = int(np.argmax(lower > upper))
            raise ValidationError(f"box coordinate {j} has lower {lower[j]} > upper {upper[j]}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def size(self) -> int:
        return int(self.lower.shape[0])


@dataclass(frozen=True, eq=False)
class ThresholdResult:
    """Optimum value, the threshold index m in the coefficient-sorted order,
    the attaining vertex (in original coordinate order), and the sense."""

    value: float
    m: int
    vertex: np.ndarray
    sense: str


def softmax_objective(c, s) -> float:
    """c . softmax(s), evaluated with a max shift.

    The result is clamped into [min(c), max(c)]; the true value is a convex
    combination of the coefficients, so only float roundoff is removed.
    """
    s = np.ascontiguousarray(s, dtype=np.float64)
    if s.ndim != 1:
        raise ValidationError(f"score vector must be one-dimensional, got shape {s.shape}")
    # Contiguous buffers keep the dot's accumulation order a function of the
    # values alone (strided views can take a different SIMD path by one ulp).
    c = np.ascontiguousarray(_as_direction(c, s.shape[0]))
    if not np.all(np.isfinite(s)):
        raise ValidationError("score entries must be finite")
    e = np.exp(s - s.max())
    val = float(np.dot(c, e) / e.sum())
    return float(min(max(val, c.min()), c.max()))


def _threshold_vertex(ls: np.ndarray, us: np.ndarray, m: int) -> np.ndarray:
    return np.concatenate((us[:m], ls[m:]))


def directional_min(c, box: ScoreBox) -> ThresholdResult:
    """Exact minimum of c . softmax(s) over the box.

    Ties in the coefficient sort are broken by original index (stable sort);
    ties between candidate thresholds resolve to the smallest m.
    """
    c = _as_direction(c, box.size)
    order = np.argsort(c, kind="stable")
    cs = c[order]
    ls = box.lower[order]
    us = box.upper[order]

    a = float(us.max())
    eu = np.exp(us - a)
    el = np.exp(ls - a)

    zero = np.zeros(1)
    pre_u = np.concatenate((zero, np.cumsum(eu)))
    pre_cu = np.concatenate((zero, np.cumsum(cs * eu)))
    suf_l = np.concatenate((np.cumsum(el[::-1])[::-1], zero))
    suf_cl = np.concatenate((np.cumsum((cs * el)[::-1])[::-1], zero))

    den = pre_u + suf_l
    num = pre_cu + suf_cl
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = num / den
    # A fully underflowed denominator means every retained exponential was
    # below realmin; re-evaluate those candidates with their own shift.
    for m in np.flatnonzero(den < _DEN_TINY):
        tau[m] = softmax_objective(cs, _threshold_vertex(ls, us, int(m)))

    m_star = int(np.argmin(tau))
    vertex = np.empty(box.size)
    vertex[order] = _threshold_vertex(ls, us, m_star)
    value = softmax_objective(c, vertex)
    return ThresholdResult(value=value, m=m_star, vertex=vertex, sense="min")


def directional_max(c, box: ScoreBox) -> ThresholdResult:
    """Exact maximum, reduced to a minimization of the negated direction.

    The identity max = -min(-c) holds exactly in floats: only signs change.
    """
    c = _as_direction(c, box.size)
    res = directional_min(-c, box)
    return ThresholdResult(value=-res.value, m=res.m, vertex=res.vertex, sense="max")


_EXHAUSTIVE_CAP = 24


def exhaustive_vertex_min(c, box: ScoreBox, max_size: int = _EXHAUSTIVE_CAP) -> ThresholdResult:
    """Brute-force minimum over all box vertices, for cross-checking.

    Numerators and denominators for all 2^B vertex patterns (B counts the
    non-degenerate coordinates) are built by doubling, so only 2K
    exponentials are evaluated.  Coordinates are folded most-significant
    first, which makes ties resolve to the lexicographically smallest
    pattern (lower endpoint before upper).  Guarded to small boxes.
    """
    c = _as_direction(c, box.size)
    if box.size > max_size:
        raise ValidationError(f"exhaustive search limited to {max_size} coordinates, got {box.size}")
    lower, upper = box.lower, box.upper
    a = float(upper.max())
    eu = np.exp(upper - a)
    el = np.exp(lower - a)

    free = [j for j in range(box.size) if lower[j] < upper[j]]
    num = np.zeros(1)
    den = np.zeros(1)
    ones = np.zeros(1, dtype=np.int64)
    for j in reversed(range(box.size)):
        if lower[j] == upper[j]:
            num = num + c[j] * el[j]
            den = den + el[j]
        else:
            num = np.concatenate((num + c[j] * el[j], num + c[j] * eu[j]))
            den = np.concatenate((den + el[j], den + eu[j]))
            ones = np.concatenate((ones, ones + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = num / den
    bad = den < _DEN_TINY
    if bad.any():
        for idx in np.flatnonzero(bad):
            vals[idx] = softmax_objective(c, _decode_vertex(lower, upper, free, int(idx)))

    best = int(np.argmin(vals))
    vertex = _decode_vertex(lower, upper, free, best)
    value = softmax_objective(c, vertex)
    return ThresholdResult(value=value, m=int(ones[best]), vertex=vertex, sense="min")


def _decode_vertex(lower: np.ndarray, upper: np.ndarray, free: list[int], idx: int) -> np.ndarray:
    vertex = lower.copy()
    b = len(free)
    for rank, j in enumerate(free):
        if (idx >> (b - 1 - rank)) & 1:
            vertex[j] = upper[j]
    return vertex
