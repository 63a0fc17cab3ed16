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
_DBL_MAX = sys.float_info.max


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
    # Scores far below the max shift to -inf, whose exp is the true limit 0.
    with np.errstate(over="ignore"):
        e = np.exp(s - s.max())
    val = float(np.dot(c, e) / e.sum())
    return float(min(max(val, c.min()), c.max()))


def _objective(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """softmax_objective over the rows of (..., K) arrays that broadcast
    together, bit for bit: on contiguous rows a (1, K) @ (K, 1) matmul
    equals np.dot, whatever the number of rows."""
    c = np.ascontiguousarray(c)
    s = np.ascontiguousarray(s)
    with np.errstate(over="ignore"):
        e = np.exp(s - s.max(axis=-1, keepdims=True))
    val = np.matmul(c[..., None, :], e[..., :, None])[..., 0, 0] / e.sum(axis=-1)
    return np.minimum(np.maximum(val, c.min(axis=-1)), c.max(axis=-1))


def _threshold_vertices(ls: np.ndarray, us: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Rows of (n, K) or (K,) sorted endpoints with the first m[row]
    coordinates at their upper endpoint and the rest at their lower
    endpoint, shape (n, K)."""
    return np.where(np.arange(ls.shape[-1]) < m[:, None], us, ls)


# sweep_min sweeps its rows in blocks of about this many elements.  A block's
# temporaries peak at about 110 bytes per element, so a call stays near 4 MB
# however many rows it stacks, and both shape-M stacks (the 9,216-element
# margin stack and the 8,192-element block_output_bounds stack) are one block.
_BLOCK_ELEMENTS = 2**15


def _broadcast_rows(c, lower, upper):
    """(..., K) arrays that broadcast together, as rows.

    Returns (lead, c, lower, upper, box_row): the leading shape of the
    broadcast, the coefficients as (n, K) rows, the box as the (nb, K) rows
    of its own broadcast shape (so a box shared by many coefficient rows is
    not copied per row), and for each coefficient row the index of its box
    row.
    """
    c, lower, upper = (np.asarray(a, dtype=np.float64) for a in (c, lower, upper))
    k = max(c.shape[-1], lower.shape[-1], upper.shape[-1])
    # The box broadcasts over its own leading axes and over K, not over c's.
    # The broadcasts are skipped where shapes already match: they cost more
    # than a one-row sweep's arithmetic.
    if not lower.shape == upper.shape == lower.shape[:-1] + (k,):
        lower, upper, _ = np.broadcast_arrays(lower, upper, np.empty(k))
    box_row = np.arange(lower.size // k).reshape(lower.shape[:-1])
    if c.shape != lower.shape:
        c, box_row = np.broadcast_arrays(c, box_row[..., None])
        box_row = box_row[..., 0]
    return c.shape[:-1], c.reshape(-1, k), lower.reshape(-1, k), upper.reshape(-1, k), box_row.reshape(-1)


def _blockwise(sweep_block, budget: int, c: np.ndarray, box_row: np.ndarray, *box) -> tuple[np.ndarray, ...]:
    """sweep_block(c, box_row, *box) over consecutive blocks of about
    `budget` elements of the (n, K) rows c, with its outputs joined along
    the rows, so a call's temporaries are bounded by the budget, not by n."""
    n, k = c.shape
    step = max(1, budget // k)
    if n <= step:
        return sweep_block(c, box_row, *box)
    parts = [sweep_block(c[i : i + step], box_row[i : i + step], *box) for i in range(0, n, step)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def sweep_min(c: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Threshold sweep over every row of (..., K) arrays that broadcast
    together.

    Returns (value, m, vertex) with shapes (...), (...) and (..., K); row by
    row this is exactly directional_min.  The inputs are trusted: finite,
    K >= 1 and lower <= upper (callers validate at their API boundary).
    """
    lead, c, lower, upper, box_row = _broadcast_rows(c, lower, upper)
    value, m_star, vertex = _blockwise(_sweep_block, _BLOCK_ELEMENTS, c, box_row, lower, upper)
    return value.reshape(lead), m_star.reshape(lead), vertex.reshape(lead + c.shape[-1:])


def _sweep_block(c: np.ndarray, box_row: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """sweep_min on (n, K) coefficient rows; row r's box is row box_row[r]
    of the (nb, K) lower and upper."""
    n, k = c.shape
    # Coefficients this large overflow the weighted prefix sums; such rows
    # are scaled by an exact power of two and the value scaled back.
    limit = _DBL_MAX / (2 * (k + 1))
    shift = None
    if np.abs(c).max(initial=0.0) > limit:
        amax = np.abs(c).max(axis=-1)
        shift = np.where(amax > limit, np.frexp(amax)[1], 0)
        c = np.ldexp(c, -shift[:, None])

    rows = np.arange(n)[:, None]
    order = np.argsort(c, axis=-1, kind="stable")
    cs = c[rows, order]
    ls = lower[box_row[:, None], order]
    us = upper[box_row[:, None], order]

    a = us.max(axis=-1, keepdims=True)
    # Endpoints far below the max shift to -inf (exp gives the true limit 0).
    with np.errstate(over="ignore"):
        eu = np.exp(us - a)
        el = np.exp(ls - a)

    # Candidate m takes the prefix sums of the upper terms before it and the
    # suffix sums of the lower terms from it on.  Planes 0-1 hold the upper
    # terms and planes 2-3 the lower terms reversed, so one cumsum gives both
    # kinds of sum; column 0 is the zero of an empty side.
    t = np.zeros((4, n, k + 1))
    t[0, :, 1:] = eu
    t[2, :, 1:] = el[:, ::-1]
    np.multiply(cs, eu, out=t[1, :, 1:])
    np.multiply(cs[:, ::-1], t[2, :, 1:], out=t[3, :, 1:])
    np.cumsum(t, axis=-1, out=t)
    den, num = t[0:2] + t[2:4, :, ::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = num / den
    # A fully underflowed denominator means every retained exponential was
    # below realmin; re-evaluate those candidates with their own shift.
    tiny = den < _DEN_TINY
    if tiny.any():
        at, ms = np.nonzero(tiny)
        tau[at, ms] = _objective(cs[at], _threshold_vertices(ls[at], us[at], ms))

    m_star = np.argmin(tau, axis=-1)
    vertex = np.empty((n, k))
    vertex[rows, order] = _threshold_vertices(ls, us, m_star)
    value = _objective(c, vertex)
    if shift is not None:
        value = np.ldexp(value, shift)
    return value, m_star, vertex


def directional_min(c, box: ScoreBox) -> ThresholdResult:
    """Exact minimum of c . softmax(s) over the box.

    Ties in the coefficient sort are broken by original index (stable sort);
    ties between candidate thresholds resolve to the smallest m.
    """
    c = _as_direction(c, box.size)
    value, m, vertex = sweep_min(c, box.lower, box.upper)
    return ThresholdResult(value=float(value), m=int(m), vertex=vertex, sense="min")


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
    with np.errstate(over="ignore"):
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
