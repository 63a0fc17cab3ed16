"""Exact optimization of a linear functional of softmax over a score box.

The problem: minimize c . softmax(s) subject to l <= s <= u coordinatewise.
The minimum is attained at a box vertex of threshold form: after sorting the
coefficients ascending, some prefix of coordinates sits at its upper endpoint
and the rest at the lower endpoint.  Sweeping the K+1 candidate thresholds
and taking the best ratio gives the exact optimum in O(K log K); that ratio
is the value, evaluated again only where its denominator underflows.
Every row problem of the package (exact, certified, baseline, block-output
bounds and attack vertices) exponentiates its box through _shifted_box or
builds its vertices with _threshold_vertices.  A ScoreBox holds one row or
a (..., K) stack of rows; the batched kernels (sweep_min and its certified
and baseline twins) take any stack, and the single-row entry points reject
a stacked box in _as_direction.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
import numpy as np

from .errors import ValidationError, check_box

# Denominators below the smallest normal double (over min(max|c|, 1) in the
# sweep) are evaluated again with a shift of their own, not as a 0/0.
_DEN_TINY = sys.float_info.min
_DBL_MAX = sys.float_info.max


def _as_direction(c, row: np.ndarray) -> np.ndarray:
    """c as a float64 direction for one score row `row` (a box's lower end
    or a score vector), which must be one-dimensional: the single-row entry
    points take no stacked box."""
    if row.ndim != 1:
        raise ValidationError(f"expected one score row, got shape {row.shape}")
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1:
        raise ValidationError(f"direction must be one-dimensional, got shape {c.shape}")
    if c.shape[0] != row.shape[0]:
        raise ValidationError(f"direction length {c.shape[0]} does not match box size {row.shape[0]}")
    if not np.all(np.isfinite(c)):
        raise ValidationError("direction entries must be finite")
    return c


@dataclass(frozen=True, eq=False)
class ScoreBox:
    """Axis-aligned boxes of score rows, lower <= upper coordinatewise: one
    row of shape (K,) or a stack of shape (..., K), with K >= 1."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower, upper = check_box("score box", self.lower, self.upper)
        if lower.shape[-1] < 1:
            raise ValidationError("score box must have at least one coordinate per row")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def size(self) -> int:
        """The row length K."""
        return int(self.lower.shape[-1])


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
    # Contiguous buffers keep the dot's accumulation order a function of the
    # values alone (strided views can take a different SIMD path by one ulp).
    c = np.ascontiguousarray(_as_direction(c, s))
    if not np.all(np.isfinite(s)):
        raise ValidationError("score entries must be finite")
    return float(_objective(c, s))


def _objective(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """softmax_objective over the rows of (..., K) arrays that broadcast
    together.  Each row's value is a function of that row alone: on
    contiguous rows a (1, K) @ (K, 1) matmul equals np.dot, whatever the
    number of rows."""
    c = np.ascontiguousarray(c)
    s = np.ascontiguousarray(s)
    # Scores far below the max shift to -inf, whose exp is the true limit 0.
    with np.errstate(over="ignore"):
        e = s - s.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    val = np.matmul(c[..., None, :], e[..., :, None])[..., 0, 0] / e.sum(axis=-1)
    return np.minimum(np.maximum(val, c.min(axis=-1)), c.max(axis=-1))


def _stable_rank(c: np.ndarray) -> np.ndarray:
    """Each entry's rank in its (..., K) row's stable ascending order."""
    return np.argsort(np.argsort(c, axis=-1, kind="stable"), axis=-1)


def _threshold_vertices(c: np.ndarray, lower: np.ndarray, upper: np.ndarray, m, rank=None) -> np.ndarray:
    """Threshold vertex m of every row of (..., K) arrays that broadcast
    together (m broadcasts against their leading shape): the coordinates of
    rank < m in the row's stable ascending order of c sit at their upper
    endpoint and the rest at their lower endpoint, in original order.  A
    caller that builds c's vertices in several calls passes
    rank = _stable_rank(c), taken once."""
    if rank is None:
        rank = _stable_rank(c)
    return np.where(rank < m[..., None], upper, lower)


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


def sweep_min(c: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Threshold sweep over every row of (..., K) arrays that broadcast
    together.

    Returns (value, m), both of shape (...); row by row they are exactly
    directional_min's value and m.  The inputs are trusted: finite, K >= 1
    and lower <= upper (callers validate at their API boundary).
    """
    lead, c, lower, upper, box_row = _broadcast_rows(c, lower, upper)
    box_exp = np.exp(_shifted_box(lower, upper)).reshape(2, -1)
    value, m_star = _blockwise(_sweep_block, _BLOCK_ELEMENTS, c, box_row, box_exp, lower, upper)
    return value.reshape(lead), m_star.reshape(lead)


def _shifted_box(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The (..., K) box rows' uppers and lowers, (2, ..., K), minus each
    row's largest upper: an exact shift (-inf far below it, exp 0)."""
    top = upper.max(axis=-1, keepdims=True)
    out = np.empty((2,) + upper.shape)
    with np.errstate(over="ignore"):
        np.subtract(upper, top, out=out[0])
        np.subtract(lower, top, out=out[1])
    return out


def _threshold_sums(c: np.ndarray, box_row: np.ndarray, box_exp: np.ndarray, magnitude: bool = False):
    """Every threshold candidate of (n, K) coefficient rows, row r over box
    row box_row[r], whose shifted exponentials box_exp holds flat, (2,
    nb * K), uppers then lowers.  Each row is sorted ascending (stable) and
    gathers its exponentials in that order.  Returns (cs, flat, planes): the
    sorted coefficients, each sorted entry's flat box index, and every
    candidate's denominator and numerator as planes (den, num), (n, K + 1);
    with magnitude a third plane sums the magnitudes of the numerator terms.

    Candidate m takes the prefix sums of the upper terms before it and the
    suffix sums of the lower terms from it on.  The first side's planes hold
    the upper terms and the second side's the lower terms reversed, so one
    cumsum, which adds left to right, gives both kinds of sum; column 0 is
    the zero of an empty side.
    """
    n, k = c.shape
    order = np.argsort(c, axis=-1, kind="stable")
    cs = np.take_along_axis(c, order, axis=-1)
    flat = box_row[:, None] * k + order
    p = 3 if magnitude else 2
    t = np.zeros((2 * p, n, k + 1))
    t[0, :, 1:] = box_exp[0, flat]
    t[p, :, 1:] = box_exp[1, flat[:, ::-1]]
    np.multiply(cs, t[0, :, 1:], out=t[1, :, 1:])
    np.multiply(cs[:, ::-1], t[p, :, 1:], out=t[p + 1, :, 1:])
    if magnitude:
        np.abs(t[1], out=t[2])
        np.abs(t[p + 1], out=t[p + 2])
    np.cumsum(t, axis=-1, out=t)
    return cs, flat, t[:p] + t[p:, :, ::-1]


def _sweep_block(c: np.ndarray, box_row: np.ndarray, box_exp: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """sweep_min on (n, K) coefficient rows; row r's box is row box_row[r]
    of the (nb, K) lower and upper, whose shifted exponentials box_exp
    holds."""
    n, k = c.shape
    # Coefficients this large overflow the weighted prefix sums; such rows
    # are scaled by an exact power of two and the value scaled back.
    limit = _DBL_MAX / (2 * (k + 1))
    shift = None
    if np.abs(c).max(initial=0.0) > limit:
        amax = np.abs(c).max(axis=-1)
        shift = np.where(amax > limit, np.frexp(amax)[1], 0)
        c = np.ldexp(c, -shift[:, None])

    cs, flat, (den, num) = _threshold_sums(c, box_row, box_exp)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = num / den
    # A term below realmin is accurate only to 2**-1075; divided by a den with
    # den * min(max|c|, 1) < realmin (0 included) that error could pass
    # u * max|c|, so such candidates are evaluated again with their own shift.
    # Equal coefficients need that only for den < realmin (the clamp is exact).
    c_lo, c_hi = cs[:, 0], cs[:, -1]
    scale = np.where(c_lo < c_hi, np.clip(np.maximum(-c_lo, c_hi), _DEN_TINY, 1.0), 1.0)
    tiny = den < (_DEN_TINY / scale)[:, None]
    if tiny.any():
        at, ms = np.nonzero(tiny)
        ends = flat[at]
        # The sorted rows cs[at] rank as the identity.
        tau[at, ms] = _objective(cs[at], _threshold_vertices(cs[at], np.take(lower, ends), np.take(upper, ends), ms))

    m_star = np.argmin(tau, axis=-1)
    # The true ratio is a convex combination of the coefficients.
    value = np.minimum(np.maximum(tau[np.arange(n), m_star], c_lo), c_hi)
    if shift is not None:
        value = np.ldexp(value, shift)
    return value, m_star


def directional_min(c, box: ScoreBox) -> ThresholdResult:
    """Exact minimum of c . softmax(s) over the box.

    Ties in the coefficient sort are broken by original index (stable sort);
    ties between candidate thresholds resolve to the smallest m.
    """
    c = _as_direction(c, box.lower)
    value, m = sweep_min(c, box.lower, box.upper)
    vertex = _threshold_vertices(c, box.lower, box.upper, m)
    return ThresholdResult(value=float(value), m=int(m), vertex=vertex, sense="min")


def directional_max(c, box: ScoreBox) -> ThresholdResult:
    """Exact maximum, reduced to a minimization of the negated direction.

    The identity max = -min(-c) holds exactly in floats: only signs change.
    """
    c = _as_direction(c, box.lower)
    res = directional_min(-c, box)
    return ThresholdResult(value=-res.value, m=res.m, vertex=res.vertex, sense="max")


_EXHAUSTIVE_CAP = 24


def exhaustive_vertex_min(c, box: ScoreBox) -> ThresholdResult:
    """Brute-force minimum over all box vertices, for cross-checking.

    Numerators and denominators for all 2^B vertex patterns (B counts the
    non-degenerate coordinates) are built by doubling, so only 2K
    exponentials are evaluated.  Coordinates are folded most-significant
    first, which makes ties resolve to the lexicographically smallest
    pattern (lower endpoint before upper).  Guarded to small boxes.
    """
    c = _as_direction(c, box.lower)
    if box.size > _EXHAUSTIVE_CAP:
        raise ValidationError(f"exhaustive search limited to {_EXHAUSTIVE_CAP} coordinates, got {box.size}")
    lower, upper = box.lower, box.upper
    eu, el = np.exp(_shifted_box(lower, upper))

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
    for idx in np.flatnonzero(den < _DEN_TINY):
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
