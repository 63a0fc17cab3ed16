"""Exact optimization of a linear functional of softmax over a score box.

The problem: minimize c . softmax(s) subject to l <= s <= u coordinatewise.
The minimum is attained at a box vertex of threshold form: after sorting the
coefficients ascending, some prefix of coordinates sits at its upper endpoint
and the rest at the lower endpoint.  Sweeping the K+1 candidate thresholds
and taking the best ratio gives the exact optimum in O(K log K); that ratio
is the value, evaluated again only where its denominator underflows.
Every row problem of the package (exact, certified, baseline, block-output
bounds and attack vertices) exponentiates its box through _shifted_box or
builds its vertices with _threshold_vertices.  A ScoreBox holds one row,
the problem of the single-row entry points; the batched kernels (sweep_min
and its certified and baseline twins) take (..., K) arrays that broadcast
together, as the verifier builds them.  sweep_min and its certified twin
sort each distinct coefficient row once (_sorted_rows: numpy's default
sort, and the stable one only for rows with a tie) and exponentiate each
box row once; every output row gathers its sorted row and its box row's
exponentials.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
import numpy as np

from .errors import ValidationError, check_box

# Denominators below the smallest normal double (over min(max|c|, 1) in the
# sweep) are evaluated again with a shift of their own, not as a 0/0.
_DEN_TINY = sys.float_info.min
_DBL_MAX = sys.float_info.max


def _as_direction(c, row: np.ndarray) -> np.ndarray:
    """c as a float64 direction for one score row `row` (a box's lower end
    or a score vector), which must be one-dimensional."""
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
    """An axis-aligned box of one score row, lower <= upper coordinatewise,
    each of shape (K,) with K >= 1."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower, upper = check_box("score box", self.lower, self.upper)
        if not lower.size:
            raise ValidationError("score box must have at least one coordinate")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def size(self) -> int:
        """The row length K."""
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


def _sorted_rows(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, cs): each (..., K) row's stable ascending order, and the row
    in that order.  numpy's default sort orders every row; a row with no
    two equal entries (-0.0 equals 0.0) has one ascending order, the stable
    one, so only the rows with a tie are sorted again, stably."""
    order = c.argsort(axis=-1)
    # Flat indices: one take, where take_along_axis builds an index per axis.
    at = order if c.ndim == 1 else order + np.arange(0, c.size, c.shape[-1]).reshape(order.shape[:-1] + (1,))
    cs = c.take(at)
    # Neighbours are compared across the whole buffer first: one pair per
    # row boundary is not a tie, and only a match sends the rows through
    # the exact test.
    flat = cs.reshape(-1)
    if (flat[1:] == flat[:-1]).any():
        k = c.shape[-1]
        rows, by_row, cs_rows = (a.reshape(-1, k) for a in (c, order, cs))
        tied = np.flatnonzero((cs_rows[:, 1:] == cs_rows[:, :-1]).any(axis=-1))
        by_row[tied] = rows[tied].argsort(axis=-1, kind="stable")
        cs_rows[tied] = rows.take(by_row[tied] + np.arange(0, c.size, k)[tied, None])
    return order, cs


def _stable_rank(c: np.ndarray) -> np.ndarray:
    """Each entry's rank in its (..., K) row's stable ascending order."""
    # An order's entries are distinct, so any sort of them is the stable one.
    return np.argsort(np.argsort(c, axis=-1, kind="stable"), axis=-1)


def _threshold_vertices(rank: np.ndarray, lower: np.ndarray, upper: np.ndarray, m) -> np.ndarray:
    """Threshold vertex m of every row of (..., K) arrays that broadcast
    together (m broadcasts against their leading shape), rank being
    _stable_rank(c): the first m coordinates in each row's stable ascending
    order of c sit at their upper endpoint and the rest at their lower
    endpoint, in original order."""
    return np.where(rank < m[..., None], upper, lower)


# sweep_min and certified_sweep_min sweep their rows in blocks of about this
# many elements.  The sort runs once per distinct coefficient row and the
# exponentials once per box row, before the blocks; the sorted rows take 16
# bytes per coefficient.  A block's planes and buffers live in the thread's
# workspace (see _threshold_sums), which keeps at most one block at this
# budget: about 65-71 bytes per element in either kernel at K >= 16
# (tracemalloc, empty workspace), so at most about 2.3 MB per thread.  A
# shape-M stack (the 9,216-element margin stack, the 8,192-element
# interval_forward stack) is one block whose planes the next sweep on
# the thread reuses.
_BLOCK_ELEMENTS = 2**15


def _broadcast_rows(c, lower, upper):
    """(..., K) arrays that broadcast together, as rows.

    Returns (lead, order, cs, c_row, lower, upper, box_row): the leading
    shape of the broadcast; the (nc, K) rows of c's own shape, sorted by
    _sorted_rows into order and cs, and the box as the (nb, K) rows of its
    own broadcast shape, so that a row shared by many output rows is neither
    copied nor sorted per row; and for each of the n output rows the index
    of its coefficient row and of its box row.
    """
    c, lower, upper = (np.asarray(a, dtype=np.float64) for a in (c, lower, upper))
    k = max(c.shape[-1], lower.shape[-1], upper.shape[-1])
    # The box broadcasts over its own leading axes and over K, not over c's.
    # The broadcasts are skipped where shapes already match: they cost more
    # than a one-row sweep's arithmetic.
    if not lower.shape == upper.shape == lower.shape[:-1] + (k,):
        lower, upper, _ = np.broadcast_arrays(lower, upper, np.empty(k))
    box_row = c_row = np.arange(lower.size // k).reshape(lower.shape[:-1])
    if c.shape != lower.shape:
        c_row, box_row = np.broadcast_arrays(np.arange(c.size // k).reshape(c.shape[:-1]), box_row)
    order, cs = _sorted_rows(c.reshape(-1, k))
    return c_row.shape, order, cs, c_row.reshape(-1), lower.reshape(-1, k), upper.reshape(-1, k), box_row.reshape(-1)


def _blockwise(sweep_block, c_row, box_row, order, cs, *args) -> tuple[np.ndarray, ...]:
    """sweep_block(c_row, box_row, order, cs, *args) over consecutive blocks
    of about _BLOCK_ELEMENTS elements of the n output rows, with its outputs
    joined along the rows, so a block's temporaries are bounded by the
    budget, not by n."""
    n = len(c_row)
    step = max(1, _BLOCK_ELEMENTS // cs.shape[1])
    if n <= step:
        return sweep_block(c_row, box_row, order, cs, *args)
    parts = [sweep_block(c_row[i : i + step], box_row[i : i + step], order, cs, *args) for i in range(0, n, step)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def sweep_min(c: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Threshold sweep over every row of (..., K) arrays that broadcast
    together.

    Returns (value, m), both of shape (...); row by row they are exactly
    directional_min's value and m.  The inputs are trusted: finite, K >= 1
    and lower <= upper (callers validate at their API boundary).
    """
    c = np.asarray(c, dtype=np.float64)
    # Coefficients this large overflow the weighted prefix sums; such rows
    # are scaled by an exact power of two before the sort, and the value
    # scaled back.
    limit = _DBL_MAX / (2 * (c.shape[-1] + 1))
    shift = None
    if max(c.max(initial=0.0), -c.min(initial=0.0)) > limit:
        amax = np.abs(c).max(axis=-1, keepdims=True)
        shift = np.where(amax > limit, np.frexp(amax)[1], 0)
        c = np.ldexp(c, -shift)
    lead, order, cs, c_row, lower, upper, box_row = _broadcast_rows(c, lower, upper)
    box_exp = _shifted_box(lower, upper)
    np.exp(box_exp, out=box_exp)
    value, m_star = _blockwise(_sweep_block, c_row, box_row, order, cs, box_exp.reshape(2, -1), lower, upper)
    if shift is not None:
        value = np.ldexp(value, shift.reshape(-1)[c_row])
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


# The buffers of _threshold_sums, one set per thread, kept between calls.
_workspace = threading.local()


def _buffer(name: str, size: int, dtype, keep: bool) -> np.ndarray:
    """The first `size` entries of this thread's workspace buffer `name`,
    which is grown to `size` if it is shorter; the grown buffer replaces
    the kept one only if `keep`."""
    buf = getattr(_workspace, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        if keep:
            setattr(_workspace, name, buf)
    return buf[:size]


def _threshold_sums(c_row, box_row, order, cs, box_exp):
    """Every threshold candidate of n output rows: row r takes row c_row[r]
    of the sorted coefficients order and cs over box row box_row[r], whose
    shifted exponentials box_exp holds flat, (2, nb * K), uppers then
    lowers.

    Returns (cs, flat, t): the rows' sorted coefficients and each sorted
    entry's flat box index, (n, K) each, and planes t, (4, n, K + 1).
    t[:2] holds every candidate's denominator and numerator; t[2:] is free
    for the caller.

    Candidate m takes the prefix sums of the upper terms before it and the
    suffix sums of the lower terms from it on.  The index and coefficient
    buffers hold [z, f(0), z, f(1), ..., z, f(n - 1), z], f(r) row r's
    entries and z a slot for an empty sum.  Read forward from the start
    they give each row's upper terms after an empty sum; read backward from
    the end, each row's lower terms reversed after one, with the rows in
    reverse order.  So every gather and product writes a whole plane, one
    prefix sum adds both sides' terms in order, and the lower planes are
    read back reversed on both axes.  A block of at least as many rows as
    coefficients (n >= K) takes its prefix sums as K additions of whole
    columns, and a smaller one by numpy's per-row cumsum: both add the same
    terms in the same order.

    All three arrays are views of this thread's workspace, valid until the
    thread's next call: a caller copies what it returns.  A block within
    _BLOCK_ELEMENTS keeps its buffers for the next call, so the workspace
    holds at most one such block; a larger block (one row with K above the
    budget) gets buffers of its own.
    """
    n, k = len(c_row), cs.shape[1]
    k1 = k + 1
    size = n * k1 + 1
    keep = n * k <= _BLOCK_ELEMENTS
    t = _buffer("planes", 4 * n * k1, np.float64, keep).reshape(4, n * k1)
    idx = _buffer("index", size + 2 * n * k, np.intp, keep)
    idx, scratch = idx[:size], idx[size:]
    rows = idx[:-1].reshape(n, k1)[:, 1:]
    # Each gather goes to a contiguous scratch and is copied into its rows:
    # a strided `out` or an (n, 1) broadcast operand would take numpy's
    # iterator buffer.  The planes are free until the gathers below.
    gathered, offset = scratch.reshape(2, n, k)
    order.take(c_row, axis=0, out=gathered, mode="clip")
    offset[...] = (box_row * k)[:, None]
    rows[...] = np.add(gathered, offset, out=gathered)
    coef = _buffer("coef", size, np.float64, keep)
    coef[::k1] = 0.0
    coef_rows = coef[:-1].reshape(n, k1)[:, 1:]
    coef_rows[...] = cs.take(c_row, axis=0, out=t[0, : n * k].reshape(n, k), mode="clip")
    # take copies a reversed index; the scratch (2nK >= n(K + 1)) holds it.
    back = scratch[: n * k1]
    back[...] = idx[:0:-1]
    for side, at, c_at in ((0, idx[:-1], coef[:-1]), (2, back, coef[:0:-1])):
        # take writes straight into a contiguous `out` unless mode is "raise".
        box_exp[side // 2].take(at, out=t[side], mode="clip")
        np.multiply(c_at, t[side], out=t[side + 1])
    t = t.reshape(4, n, k1)
    # The empty-sum slots gathered an arbitrary exponential; their products
    # are already 0.
    t[::2, :, 0] = 0.0
    if n >= k:
        for j in range(1, k1):
            np.add(t[..., j - 1], t[..., j], out=t[..., j])
    else:
        t.cumsum(axis=-1, out=t)
    np.add(t[:2], t[2:, ::-1, ::-1], out=t[:2])
    return coef_rows, rows, t


def _sweep_block(c_row, box_row, order, cs, box_exp, lower: np.ndarray, upper: np.ndarray):
    """sweep_min on the n output rows of _threshold_sums; the (nb, K) lower
    and upper are the box rows whose shifted exponentials box_exp holds."""
    cs, flat, (den, tau, limit, _) = _threshold_sums(c_row, box_row, order, cs, box_exp)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(tau, den, out=tau)
    # A term below realmin is accurate only to 2**-1075; divided by a den with
    # den * min(max|c|, 1) < realmin (0 included) that error could pass
    # u * max|c|, so such candidates are evaluated again with their own shift.
    # Equal coefficients need that only for den < realmin (the clamp is exact).
    c_lo, c_hi = cs[:, 0], cs[:, -1]
    scale = np.where(c_lo < c_hi, np.minimum(np.maximum(np.maximum(-c_lo, c_hi), _DEN_TINY), 1.0), 1.0)
    # Filled into a free plane, the limit compares without a broadcast
    # (which would take a buffer of its own).
    limit[...] = (_DEN_TINY / scale)[:, None]
    tiny = den < limit
    if tiny.any():
        at, ms = np.nonzero(tiny)
        ends = flat[at]
        # The sorted rows cs[at] rank as the identity.
        vertices = _threshold_vertices(np.arange(cs.shape[1]), np.take(lower, ends), np.take(upper, ends), ms)
        tau[at, ms] = _objective(cs[at], vertices)

    m_star = tau.argmin(axis=-1)
    # The true ratio is a convex combination of the coefficients.
    value = np.minimum(np.maximum(tau[np.arange(len(tau)), m_star], c_lo), c_hi)
    return value, m_star


def directional_min(c, box: ScoreBox) -> ThresholdResult:
    """Exact minimum of c . softmax(s) over the box.

    Ties in the coefficient sort are broken by original index (stable sort);
    ties between candidate thresholds resolve to the smallest m.
    """
    c = _as_direction(c, box.lower)
    value, m = sweep_min(c, box.lower, box.upper)
    vertex = _threshold_vertices(_stable_rank(c), box.lower, box.upper, m)
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
