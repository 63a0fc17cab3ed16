"""Certified (machine-checkable) lower bound for the directional minimum.

Runs the same threshold sweep as the fast path but carries every quantity in
outward-rounded intervals, so the returned lower endpoint is a true bound on
the real-arithmetic optimum regardless of roundoff in exp, the prefix sums,
or the quotients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import intervals
from .intervals import Intervals
from .solver import ScoreBox, _as_direction, directional_min


@dataclass(frozen=True)
class CertifiedBound:
    """lower: sound lower bound on the true minimum.
    float_value: the fast path's answer for the same instance, for gap reporting.
    saturated: an interval endpoint overflowed; the bound is not certifiable."""

    lower: float
    float_value: float
    saturated: bool


# Rows are swept in blocks of about this many elements.  The interval planes
# of a block peak at about 0.5 KB per element, so a call that stacks every
# target's rows keeps its temporaries near 1 MB.
_BLOCK_ELEMENTS = 2048


def _zero_first(x: np.ndarray) -> np.ndarray:
    """x with a zero column prepended to its last axis, the running sum of
    an empty side."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,), dtype=x.dtype)
    out[..., 1:] = x
    return out


def _select(x: Intervals, key) -> Intervals:
    return Intervals(x.lo[key], x.hi[key], x.saturated[key])


def certified_sweep_min(c: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward-rounded threshold sweep over every row of (..., K) arrays
    that broadcast together.

    Returns (lower_bound, saturated), both of shape (...). Each row's
    lower_bound is at most the true minimum of c . softmax(s) over its box,
    and never below the row's smallest coefficient. `saturated` marks rows
    where some interval endpoint overflowed, so the bound certifies nothing.
    The inputs are trusted, as in solver.sweep_min.
    """
    c, lower, upper = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64) for a in (c, lower, upper)))
    lead, k = c.shape[:-1], c.shape[-1]
    n = c.size // k
    c, lower, upper = (a.reshape(n, k) for a in (c, lower, upper))
    bound = np.empty(n)
    saturated = np.empty(n, dtype=bool)
    step = max(1, _BLOCK_ELEMENTS // k)
    for start in range(0, n, step):
        block = slice(start, start + step)
        bound[block], saturated[block] = _sweep_block(c[block], lower[block], upper[block])
    return bound.reshape(lead), saturated.reshape(lead)


def _sweep_block(c: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """certified_sweep_min on matched (n, K) rows."""
    n, k = c.shape
    rows = np.arange(n)[:, None]
    order = np.argsort(c, axis=-1, kind="stable")
    cs = c[rows, order]
    # Side 0 holds the upper endpoints in coefficient order and side 1 the
    # lower endpoints reversed, so running sums give the prefix sums of the
    # upper terms and the suffix sums of the lower terms.
    s = np.stack((upper[rows, order], lower[rows, order][:, ::-1]))
    # Shift by the exact float max of the uppers. The rounded difference is
    # not the real one, so it is an interval; its upper end is at most
    # nextafter(0, inf), so exp never sees a larger argument.
    shifted = intervals.add(intervals.point(s), intervals.point(-s[0].max(axis=-1, keepdims=True)))
    e = intervals.exp(shifted)
    ce = intervals.mul(intervals.point(np.stack((cs, cs[:, ::-1]))), e)

    # (kind, side, row, column): kind 0 sums the exponentials, kind 1 the
    # coefficient-weighted ones.  Candidate m takes column m of side 0 and
    # column K - m of side 1.
    sums = intervals.cumsum(Intervals(*(_zero_first(np.stack(pair)) for pair in zip(e, ce))))
    den_num = intervals.add(_select(sums, np.s_[:, 0]), _select(sums, np.s_[:, 1, :, ::-1]))
    saturated = den_num.saturated.any(axis=(0, -1))
    # Where every retained exponential underflowed, den.lo is 0 and the
    # quotient is unbounded (-DBL_MAX). The true ratio is still a convex
    # combination of the coefficients, so the smallest coefficient is a
    # sound floor for every candidate.
    tau = intervals.div(_select(den_num, 1), _select(den_num, 0)).lo
    return np.maximum(tau.min(axis=-1), cs[:, 0]), saturated


def certified_directional_min(c, box: ScoreBox) -> CertifiedBound:
    """certified_sweep_min on one row, with the fast path's value for
    reporting the gap."""
    c = _as_direction(c, box.size)
    bound, saturated = certified_sweep_min(c, box.lower, box.upper)
    fast = directional_min(c, box)
    return CertifiedBound(lower=float(bound), float_value=fast.value, saturated=bool(saturated))
