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
from .solver import ScoreBox, _as_direction, _blockwise, _broadcast_rows, directional_min


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
    lead, c, lower, upper, box_row = _broadcast_rows(c, lower, upper)
    # The shift and the exponentials depend on the box alone, so they are
    # evaluated once per box row and gathered for every coefficient row.
    # The shift is the exact float max of the uppers. The rounded difference
    # is not the real one, so it is an interval; its upper end is at most
    # nextafter(0, inf), so exp never sees a larger argument.
    shift = intervals.point(-upper.max(axis=-1, keepdims=True))
    e = intervals.exp(intervals.add(intervals.point(np.stack((upper, lower))), shift))
    # (endpoint, side * box rows * K): side 0 the uppers, side 1 the lowers.
    box_exp = np.stack((e.lo, e.hi)).reshape(2, -1)
    # exp keeps the flags of the shifted add, which can saturate on its own
    # (lower = -1e308, upper = 1e308); a flag saturates every coefficient
    # row on its box row.
    box_saturated = e.saturated.any(axis=(0, -1))
    bound, saturated = _blockwise(_sweep_block, _BLOCK_ELEMENTS, c, box_row, box_exp, box_saturated)
    return bound.reshape(lead), saturated.reshape(lead)


def _sweep_block(
    c: np.ndarray, box_row: np.ndarray, box_exp: np.ndarray, box_saturated: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """certified_sweep_min on (n, K) coefficient rows; row r gathers its
    exponentials from box row box_row[r] of box_exp."""
    n, k = c.shape
    order = np.argsort(c, axis=-1, kind="stable")
    cs = np.take_along_axis(c, order, axis=-1)
    # Planes (lo, hi, magnitude) x (kind, side, row, column).  Kind 0 sums
    # the exponentials, kind 1 the coefficient-weighted ones.  Side 0 holds
    # the upper terms in coefficient order and side 1 the lower terms
    # reversed, so running sums give the prefix sums of the upper terms and
    # the suffix sums of the lower terms; column 0 is the zero of an empty
    # side.  Candidate m takes column m of side 0 and column K - m of side 1.
    # Flat box_exp indices of each row's entries in coefficient order; the
    # lowers start after the nb * K uppers.
    flat = box_row[:, None] * k + order
    t = np.zeros((3, 2, 2, n, k + 1))
    t[:2, 0, :, :, 1:] = box_exp[:, np.stack((flat, flat[:, ::-1] + box_exp.shape[1] // 2))]
    row_saturated = box_saturated[box_row, None]
    ce = intervals.mul(np.stack((cs, cs[:, ::-1])), Intervals(t[0, 0, :, :, 1:], t[1, 0, :, :, 1:], row_saturated))
    t[0, 1, :, :, 1:] = ce.lo
    t[1, 1, :, :, 1:] = ce.hi
    sums = intervals.cumsum(t, row_saturated)
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
