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


def _zero_first(x: np.ndarray) -> np.ndarray:
    """x with a zero column prepended to its last axis, the running sum of
    an empty side."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,), dtype=x.dtype)
    out[..., 1:] = x
    return out


def _select(x: Intervals, key) -> Intervals:
    return Intervals(x.lo[key], x.hi[key], x.saturated[key])


def certified_sweep_min(c: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward-rounded threshold sweep over every row of matched (..., K)
    arrays.

    Returns (lower_bound, saturated), both of shape (...). Each row's
    lower_bound is at most the true minimum of c . softmax(s) over its box,
    and never below the row's smallest coefficient. `saturated` marks rows
    where some interval endpoint overflowed, so the bound certifies nothing.
    The inputs are trusted, as in solver.sweep_min.
    """
    c = np.asarray(c, dtype=np.float64)
    lead, k = c.shape[:-1], c.shape[-1]
    n = c.size // k
    c = c.reshape(n, k)
    lower = np.asarray(lower, dtype=np.float64).reshape(n, k)
    upper = np.asarray(upper, dtype=np.float64).reshape(n, k)

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
    bound = np.maximum(tau.min(axis=-1), cs[:, 0])
    return bound.reshape(lead), saturated.reshape(lead)


def certified_directional_min(c, box: ScoreBox) -> CertifiedBound:
    """certified_sweep_min on one row, with the fast path's value for
    reporting the gap."""
    c = _as_direction(c, box.size)
    bound, saturated = certified_sweep_min(c, box.lower, box.upper)
    fast = directional_min(c, box)
    return CertifiedBound(lower=float(bound), float_value=fast.value, saturated=bool(saturated))
