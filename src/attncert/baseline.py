"""Interval-softmax baseline: bound each softmax output coordinate
independently, then take the worst coefficient-weighted corner.

This is the relax-then-contract scheme most interval verifiers use for
attention.  It ignores the coupling between softmax outputs (they sum to
one), so the exact threshold solver always matches or beats it; the pair is
kept side by side for dominance comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import _DEN_TINY, ScoreBox, _as_direction


@dataclass(frozen=True, eq=False)
class SoftmaxOutputBox:
    """Per-coordinate bounds on softmax outputs over a score box."""

    a_lo: np.ndarray
    a_hi: np.ndarray


def _output_bounds(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate softmax output bounds over the rows of (..., K) boxes.

    Plane 0 holds the lower bounds (coordinate j at its lower endpoint, its
    rivals at their upper endpoints) and plane 1 the mirrored upper bounds.
    A rivals' sum is the shared sum minus j's own rival term, off by up to
    about (K + 1) * 2**-53 of the shared sum.  Where that could exceed 2**-40
    of the denominator, or the denominator is below realmin (0/0 when every
    term underflowed), coordinate j is re-evaluated with its own shift.
    """
    a = upper.max(axis=-1, keepdims=True)
    e = np.empty((2,) + upper.shape)
    # Endpoints far below the max shift to -inf (exp gives the true limit 0).
    with np.errstate(over="ignore"):
        np.subtract(lower, a, out=e[0])
        np.subtract(upper, a, out=e[1])
    np.exp(e, out=e)
    rival = e[::-1]
    shared = rival.sum(axis=-1, keepdims=True)
    den = e + np.maximum(shared - rival, 0.0)
    slack = (upper.shape[-1] + 1) * 2.0**-13
    if den.min(initial=np.inf) >= max(slack * shared.max(initial=0.0), _DEN_TINY):
        share = e / den
    else:
        flagged = den < np.maximum(slack * shared, _DEN_TINY)
        with np.errstate(invalid="ignore"):
            share = e / den
        share[flagged] = _own_shift(np.stack((lower, upper)), np.stack((upper, lower)), flagged)
    return np.minimum(share[0], 1.0), np.minimum(share[1], 1.0)


def _own_shift(own: np.ndarray, rival: np.ndarray, flagged: np.ndarray) -> np.ndarray:
    """Softmax coordinate j at the vertex with s_j = own[j] and every other
    coordinate at rival, for each flagged (row, j), shifted by that vertex's
    own max."""
    k = own.shape[-1]
    rows, j = np.nonzero(flagged.reshape(-1, k))
    at = np.arange(j.size)
    v = rival.reshape(-1, k)[rows]
    v[at, j] = own.reshape(-1, k)[rows, j]
    with np.errstate(over="ignore"):
        e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e[at, j] / e.sum(axis=-1)


def baseline_min(c: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """baseline_directional_min over every row of (..., K) arrays that
    broadcast together, shape (...).  The output bounds are evaluated once
    per box row, however many coefficient rows share it.  The inputs are
    trusted, as in solver.sweep_min."""
    a_lo, a_hi = _output_bounds(np.asarray(lower, dtype=np.float64), np.asarray(upper, dtype=np.float64))
    return np.sum(np.where(c >= 0.0, c * a_lo, c * a_hi), axis=-1)


def softmax_output_box(box: ScoreBox) -> SoftmaxOutputBox:
    """Tight per-coordinate bounds: coordinate j is smallest with s_j at its
    lower endpoint and every rival at its upper endpoint, and largest in the
    mirrored configuration.  Evaluated with a shared max shift."""
    a_lo, a_hi = _output_bounds(box.lower, box.upper)
    return SoftmaxOutputBox(a_lo=a_lo, a_hi=a_hi)


def baseline_directional_min(c, box: ScoreBox) -> float:
    """Lower bound on min c . softmax(s): each positive coefficient is paired
    with its coordinate's lower output bound, each negative one with the
    upper bound."""
    return float(baseline_min(_as_direction(c, box.size), box.lower, box.upper))
