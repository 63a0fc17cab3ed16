"""Interval-softmax baseline: bound each softmax output coordinate
independently, then take the worst coefficient-weighted corner.

This is the relax-then-contract scheme most interval verifiers use for
attention (Shi et al., ICLR 2020).  It ignores the coupling between softmax
outputs (they sum to one), so the exact threshold solver always matches or
beats it; the pair is kept side by side for dominance comparisons.  It
shares the solver's front end: the shifted box and the row objective.
"""

from __future__ import annotations

import numpy as np

from .solver import _DEN_TINY, ScoreBox, _as_direction, _shifted_box


def _own_share(vertex: np.ndarray, j: np.ndarray) -> np.ndarray:
    """softmax(vertex[n])[j[n]] of every row n of a (N, K) array, with the
    row's own max shift."""
    with np.errstate(over="ignore"):
        e = vertex - vertex.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    return e[np.arange(j.size), j] / e.sum(axis=-1)


def _output_bounds(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate softmax output bounds (a_lo, a_hi) over the rows of
    (..., K) boxes: coordinate j is largest with s_j at its upper endpoint
    and its rivals at their lower endpoints (plane 0 of the shifted box),
    and smallest in the mirrored vertex (plane 1).

    A rivals' sum is the shared sum minus j's own rival term, off by up to
    about (K + 1) * 2**-53 of the shared sum.  Coordinate j is evaluated
    again at its vertex, with that vertex's own max shift, where that error
    could exceed 2**-40 of the denominator, where the denominator is below
    realmin (0/0 when every term underflowed), and where j's own term is
    below realmin, so accurate only to 2**-1075 and not relative to the
    share.
    """
    e = _shifted_box(lower, upper)
    np.exp(e, out=e)
    rival = e[::-1]
    shared = rival.sum(axis=-1, keepdims=True)
    den = e + np.maximum(shared - rival, 0.0)
    k = upper.shape[-1]
    slack = (k + 1) * 2.0**-13
    with np.errstate(invalid="ignore"):
        share = e / den
    # The stack's least denominator against its largest cut first (one
    # flat reduce), then, only if that fires, each row against its own cut:
    # one row with a large shared sum does not send the stack through the
    # mask.
    cut = np.maximum(slack * shared, _DEN_TINY)
    low = den.min(initial=np.inf) < cut.max(initial=0.0) and np.any(den.min(axis=-1, keepdims=True) < cut)
    if low or e.min(initial=np.inf) < _DEN_TINY:
        flagged = (den < cut) | (e < _DEN_TINY)
        plane, rows, j = np.nonzero(flagged.reshape(2, -1, k))
        ends = np.stack((upper, lower)).reshape(2, -1, k)
        vertex = ends[1 - plane, rows]
        vertex[np.arange(j.size), j] = ends[plane, rows, j]
        share[flagged] = _own_share(vertex, j)
    return np.minimum(share[1], 1.0), np.minimum(share[0], 1.0)


def baseline_min(c: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """baseline_directional_min over every row of (..., K) arrays that
    broadcast together, shape (...).  The output bounds are evaluated once
    per box row, however many coefficient rows share it.  The inputs are
    trusted, as in solver.sweep_min."""
    a_lo, a_hi = _output_bounds(np.asarray(lower, dtype=np.float64), np.asarray(upper, dtype=np.float64))
    return np.sum(c * np.where(c >= 0.0, a_lo, a_hi), axis=-1)


def baseline_directional_min(c, box: ScoreBox) -> float:
    """Lower bound on min c . softmax(s): each positive coefficient is paired
    with its coordinate's lower output bound, each negative one with the
    upper bound."""
    return float(baseline_min(_as_direction(c, box.lower), box.lower, box.upper))
