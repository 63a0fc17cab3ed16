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

from .solver import ScoreBox, _as_direction


@dataclass(frozen=True, eq=False)
class SoftmaxOutputBox:
    """Per-coordinate bounds on softmax outputs over a score box."""

    a_lo: np.ndarray
    a_hi: np.ndarray


def _output_bounds(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate softmax output bounds over the rows of (..., K) boxes."""
    a = upper.max(axis=-1, keepdims=True)
    eu = np.exp(upper - a)
    el = np.exp(lower - a)
    rival_hi = np.maximum(eu.sum(axis=-1, keepdims=True) - eu, 0.0)
    rival_lo = np.maximum(el.sum(axis=-1, keepdims=True) - el, 0.0)
    a_lo = el / (el + rival_hi)
    a_hi = eu / (eu + rival_lo)
    return np.minimum(a_lo, 1.0), np.minimum(a_hi, 1.0)


def baseline_min(c: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """baseline_directional_min over every row of matched (..., K) arrays,
    shape (...).  The inputs are trusted, as in solver.sweep_min."""
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
