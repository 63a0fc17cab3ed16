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


def softmax_output_box(box: ScoreBox) -> SoftmaxOutputBox:
    """Tight per-coordinate bounds: coordinate j is smallest with s_j at its
    lower endpoint and every rival at its upper endpoint, and largest in the
    mirrored configuration.  Evaluated with a shared max shift."""
    a = float(box.upper.max())
    eu = np.exp(box.upper - a)
    el = np.exp(box.lower - a)
    rival_hi = np.maximum(eu.sum() - eu, 0.0)
    rival_lo = np.maximum(el.sum() - el, 0.0)
    a_lo = el / (el + rival_hi)
    a_hi = eu / (eu + rival_lo)
    return SoftmaxOutputBox(a_lo=np.minimum(a_lo, 1.0), a_hi=np.minimum(a_hi, 1.0))


def baseline_directional_min(c, box: ScoreBox) -> float:
    """Lower bound on min c . softmax(s): each positive coefficient is paired
    with its coordinate's lower output bound, each negative one with the
    upper bound."""
    c = _as_direction(c, box.size)
    ob = softmax_output_box(box)
    return float(np.sum(np.where(c >= 0.0, c * ob.a_lo, c * ob.a_hi)))
