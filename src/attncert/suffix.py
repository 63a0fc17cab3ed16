"""Affine lower bounds on class-score margins through the classifier head.

A margin logit_y - logit_t is reduced to an affine function of the block
output tokens: exactly for a linear head, and through a per-neuron linear
ReLU relaxation for the one-hidden-layer head.  The relaxation needs boxes
on the hidden pre-activations, which interval_forward supplies by running
an interval version of the whole block (directional softmax bounds included)
up to the hidden layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import PixelBox, model_score_boxes, token_bounds, value_scalar_bounds
from .errors import ValidationError
from .model import AttentionModelSpec, LinearSuffix, MlpSuffix
from .solver import sweep_min
from .solver import directional_max, directional_min  # noqa: F401  unused since rows go through sweep_min; benchmark/tracing.py wraps these names


@dataclass(frozen=True, eq=False)
class SuffixAffineBound:
    """margin >= beta + sum_i gamma[i] . hplus_i for all inputs in the box
    the bound was built for.  gamma has shape (tokens, d_model)."""

    beta: float
    gamma: np.ndarray


@dataclass(frozen=True, eq=False)
class PreActBox:
    """Bounds on the hidden-layer pre-activations; empty for a linear head."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValidationError("pre-activation bounds must be matched vectors")
        if np.any(lo > hi):
            raise ValidationError("pre-activation bounds out of order")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


def linear_suffix_bound(model: AttentionModelSpec, y: int, t: int) -> SuffixAffineBound:
    """Exact margin form for a linear head: beta + gamma . tokens reproduces
    logit_y - logit_t identically."""
    sfx = model.suffix
    if not isinstance(sfx, LinearSuffix):
        raise ValidationError("linear_suffix_bound requires a linear head")
    _check_classes(model, y, t)
    w = sfx.w[y] - sfx.w[t]
    return SuffixAffineBound(
        beta=float(sfx.b[y] - sfx.b[t]),
        gamma=w.reshape(model.tokens, model.d_model),
    )


def relu_suffix_bound(model: AttentionModelSpec, preact: PreActBox, y: int, t: int) -> SuffixAffineBound:
    """Affine margin lower bound through the ReLU head.

    Each crossing neuron is replaced by a line: the chord from below when the
    outgoing margin coefficient is negative, and a zero- or unit-slope line
    through the origin (whichever halves the gap better) when it is positive.
    Stable neurons pass through exactly.
    """
    sfx = model.suffix
    if not isinstance(sfx, MlpSuffix):
        raise ValidationError("relu_suffix_bound requires an mlp1 head")
    _check_classes(model, y, t)
    lo, hi = preact.lo, preact.hi
    if lo.shape != (model.hidden,):
        raise ValidationError(f"pre-activation bounds must have shape ({model.hidden},), got {lo.shape}")

    omega = sfx.w2[y] - sfx.w2[t]
    dead = hi <= 0.0
    live = lo >= 0.0
    cross = ~(dead | live)

    denom = np.where(cross, hi - lo, 1.0)
    chord = np.where(cross, hi / denom, 0.0)
    alpha = np.where(hi >= -lo, 1.0, 0.0)

    slope = np.where(live, omega, 0.0)
    slope = np.where(cross & (omega >= 0.0), omega * alpha, slope)
    slope = np.where(cross & (omega < 0.0), omega * chord, slope)
    intercept = np.where(cross & (omega < 0.0), -omega * chord * lo, 0.0)

    beta = float(sfx.b2[y] - sfx.b2[t] + slope @ sfx.b1 + intercept.sum())
    gamma_flat = sfx.w1.T @ slope
    return SuffixAffineBound(beta=beta, gamma=gamma_flat.reshape(model.tokens, model.d_model))


def block_output_bounds(model: AttentionModelSpec, box: PixelBox) -> tuple[np.ndarray, np.ndarray]:
    """Boxes on the block output tokens, (R, d_model) pair.

    Head outputs are convex combinations of value vectors, so each coordinate
    is bounded by a directional softmax problem over the head's score box
    with the value bounds as coefficients.
    """
    scores = model_score_boxes(model, box)
    v_lo, v_hi = value_scalar_bounds(model, box)
    if not (np.all(np.isfinite(v_lo)) and np.all(np.isfinite(v_hi))):
        raise ValidationError("value bounds must be finite")
    # Row (p, h, i, r): coefficients v[h, :, r] over the score box of query
    # token i, with v_lo in plane 0 and -v_hi in plane 1; the maximum is
    # -min(-c).  Shapes (2, heads, 1, d_head, R) against (heads, R, 1, R).
    c = np.stack((v_lo, -v_hi)).transpose(0, 1, 3, 2)[:, :, None]
    o_lo, neg_hi = sweep_min(c, scores.lower[:, :, None, :], scores.upper[:, :, None, :])[0]
    o_hi = -neg_hi
    # The two optima can cross by a ulp on near-degenerate rows; widen outward.
    o_lo, o_hi = np.minimum(o_lo, o_hi), np.maximum(o_lo, o_hi)
    wo_p = np.maximum(model.wo, 0.0)
    wo_n = np.minimum(model.wo, 0.0)
    out_lo = np.einsum("hmd,hid->im", wo_p, o_lo) + np.einsum("hmd,hid->im", wo_n, o_hi) + model.bo
    out_hi = np.einsum("hmd,hid->im", wo_p, o_hi) + np.einsum("hmd,hid->im", wo_n, o_lo) + model.bo
    if model.residual:
        t_lo, t_hi = token_bounds(model, box)
        out_lo = out_lo + t_lo
        out_hi = out_hi + t_hi
    return out_lo, out_hi


def interval_forward(model: AttentionModelSpec, box: PixelBox) -> PreActBox:
    """Hidden pre-activation boxes over the pixel box (empty for a linear head)."""
    sfx = model.suffix
    if isinstance(sfx, LinearSuffix):
        return PreActBox(lo=np.zeros(0), hi=np.zeros(0))
    h_lo, h_hi = block_output_bounds(model, box)
    p_lo = h_lo.reshape(-1)
    p_hi = h_hi.reshape(-1)
    w1_p = np.maximum(sfx.w1, 0.0)
    w1_n = np.minimum(sfx.w1, 0.0)
    z_lo = w1_p @ p_lo + w1_n @ p_hi + sfx.b1
    z_hi = w1_p @ p_hi + w1_n @ p_lo + sfx.b1
    return PreActBox(lo=z_lo, hi=z_hi)


def _check_classes(model: AttentionModelSpec, y: int, t: int) -> None:
    for name, v in (("y", y), ("t", t)):
        if not 0 <= v < model.n_classes:
            raise ValidationError(f"class index {name}={v} out of range for {model.n_classes} classes")
    if y == t:
        raise ValidationError("margin needs two distinct classes")
