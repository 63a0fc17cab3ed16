"""Affine lower bounds on class-score margins through the classifier head.

The margins logit_y - logit_t of all targets t are reduced at once to
affine functions of the block output tokens: exactly for a linear head,
and through per-neuron linear ReLU relaxations for the one-hidden-layer
head.  The relaxation needs boxes on the hidden pre-activations, which
interval_forward supplies by running an interval version of the whole
block (directional softmax bounds included) up to the hidden layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import PixelBox, token_bounds, value_scalar_bounds
from .attention import model_score_boxes  # noqa: F401  unused since the caller passes the score boxes; benchmark/tracing.py wraps this name
from .errors import check_box
from .intervals import affine_bounds
from .model import AttentionModelSpec
from .solver import ScoreBox, sweep_min
from .solver import directional_max, directional_min  # noqa: F401  unused since rows go through sweep_min; benchmark/tracing.py wraps these names


@dataclass(frozen=True, eq=False)
class SuffixAffineBound:
    """margin_t >= beta[t] + sum_i gamma[t, i] . hplus_i for every target t
    and all inputs in the box the bound was built for.  beta has shape
    (T,) and gamma (T, tokens, d_model)."""

    beta: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True, eq=False)
class PreActBox:
    """Bounds on the hidden-layer pre-activations of an mlp1 head."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo, hi = check_box("pre-activation box", self.lo, self.hi, ndim=1)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


def linear_suffix_bound(model: AttentionModelSpec, y: int, targets) -> SuffixAffineBound:
    """Exact margin forms for a linear head: beta[t] + gamma[t] . tokens
    reproduces logit_y - logit_{targets[t]} identically."""
    sfx = model.suffix
    w = sfx.w[y] - sfx.w[targets]
    return SuffixAffineBound(beta=sfx.b[y] - sfx.b[targets], gamma=w.reshape(len(targets), model.tokens, model.d_model))


def relu_suffix_bound(model: AttentionModelSpec, preact: PreActBox, y: int, targets) -> SuffixAffineBound:
    """Affine margin lower bounds through the ReLU head, one per target.

    For each target, each crossing neuron is replaced by a line: the chord
    from below when the outgoing margin coefficient is negative, and a zero-
    or unit-slope line through the origin (whichever halves the gap better)
    when it is positive.  Stable neurons pass through exactly.
    """
    sfx = model.suffix
    lo, hi = preact.lo, preact.hi
    omega = sfx.w2[y] - sfx.w2[targets]  # (T, hidden)
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

    beta = sfx.b2[y] - sfx.b2[targets] + slope @ sfx.b1 + intercept.sum(axis=1)
    gamma = slope @ sfx.w1
    return SuffixAffineBound(beta=beta, gamma=gamma.reshape(len(targets), model.tokens, model.d_model))


def block_output_bounds(
    model: AttentionModelSpec, box: PixelBox, scores: ScoreBox
) -> tuple[np.ndarray, np.ndarray]:
    """Boxes on the block output tokens, (R, d_model) pair.

    Head outputs are convex combinations of value vectors, so each coordinate
    is bounded by a directional softmax problem over the head's score box
    with the value bounds as coefficients.  `scores` is the box's
    model_score_boxes.
    """
    v_lo, v_hi = check_box("value bounds", *value_scalar_bounds(model, box))
    # Row (p, h, i, r): coefficients v[h, :, r] over the score box of query
    # token i, with v_lo in plane 0 and -v_hi in plane 1; the maximum is
    # -min(-c).  Shapes (2, heads, 1, d_head, R) against (heads, R, 1, R).
    c = np.stack((v_lo, -v_hi)).transpose(0, 1, 3, 2)[:, :, None]
    o_lo, neg_hi = sweep_min(c, scores.lower[:, :, None, :], scores.upper[:, :, None, :])[0]
    o_hi = -neg_hi
    # The two optima can cross by a ulp on near-degenerate rows; widen outward.
    o_lo, o_hi = np.minimum(o_lo, o_hi), np.maximum(o_lo, o_hi)
    # W_o against one box per query token, the (heads * d_head, R) columns.
    cols = [o.transpose(0, 2, 1).reshape(-1, model.tokens) for o in (o_lo, o_hi)]
    out_lo, out_hi = affine_bounds(model._w_o.T, *cols)
    out_lo, out_hi = out_lo.T + model.bo, out_hi.T + model.bo
    if model.residual:
        t_lo, t_hi = token_bounds(model, box)
        out_lo = out_lo + t_lo
        out_hi = out_hi + t_hi
    return out_lo, out_hi


def interval_forward(model: AttentionModelSpec, box: PixelBox, scores: ScoreBox) -> PreActBox:
    """Hidden pre-activation boxes of an mlp1 head over the pixel box.
    `scores` is passed on to block_output_bounds."""
    sfx = model.suffix
    h_lo, h_hi = block_output_bounds(model, box, scores)
    z_lo, z_hi = affine_bounds(sfx.w1, h_lo.reshape(-1), h_hi.reshape(-1))
    return PreActBox(lo=z_lo + sfx.b1, hi=z_hi + sfx.b1)
