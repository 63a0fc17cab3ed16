"""Bound propagation through the attention block.

Everything before the softmax is affine in the pixels of a single patch, so
query/key/value coordinates get exact interval bounds over a pixel box.
Score boxes come from interval products of the query and key bounds, as
one ScoreBox stack of shape (heads, R, R), a row per (head, query token).
The margin of a linear functional of the attention output then decomposes
into one directional softmax row problem per (target, head, query token);
every row is solved in one kernel call: exactly by the threshold sweep,
from below by the certified sweep, or by the interval-softmax baseline.
These stages trust their inputs, which verify.certify_targets checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .baseline import baseline_min
from .certified import certified_sweep_min
from .errors import CertificationInfeasibleError, ValidationError, check_box
from .intervals import affine_bounds, affine_lower
from .model import AttentionModelSpec, patch_pixel_indices
from .solver import ScoreBox, sweep_min
from .solver import directional_min  # noqa: F401  unused since rows go through sweep_min; benchmark/tracing.py wraps this name

if TYPE_CHECKING:  # pragma: no cover
    from .suffix import SuffixAffineBound


@dataclass(frozen=True, eq=False)
class PixelBox:
    """Axis-aligned box in flat image space."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo, hi = check_box("pixel box", self.lo, self.hi, ndim=1)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def size(self) -> int:
        return int(self.lo.shape[0])


@dataclass(frozen=True, eq=False)
class ValueCoeffs:
    """Row coefficients c[t, h, i, j] and the input-independent floor
    b_prime[t] for each certification target."""

    c: np.ndarray
    b_prime: np.ndarray


def _token_pixel_boxes(model: AttentionModelSpec, box: PixelBox) -> tuple[np.ndarray, np.ndarray]:
    idx = patch_pixel_indices(model)
    return box.lo[idx], box.hi[idx]  # (R, patch_dim) each


def token_bounds(model: AttentionModelSpec, box: PixelBox) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-coordinate bounds on the embedded tokens, (R, d_model) pair."""
    xlo, xhi = _token_pixel_boxes(model, box)
    lo, hi = affine_bounds(model.w_embed, xlo.T, xhi.T)
    return lo.T + model.b_embed, hi.T + model.b_embed


def _qkv_bounds(model: AttentionModelSpec, box: PixelBox, parts: slice):
    """Exact bounds on the projections `parts` of (q, k, v) for every
    token, a pair of (len(parts), heads, R, d_head) arrays."""
    xlo, xhi = _token_pixel_boxes(model, box)
    lo, hi = affine_bounds(model._w_pix_qkv[parts], xlo.T, xhi.T)  # (parts, heads, d_head, R)
    off = model._b_pix_qkv[parts, :, :, None]
    return (lo + off).swapaxes(2, 3), (hi + off).swapaxes(2, 3)


def value_scalar_bounds(model: AttentionModelSpec, box: PixelBox):
    """Exact bounds for every value coordinate, (heads, R, d_head) pair."""
    (v_lo,), (v_hi,) = _qkv_bounds(model, box, slice(2, 3))
    return v_lo, v_hi


def score_boxes_interval_product(q_lo, q_hi, k_lo, k_hi, scale: float, mask) -> ScoreBox:
    """Score boxes from query/key coordinate bounds: one (heads, R, R) stack,
    a row per (head, query token).

    Each scalar product q_ir * k_jr is bounded by its four endpoint
    products; the bounds are summed over the head dimension, scaled, and
    shifted by the additive mask.
    """
    ql = q_lo[:, :, None, :]
    qh = q_hi[:, :, None, :]
    kl = k_lo[:, None, :, :]
    kh = k_hi[:, None, :, :]
    corners = np.stack((ql * kl, ql * kh, qh * kl, qh * kh))
    p_min = corners.min(axis=0).sum(axis=3)
    p_max = corners.max(axis=0).sum(axis=3)
    return ScoreBox(lower=scale * p_min + mask, upper=scale * p_max + mask)


def model_score_boxes(model: AttentionModelSpec, box: PixelBox) -> ScoreBox:
    """Score boxes for a model over a pixel box."""
    (q_lo, k_lo), (q_hi, k_hi) = _qkv_bounds(model, box, slice(0, 2))
    return score_boxes_interval_product(q_lo, q_hi, k_lo, k_hi, model.scale, model.mask)


def value_coefficients(suffix: "SuffixAffineBound", model: AttentionModelSpec, box: PixelBox) -> ValueCoeffs:
    """Per-row directional coefficients and the input-independent margin floor.

    For target t of the stacked suffix bound (beta, gamma), row (h, i) gets
    coefficients c[t, h, i, j] = exact lower bound over the pixel box of the
    value contribution gamma[t, i] . W_o^h V_j^h(x), and

      b_prime[t] = beta[t] + sum_i gamma[t, i] . b_o
                   (+ exact lower bound of sum_i gamma[t, i] . H_i(x) when
                    the block has a residual connection).

    Raises ValidationError unless every coefficient and floor is finite.
    """
    gamma, beta = suffix.gamma, suffix.beta
    tokens, d_model = model.tokens, model.d_model
    n_t = len(gamma)
    xlo, xhi = _token_pixel_boxes(model, box)
    g = gamma.reshape(-1, d_model)  # (T * R, d_model) rows
    w = (g @ model._w_pix_o).reshape(n_t, tokens, model.heads, model.patch_dim)
    offs = (g @ model._b_pix_o).reshape(n_t, tokens, model.heads, 1)
    c = affine_lower(w, xlo.T, xhi.T) + offs
    c = np.transpose(c, (0, 2, 1, 3))  # (T, heads, i, j)

    g_sum = gamma.sum(axis=1)
    b_prime = beta + g_sum @ model.bo
    if model.residual:
        res = (g @ model.w_embed).reshape(n_t, -1)
        b_prime = b_prime + (affine_lower(res, xlo.reshape(-1), xhi.reshape(-1)) + g_sum @ model.b_embed)
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(b_prime))):
        raise ValidationError("value coefficients must be finite")
    return ValueCoeffs(c=c, b_prime=b_prime)


def _accumulate(floor: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # cumsum adds left to right in (head, token) order, so each target's
    # total is bit-identical to a scalar `total += row` loop.  A sum past
    # the float range is +-inf, still a sound bound.
    terms = np.concatenate((floor[:, None], rows.reshape(len(floor), -1)), axis=1)
    with np.errstate(over="ignore"):
        return np.cumsum(terms, axis=1)[:, -1]


def _accumulate_down(floor: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """_accumulate, lowered below the exact sum of its n terms.

    Recursive summation obeys |fl(S) - S| <= gamma_{n-1} * sum|x_i| with
    gamma_k = k*u / (1 - k*u), u = 2**-53 (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 4.2).  The computed sum of magnitudes reads
    low by at most the same factor, so n * 2**-52 times it, rounded up,
    covers the error while (n - 1) * u <= 1/4; nextafter then covers the
    rounding of the final subtraction.
    """
    rows = rows.reshape(len(floor), -1)
    n = rows.shape[1] + 1
    with np.errstate(over="ignore", invalid="ignore"):
        pad = np.nextafter((np.abs(floor) + np.abs(rows).sum(axis=1)) * (n * 2.0**-52), np.inf)
        return np.nextafter(_accumulate(floor, rows) - pad, -np.inf)


def margin_lower_bound(coeffs: ValueCoeffs, scores: ScoreBox) -> np.ndarray:
    """Sound margin lower bounds, shape (T,): each target's floor plus the
    exact directional minimum of its every (head, query token) row."""
    values, _ = sweep_min(coeffs.c, scores.lower, scores.upper)
    return _accumulate(coeffs.b_prime, values)


def baseline_margin_lower_bound(coeffs: ValueCoeffs, scores: ScoreBox) -> np.ndarray:
    """margin_lower_bound with the interval-softmax baseline bounding each row."""
    return _accumulate(coeffs.b_prime, baseline_min(coeffs.c, scores.lower, scores.upper))


def certified_margin_lower_bound(coeffs: ValueCoeffs, scores: ScoreBox) -> np.ndarray:
    """margin_lower_bound with every (target, head, query token) row bounded
    by the certified sweep, in one kernel call, and the sum rounded down."""
    rows, saturated = certified_sweep_min(coeffs.c, scores.lower, scores.upper)
    total = _accumulate_down(coeffs.b_prime, rows)
    if saturated.any() or not np.all(np.isfinite(total)):
        raise CertificationInfeasibleError(
            "float evaluation saturated; the certified bound is not valid for this instance"
        )
    return total
