"""Bound propagation through the attention block.

Everything before the softmax is affine in the pixels of a single patch, so
query/key/value coordinates get exact interval bounds over a pixel box.
Score boxes come from interval products of the query and key bounds.  The
margin of a linear functional of the attention output then decomposes into
one directional softmax row problem per (target, head, query token); every
row is solved in one kernel call, exactly by the threshold sweep or bounded
by the interval-softmax baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .baseline import baseline_min
from .errors import ValidationError
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
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValidationError(f"pixel box endpoints must be matched flat vectors, got {lo.shape} and {hi.shape}")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValidationError("pixel box endpoints must be finite")
        if np.any(lo > hi):
            raise ValidationError("pixel box has lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def size(self) -> int:
        return int(self.lo.shape[0])


@dataclass(frozen=True, eq=False)
class ScoreBoxTensor:
    """Per (head, query token) boxes over the score rows, shape (heads, R, R)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        if lower.ndim != 3 or lower.shape != upper.shape:
            raise ValidationError(f"score tensor must be (heads, R, R) pairs, got {lower.shape} and {upper.shape}")
        if lower.shape[1] < 1:
            raise ValidationError("score tensor must have at least one token")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValidationError("score tensor endpoints must be finite")
        if np.any(lower > upper):
            raise ValidationError("score tensor has lower > upper")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def heads(self) -> int:
        return int(self.lower.shape[0])

    @property
    def tokens(self) -> int:
        return int(self.lower.shape[1])

    def row(self, h: int, i: int) -> ScoreBox:
        return ScoreBox(lower=self.lower[h, i], upper=self.upper[h, i])


@dataclass(frozen=True, eq=False)
class ValueCoeffs:
    """Row coefficients c[t, h, i, j] and the input-independent floor
    b_prime[t] for each certification target."""

    c: np.ndarray
    b_prime: np.ndarray


def _matrix_box_bounds(w: np.ndarray, off: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Rowwise exact affine bounds: w (..., n) against a box (..., n)."""
    wp = np.maximum(w, 0.0)
    wn = np.minimum(w, 0.0)
    out_lo = np.einsum("...n,...n->...", wp, lo) + np.einsum("...n,...n->...", wn, hi) + off
    out_hi = np.einsum("...n,...n->...", wp, hi) + np.einsum("...n,...n->...", wn, lo) + off
    return out_lo, out_hi


def _token_pixel_boxes(model: AttentionModelSpec, box: PixelBox) -> tuple[np.ndarray, np.ndarray]:
    if box.size != model.image_size:
        raise ValidationError(f"pixel box length {box.size} does not match image size {model.image_size}")
    idx = patch_pixel_indices(model)
    return box.lo[idx], box.hi[idx]  # (R, patch_dim) each


def token_bounds(model: AttentionModelSpec, box: PixelBox) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-coordinate bounds on the embedded tokens, (R, d_model) pair."""
    xlo, xhi = _token_pixel_boxes(model, box)
    w = model.w_embed[None, :, :]  # broadcast over tokens
    return _matrix_box_bounds(w, model.b_embed[None, :], xlo[:, None, :], xhi[:, None, :])


def _head_affine(model: AttentionModelSpec, w_head: np.ndarray, b_head: np.ndarray):
    # Compose head projection with the embedding: affine map from patch pixels.
    a = np.einsum("hdm,mp->hdp", w_head, model.w_embed)
    off = np.einsum("hdm,m->hd", w_head, model.b_embed) + b_head
    return a, off


def _head_bounds(model, box, w_head, b_head):
    xlo, xhi = _token_pixel_boxes(model, box)
    a, off = _head_affine(model, w_head, b_head)
    lo, hi = _matrix_box_bounds(
        a[:, None, :, :], off[:, None, :], xlo[None, :, None, :], xhi[None, :, None, :]
    )
    return lo, hi  # (heads, R, d_head)


def qk_scalar_bounds(model: AttentionModelSpec, box: PixelBox):
    """Exact bounds for every query and key coordinate, four (heads, R, d_head) arrays."""
    q_lo, q_hi = _head_bounds(model, box, model.wq, model.bq)
    k_lo, k_hi = _head_bounds(model, box, model.wk, model.bk)
    return q_lo, q_hi, k_lo, k_hi


def value_scalar_bounds(model: AttentionModelSpec, box: PixelBox):
    """Exact bounds for every value coordinate, (heads, R, d_head) pair."""
    return _head_bounds(model, box, model.wv, model.bv)


def score_boxes_interval_product(q_lo, q_hi, k_lo, k_hi, scale: float, mask) -> ScoreBoxTensor:
    """Score boxes from query/key coordinate bounds.

    Each scalar product q_ir * k_jr is bounded by its four endpoint
    products; the bounds are summed over the head dimension, scaled, and
    shifted by the additive mask.
    """
    q_lo, q_hi, k_lo, k_hi = (np.asarray(a, dtype=np.float64) for a in (q_lo, q_hi, k_lo, k_hi))
    mask = np.asarray(mask, dtype=np.float64)
    if not scale > 0.0:
        raise ValidationError(f"scale must be positive, got {scale}")
    ql = q_lo[:, :, None, :]
    qh = q_hi[:, :, None, :]
    kl = k_lo[:, None, :, :]
    kh = k_hi[:, None, :, :]
    # Products that overflow give non-finite scores, which ScoreBoxTensor
    # rejects; the float warnings on the way there would be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        corners = np.stack((ql * kl, ql * kh, qh * kl, qh * kh))
        p_min = corners.min(axis=0).sum(axis=3)
        p_max = corners.max(axis=0).sum(axis=3)
        lower, upper = scale * p_min + mask, scale * p_max + mask
    return ScoreBoxTensor(lower=lower, upper=upper)


def model_score_boxes(model: AttentionModelSpec, box: PixelBox) -> ScoreBoxTensor:
    """Score boxes for a model over a pixel box."""
    q_lo, q_hi, k_lo, k_hi = qk_scalar_bounds(model, box)
    return score_boxes_interval_product(q_lo, q_hi, k_lo, k_hi, model.scale, model.mask)


def value_coefficients(
    suffix_bounds: "Sequence[SuffixAffineBound]",
    model: AttentionModelSpec,
    box: PixelBox,
) -> ValueCoeffs:
    """Per-row directional coefficients and the input-independent margin floor.

    For target t with suffix bound (beta, gamma), row (h, i) gets coefficients
    c[t, h, i, j] = exact lower bound over the pixel box of the value
    contribution gamma_i . W_o^h V_j^h(x), and

      b_prime[t] = beta + sum_i gamma_i . b_o
                   (+ exact lower bound of sum_i gamma_i . H_i(x) when the
                    block has a residual connection).
    """
    if not suffix_bounds:
        raise ValidationError("need at least one suffix bound")
    gamma = np.stack([np.asarray(sb.gamma, dtype=np.float64) for sb in suffix_bounds])
    beta = np.asarray([float(sb.beta) for sb in suffix_bounds])
    tokens, d_model = model.tokens, model.d_model
    if gamma.shape[1:] != (tokens, d_model):
        raise ValidationError(f"gamma must be (tokens, d_model) = ({tokens}, {d_model}), got {gamma.shape[1:]}")

    xlo, xhi = _token_pixel_boxes(model, box)
    # eta[t, i, h] = (W_o^h)^T gamma_{t,i}
    eta = np.einsum("hmd,tim->tihd", model.wo, gamma)
    av, ov = _head_affine(model, model.wv, model.bv)  # pixel -> value affine map
    w = np.einsum("tihd,hdp->tihp", eta, av)
    offs = np.einsum("tihd,hd->tih", eta, ov)
    wp = np.maximum(w, 0.0)
    wn = np.minimum(w, 0.0)
    c = (
        np.einsum("tihp,jp->tihj", wp, xlo)
        + np.einsum("tihp,jp->tihj", wn, xhi)
        + offs[:, :, :, None]
    )
    c = np.transpose(c, (0, 2, 1, 3))  # (T, heads, i, j)

    b_prime = beta + gamma.sum(axis=1) @ model.bo
    if model.residual:
        g = np.einsum("tim,mp->tip", gamma, model.w_embed)
        gp = np.maximum(g, 0.0)
        gn = np.minimum(g, 0.0)
        res_lo = (
            np.einsum("tip,ip->t", gp, xlo)
            + np.einsum("tip,ip->t", gn, xhi)
            + np.einsum("tim,m->t", gamma, model.b_embed)
        )
        b_prime = b_prime + res_lo
    return ValueCoeffs(c=c, b_prime=b_prime)


def _target_block(coeffs: ValueCoeffs, scores: ScoreBoxTensor) -> tuple[np.ndarray, np.ndarray]:
    """The (T, heads, R, R) coefficient stack and the (T,) floors, checked
    against the score tensor the stack is broadcast over."""
    c = coeffs.c
    floor = np.asarray(coeffs.b_prime, dtype=np.float64)
    if c.shape[1:] != scores.lower.shape or floor.shape != c.shape[:1]:
        raise ValidationError(
            f"coefficients {c.shape} and floors {floor.shape} do not match score tensor {scores.lower.shape}"
        )
    if not np.all(np.isfinite(c)):
        raise ValidationError("value coefficients must be finite")
    return c, floor


def _accumulate(floor: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # cumsum adds left to right in (head, token) order, so each target's
    # total is bit-identical to a scalar `total += row` loop.
    terms = np.concatenate((floor[:, None], rows.reshape(len(floor), -1)), axis=1)
    return np.cumsum(terms, axis=1)[:, -1]


def margin_lower_bound(coeffs: ValueCoeffs, scores: ScoreBoxTensor) -> np.ndarray:
    """Sound margin lower bounds, shape (T,): each target's floor plus the
    exact directional minimum of its every (head, query token) row."""
    c, floor = _target_block(coeffs, scores)
    values, _, _ = sweep_min(c, scores.lower, scores.upper)
    return _accumulate(floor, values)


def baseline_margin_lower_bound(coeffs: ValueCoeffs, scores: ScoreBoxTensor) -> np.ndarray:
    """margin_lower_bound with the interval-softmax baseline bounding each row."""
    c, floor = _target_block(coeffs, scores)
    return _accumulate(floor, baseline_min(c, scores.lower, scores.upper))
