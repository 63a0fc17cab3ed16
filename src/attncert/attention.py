"""Bound propagation through the attention block.

Everything before the softmax is affine in the pixels of a single patch, so
query/key/value coordinates get exact interval bounds over a pixel box.
Score boxes come from interval products of the query and key bounds, as
one (lower, upper) pair of (heads, R, R) arrays, a row per (head, query
token).  The margin of a linear functional of the attention output then
decomposes into one directional softmax row problem per (target, head,
query token); every row is solved in one kernel call: exactly by the
threshold sweep, from below by the certified sweep, or by the
interval-softmax baseline.

The row coefficients compose the suffix bound (beta, gamma) with the
pixel -> value -> W_o maps.  That composition and its sign split do not
depend on the box: value_maps builds them, and value_coefficients takes
them over one box, as each target's row coefficients c and floor b_prime,
the plain arrays the three margin arms take with the score boxes.
verify.certify_targets keeps the linear head's maps per (model, label);
the mlp1 head's suffix bound, and so its maps, are built anew for every
box.  These stages trust their inputs, which verify.certify_targets
checks; the boxes they build (the score boxes here, the value and
pre-activation bounds in suffix) hold their shape and order by
construction and get one finite check each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baseline import baseline_min
from .certified import certified_sweep_min
from .errors import CertificationInfeasibleError, ValidationError, check_box, check_finite
from .intervals import affine_bounds, sign_split
from .model import AttentionModelSpec, patch_pixel_indices
from .solver import sweep_min
from .solver import directional_min  # noqa: F401  unused since rows go through sweep_min; benchmark/tracing.py wraps this name


@dataclass(frozen=True, eq=False)
class PixelBox:
    """Axis-aligned box in flat image space."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo, hi = check_box("pixel box", self.lo, self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def size(self) -> int:
        return int(self.lo.shape[0])


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


def score_boxes_interval_product(q_lo, q_hi, k_lo, k_hi, scale: float, mask) -> tuple[np.ndarray, np.ndarray]:
    """Score boxes from query/key coordinate bounds: the (lower, upper) pair
    of (heads, R, R) arrays, a row per (head, query token).

    Each scalar product q_ir * k_jr is bounded by its four endpoint
    products, taken in one chain of np.minimum / np.maximum calls (a
    stacked reduce's order, so signed zeros come out alike); the bounds are
    summed over the head dimension, scaled, and shifted by the additive
    mask.  The lower bound is at most the upper one by construction, so the
    boxes get their finite check alone.
    """
    ql = q_lo[:, :, None, :]
    qh = q_hi[:, :, None, :]
    kl = k_lo[:, None, :, :]
    kh = k_hi[:, None, :, :]
    first, second = ql * kl, ql * kh
    p_min = np.minimum(first, second)
    p_max = np.maximum(first, second, out=first)
    for corner in (qh * kl, qh * kh):
        np.minimum(p_min, corner, out=p_min)
        np.maximum(p_max, corner, out=p_max)
    lower, upper = scale * p_min.sum(axis=3) + mask, scale * p_max.sum(axis=3) + mask
    check_finite("score box", lower, upper)
    return lower, upper


def model_score_boxes(model: AttentionModelSpec, box: PixelBox) -> tuple[np.ndarray, np.ndarray]:
    """Score boxes for a model over a pixel box."""
    (q_lo, k_lo), (q_hi, k_hi) = _qkv_bounds(model, box, slice(0, 2))
    return score_boxes_interval_product(q_lo, q_hi, k_lo, k_hi, model.scale, model.mask)


class _ValueMaps(NamedTuple):
    """The part of value_coefficients that does not depend on the box, for
    one suffix bound (beta, gamma) with g = gamma's (T * R, d_model) rows
    and g_sum its sum over tokens: the sign-split halves of g @ W_pix_o,
    ((T * R * heads), patch_dim) each, and the offsets g @ b_pix_o,
    (T, R, heads, 1); beta + g_sum @ b_o; with a residual connection the
    halves of the token map g @ w_embed, (T, R * patch_dim) each, and
    g_sum @ b_embed (None without one).  Every array is read-only."""

    w_pos: np.ndarray
    w_neg: np.ndarray
    offs: np.ndarray
    floor: np.ndarray
    res_pos: np.ndarray | None
    res_neg: np.ndarray | None
    res_floor: np.ndarray | None


def value_maps(beta: np.ndarray, gamma: np.ndarray, model: AttentionModelSpec) -> _ValueMaps:
    """The _ValueMaps of the suffix bound (beta, gamma), shapes (T,) and
    (T, R, d_model), read-only: a bound that serves many boxes (the linear
    head's, one per label) needs them built once."""
    n_t = len(gamma)
    g = gamma.reshape(-1, model.d_model)  # (T * R, d_model) rows
    g_sum = gamma.sum(axis=1)
    w_pos, w_neg = sign_split((g @ model._w_pix_o).reshape(-1, model.patch_dim))
    offs = (g @ model._b_pix_o).reshape(n_t, model.tokens, model.heads, 1)
    floor = beta + g_sum @ model.bo
    res_pos = res_neg = res_floor = None
    if model.residual:
        res_pos, res_neg = sign_split((g @ model.w_embed).reshape(n_t, -1))
        res_floor = g_sum @ model.b_embed
    maps = _ValueMaps(w_pos, w_neg, offs, floor, res_pos, res_neg, res_floor)
    for a in maps:
        if a is not None:
            a.setflags(write=False)
    return maps


def value_coefficients(maps: _ValueMaps, model: AttentionModelSpec, box: PixelBox) -> tuple[np.ndarray, np.ndarray]:
    """(c, b_prime): per-row directional coefficients, (T, heads, R, R), and
    the input-independent margin floor, (T,).

    For target t of the stacked suffix bound (beta, gamma) whose value_maps
    are maps, row (h, i) gets coefficients c[t, h, i, j] = exact lower
    bound over the pixel box of the value contribution
    gamma[t, i] . W_o^h V_j^h(x), and

      b_prime[t] = beta[t] + sum_i gamma[t, i] . b_o
                   (+ exact lower bound of sum_i gamma[t, i] . H_i(x) when
                    the block has a residual connection).

    Per box only the maps' lower products over the box are taken.  Raises
    ValidationError unless every coefficient and floor is finite.
    """
    n_t = len(maps.floor)
    xlo, xhi = _token_pixel_boxes(model, box)
    c = (maps.w_pos @ xlo.T + maps.w_neg @ xhi.T).reshape(n_t, model.tokens, model.heads, model.tokens) + maps.offs
    c = np.transpose(c, (0, 2, 1, 3))  # (T, heads, i, j)
    b_prime = maps.floor
    if model.residual:
        b_prime = b_prime + (maps.res_pos @ xlo.reshape(-1) + maps.res_neg @ xhi.reshape(-1) + maps.res_floor)
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(b_prime))):
        raise ValidationError("value coefficients must be finite")
    return c, b_prime


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


def margin_lower_bound(c: np.ndarray, b_prime: np.ndarray, scores: tuple) -> np.ndarray:
    """Sound margin lower bounds, shape (T,): each target's floor b_prime[t]
    plus the exact directional minimum of its every (head, query token) row
    c[t, h, i] over scores, model_score_boxes' (lower, upper) pair."""
    values, _ = sweep_min(c, *scores)
    return _accumulate(b_prime, values)


def baseline_margin_lower_bound(c: np.ndarray, b_prime: np.ndarray, scores: tuple) -> np.ndarray:
    """margin_lower_bound with the interval-softmax baseline bounding each row."""
    return _accumulate(b_prime, baseline_min(c, *scores))


def certified_margin_lower_bound(c: np.ndarray, b_prime: np.ndarray, scores: tuple) -> np.ndarray:
    """margin_lower_bound with every (target, head, query token) row bounded
    by the certified sweep, in one kernel call, and the sum rounded down."""
    rows, saturated = certified_sweep_min(c, *scores)
    total = _accumulate_down(b_prime, rows)
    if saturated.any() or not np.all(np.isfinite(total)):
        raise CertificationInfeasibleError(
            "float evaluation saturated; the certified bound is not valid for this instance"
        )
    return total
