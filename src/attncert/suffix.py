"""Affine lower bounds on class-score margins through the classifier head.

The margins logit_y - logit_t of all targets t are reduced at once to
affine functions of the block output tokens: exactly for a linear head,
and through per-neuron linear ReLU relaxations for the one-hidden-layer
head.  The relaxation needs boxes on the hidden pre-activations, which
interval_forward supplies by running an interval version of the whole
block (directional softmax bounds included) up to the hidden layer.

margin_gradient_bounds encloses the same margins' pixel gradients over a
box, for the attack's polish, which leaves out the moves the enclosure
proves cannot lower a margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import PixelBox, _token_pixel_boxes, token_bounds, value_scalar_bounds
from .attention import model_score_boxes  # noqa: F401  unused since the caller passes the score boxes; benchmark/tracing.py wraps this name
from .baseline import _output_bounds
from .errors import check_box
from .intervals import affine_bounds
from .model import AttentionModelSpec, MlpSuffix
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


# margin_gradient_bounds widens its radius by this much of the enclosure's
# magnitude, |mid| + rad, which covers its round-to-nearest arithmetic.
_GRAD_PAD = 2.0**-30


def margin_gradient_bounds(
    model: AttentionModelSpec, box: PixelBox, y: int, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (g_lo, g_hi), each (T, image_size), on every partial derivative
    d(logit_y - logit_t)/dx_j over the whole pixel box, one row per target t.

    By the mean value theorem a one-pixel move to lo cannot lower margin t
    where g_hi[t, j] < 0, nor a move to hi where g_lo[t, j] > 0.  Take pixel
    j at patch coordinate p of token tau, with slopes alpha_p, beta_p and
    gamma_p on head h's q_tau, k_tau and v_tau.  With g[t, i] the margin's
    slope on block output token i, G[t, h, i] = g[t, i] . W_o^h its slope on
    head h's output o_i = sum_k a[h, i, k] v_k, a the softmax output and
    P[t, h, i, k] = a[h, i, k] G[t, h, i] . (v_k - o_i) its slope on score
    (i, k),

      dm_t/dx_j = sum_h [ cs sum_i P[t, h, i, tau] (q_i . beta_p)
                          + cs sum_k P[t, h, tau, k] (k_k . alpha_p)
                          + sum_i a[h, i, tau] (G[t, h, i] . gamma_p) ]
                  + g[t, tau] . w_embed[:, p]   (with a residual),

    cs being the score scale.  g is w_y - w_t for a linear head and
    sum_k omega_tk rho_k W1[k] for mlp1, rho_k being {0}, {1} or [0, 1] as
    hidden neuron k is dead, live or crossing over the box (ReLU is
    Lipschitz, so the mean value argument still holds).

    Every factor takes a box.  q, k, v and the scores are expanded about
    the patch centres, so the score box keeps the bilinear form's
    first-order part exactly; a is the interval softmax bound of that box.
    As sum_l a_il = 1, G . (v_k - o_i) = u_ik - sum_l a_il u_il with u_ik =
    G[t, h, i] . gamma x_k (the biases cancel), a sum taken about its
    a-weighted centre, so bounding o takes no softmax sweep; mlp1's
    pre-activation boxes bound o the same way.  The linear maps are composed
    before any absolute value is taken (g through w_embed and W_o gamma;
    each hidden row through W_o and w_embed for the pre-activations, and a
    crossing one through w_embed and W_o gamma for its radius; alpha^T beta
    for the scores), and products are midpoint-radius.  The enclosure is computed in round-to-nearest and its
    radius widened by _GRAD_PAD (|mid| + rad).  An entry that is not finite
    is (-inf, inf), so it proves nothing, and no float warning is raised on
    the way."""
    with np.errstate(all="ignore"):
        mid, rad = _margin_gradient(model, box, y, targets)
        rad += _GRAD_PAD * (np.abs(mid) + rad)
        g_lo, g_hi = mid - rad, mid + rad
        bad = ~(np.isfinite(g_lo) & np.isfinite(g_hi))
    g_lo[bad], g_hi[bad] = -np.inf, np.inf
    g = np.empty((2, len(targets), model.image_size))
    g[:, :, model._patch_index.reshape(-1)] = g_lo, g_hi
    return g[0], g[1]


def _hidden_signs(model: AttentionModelSpec, xm, xr, v0, am, ar, a_sum):
    """The live hidden neurons of an mlp1 head over the box, a bool mask,
    and the crossing ones, an index array: z = b1 + W1 . hplus with
    hplus_i = W_o o_i + b_o (+ w_embed x_i + b_embed), o[h, i] =
    sum_l a[h, i, l] v[h, l] taken about its a-weighted centre, and each
    hidden row composed with W_o and w_embed before the absolute value.  A
    bound that is not finite is crossing."""
    sfx, r = model.suffix, model.tokens
    v_r = xr @ np.abs(model._w_pix_qkv[2]).swapaxes(-1, -2)  # (heads, R, d_head)
    centre = am @ v0
    o_m = centre * (2.0 - a_sum)[..., None]
    o_r = (am + ar) @ v_r + np.einsum("hild,hil->hid", np.abs(v0[:, None] - centre[:, :, None]), ar)
    res = float(model.residual)
    # Token by token: the head outputs and the residual's pixels, and each
    # hidden row through W_o and w_embed.
    h_m, h_r = (
        np.concatenate((o.swapaxes(0, 1).reshape(r, -1), res * x), axis=1).reshape(-1)
        for o, x in ((o_m, xm), (o_r, xr))
    )
    maps = np.concatenate((model._w_o.T, model.w_embed), axis=1)
    w_in = (sfx.w1.reshape(-1, model.d_model) @ maps).reshape(len(sfx.w1), -1)
    z_m = w_in @ h_m + sfx.b1 + sfx.w1 @ np.tile(model.bo + res * model.b_embed, r)
    z_r = np.abs(w_in) @ h_r
    live, dead = z_m - z_r >= 0.0, z_m + z_r <= 0.0
    return live, np.flatnonzero(~(live | dead))


def _margin_gradient(model: AttentionModelSpec, box: PixelBox, y: int, targets: np.ndarray):
    """margin_gradient_bounds as a midpoint and a radius, (T, R * patch_dim)
    each, in patch order."""
    n_t, r, h, pd = len(targets), model.tokens, model.heads, model.patch_dim
    sfx = model.suffix
    x_lo, x_hi = _token_pixel_boxes(model, box)  # (R, patch_dim)
    xm, xr = 0.5 * (x_lo + x_hi), 0.5 * (x_hi - x_lo)
    # The pixel maps of q, k and v with their biases as a last row, and the
    # patch centres with a unit column: (3, heads, patch_dim + 1, d_head)
    # and (R, patch_dim + 1).
    w_qkv = np.concatenate((model._w_pix_qkv, model._b_pix_qkv[..., None]), axis=-1).swapaxes(-1, -2)
    xm1 = np.concatenate((xm, np.ones((r, 1))), axis=1)
    q0, k0, v0 = xm1 @ w_qkv  # q, k and v at the patch centres, (heads, R, d_head)
    # q_i . beta_p and k_k . alpha_p through [alpha; b_q]^T beta and
    # [beta; b_k]^T alpha, (2, heads, R, patch_dim); the unit column is exact.
    qk = w_qkv[:2] @ model._w_pix_qkv[1::-1]
    qk_m, qk_r = xm1 @ qk, xr @ np.abs(qk[:, :, :pd])

    # Scores about the centres: s_ik = cs (q0_i + alpha d_i) . (k0_k + beta d_k)
    # for |d| <= xr, the first-order terms through q0_i . beta and k0_k . alpha.
    cs = model.scale
    s_m = cs * (q0 @ k0.swapaxes(-1, -2)) + model.mask
    s_r = cs * (np.abs(qk_m[0]) @ xr.T + xr @ np.abs(qk_m[1]).swapaxes(-1, -2) + qk_r[0] @ xr.T)
    a_lo, a_hi = _output_bounds(s_m - s_r, s_m + s_r)  # (heads, R_i, R_k)
    am, ar = 0.5 * (a_lo + a_hi), 0.5 * (a_hi - a_lo)
    # A product a * z, z in zm +- zr, has radius (am + ar) zr + ar |zm|.  A
    # sum sum_l a_il z_l is taken about its a-weighted centre c, as
    # c + sum_l a_il (z_l - c) (sum_l a_il = 1), so its midpoint is
    # c (2 - sum_l am_il).
    a_sum = am.sum(axis=-1)

    # The margin's slope on the block output, g (T, R * d_model): w_y - w_t
    # for a linear head, and sum_k omega_tk rho_k W1[k] for mlp1, its
    # midpoint taken before the maps.  Its slope on token i's pixels runs
    # through w_embed (the residual) and through W_o gamma, per head; a
    # crossing neuron's radius 0.5 |omega_tk| meets its own row composed
    # with the maps.
    maps = np.concatenate((model.w_embed, model._w_pix_o), axis=1)  # (d_model, (heads + 1) * patch_dim)
    if isinstance(sfx, MlpSuffix):
        live, cross = _hidden_signs(model, xm, xr, v0, am, ar, a_sum)
        omega = sfx.w2[y] - sfx.w2[targets]
        coef = omega * live
        coef[:, cross] += 0.5 * omega[:, cross]
        g = coef @ sfx.w1
    else:
        g, cross = sfx.w[y] - sfx.w[targets], ()
    slope_m = (g.reshape(-1, model.d_model) @ maps).reshape(n_t, r, h + 1, pd)
    slope_r = np.zeros_like(slope_m)
    if len(cross):
        w_cross = np.abs(sfx.w1[cross].reshape(-1, model.d_model) @ maps).reshape(len(cross), -1)
        slope_r += (0.5 * np.abs(omega[:, cross]) @ w_cross).reshape(slope_r.shape)
    # Token-major: the residual slope (T, R, patch_dim) and C = G . gamma
    # (T, R, heads, patch_dim).
    (em, cm), (er, cr) = [(s[:, :, 0], s[:, :, 1:]) for s in (slope_m, slope_r)]

    # D[t, i, h, k] = G . (v_k - o_i) = u_ik - sum_l a_il u_il with u_ik =
    # C_i . x_k, and P = a * D, held as (T, (i, h), k).  These are the
    # largest arrays; computed in place in one block, the enclosure took
    # 0.75-0.8x the time of one fresh array per step (interleaved, shape M).
    am, ar, a_sum = am.swapaxes(0, 1).reshape(r * h, r), ar.swapaxes(0, 1).reshape(r * h, r), a_sum.T.reshape(-1, 1)
    d_m, d_r, work, p_m, p_a = np.empty((5, n_t, r * h, r))
    c_m, c_r = cm.reshape(-1, pd), cr.reshape(-1, pd)
    np.matmul(c_m, xm.T, out=d_m.reshape(-1, r))
    np.matmul(np.abs(c_m), xr.T, out=d_r.reshape(-1, r))
    np.matmul(c_r, (np.abs(xm) + xr).T, out=work.reshape(-1, r))
    d_r += work
    centre = np.einsum("tjk,jk->tj", d_m, am)[..., None]
    np.abs(np.subtract(d_m, centre, out=work), out=work)
    sum_r = np.einsum("tjk,jk->tj", d_r, am + ar) + np.einsum("tjk,jk->tj", work, ar)
    d_m -= centre * (2.0 - a_sum)
    d_r += sum_r[..., None]
    np.multiply(d_m, am, out=p_m)
    np.abs(d_m, out=work)
    np.multiply(work, am, out=p_a)  # |P|'s midpoint
    work *= ar
    d_r *= am + ar
    p_r = np.add(d_r, work, out=d_r)

    # The head terms, each summed over heads, (T, R_tau, patch_dim): cs
    # sum_(i, h) P[t, i, h, tau] (q_i . beta_p), cs sum_(h, k)
    # P[t, tau, h, k] (k_k . alpha_p) and sum_(i, h) a[h, i, tau] C[t, i, h, p].
    q_m, q_r = (cs * x[0].swapaxes(0, 1).reshape(r * h, pd) for x in (qk_m, qk_r))  # ((i, h), p)
    k_m, k_r = (cs * x[1].reshape(h * r, pd) for x in (qk_m, qk_r))  # ((h, k), p)
    p_t = [x.swapaxes(1, 2) for x in (p_m, p_a, p_r)]  # (T, R_tau, (i, h))
    p_k = [x.reshape(n_t * r, h * r) for x in (p_m, p_a, p_r)]  # ((t, tau), (h, k))
    a_t = [am.T, ar.T]  # (R_tau, (i, h))
    c_t = [c.reshape(n_t, r * h, pd) for c in (cm, cr)]
    mid = (p_t[0] @ q_m).reshape(n_t, -1) + (p_k[0] @ k_m).reshape(n_t, -1) + (a_t[0] @ c_t[0]).reshape(n_t, -1)
    rad = (p_t[1] @ q_r + p_t[2] @ (np.abs(q_m) + q_r)).reshape(n_t, -1)
    rad += (p_k[1] @ k_r + p_k[2] @ (np.abs(k_m) + k_r)).reshape(n_t, -1)
    rad += (a_t[0] @ c_t[1] + a_t[1] @ (np.abs(c_t[0]) + c_t[1])).reshape(n_t, -1)
    if model.residual:
        mid += em.reshape(n_t, -1)
        rad += er.reshape(n_t, -1)
    return mid, rad
