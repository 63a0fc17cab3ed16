import dataclasses
import warnings

import numpy as np
import pytest

from attncert import AttentionModelSpec, LinearSuffix, ValidationError, forward_batch, pixel_box, random_model
from attncert.attention import model_score_boxes
from attncert.model import patch_pixel_indices
from attncert.suffix import (
    PreActBox,
    block_output_bounds,
    interval_forward,
    linear_suffix_bound,
    margin_gradient_bounds,
    relu_suffix_bound,
)
from oracles import block_output_row_loop, forward_broadcast


def sample_inputs(model, n, rng, box=None):
    if box is None:
        return rng.uniform(0, 1, (n, model.image_size))
    return rng.uniform(box.lo, box.hi, (n, model.image_size))


def eval_bound(bound, hplus, t=0):
    return bound.beta[t] + float(np.sum(bound.gamma[t] * hplus))


class TestLinearSuffix:
    def test_identity_pooling_margin_row(self):
        # One token, d_model = 2, identity classifier: the margin row for
        # y=0 vs t=1 is gamma = (1, -1) with beta = b_0 - b_1.
        m = random_model(seed=1, tokens=1, d_model=2, patch=2, n_classes=2)
        m = AttentionModelSpec(
            **{
                **{f: getattr(m, f) for f in (
                    "height", "width", "channels", "patch", "d_model", "d_head",
                    "heads", "n_classes", "residual", "w_embed", "b_embed",
                    "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "mask",
                )},
                "suffix": LinearSuffix(w=np.eye(2), b=np.array([0.4, -0.1])),
            }
        )
        sb = linear_suffix_bound(m, 0, [1])
        assert np.array_equal(sb.gamma, [[[1.0, -1.0]]])
        assert np.array_equal(sb.beta, [0.5])

    def test_identical_class_rows(self):
        m = random_model(seed=2, tokens=2, d_model=3, n_classes=2)
        w = np.asarray(m.suffix.w).copy()
        w[1] = w[0]
        m2 = AttentionModelSpec(
            **{
                **{f: getattr(m, f) for f in (
                    "height", "width", "channels", "patch", "d_model", "d_head",
                    "heads", "n_classes", "residual", "w_embed", "b_embed",
                    "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "mask",
                )},
                "suffix": LinearSuffix(w=w, b=np.array([1.0, 3.0])),
            }
        )
        sb = linear_suffix_bound(m2, 0, [1])
        assert np.array_equal(sb.gamma, np.zeros((1, 2, 3)))
        assert np.array_equal(sb.beta, [-2.0])

    def test_exactness_against_forward(self):
        rng = np.random.default_rng(3)
        m = random_model(seed=3, tokens=3, heads=2, d_model=4, d_head=2, n_classes=3)
        sb = linear_suffix_bound(m, 2, [0])
        for x in sample_inputs(m, 50, rng):
            tr = forward_broadcast(m, x)
            margin = tr.logits[2] - tr.logits[0]
            assert eval_bound(sb, tr.hplus) == pytest.approx(margin, abs=1e-12)


class TestReluSuffix:
    def test_all_active_equals_exact_composition(self):
        m = random_model(seed=6, tokens=2, d_model=3, suffix_kind="mlp1", hidden=5)
        sfx = m.suffix
        pre = PreActBox(lo=np.full(5, 0.1), hi=np.full(5, 2.0))
        sb = relu_suffix_bound(m, pre, 0, [1])
        omega = sfx.w2[0] - sfx.w2[1]
        gamma_exact = (sfx.w1.T @ omega).reshape(m.tokens, m.d_model)
        beta_exact = float(sfx.b2[0] - sfx.b2[1] + omega @ sfx.b1)
        assert sb.gamma[0] == pytest.approx(gamma_exact, abs=1e-12)
        assert sb.beta[0] == pytest.approx(beta_exact, abs=1e-12)

    def test_all_dead_layer(self):
        m = random_model(seed=7, suffix_kind="mlp1", hidden=5)
        pre = PreActBox(lo=np.full(5, -3.0), hi=np.full(5, -0.5))
        sb = relu_suffix_bound(m, pre, 1, [0])
        assert np.array_equal(sb.gamma, np.zeros_like(sb.gamma))
        assert sb.beta[0] == float(m.suffix.b2[1] - m.suffix.b2[0])

    def test_mixed_neurons_sound_by_sampling(self):
        rng = np.random.default_rng(8)
        for seed in (0, 4, 10):
            m = random_model(seed=seed, tokens=2, heads=1, d_model=4, suffix_kind="mlp1", hidden=6, weight_scale=1.5)
            x0 = np.random.default_rng(100 + seed).uniform(0.2, 0.8, m.image_size)
            box = pixel_box(x0, 0.05)
            pre = interval_forward(m, box, model_score_boxes(m, box))
            assert np.any((pre.lo < 0) & (pre.hi > 0)), "fixture should have crossing neurons"
            for y, t in ((0, 1), (1, 0)):
                sb = relu_suffix_bound(m, pre, y, [t])
                xs = sample_inputs(m, 2000, rng, box)
                for x in xs[:: len(xs) // 500]:
                    tr = forward_broadcast(m, x)
                    margin = tr.logits[y] - tr.logits[t]
                    assert margin >= eval_bound(sb, tr.hplus) - 1e-9

    def test_stable_neuron_consistency(self):
        # Pre-activation boxes that exclude zero make the relaxation exact.
        m = random_model(seed=13, suffix_kind="mlp1", hidden=4)
        pre = PreActBox(lo=np.array([0.2, 0.5, -2.0, -0.1]), hi=np.array([1.0, 2.0, -0.4, -0.05]))
        sb = relu_suffix_bound(m, pre, 0, [1])
        sfx = m.suffix
        omega = sfx.w2[0] - sfx.w2[1]
        active = np.array([1.0, 1.0, 0.0, 0.0])
        slope = omega * active
        gamma_exact = (sfx.w1.T @ slope).reshape(m.tokens, m.d_model)
        beta_exact = float(sfx.b2[0] - sfx.b2[1] + slope @ sfx.b1)
        assert sb.gamma[0] == pytest.approx(gamma_exact, abs=1e-9)
        assert sb.beta[0] == pytest.approx(beta_exact, abs=1e-9)

    def test_stacked_targets_match_single_targets(self):
        m = random_model(seed=9, tokens=2, heads=1, d_model=4, n_classes=5, suffix_kind="mlp1", hidden=6)
        box = pixel_box(np.random.default_rng(9).uniform(0.2, 0.8, m.image_size), 0.05)
        pre = interval_forward(m, box, model_score_boxes(m, box))
        stacked = relu_suffix_bound(m, pre, 2, np.array([4, 0, 1, 3]))
        assert stacked.beta.shape == (4,) and stacked.gamma.shape == (4, m.tokens, m.d_model)
        for pos, t in enumerate((4, 0, 1, 3)):
            alone = relu_suffix_bound(m, pre, 2, [t])
            assert stacked.beta[pos] == pytest.approx(alone.beta[0], rel=1e-14, abs=1e-14)
            assert stacked.gamma[pos] == pytest.approx(alone.gamma[0], rel=1e-14, abs=1e-14)


class TestIntervalForward:
    def test_zero_epsilon_collapses_to_forward(self):
        for residual in (True, False):
            m = random_model(seed=16, tokens=3, heads=2, d_model=4, d_head=2, suffix_kind="mlp1", hidden=5, residual=residual)
            x0 = np.random.default_rng(4).uniform(0, 1, m.image_size)
            box = pixel_box(x0, 0.0)
            pre = interval_forward(m, box, model_score_boxes(m, box))
            exact = forward_broadcast(m, x0).hidden_pre
            assert pre.lo == pytest.approx(exact, abs=1e-12)
            assert pre.hi == pytest.approx(exact, abs=1e-12)

    def test_monotone_in_epsilon(self):
        m = random_model(seed=17, tokens=2, suffix_kind="mlp1", hidden=6)
        x0 = np.random.default_rng(5).uniform(0.2, 0.8, m.image_size)
        box = pixel_box(x0, 0.0)
        prev = interval_forward(m, box, model_score_boxes(m, box))
        for eps in (0.01, 0.03, 0.1):
            box = pixel_box(x0, eps)
            cur = interval_forward(m, box, model_score_boxes(m, box))
            assert np.all(cur.lo <= prev.lo + 1e-12)
            assert np.all(cur.hi >= prev.hi - 1e-12)
            prev = cur

    def test_sampled_containment(self):
        rng = np.random.default_rng(6)
        m = random_model(seed=18, tokens=3, heads=1, d_model=4, suffix_kind="mlp1", hidden=6)
        x0 = rng.uniform(0.2, 0.8, m.image_size)
        box = pixel_box(x0, 0.05)
        pre = interval_forward(m, box, model_score_boxes(m, box))
        idx = patch_pixel_indices(m)
        xs = sample_inputs(m, 10_000, rng, box)
        # Batched hidden pre-activations, mirroring the reference forward.
        toks = xs[:, idx] @ m.w_embed.T + m.b_embed
        q = np.einsum("hdm,nrm->nhrd", m.wq, toks) + m.bq[None, :, None, :]
        k = np.einsum("hdm,nrm->nhrd", m.wk, toks) + m.bk[None, :, None, :]
        v = np.einsum("hdm,nrm->nhrd", m.wv, toks) + m.bv[None, :, None, :]
        scores = m.scale * np.einsum("nhid,nhjd->nhij", q, k) + m.mask[None]
        e = np.exp(scores - scores.max(axis=3, keepdims=True))
        attn = e / e.sum(axis=3, keepdims=True)
        head_out = np.einsum("nhij,nhjd->nhid", attn, v)
        hplus = np.einsum("hmd,nhid->nim", m.wo, head_out) + m.bo + toks
        z = hplus.reshape(len(xs), -1) @ m.suffix.w1.T + m.suffix.b1
        assert np.all(z >= pre.lo[None, :] - 1e-9)
        assert np.all(z <= pre.hi[None, :] + 1e-9)

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (np.nan, 1.0),
            (0.0, np.nan),
            (np.nan, np.nan),
            (-np.inf, 1.0),
            (0.0, np.inf),
            (-np.inf, np.inf),
            (np.inf, np.inf),
            (-np.inf, -np.inf),
        ],
    )
    def test_preact_box_rejects_non_finite_endpoints(self, lo, hi):
        # A NaN passes the lo > hi check, and -inf..inf would reach the
        # chord's inf / inf in relu_suffix_bound.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                PreActBox(lo=np.array([0.0, lo, -1.0]), hi=np.array([1.0, hi, 1.0]))


class TestBlockOutputBounds:
    def test_matches_row_loop(self):
        for seed in range(3):
            m = random_model(seed=seed, tokens=3, heads=2, d_model=6, d_head=3, suffix_kind="mlp1")
            x0 = np.random.default_rng(90 + seed).uniform(0, 1, m.image_size)
            for eps in (0.0, 0.05, 0.5):
                box = pixel_box(x0, eps)
                lo, hi = block_output_bounds(m, box, model_score_boxes(m, box))
                ref_lo, ref_hi = block_output_row_loop(m, box)
                assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)


class TestMarginGradientBounds:
    @staticmethod
    def central_differences(model, x, y, targets, h):
        """(T, n) central differences of the margins at x, step h."""
        n = model.image_size
        steps = np.eye(n) * h
        logits = forward_batch(model, np.vstack((x + steps, x - steps)))
        margins = logits[:, [y]] - logits[:, targets]
        return ((margins[:n] - margins[n:]) / (2 * h)).T

    @pytest.mark.parametrize("shape", ["4-token", "M"])
    @pytest.mark.parametrize("suffix_kind", ["linear", "mlp1"])
    @pytest.mark.parametrize("residual", [True, False])
    def test_central_differences_lie_inside(self, shape, suffix_kind, residual):
        # At uniform samples, the lo and hi corners and the centre of boxes
        # of every width.  A difference over two points of the box is the
        # mean of the derivative between them, inside the enclosure; steps of
        # 1e-6 leave the box only at its faces (and at radius 0), where the
        # difference is within about 1e-9 of the derivative.
        if shape == "4-token":
            dims = dict(tokens=4, heads=2, d_model=6, n_classes=4)
        else:
            dims = dict(tokens=16, heads=4, d_model=16, d_head=4, n_classes=10)
        m = random_model(seed=5, suffix_kind=suffix_kind, hidden=16, residual=residual, **dims)
        rng = np.random.default_rng(11)
        x0 = rng.uniform(0.1, 0.9, m.image_size)
        y, targets = 0, np.arange(1, m.n_classes)
        signed = 0
        for eps in (0.0, 0.001, 0.01, 0.1, 0.3):
            box = pixel_box(x0, eps)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g_lo, g_hi = margin_gradient_bounds(m, box, y, targets)
            assert g_lo.shape == g_hi.shape == (len(targets), m.image_size)
            assert np.all(np.isfinite(g_lo)) and np.all(g_lo <= g_hi)
            signed += np.sum((g_lo > 0) | (g_hi < 0))
            points = [rng.uniform(box.lo, box.hi) for _ in range(6)] + [box.lo, box.hi, 0.5 * (box.lo + box.hi)]
            for x in points:
                d = self.central_differences(m, x, y, targets, 1e-6)
                tol = 1e-7 * (1.0 + np.abs(d))
                assert np.all(d >= g_lo - tol) and np.all(d <= g_hi + tol)
        assert signed > 0

    @pytest.mark.parametrize("suffix_kind", ["linear", "mlp1"])
    def test_zero_radius_is_the_gradient(self, suffix_kind):
        # Over a one-point box the enclosure is the gradient, widened by
        # 2**-30 of its size.
        m = random_model(seed=6, tokens=16, heads=4, d_model=16, d_head=4, n_classes=10, suffix_kind=suffix_kind)
        x0 = np.random.default_rng(12).uniform(0.1, 0.9, m.image_size)
        targets = np.arange(1, 10)
        g_lo, g_hi = margin_gradient_bounds(m, pixel_box(x0, 0.0), 0, targets)
        assert np.all(g_hi - g_lo <= 2.0**-27 * (1.0 + np.abs(g_lo)))
        d = self.central_differences(m, x0, 0, targets, 1e-6)
        assert np.allclose(0.5 * (g_lo + g_hi), d, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("suffix_kind", ["linear", "mlp1"])
    def test_overflowing_scores_prove_nothing(self, suffix_kind):
        # Scores past the float range: every entry is (-inf, inf), so the
        # polish screens nothing, and no float warning escapes.
        m = random_model(seed=0, tokens=4, heads=1, d_model=4, n_classes=3, suffix_kind=suffix_kind)
        m = dataclasses.replace(m, wq=m.wq * 1e160, wk=m.wk * 1e160)
        box = pixel_box(np.full(m.image_size, 0.5), 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g_lo, g_hi = margin_gradient_bounds(m, box, 0, np.array([1, 2]))
        assert np.all(g_lo == -np.inf) and np.all(g_hi == np.inf)
