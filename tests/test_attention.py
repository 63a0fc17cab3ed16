import itertools

import numpy as np
import pytest

from attncert import (
    PixelBox,
    ScoreBoxTensor,
    ValidationError,
    ValueCoeffs,
    baseline_directional_min,
    forward_trace,
    linear_suffix_bound,
    margin_lower_bound,
    model_score_boxes,
    pixel_box,
    random_model,
    score_boxes_interval_product,
    value_coefficients,
    value_scalar_bounds,
)
from attncert.attention import _matrix_box_bounds, exact_row_bound, token_bounds
from attncert.solver import ScoreBox

# 1 / (1 + e^2): row minimum of direction (0, 1) over the point scores (1, -1).
ROW_MIN_01 = 0.11920292202211755


def degenerate_box(x0):
    x0 = np.asarray(x0, dtype=np.float64)
    return PixelBox(lo=x0, hi=x0)


class TestAffineBounds:
    def test_attained_at_a_corner(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            w = rng.normal(size=n)
            b = float(rng.normal())
            lo = rng.normal(size=n)
            hi = lo + rng.uniform(0, 2, size=n)
            corners = np.array(list(itertools.product(*zip(lo, hi))))
            vals = corners @ w + b
            out_lo, out_hi = _matrix_box_bounds(w, b, lo, hi)
            assert out_lo == pytest.approx(vals.min(), abs=1e-12)
            assert out_hi == pytest.approx(vals.max(), abs=1e-12)


class TestScoreBoxes:
    def test_positive_product(self):
        # One head, one token, one head dim: q in [1, 2], k in [3, 4].
        t = score_boxes_interval_product(
            [[[1.0]]], [[[2.0]]], [[[3.0]]], [[[4.0]]], scale=1.0, mask=np.zeros((1, 1, 1))
        )
        assert t.lower[0, 0, 0] == 3.0
        assert t.upper[0, 0, 0] == 8.0

    def test_sign_crossing_product(self):
        t = score_boxes_interval_product(
            [[[-1.0]]], [[[1.0]]], [[[-2.0]]], [[[2.0]]], scale=1.0, mask=np.zeros((1, 1, 1))
        )
        assert t.lower[0, 0, 0] == -2.0
        assert t.upper[0, 0, 0] == 2.0

    def test_degenerate_with_scale_and_mask(self):
        one = np.ones((1, 1, 1))
        t = score_boxes_interval_product(one, one, one, one, scale=0.5, mask=0.5 * one)
        assert t.lower[0, 0, 0] == 1.0
        assert t.upper[0, 0, 0] == 1.0

    def test_scale_must_be_positive(self):
        one = np.ones((1, 1, 1))
        for bad in (0.0, -1.0):
            with pytest.raises(ValidationError):
                score_boxes_interval_product(one, one, one, one, scale=bad, mask=one)

    def test_tensor_validation(self):
        with pytest.raises(ValidationError):
            ScoreBoxTensor(lower=np.zeros((1, 2, 2)), upper=-np.ones((1, 2, 2)))
        with pytest.raises(ValidationError):
            ScoreBoxTensor(lower=np.zeros((2, 2)), upper=np.zeros((2, 2)))

    def test_degenerate_box_matches_trace(self):
        for seed in range(4):
            m = random_model(seed=seed, tokens=3, heads=2, d_model=5, d_head=3)
            x0 = np.random.default_rng(50 + seed).uniform(0, 1, m.image_size)
            t = model_score_boxes(m, degenerate_box(x0))
            tr = forward_trace(m, x0)
            assert t.lower == pytest.approx(tr.scores, abs=1e-9)
            assert t.upper == pytest.approx(tr.scores, abs=1e-9)

    def test_sampled_scores_stay_inside(self):
        rng = np.random.default_rng(1)
        for seed in range(4):
            m = random_model(seed=seed, tokens=2, heads=2, d_model=4, weight_scale=1.3)
            x0 = rng.uniform(0.1, 0.9, m.image_size)
            box = pixel_box(x0, 0.08)
            t = model_score_boxes(m, box)
            for _ in range(300):
                x = rng.uniform(box.lo, box.hi)
                s = forward_trace(m, x).scores
                assert np.all(s >= t.lower - 1e-9)
                assert np.all(s <= t.upper + 1e-9)

    def test_pixel_box_validation(self):
        with pytest.raises(ValidationError):
            PixelBox(lo=np.zeros((2, 2)), hi=np.ones((2, 2)))
        with pytest.raises(ValidationError):
            PixelBox(lo=np.ones(3), hi=np.zeros(3))
        with pytest.raises(ValidationError):
            PixelBox(lo=np.array([np.nan]), hi=np.array([1.0]))


class TestTokenAndValueBounds:
    def test_degenerate_token_bounds_match_trace(self):
        m = random_model(seed=7, tokens=3, heads=1, d_model=4)
        x0 = np.random.default_rng(2).uniform(0, 1, m.image_size)
        lo, hi = token_bounds(m, degenerate_box(x0))
        tr = forward_trace(m, x0)
        assert lo == pytest.approx(tr.tokens, abs=1e-12)
        assert hi == pytest.approx(tr.tokens, abs=1e-12)

    def test_degenerate_value_bounds(self):
        m = random_model(seed=8, tokens=2, heads=2, d_model=4, d_head=3)
        x0 = np.random.default_rng(3).uniform(0, 1, m.image_size)
        v_lo, v_hi = value_scalar_bounds(m, degenerate_box(x0))
        tr = forward_trace(m, x0)
        v = np.einsum("hdm,rm->hrd", m.wv, tr.tokens) + m.bv[:, None, :]
        assert v_lo == pytest.approx(v, abs=1e-12)
        assert v_hi == pytest.approx(v, abs=1e-12)

    def test_wrong_image_size(self):
        m = random_model(seed=0)
        with pytest.raises(ValidationError):
            token_bounds(m, PixelBox(lo=np.zeros(3), hi=np.ones(3)))


class TestValueCoefficients:
    def test_degenerate_box_is_exact(self):
        m = random_model(seed=4, tokens=2, heads=2, d_model=4, d_head=3, n_classes=3)
        x0 = np.random.default_rng(9).uniform(0, 1, m.image_size)
        bounds = [linear_suffix_bound(m, 0, t) for t in (1, 2)]
        coeffs = value_coefficients(bounds, m, degenerate_box(x0))
        tr = forward_trace(m, x0)
        v = np.einsum("hdm,rm->hrd", m.wv, tr.tokens) + m.bv[:, None, :]
        for ti, sb in enumerate(bounds):
            gamma = np.asarray(sb.gamma)
            eta = np.einsum("hmd,im->ihd", m.wo, gamma)
            expect = np.einsum("ihd,hjd->hij", eta, v)
            assert coeffs.c[ti] == pytest.approx(expect, abs=1e-12)
            bp = sb.beta + float(gamma.sum(axis=0) @ m.bo)
            if m.residual:
                bp += float(np.sum(gamma * tr.tokens))
            assert coeffs.b_prime[ti] == pytest.approx(bp, abs=1e-12)

    def test_zero_gamma_gives_floor_only(self):
        m = random_model(seed=5, tokens=2, heads=1, d_model=3)
        sb = linear_suffix_bound(m, 0, 1)
        zero = type(sb)(beta=0.25, gamma=np.zeros_like(np.asarray(sb.gamma)))
        coeffs = value_coefficients([zero], m, degenerate_box(np.full(m.image_size, 0.5)))
        assert np.all(coeffs.c[0] == 0.0)
        assert coeffs.b_prime[0] == 0.25

    def test_coefficients_sound_over_all_corners(self):
        # 8 pixels -> 256 corners; each row coefficient must equal the corner
        # minimum of its value contribution, since that contribution is affine.
        m = random_model(seed=3, tokens=2, heads=1, d_model=3, patch=2, channels=1, weight_scale=1.2)
        assert m.image_size == 8
        box = PixelBox(lo=np.full(8, 0.2), hi=np.full(8, 0.8))
        sb = linear_suffix_bound(m, 0, 1)
        coeffs = value_coefficients([sb], m, box)
        gamma = np.asarray(sb.gamma)
        eta = np.einsum("hmd,im->ihd", m.wo, gamma)
        corners = np.array(list(itertools.product(*zip(box.lo, box.hi))))
        best = np.full(coeffs.c[0].shape, np.inf)
        res_best = np.inf
        for x in corners:
            tr = forward_trace(m, x)
            v = np.einsum("hdm,rm->hrd", m.wv, tr.tokens) + m.bv[:, None, :]
            best = np.minimum(best, np.einsum("ihd,hjd->hij", eta, v))
            res_best = min(res_best, float(np.sum(gamma * tr.tokens)))
        assert coeffs.c[0] == pytest.approx(best, abs=1e-9)
        floor = sb.beta + float(gamma.sum(axis=0) @ m.bo)
        if m.residual:
            floor += res_best
        assert coeffs.b_prime[0] == pytest.approx(floor, abs=1e-9)

    def test_requires_suffix_bounds(self):
        m = random_model(seed=0)
        with pytest.raises(ValidationError):
            value_coefficients([], m, degenerate_box(np.full(m.image_size, 0.5)))

    def test_gamma_shape_checked(self):
        m = random_model(seed=0, tokens=2, d_model=4)
        sb = linear_suffix_bound(m, 0, 1)
        bad = type(sb)(beta=0.0, gamma=np.zeros((3, 4)))
        with pytest.raises(ValidationError):
            value_coefficients([bad], m, degenerate_box(np.full(m.image_size, 0.5)))


class TestMarginLowerBound:
    def test_single_even_row(self):
        coeffs = ValueCoeffs(c=np.array([[[[0.0, 1.0]]]]), b_prime=np.array([0.0]))
        z = np.zeros((1, 1, 2))
        # Both scores pinned to 0 -> uniform attention -> margin 0.5.
        scores = ScoreBoxTensor(lower=z, upper=z)
        assert margin_lower_bound(coeffs, scores, 0) == pytest.approx(0.5, abs=0)

    def test_single_skewed_row(self):
        coeffs = ValueCoeffs(c=np.array([[[[0.0, 1.0]]]]), b_prime=np.array([0.0]))
        s = np.array([[[1.0, -1.0]]])
        scores = ScoreBoxTensor(lower=s, upper=s)
        assert margin_lower_bound(coeffs, scores, 0) == pytest.approx(ROW_MIN_01, abs=1e-15)

    def test_two_rows_plus_floor(self):
        c = np.array([[[[0.0, 1.0], [0.0, 1.0]]]])
        coeffs = ValueCoeffs(c=c, b_prime=np.array([1.0]))
        s = np.array([[[1.0, -1.0], [1.0, -1.0]]])
        scores = ScoreBoxTensor(lower=s, upper=s)
        assert margin_lower_bound(coeffs, scores, 0) == pytest.approx(1.0 + 2.0 * ROW_MIN_01, abs=1e-15)

    def test_shape_mismatch(self):
        coeffs = ValueCoeffs(c=np.zeros((1, 1, 1, 3)), b_prime=np.zeros(1))
        z = np.zeros((1, 1, 2))
        with pytest.raises(ValidationError):
            margin_lower_bound(coeffs, ScoreBoxTensor(lower=z, upper=z), 0)

    def test_row_method_is_pluggable(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            heads, r = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            coeffs = ValueCoeffs(c=rng.normal(size=(1, heads, r, r)), b_prime=rng.normal(size=1))
            lo = rng.normal(size=(heads, r, r))
            scores = ScoreBoxTensor(lower=lo, upper=lo + rng.uniform(0, 2, size=lo.shape))
            exact = margin_lower_bound(coeffs, scores, 0)
            relaxed = margin_lower_bound(coeffs, scores, 0, row_bound=baseline_directional_min)
            assert exact >= relaxed - 1e-12
        floor_only = margin_lower_bound(coeffs, scores, 0, row_bound=lambda c, b: 0.0)
        assert floor_only == pytest.approx(float(coeffs.b_prime[0]), abs=0)

    def test_exact_row_bound_matches_solver(self):
        row = ScoreBox(lower=np.array([1.0, -1.0]), upper=np.array([1.0, -1.0]))
        assert exact_row_bound(np.array([0.0, 1.0]), row) == pytest.approx(ROW_MIN_01, abs=1e-15)
