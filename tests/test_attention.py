import itertools
import warnings

import numpy as np
import pytest

from attncert import (
    PixelBox,
    ScoreBox,
    ValidationError,
    baseline_directional_min,
    directional_min,
    pixel_box,
    random_model,
)
from attncert.attention import (
    ValueCoeffs,
    baseline_margin_lower_bound,
    margin_lower_bound,
    model_score_boxes,
    score_boxes_interval_product,
    token_bounds,
    value_coefficients,
    value_maps,
    value_scalar_bounds,
)
from attncert.intervals import affine_bounds, sign_split
from attncert.suffix import linear_suffix_bound

from oracles import forward_broadcast, margin_row_loop

# 1 / (1 + e^2): row minimum of direction (0, 1) over the point scores (1, -1).
ROW_MIN_01 = 0.11920292202211755


def degenerate_box(x0):
    x0 = np.asarray(x0, dtype=np.float64)
    return PixelBox(lo=x0, hi=x0)


def corner_extremes(w, lo, hi):
    """Least and greatest w . x over the 2**n corners of the box [lo, hi]."""
    vals = np.array(list(itertools.product(*zip(lo, hi)))) @ w
    return vals.min(), vals.max()


# Box types by kind: the class, its endpoint field names and a valid shape.
BOX_KINDS = {
    "score-row": (ScoreBox, ("lower", "upper"), (3,)),
    # A stack of score rows is no ScoreBox.
    "score-stack": (ScoreBox, ("lower", "upper"), (2, 2, 3)),
    "pixel": (PixelBox, ("lo", "hi"), (3,)),
}


class TestAffineBounds:
    def test_attained_at_a_corner(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            w = rng.normal(size=n)
            lo = rng.normal(size=n)
            hi = lo + rng.uniform(0, 2, size=n)
            out_lo, out_hi = affine_bounds(w, lo, hi)
            want_lo, want_hi = corner_extremes(w, lo, hi)
            assert out_lo == pytest.approx(want_lo, abs=1e-12)
            assert out_hi == pytest.approx(want_hi, abs=1e-12)

    def test_matrix_box_and_stacked_weights(self):
        # Weights (2, 3, n) against a matrix box (n, m): one box per column.
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, m = (int(v) for v in rng.integers(1, 5, size=2))
            w = rng.normal(size=(2, 3, n))
            lo = rng.normal(size=(n, m))
            hi = lo + rng.uniform(0, 2, size=(n, m))
            out_lo, out_hi = affine_bounds(w, lo, hi)
            assert out_lo.shape == out_hi.shape == (2, 3, m)
            for a, b, j in itertools.product(range(2), range(3), range(m)):
                want_lo, want_hi = corner_extremes(w[a, b], lo[:, j], hi[:, j])
                assert out_lo[a, b, j] == pytest.approx(want_lo, abs=1e-12)
                assert out_hi[a, b, j] == pytest.approx(want_hi, abs=1e-12)

    def test_stacked_weights_against_a_vector_box(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 2, 5))
        lo = rng.normal(size=5)
        hi = lo + rng.uniform(0, 2, size=5)
        out_lo, out_hi = affine_bounds(w, lo, hi)
        assert out_lo.shape == out_hi.shape == (4, 2)
        for a, b in itertools.product(range(4), range(2)):
            want_lo, want_hi = corner_extremes(w[a, b], lo, hi)
            assert out_lo[a, b] == pytest.approx(want_lo, abs=1e-12)
            assert out_hi[a, b] == pytest.approx(want_hi, abs=1e-12)

    @pytest.mark.parametrize("box_shape", [(6,), (6, 3)])
    def test_lower_half_alone_is_the_same(self, box_shape):
        # The lower products of sign_split's halves alone, as the value
        # coefficients take them, are bit for bit affine_bounds' first half.
        rng = np.random.default_rng(4)
        w = rng.normal(size=(9, 16, 4, 6))
        lo = rng.normal(size=box_shape)
        hi = lo + rng.uniform(0, 2, size=box_shape)
        wp, wn = sign_split(w)
        got = (wp @ lo + wn @ hi).reshape(w.shape[:-1] + lo.shape[1:])
        want = affine_bounds(w, lo, hi)[0]
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("box_shape", [(6,), (6, 3)])
    def test_degenerate_box_is_the_product(self, box_shape):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(2, 4, 6))
        x = rng.normal(size=box_shape)
        out_lo, out_hi = affine_bounds(w, x, x)
        np.testing.assert_allclose(out_lo, w @ x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out_hi, w @ x, rtol=0, atol=1e-12)


class TestScoreBoxes:
    def test_positive_product(self):
        # One head, one token, one head dim: q in [1, 2], k in [3, 4].
        q_lo, q_hi, k_lo, k_hi = (np.full((1, 1, 1), v) for v in (1.0, 2.0, 3.0, 4.0))
        lo, hi = score_boxes_interval_product(q_lo, q_hi, k_lo, k_hi, scale=1.0, mask=np.zeros((1, 1, 1)))
        assert lo[0, 0, 0] == 3.0
        assert hi[0, 0, 0] == 8.0

    def test_sign_crossing_product(self):
        q_lo, q_hi, k_lo, k_hi = (np.full((1, 1, 1), v) for v in (-1.0, 1.0, -2.0, 2.0))
        lo, hi = score_boxes_interval_product(q_lo, q_hi, k_lo, k_hi, scale=1.0, mask=np.zeros((1, 1, 1)))
        assert lo[0, 0, 0] == -2.0
        assert hi[0, 0, 0] == 2.0

    @pytest.mark.parametrize("d_head", [1, 4, 9])
    def test_chained_corners_match_the_stacked_reduce(self, d_head):
        # The chained np.minimum / np.maximum give the score boxes of a min /
        # max over the stacked corner products bit for bit: the endpoints
        # cross zero and half of them are exact zeros, +0.0 or -0.0.
        rng = np.random.default_rng(11 + d_head)
        heads, r = 3, 5
        for _ in range(20):
            ends = rng.normal(size=(4, heads, r, d_head))
            ends[rng.uniform(size=ends.shape) < 0.5] = 0.0
            ends *= rng.choice([-1.0, 1.0], size=ends.shape)
            q_lo, q_hi = np.minimum(ends[0], ends[1]), np.maximum(ends[0], ends[1])
            k_lo, k_hi = np.minimum(ends[2], ends[3]), np.maximum(ends[2], ends[3])
            assert np.any(q_lo < 0.0) and np.any(q_hi > 0.0) and np.any(k_lo == 0.0)
            ql, qh = q_lo[:, :, None, :], q_hi[:, :, None, :]
            kl, kh = k_lo[:, None, :, :], k_hi[:, None, :, :]
            corners = np.stack((ql * kl, ql * kh, qh * kl, qh * kh))
            mask = rng.normal(size=(heads, r, r))
            for scale in (1.0, 1 / 3):
                lo, hi = score_boxes_interval_product(q_lo, q_hi, k_lo, k_hi, scale=scale, mask=mask)
                want_lo = scale * corners.min(axis=0).sum(axis=3) + mask
                want_hi = scale * corners.max(axis=0).sum(axis=3) + mask
                assert np.array_equal(lo.view(np.uint64), want_lo.view(np.uint64))
                assert np.array_equal(hi.view(np.uint64), want_hi.view(np.uint64))

    def test_degenerate_with_scale_and_mask(self):
        one = np.ones((1, 1, 1))
        lo, hi = score_boxes_interval_product(one, one, one, one, scale=0.5, mask=0.5 * one)
        assert lo[0, 0, 0] == 1.0
        assert hi[0, 0, 0] == 1.0

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "order", "shape", "extra"])
    @pytest.mark.parametrize("kind", list(BOX_KINDS))
    def test_box_validation(self, kind, bad):
        # Every box type checks its endpoints through errors.check_box, plus
        # its own rule ("extra"): a score row needs a coordinate, a pixel box
        # is flat.  A score stack is rejected for its shape whatever else is
        # wrong with it, and its "extra" case is a valid stack.
        cls, names, shape = BOX_KINDS[kind]
        lower, upper = np.zeros(shape), np.ones(shape)
        if bad == "nan":
            lower.flat[1] = np.nan  # NaN passes the order check
        elif bad == "inf":
            upper.flat[1] = np.inf
        elif bad == "-inf":
            lower.flat[1] = -np.inf
        elif bad == "order":
            lower.flat[-1] = 2.0
        elif bad == "shape":
            upper = np.ones(shape[:-1] + (shape[-1] + 1,))
        elif kind == "score-row":
            lower, upper = np.zeros(0), np.zeros(0)
        elif kind == "pixel":
            lower, upper = np.zeros((2,) + shape), np.ones((2,) + shape)
        match = {"order": "lower 2.0 > upper 1.0", "shape": "matched", "extra": "at least one coordinate|1-D"}.get(bad, "finite")
        if kind == "score-stack":
            match = "matched 1-D arrays"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                cls(**dict(zip(names, (lower, upper))))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_tensor_rejects_non_finite(self, bad):
        # The verifier's (heads, R, R) score boxes get the finite check where
        # they are built: here a mask entry puts `bad` in both endpoints.
        q_lo, q_hi, k_lo, k_hi = np.zeros((1, 2, 3)), np.ones((1, 2, 3)), np.zeros((1, 2, 3)), np.ones((1, 2, 3))
        mask = np.zeros((1, 2, 2))
        mask[0, 1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="score box endpoints must be finite"):
                score_boxes_interval_product(q_lo, q_hi, k_lo, k_hi, scale=1.0, mask=mask)

    def test_degenerate_box_matches_trace(self):
        for seed in range(4):
            m = random_model(seed=seed, tokens=3, heads=2, d_model=5, d_head=3)
            x0 = np.random.default_rng(50 + seed).uniform(0, 1, m.image_size)
            lo, hi = model_score_boxes(m, degenerate_box(x0))
            tr = forward_broadcast(m, x0)
            assert lo == pytest.approx(tr.scores, abs=1e-9)
            assert hi == pytest.approx(tr.scores, abs=1e-9)

    def test_sampled_scores_stay_inside(self):
        rng = np.random.default_rng(1)
        for seed in range(4):
            m = random_model(seed=seed, tokens=2, heads=2, d_model=4, weight_scale=1.3)
            x0 = rng.uniform(0.1, 0.9, m.image_size)
            box = pixel_box(x0, 0.08)
            lo, hi = model_score_boxes(m, box)
            for _ in range(300):
                x = rng.uniform(box.lo, box.hi)
                s = forward_broadcast(m, x).scores
                assert np.all(s >= lo - 1e-9)
                assert np.all(s <= hi + 1e-9)


class TestTokenAndValueBounds:
    def test_degenerate_token_bounds_match_trace(self):
        m = random_model(seed=7, tokens=3, heads=1, d_model=4)
        x0 = np.random.default_rng(2).uniform(0, 1, m.image_size)
        lo, hi = token_bounds(m, degenerate_box(x0))
        tr = forward_broadcast(m, x0)
        assert lo == pytest.approx(tr.tokens, abs=1e-12)
        assert hi == pytest.approx(tr.tokens, abs=1e-12)

    def test_degenerate_value_bounds(self):
        m = random_model(seed=8, tokens=2, heads=2, d_model=4, d_head=3)
        x0 = np.random.default_rng(3).uniform(0, 1, m.image_size)
        v_lo, v_hi = value_scalar_bounds(m, degenerate_box(x0))
        tr = forward_broadcast(m, x0)
        v = np.einsum("hdm,rm->hrd", m.wv, tr.tokens) + m.bv[:, None, :]
        assert v_lo == pytest.approx(v, abs=1e-12)
        assert v_hi == pytest.approx(v, abs=1e-12)


class TestValueCoefficients:
    def test_degenerate_box_is_exact(self):
        m = random_model(seed=4, tokens=2, heads=2, d_model=4, d_head=3, n_classes=3)
        x0 = np.random.default_rng(9).uniform(0, 1, m.image_size)
        bounds = linear_suffix_bound(m, 0, [1, 2])
        coeffs = value_coefficients(value_maps(bounds, m), m, degenerate_box(x0))
        tr = forward_broadcast(m, x0)
        v = np.einsum("hdm,rm->hrd", m.wv, tr.tokens) + m.bv[:, None, :]
        for ti, (beta, gamma) in enumerate(zip(bounds.beta, bounds.gamma)):
            eta = np.einsum("hmd,im->ihd", m.wo, gamma)
            expect = np.einsum("ihd,hjd->hij", eta, v)
            assert coeffs.c[ti] == pytest.approx(expect, abs=1e-12)
            bp = beta + float(gamma.sum(axis=0) @ m.bo)
            if m.residual:
                bp += float(np.sum(gamma * tr.tokens))
            assert coeffs.b_prime[ti] == pytest.approx(bp, abs=1e-12)

    def test_zero_gamma_gives_floor_only(self):
        m = random_model(seed=5, tokens=2, heads=1, d_model=3)
        sb = linear_suffix_bound(m, 0, [1])
        zero = type(sb)(beta=np.array([0.25]), gamma=np.zeros_like(sb.gamma))
        coeffs = value_coefficients(value_maps(zero, m), m, degenerate_box(np.full(m.image_size, 0.5)))
        assert np.all(coeffs.c[0] == 0.0)
        assert coeffs.b_prime[0] == 0.25

    def test_coefficients_sound_over_all_corners(self):
        # 8 pixels -> 256 corners; each row coefficient must equal the corner
        # minimum of its value contribution, since that contribution is affine.
        m = random_model(seed=3, tokens=2, heads=1, d_model=3, patch=2, channels=1, weight_scale=1.2)
        assert m.image_size == 8
        box = PixelBox(lo=np.full(8, 0.2), hi=np.full(8, 0.8))
        sb = linear_suffix_bound(m, 0, [1])
        coeffs = value_coefficients(value_maps(sb, m), m, box)
        gamma = sb.gamma[0]
        eta = np.einsum("hmd,im->ihd", m.wo, gamma)
        corners = np.array(list(itertools.product(*zip(box.lo, box.hi))))
        best = np.full(coeffs.c[0].shape, np.inf)
        res_best = np.inf
        for x in corners:
            tr = forward_broadcast(m, x)
            v = np.einsum("hdm,rm->hrd", m.wv, tr.tokens) + m.bv[:, None, :]
            best = np.minimum(best, np.einsum("ihd,hjd->hij", eta, v))
            res_best = min(res_best, float(np.sum(gamma * tr.tokens)))
        assert coeffs.c[0] == pytest.approx(best, abs=1e-9)
        floor = sb.beta[0] + float(gamma.sum(axis=0) @ m.bo)
        if m.residual:
            floor += res_best
        assert coeffs.b_prime[0] == pytest.approx(floor, abs=1e-9)

    def test_non_finite_coefficients_rejected(self):
        # One check covers the row coefficients and the floors.  The float
        # warnings on the way are silenced, as certify_targets does.
        m = random_model(seed=0, tokens=2, d_model=4)
        sb = linear_suffix_bound(m, 0, [1])
        box = degenerate_box(np.full(m.image_size, 0.5))
        for bad in (np.inf, np.nan):
            gamma = sb.gamma.copy()
            gamma[0, 1, 2] = bad
            for suffix in (type(sb)(beta=sb.beta, gamma=gamma), type(sb)(beta=np.array([bad]), gamma=sb.gamma)):
                with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValidationError, match="finite"):
                    value_coefficients(value_maps(suffix, m), m, box)


class TestMarginLowerBound:
    def test_single_even_row(self):
        coeffs = ValueCoeffs(c=np.array([[[[0.0, 1.0]]]]), b_prime=np.array([0.0]))
        z = np.zeros((1, 1, 2))
        # Both scores pinned to 0 -> uniform attention -> margin 0.5.
        scores = (z, z)
        assert margin_lower_bound(coeffs, scores)[0] == pytest.approx(0.5, abs=0)

    def test_single_skewed_row(self):
        coeffs = ValueCoeffs(c=np.array([[[[0.0, 1.0]]]]), b_prime=np.array([0.0]))
        s = np.array([[[1.0, -1.0]]])
        scores = (s, s)
        assert margin_lower_bound(coeffs, scores)[0] == pytest.approx(ROW_MIN_01, abs=1e-15)

    def test_two_rows_plus_floor(self):
        c = np.array([[[[0.0, 1.0], [0.0, 1.0]]]])
        coeffs = ValueCoeffs(c=c, b_prime=np.array([1.0]))
        s = np.array([[[1.0, -1.0], [1.0, -1.0]]])
        scores = (s, s)
        assert margin_lower_bound(coeffs, scores)[0] == pytest.approx(1.0 + 2.0 * ROW_MIN_01, abs=1e-15)

    def test_targets_stack_into_one_call(self):
        rng = np.random.default_rng(7)
        heads, r, targets = 2, 3, 4
        coeffs = ValueCoeffs(c=rng.normal(size=(targets, heads, r, r)), b_prime=rng.normal(size=targets))
        lo = rng.normal(size=(heads, r, r))
        scores = (lo, lo + rng.uniform(0, 2, size=lo.shape))
        rows = (lambda c, row: directional_min(c, row).value, baseline_directional_min)
        for arm, row in zip((margin_lower_bound, baseline_margin_lower_bound), rows):
            stacked = arm(coeffs, scores)
            assert stacked.shape == (targets,)
            for t in range(targets):
                alone = ValueCoeffs(c=coeffs.c[t : t + 1], b_prime=coeffs.b_prime[t : t + 1])
                assert stacked[t] == arm(alone, scores)[0]
                assert stacked[t] == margin_row_loop(coeffs, scores, t, row)

    def test_vertex_arm_dominates_baseline_arm(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            heads, r = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            coeffs = ValueCoeffs(c=rng.normal(size=(1, heads, r, r)), b_prime=rng.normal(size=1))
            lo = rng.normal(size=(heads, r, r))
            scores = (lo, lo + rng.uniform(0, 2, size=lo.shape))
            exact = margin_lower_bound(coeffs, scores)[0]
            relaxed = baseline_margin_lower_bound(coeffs, scores)[0]
            assert exact >= relaxed - 1e-12
        floor_only = ValueCoeffs(c=np.zeros_like(coeffs.c), b_prime=coeffs.b_prime)
        assert margin_lower_bound(floor_only, scores)[0] == float(coeffs.b_prime[0])
        assert baseline_margin_lower_bound(floor_only, scores)[0] == float(coeffs.b_prime[0])
