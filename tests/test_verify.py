import dataclasses
import sys
import warnings

import numpy as np
import pytest

import attncert.attention
import attncert.suffix
import attncert.verify
from attncert import (
    CertificationInfeasibleError,
    ValidationError,
    baseline_directional_min,
    certified_directional_min,
    certify_targets,
    directional_min,
    forward,
    forward_batch,
    interval_forward,
    linear_suffix_bound,
    model_score_boxes,
    pixel_box,
    random_model,
    relu_suffix_bound,
    value_coefficients,
)
from oracles import margin_row_loop


def clean_margins(model, x0, y):
    logits = forward(model, x0)
    return np.array([logits[y] - logits[t] for t in range(model.n_classes) if t != y])


def tiny_model(seed, kind, n_classes=2):
    return random_model(seed=seed, tokens=2, heads=1, d_model=4, n_classes=n_classes, suffix_kind=kind)


class TestPixelBox:
    def test_zero_radius(self):
        x0 = np.array([0.3, 0.7])
        box = pixel_box(x0, 0.0)
        assert np.all(box.lo == x0) and np.all(box.hi == x0)

    def test_clipped_to_unit_range(self):
        box = pixel_box(np.array([0.05, 0.95]), 0.1)
        assert box.lo == pytest.approx([0.0, 0.85], abs=1e-15)
        assert box.hi == pytest.approx([0.15, 1.0], abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValidationError):
            pixel_box(np.array([0.5]), -0.01)
        with pytest.raises(ValidationError):
            pixel_box(np.zeros((2, 2)), 0.1)
        with pytest.raises(ValidationError):
            pixel_box(np.array([0.5]), float("nan"))


class TestCleanInput:
    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    def test_degenerate_box_recovers_margins(self, kind):
        for seed in range(5):
            m = tiny_model(seed, kind, n_classes=3)
            x0 = np.random.default_rng(500 + seed).uniform(0.1, 0.9, m.image_size)
            y = int(np.argmax(forward(m, x0)))
            res = certify_targets(m, pixel_box(x0, 0.0), y)
            margins = clean_margins(m, x0, y)
            for mb, margin in zip(res.bounds, margins):
                assert mb.l_hybrid == pytest.approx(margin, abs=1e-6)
            assert res.certified == bool(np.all(margins > 0.0))

    def test_misclassified_is_never_certified(self):
        for seed in range(4):
            m = tiny_model(seed, "linear", n_classes=3)
            x0 = np.random.default_rng(700 + seed).uniform(0.1, 0.9, m.image_size)
            y_wrong = int(np.argmin(forward(m, x0)))
            for eps in (0.0, 0.05):
                assert not certify_targets(m, pixel_box(x0, eps), y_wrong).certified


class TestBoundStructure:
    def test_targets_ascending_and_exclude_y(self):
        m = tiny_model(2, "linear", n_classes=4)
        x0 = np.full(m.image_size, 0.5)
        res = certify_targets(m, pixel_box(x0, 0.01), 2)
        assert [b.target for b in res.bounds] == [0, 1, 3]
        assert res.y == 2

    def test_hybrid_is_max_of_arms(self):
        for seed in range(6):
            m = tiny_model(seed, "mlp1" if seed % 2 else "linear", n_classes=3)
            x0 = np.random.default_rng(seed).uniform(0.2, 0.8, m.image_size)
            res = certify_targets(m, pixel_box(x0, 0.03), 0)
            for mb in res.bounds:
                assert mb.l_hybrid == max(mb.l_vertex, mb.l_baseline)
                assert mb.l_vertex >= mb.l_baseline - 1e-12

    def test_monotone_in_radius(self):
        for seed, kind in ((0, "linear"), (1, "mlp1")):
            m = tiny_model(seed, kind)
            x0 = np.random.default_rng(40 + seed).uniform(0.2, 0.8, m.image_size)
            y = int(np.argmax(forward(m, x0)))
            last = np.inf
            for eps in (0.0, 0.005, 0.02, 0.05):
                res = certify_targets(m, pixel_box(x0, eps), y)
                worst = min(b.l_hybrid for b in res.bounds)
                assert worst <= last + 1e-12
                last = worst


class TestSoundness:
    def test_sampled_margins_respect_bounds(self):
        rng = np.random.default_rng(11)
        for seed, kind in ((0, "linear"), (1, "mlp1"), (2, "linear")):
            m = tiny_model(seed, kind, n_classes=3)
            x0 = rng.uniform(0.15, 0.85, m.image_size)
            y = int(np.argmax(forward(m, x0)))
            box = pixel_box(x0, 0.03)
            res = certify_targets(m, box, y)
            xs = rng.uniform(box.lo, box.hi, (700, m.image_size))
            logits = forward_batch(m, xs)
            for mb in res.bounds:
                margins = logits[:, y] - logits[:, mb.target]
                assert np.all(margins >= mb.l_hybrid - 1e-9)


class TestCertifiedFixture:
    # Frozen fixtures known to certify with room to spare at radius 0.02.
    def test_known_certifiable_inputs(self):
        for seed, kind in ((0, "linear"), (1, "mlp1")):
            m = tiny_model(seed, kind)
            x0 = np.random.default_rng(500 + seed).uniform(0.1, 0.9, m.image_size)
            y = int(np.argmax(forward(m, x0)))
            res = certify_targets(m, pixel_box(x0, 0.02), y)
            assert res.certified
            assert all(b.l_hybrid > 0.0 for b in res.bounds)


class TestCertifiedMode:
    def test_never_above_fast_path(self):
        for seed, kind in ((0, "linear"), (1, "mlp1"), (3, "mlp1")):
            m = tiny_model(seed, kind, n_classes=3)
            x0 = np.random.default_rng(90 + seed).uniform(0.2, 0.8, m.image_size)
            box = pixel_box(x0, 0.03)
            fast = certify_targets(m, box, 0)
            cert = certify_targets(m, box, 0, certified=True)
            for fb, cb in zip(fast.bounds, cert.bounds):
                assert cb.l_vertex <= fb.l_vertex + 1e-9
                assert cb.l_vertex >= fb.l_vertex - 1e-6
                assert cb.l_baseline == fb.l_baseline

    def test_fixture_still_certifies(self):
        m = tiny_model(1, "mlp1")
        x0 = np.random.default_rng(501).uniform(0.1, 0.9, m.image_size)
        y = int(np.argmax(forward(m, x0)))
        assert certify_targets(m, pixel_box(x0, 0.02), y, certified=True).certified

    def test_saturation_is_infeasible(self):
        # Scale W_o so the largest value coefficient is 0.3 * DBL_MAX: the
        # coefficients stay finite, but the weighted sums of a row overflow.
        m = random_model(seed=0, tokens=4, heads=1, d_model=4, suffix_kind="linear")
        box = pixel_box(np.full(m.image_size, 0.5), 0.01)
        bounds = [linear_suffix_bound(m, 0, t) for t in range(1, m.n_classes)]
        c_max = np.abs(value_coefficients(bounds, m, box).c).max()
        m = dataclasses.replace(m, wo=m.wo * (0.3 * sys.float_info.max / c_max))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert certify_targets(m, box, 0).bounds
            with pytest.raises(CertificationInfeasibleError):
                certify_targets(m, box, 0, certified=True)

    def test_hybrid_uses_certified_arm_only(self):
        # The baseline arm is round-to-nearest: where it beats the certified
        # vertex arm (at tiny radii the two agree up to roundoff), it must
        # not become the certified bound.
        lifted = 0
        for seed in range(10):
            m = tiny_model(seed, "linear", n_classes=3)
            x0 = np.random.default_rng(300 + seed).uniform(0.1, 0.9, m.image_size)
            y = int(np.argmax(forward(m, x0)))
            for eps in (0.0, 1e-12, 1e-9):
                for b in certify_targets(m, pixel_box(x0, eps), y, certified=True).bounds:
                    lifted += b.l_baseline > b.l_vertex
                    assert b.l_hybrid == b.l_vertex
        assert lifted > 0


class TestValidation:
    def test_class_index_range(self):
        m = tiny_model(0, "linear")
        box = pixel_box(np.full(m.image_size, 0.5), 0.01)
        for y in (-1, m.n_classes):
            with pytest.raises(ValidationError):
                certify_targets(m, box, y)

    def test_box_size_mismatch(self):
        m = tiny_model(0, "linear")
        with pytest.raises(ValidationError):
            certify_targets(m, pixel_box(np.full(3, 0.5), 0.01), 0)

    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    @pytest.mark.parametrize("certified", [False, True])
    def test_overflowing_scores_rejected(self, kind, certified):
        m = random_model(seed=0, tokens=4, heads=1, d_model=4, suffix_kind=kind)
        m = dataclasses.replace(m, wq=m.wq * 1e160, wk=m.wk * 1e160)
        box = pixel_box(np.full(m.image_size, 0.5), 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                certify_targets(m, box, 0, certified=certified)


class TestBatchedArms:
    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    def test_bounds_match_row_loop(self, kind):
        def vertex_row(c, row):
            return directional_min(c, row).value

        def certified_row(c, row):
            return certified_directional_min(c, row).lower

        for seed in range(2):
            m = random_model(seed=seed, tokens=4, heads=2, d_model=8, n_classes=4, suffix_kind=kind)
            x0 = np.random.default_rng(70 + seed).uniform(0, 1, m.image_size)
            y = int(np.argmax(forward(m, x0)))
            targets = [t for t in range(m.n_classes) if t != y]
            for eps in (0.0, 0.01, 0.1):
                box = pixel_box(x0, eps)
                if kind == "mlp1":
                    preact = interval_forward(m, box)
                    suffix_bounds = [relu_suffix_bound(m, preact, y, t) for t in targets]
                else:
                    suffix_bounds = [linear_suffix_bound(m, y, t) for t in targets]
                coeffs = value_coefficients(suffix_bounds, m, box)
                scores = model_score_boxes(m, box)
                fast = certify_targets(m, box, y)
                cert = certify_targets(m, box, y, certified=True)
                for pos, (b, cb) in enumerate(zip(fast.bounds, cert.bounds)):
                    assert b.l_vertex == margin_row_loop(coeffs, scores, pos, vertex_row)
                    assert b.l_baseline == margin_row_loop(coeffs, scores, pos, baseline_directional_min)
                    assert cb.l_vertex == margin_row_loop(coeffs, scores, pos, certified_row)
                    assert cb.l_baseline == b.l_baseline

    @pytest.mark.parametrize(
        "kind, certified, calls",
        [
            ("mlp1", False, {"sweep_min": 2, "baseline_min": 1, "certified_sweep_min": 0}),
            ("linear", True, {"sweep_min": 0, "baseline_min": 1, "certified_sweep_min": 1}),
        ],
    )
    def test_one_kernel_call_per_arm(self, monkeypatch, kind, certified, calls):
        seen = dict.fromkeys(calls, 0)

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                seen[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(attncert.attention, "sweep_min")
        counted(attncert.suffix, "sweep_min")
        counted(attncert.attention, "baseline_min")
        counted(attncert.verify, "certified_sweep_min")
        m = random_model(
            seed=0, tokens=16, heads=4, d_model=16, d_head=4, n_classes=10, suffix_kind=kind, hidden=32, residual=True
        )
        x0 = np.random.default_rng(0).uniform(0, 1, m.image_size)
        result = certify_targets(m, pixel_box(x0, 0.01), int(np.argmax(forward(m, x0))), certified=certified)
        assert len(result.bounds) == 9
        assert seen == calls
