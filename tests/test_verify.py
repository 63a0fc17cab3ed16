import dataclasses
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import attncert.attention
import attncert.intervals
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
    pixel_box,
    random_model,
)
from attncert.attention import model_score_boxes, value_coefficients, value_maps
from attncert.suffix import interval_forward, linear_suffix_bound, relu_suffix_bound
from oracles import margin_row_loop


def clean_margins(model, x0, y):
    logits = forward(model, x0)
    return np.array([logits[y] - logits[t] for t in range(model.n_classes) if t != y])


def tiny_model(seed, kind, n_classes=2):
    return random_model(seed=seed, tokens=2, heads=1, d_model=4, n_classes=n_classes, suffix_kind=kind)


def bound_bits(result):
    return [(b.target, b.l_vertex.hex(), b.l_baseline.hex(), b.l_hybrid.hex()) for b in result.bounds]


SHAPE_M = dict(tokens=16, heads=4, d_model=16, d_head=4, n_classes=10, residual=True)


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

    @pytest.mark.parametrize("bad", [2.0, -0.25, 1.0 + 2**-52, float("nan"), float("inf")])
    def test_input_outside_the_unit_range_rejected(self, bad):
        # x0 = 2.0 with eps 0.01 clipped to the point box at 1.0, which
        # misses x0's ball, and certify_targets certified that box.
        x0 = np.array([0.0, 0.5, bad, 1.0, bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rf"\[0, 1\], got x0\[2\] = {re.escape(repr(bad))}$"):
                pixel_box(x0, 0.01)

    @pytest.mark.parametrize("bad", ["0.1", None, True, False, np.bool_(True), 1j, [0.1]])
    def test_epsilon_must_be_a_number(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="epsilon must be a number"):
                pixel_box(np.array([0.5]), bad)

    def test_numeric_epsilons(self):
        x0 = np.array([0.25, 0.75])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit = pixel_box(x0, float("inf"))
            assert np.array_equal(unit.lo, [0.0, 0.0]) and np.array_equal(unit.hi, [1.0, 1.0])
            for eps in (0, np.int64(0), np.float32(0.0)):
                box = pixel_box(x0, eps)
                assert np.array_equal(box.lo, x0) and np.array_equal(box.hi, x0)


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
        bounds = linear_suffix_bound(m, 0, range(1, m.n_classes))
        c_max = np.abs(value_coefficients(value_maps(bounds, m), m, box).c).max()
        m = dataclasses.replace(m, wo=m.wo * (0.3 * sys.float_info.max / c_max))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert certify_targets(m, box, 0).bounds
            with pytest.raises(CertificationInfeasibleError):
                certify_targets(m, box, 0, certified=True)

    def test_overflowing_sum_is_infeasible(self, monkeypatch):
        # Every row bound finite and unsaturated, but their sum overflows.
        m = random_model(seed=0, tokens=4, heads=1, d_model=4, suffix_kind="linear")
        big = 0.9 * sys.float_info.max

        def huge_rows(c, *_):
            return np.full(c.shape[:-1], big), np.zeros(c.shape[:-1], dtype=bool)

        monkeypatch.setattr(attncert.attention, "certified_sweep_min", huge_rows)
        with pytest.raises(CertificationInfeasibleError):
            certify_targets(m, pixel_box(np.full(m.image_size, 0.5), 0.01), 0, certified=True)

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

    @pytest.mark.parametrize(
        "floor, rows",
        [
            ([1e16], [[1.0, -1e16, 0.5]]),
            ([-1e16], [[-1.0, 1e16, -0.5]]),
            ([3.0], [[-1e-300, 2.0**-60, 1e300, -1e300]]),
            ("seeded", None),
        ],
    )
    def test_certified_sum_below_exact_sum(self, floor, rows):
        # The fast arm's round-to-nearest sum can sit above the exact sum of
        # its terms (-1e16 - 1.0 rounds to -1e16, so -0.5 is all that is left
        # of -1.5); the certified arm's sum never does.
        if floor == "seeded":
            rng = np.random.default_rng(11)
            rows = rng.normal(size=(200, 64)) * 10.0 ** rng.integers(-8, 9, (200, 64))
            floor = rng.normal(size=200) * 10.0 ** rng.integers(-8, 17, 200)
        floor, rows = np.asarray(floor, dtype=float), np.asarray(rows, dtype=float)
        got = attncert.attention._accumulate_down(floor, rows)
        fast = attncert.attention._accumulate(floor, rows)
        above = 0
        for t in range(len(floor)):
            exact = Fraction(floor[t]) + sum(map(Fraction, rows[t]))
            assert Fraction(got[t]) <= exact
            above += Fraction(fast[t]) > exact
            assert fast[t] - got[t] <= 2 * (rows.shape[1] + 1) * 2.0**-52 * (abs(floor[t]) + np.abs(rows[t]).sum())
        if len(floor) > 1:
            assert above > 0

    def test_shift_saturation_is_infeasible_for_every_target(self, monkeypatch):
        # One (head, token) score row whose shifted lower endpoint overflows
        # (lower = -1e308, upper = 1e308 on another coordinate): the row is
        # shared by every target, so certified mode cannot certify any.
        m = random_model(seed=2, tokens=4, heads=2, d_model=8, n_classes=4, suffix_kind="linear")
        box = pixel_box(np.full(m.image_size, 0.5), 0.01)
        lower, upper = (a.copy() for a in model_score_boxes(m, box))
        lower[1, 2, 0] = -1e308
        upper[1, 2, 3] = 1e308
        monkeypatch.setattr(attncert.verify, "model_score_boxes", lambda *_: (lower, upper))
        # The fast path takes the row without a warning (the baseline arm's
        # shift used to overflow on it).
        assert certify_targets(m, box, 0).bounds
        with pytest.raises(CertificationInfeasibleError):
            certify_targets(m, box, 0, certified=True)


class TestValidation:
    def test_class_index_range(self):
        m = tiny_model(0, "linear")
        box = pixel_box(np.full(m.image_size, 0.5), 0.01)
        for y in (-1, m.n_classes):
            with pytest.raises(ValidationError):
                certify_targets(m, box, y)

    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    @pytest.mark.parametrize("y", [1.0, True, np.float64(1), "1"], ids=["float", "bool", "float64", "str"])
    def test_class_index_must_be_an_integer(self, kind, y):
        m = tiny_model(0, kind, n_classes=3)
        box = pixel_box(np.full(m.image_size, 0.5), 0.01)
        with pytest.raises(ValidationError):
            certify_targets(m, box, y)

    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    def test_numpy_integer_class_index(self, kind):
        m = tiny_model(0, kind, n_classes=3)
        box = pixel_box(np.full(m.image_size, 0.5), 0.01)
        want = certify_targets(m, box, 1)
        got = certify_targets(m, box, np.int64(1))
        assert type(got.y) is int and got.y == 1
        assert [(b.target, b.l_vertex, b.l_baseline, b.l_hybrid) for b in got.bounds] == [
            (b.target, b.l_vertex, b.l_baseline, b.l_hybrid) for b in want.bounds
        ]

    def test_box_size_mismatch(self):
        m = tiny_model(0, "linear")
        with pytest.raises(ValidationError):
            certify_targets(m, pixel_box(np.full(3, 0.5), 0.01), 0)

    @pytest.mark.parametrize("case", ["a", "b", "c", "d", "e"])
    @pytest.mark.parametrize("certified", [False, True])
    def test_overflow_before_the_rows_rejected(self, case, certified):
        # Finite weights whose bounds overflow before the rows: (a) in the
        # value coefficients, (b) in the model's composed pixel maps and the
        # value bounds, (c) in the hidden pre-activations, (d) in the ReLU
        # head's margin forms, and (e) in the residual floor, as inf - inf.
        # Each is one ValidationError with no float warning on the way.
        r = dataclasses.replace
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lin = random_model(0, tokens=4, n_classes=3)
            mlp = random_model(0, tokens=4, n_classes=3, suffix_kind="mlp1")
            m = {
                "a": lambda: r(lin, wv=lin.wv * 1e200, suffix=r(lin.suffix, w=lin.suffix.w * 1e200)),
                "b": lambda: r(mlp, wv=mlp.wv * 1e300, w_embed=mlp.w_embed * 1e10),
                "c": lambda: r(mlp, wo=mlp.wo * 1e10, suffix=r(mlp.suffix, w1=mlp.suffix.w1 * 1e300)),
                "d": lambda: r(
                    mlp, wv=mlp.wv * 1e150, suffix=r(mlp.suffix, w1=mlp.suffix.w1 * 1e100, w2=mlp.suffix.w2 * 1e100)
                ),
                "e": lambda: r(
                    lin, w_embed=lin.w_embed * 1e300, b_embed=lin.b_embed * 0.0,
                    wq=lin.wq * 1e-300, wk=lin.wk * 1e-300, wv=lin.wv * 1e-300, wo=lin.wo * 1e-300,
                    suffix=r(lin.suffix, w=lin.suffix.w * 1e10),
                ),
            }[case]()
            # The second call finds the linear head's margin forms and value
            # maps built, and still rejects the model.
            for _ in ("cold", "warm"):
                with pytest.raises(ValidationError, match="finite"):
                    certify_targets(m, pixel_box(np.full(m.image_size, 0.5), 0.01), 0, certified=certified)

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


class TestLabelMaps:
    """certify_targets keeps the linear head's value maps on the model, by
    label, and every later box of that label reuses them."""

    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    def test_warm_calls_match_cold_ones(self, kind):
        # For every label, in both modes: a call on a model that has already
        # certified that label on other boxes equals the first call on a
        # fresh copy of the model, bit for bit.
        m = random_model(3, suffix_kind=kind, hidden=32, **SHAPE_M)
        rng = np.random.default_rng(5)
        boxes = [pixel_box(rng.uniform(0, 1, m.image_size), eps) for eps in (0.001, 0.01)]
        for y in range(m.n_classes):
            for certified in (False, True):
                for box in boxes:
                    cold = certify_targets(dataclasses.replace(m), box, y, certified=certified)
                    for _ in range(2):
                        warm = certify_targets(m, box, y, certified=certified)
                        assert bound_bits(warm) == bound_bits(cold)
        assert sorted(m._label_maps) == (list(range(m.n_classes)) if kind == "linear" else [])

    def test_replaced_model_gets_fresh_maps(self):
        m = random_model(3, **SHAPE_M)
        box = pixel_box(np.random.default_rng(6).uniform(0, 1, m.image_size), 0.003)
        certify_targets(m, box, 0)
        maps = m._label_maps[0]
        certify_targets(m, box, 0)
        assert m._label_maps[0] is maps
        same = dataclasses.replace(m)
        assert same._label_maps == {}
        want = certify_targets(random_model(3, **SHAPE_M), box, 0)
        assert bound_bits(certify_targets(same, box, 0)) == bound_bits(want)
        assert same._label_maps[0] is not maps
        # A replaced suffix's maps follow its own weights.
        doubled = dataclasses.replace(m, suffix=dataclasses.replace(m.suffix, w=m.suffix.w * 2.0))
        certify_targets(doubled, box, 0)
        for name in ("w_pos", "w_neg", "res_pos", "res_neg"):
            assert np.array_equal(getattr(doubled._label_maps[0], name), getattr(maps, name) * 2.0)

    def test_cached_arrays_are_read_only(self):
        m = random_model(3, **SHAPE_M)
        certify_targets(m, pixel_box(np.full(m.image_size, 0.5), 0.01), 4)
        (maps,) = m._label_maps.values()
        arrays = [a for a in maps if a is not None]
        assert len(arrays) == 7
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 1.0

    def test_mlp1_head_keeps_no_label_maps(self):
        m = random_model(3, suffix_kind="mlp1", hidden=32, **SHAPE_M)
        rng = np.random.default_rng(7)
        for i in range(50):
            certify_targets(m, pixel_box(rng.uniform(0, 1, m.image_size), 0.003), i % m.n_classes)
        assert m._label_maps == {}


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
                scores = model_score_boxes(m, box)
                if kind == "mlp1":
                    suffix = relu_suffix_bound(m, interval_forward(m, box, scores), y, targets)
                else:
                    suffix = linear_suffix_bound(m, y, targets)
                coeffs = value_coefficients(value_maps(suffix, m), m, box)
                fast = certify_targets(m, box, y)
                cert = certify_targets(m, box, y, certified=True)
                for pos, (b, cb) in enumerate(zip(fast.bounds, cert.bounds)):
                    assert b.l_vertex == margin_row_loop(coeffs, scores, pos, vertex_row)
                    assert b.l_baseline == margin_row_loop(coeffs, scores, pos, baseline_directional_min)
                    # The certified sum is the row loop's, rounded down below
                    # the exact sum of the floor and the certified rows.
                    rows = []

                    def recorded_row(c, row):
                        rows.append(certified_row(c, row))
                        return rows[-1]

                    loop = margin_row_loop(coeffs, scores, pos, recorded_row)
                    terms = [float(coeffs.b_prime[pos])] + rows
                    assert Fraction(cb.l_vertex) <= sum(map(Fraction, terms))
                    assert 0.0 < loop - cb.l_vertex <= 2 * len(terms) * 2.0**-52 * sum(map(abs, terms))
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
        counted(attncert.attention, "certified_sweep_min")
        m = random_model(
            seed=0, tokens=16, heads=4, d_model=16, d_head=4, n_classes=10, suffix_kind=kind, hidden=32, residual=True
        )
        x0 = np.random.default_rng(0).uniform(0, 1, m.image_size)
        result = certify_targets(m, pixel_box(x0, 0.01), int(np.argmax(forward(m, x0))), certified=certified)
        assert len(result.bounds) == 9
        assert seen == calls

    @pytest.mark.parametrize("n_classes", [3, 10])
    def test_exponentials_evaluated_once_per_box_row(self, monkeypatch, n_classes):
        # exp evaluates 2 * H * R * R points per call (each score's upper
        # and lower endpoint, shifted), however many targets share the box.
        seen = []
        exp = attncert.intervals.exp

        def counted(x):
            seen.append(x.size)
            return exp(x)

        monkeypatch.setattr(attncert.intervals, "exp", counted)
        m = random_model(seed=0, tokens=16, heads=4, d_model=16, d_head=4, n_classes=n_classes, residual=True)
        x0 = np.random.default_rng(0).uniform(0, 1, m.image_size)
        result = certify_targets(m, pixel_box(x0, 0.01), int(np.argmax(forward(m, x0))), certified=True)
        assert len(result.bounds) == n_classes - 1
        assert sum(seen) == 2 * 4 * 16 * 16

    @pytest.mark.parametrize("kind", ["mlp1", "linear"])
    def test_score_boxes_built_once(self, monkeypatch, kind):
        built = []
        product = attncert.attention.score_boxes_interval_product

        def counted(*args):
            built.append(1)
            return product(*args)

        monkeypatch.setattr(attncert.attention, "score_boxes_interval_product", counted)
        m = random_model(seed=1, tokens=4, heads=2, d_model=6, n_classes=4, suffix_kind=kind, hidden=6)
        x0 = np.random.default_rng(1).uniform(0, 1, m.image_size)
        certify_targets(m, pixel_box(x0, 0.02), int(np.argmax(forward(m, x0))))
        assert len(built) == 1
