import csv
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from attncert import (
    AttentionModelSpec,
    LinearSuffix,
    MlpSuffix,
    PixelBox,
    ScoreBox,
    SweepConfig,
    ValidationError,
    attack_min_margin,
    attack_min_objective,
    baseline_directional_min,
    certified_directional_min,
    directional_min,
    forward,
    forward_batch,
    pixel_box,
    random_model,
    run_sweep,
    selfcheck,
    softmax_objective,
    synth_instance,
)
from attncert import harness, solver
from attncert.cli import main
from attncert.harness import (
    AGGREGATE_COLUMNS,
    METHODS,
    TRIAL_COLUMNS,
    _attack_margin_points,
    _margin_polish,
    aggregate_records,
    keyed_rng,
    trial_seed,
    write_aggregate_csv,
    write_trial_csv,
)

from attncert.certified import certified_sweep_min
from attncert.suffix import margin_gradient_bounds
from attncert.solver import _objective, _stable_rank, _threshold_vertices
from oracles import (
    attack_margin_sample_start,
    attack_objective_loop,
    attack_vertices_loop,
    lockstep_margin_polish,
    scalar_margin_polish,
    secant_corner,
    threshold_vertices,
)


def no_screen(model, box, y, targets):
    """A gradient enclosure that proves nothing: (-inf, inf) everywhere."""
    shape = (len(targets), model.image_size)
    return np.full(shape, -np.inf), np.full(shape, np.inf)


def one_pixel_abs_model(a: float):
    """One pixel through two crossing ReLUs: logits = (|x - a|, 0)."""
    return AttentionModelSpec(
        height=1, width=1, channels=1, patch=1, d_model=1, d_head=1, heads=1, n_classes=2, residual=True,
        w_embed=np.eye(1), b_embed=np.zeros(1), wq=np.zeros((1, 1, 1)), bq=np.zeros((1, 1)),
        wk=np.zeros((1, 1, 1)), bk=np.zeros((1, 1)), wv=np.zeros((1, 1, 1)), bv=np.zeros((1, 1)),
        wo=np.zeros((1, 1, 1)), bo=np.zeros(1), mask=np.zeros((1, 1, 1)),
        suffix=MlpSuffix(
            w1=np.array([[1.0], [-1.0]]), b1=np.array([-a, a]),
            w2=np.array([[1.0, 1.0], [0.0, 0.0]]), b2=np.zeros(2),
        ),
    )


def two_pixel_identity_model():
    """Two single-pixel tokens passed through untouched: logits = (x0, x1)."""
    return AttentionModelSpec(
        height=1,
        width=2,
        channels=1,
        patch=1,
        d_model=1,
        d_head=1,
        heads=1,
        n_classes=2,
        residual=True,
        w_embed=np.eye(1),
        b_embed=np.zeros(1),
        wq=np.zeros((1, 1, 1)),
        bq=np.zeros((1, 1)),
        wk=np.zeros((1, 1, 1)),
        bk=np.zeros((1, 1)),
        wv=np.zeros((1, 1, 1)),
        bv=np.zeros((1, 1)),
        wo=np.zeros((1, 1, 1)),
        bo=np.zeros(1),
        mask=np.zeros((1, 2, 2)),
        suffix=LinearSuffix(w=np.eye(2), b=np.zeros(2)),
    )


class TestSynth:
    def test_deterministic_in_seed(self):
        c1, b1 = synth_instance(6, 123)
        c2, b2 = synth_instance(6, 123)
        assert np.array_equal(c1, c2)
        assert np.array_equal(b1.lower, b2.lower) and np.array_equal(b1.upper, b2.upper)
        c3, _ = synth_instance(6, 124)
        assert not np.array_equal(c1, c3)

    def test_width_scale_controls_half_width(self):
        _, box = synth_instance(5, 7, width_scale=0.4)
        assert box.upper - box.lower == pytest.approx(np.full(5, 0.4), abs=1e-15)
        _, tight = synth_instance(5, 7, width_scale=0.0)
        assert np.array_equal(tight.lower, tight.upper)

    def test_trial_seeds_distinct_across_cells(self):
        seeds = {trial_seed(0, k, t) for k in (2, 4, 8) for t in range(20)}
        assert len(seeds) == 60
        assert trial_seed(0, 4, 3) == trial_seed(0, 4, 3)

    def test_k_validated(self):
        with pytest.raises(ValidationError):
            synth_instance(0, 1)

    def test_overflowing_coeff_scale_is_a_validation_error(self):
        # The product overflows quietly (RuntimeWarnings are errors here) and
        # is refused before any solve.
        with pytest.raises(ValidationError, match="coeff_scale"):
            synth_instance(4, 0, coeff_scale=1e308)
        with pytest.raises(ValidationError, match="coeff_scale"):
            run_sweep(SweepConfig((4,), trials=3, seed=0, coeff_scale=1e308))


class TestAttackObjective:
    def test_matches_exact_minimum_on_small_k(self):
        for i in range(50):
            k = 2 + i % 15
            c, box = synth_instance(k, 900 + i)
            exact = directional_min(c, box).value
            attack = attack_min_objective(c, box, budget=60, seed=i)
            assert attack >= exact - 1e-9
            assert abs(attack - exact) <= 1e-6

    def test_attack_is_feasible_value(self):
        c, box = synth_instance(8, 3)
        attack = attack_min_objective(c, box, budget=40)
        assert c.min() <= attack <= c.max()

    def test_budget_validated(self):
        c, box = synth_instance(3, 0)
        with pytest.raises(ValidationError):
            attack_min_objective(c, box, budget=0)

    @pytest.mark.parametrize(
        "budget, seed, match",
        [(2.5, 0, "budget"), (True, 0, "budget"), (5, -1, "seed"), (5, 1.5, "seed"), (5, False, "seed")],
    )
    def test_budget_and_seed_types_validated(self, budget, seed, match):
        c, box = synth_instance(3, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                attack_min_objective(c, box, budget=budget, seed=seed)

    @pytest.mark.parametrize("k", [1, 2, 4, 16, 64, 256])
    def test_matches_loop_oracle_bit_for_bit(self, k):
        # The attack before its polish was removed: loop-built vertices of c
        # and -c, stacked samples, one-point-per-call polish.
        for i in range(40 if k <= 16 else 12):
            width_scale = (1.0, 50.0, 1e-14)[i % 3]
            c, box = synth_instance(k, 40 * k + i, width_scale=width_scale)
            if i % 2:
                c = np.round(c)  # tied coefficients
            for budget in (1, 40):
                got = attack_min_objective(c, box, budget=budget, seed=i)
                assert got == attack_objective_loop(c, box, budget, seed=i)

    @pytest.mark.parametrize("k", [1, 2, 4, 16, 64])
    def test_vertices_match_reference(self, k):
        rng = np.random.default_rng(k)
        c = np.round(rng.normal(size=k))  # tied coefficients
        lower = rng.normal(size=k)
        box = ScoreBox(lower=lower, upper=lower + rng.uniform(0, 2, size=k))
        want = np.vstack((threshold_vertices(c, box), threshold_vertices(-c, box)))
        got = _threshold_vertices(_stable_rank(np.stack((c, -c))[:, None]), box.lower, box.upper, np.arange(k + 1))
        assert np.array_equal(got.reshape(-1, k), want)
        assert np.array_equal(attack_vertices_loop(c, box), want)

    def test_within_rounding_of_the_search_with_polish(self, capsys):
        # The loop oracle adds the threshold vertices of -c and an endpoint
        # descent from its best candidate to the attack's candidates, so it
        # is never above the attack; one threshold vertex of c is the exact
        # minimizer, so the attack may exceed it by rounding only.
        rng = np.random.default_rng(15)
        n = identical = 0
        for i in range(3072):
            k = int(np.exp2(rng.uniform(0.0, 8.0)).round()) if i % 64 else (1, 256)[i // 64 % 2]
            width_scale = 10.0 ** rng.uniform(-14.0, 2.0)
            coeff_scale = 10.0 ** rng.uniform(-3.0, 3.0)
            c, box = synth_instance(k, 5000 + i, width_scale=width_scale, coeff_scale=coeff_scale)
            if i % 3 == 1:
                c = np.round(c / coeff_scale) * coeff_scale  # tied coefficients
            if i % 4 == 2:
                lower = box.lower.copy()
                pinned = rng.random(k) < 0.3
                lower[pinned] = box.upper[pinned]  # lo == hi
                box = ScoreBox(lower=lower, upper=box.upper)
            budget = (1, 8, 40)[i % 3]
            got = attack_min_objective(c, box, budget=budget, seed=i)
            want = attack_objective_loop(c, box, budget, seed=i)
            assert want <= got <= want + 1e-12 * max(1.0, float(np.max(np.abs(c)))), (i, k, got, want)
            n += 1
            identical += got == want
        with capsys.disabled():
            print(f"\nattack vs loop oracle: {identical} of {n} bit-identical")

    def test_samples_keyed_apart_from_the_instance(self, monkeypatch):
        # A sweep trial passes one seed to synth_instance and the attack; the
        # attack's samples must not come from the instance's (seed, K) stream.
        seen = []
        objective = harness._objective

        def spy(c, points):
            seen.append(points.copy())
            return objective(c, points)

        monkeypatch.setattr(harness, "_objective", spy)
        budget = 12
        for k in (1, 4, 64):
            seed = trial_seed(3, k, 0)
            c, box = synth_instance(k, seed)
            seen.clear()
            attack_min_objective(c, box, budget=budget, seed=seed)
            points = np.vstack(seen)  # the candidate set, scored in blocks
            samples = points[-budget:]  # stacked below the K+1 threshold vertices
            instance_stream = keyed_rng(seed, k).uniform(box.lower, box.upper, size=(budget, k))
            assert not np.isin(samples, instance_stream).any()
            assert points.shape == (k + 1 + budget, k)
            assert np.array_equal(samples, keyed_rng(seed, k, 1).uniform(box.lower, box.upper, size=(budget, k)))

    @pytest.mark.parametrize("k", [1, 4, 256])
    @pytest.mark.parametrize("width", [1e-14, 1.0, 1e300])
    def test_samples_drawn_in_place_equal_uniform(self, monkeypatch, k, width):
        # The samples are drawn into the candidate buffer as lower + width *
        # random(); they must be Generator.uniform's samples bit for bit,
        # signed zeros included.  Every third coordinate from the third has
        # width 0, and every fourth from the first a -0.0 lower end.
        seen = []
        objective = harness._objective
        monkeypatch.setattr(harness, "_objective", lambda c, points: seen.append(points.copy()) or objective(c, points))
        rng = np.random.default_rng(k)
        lower = rng.normal(size=k) * min(width, 1.0)
        widths = np.full(k, width)
        widths[2::3] = 0.0
        lower[::4] = -0.0
        box = ScoreBox(lower=lower, upper=lower + widths)
        c = rng.normal(size=k)
        budget = 30
        for seed in (0, 7):
            seen.clear()
            attack_min_objective(c, box, budget=budget, seed=seed)
            want = keyed_rng(seed, k, 1).uniform(box.lower, box.upper, size=(budget, k))
            points = np.vstack(seen)  # the candidate set, scored in blocks
            assert points.shape == (k + 1 + budget, k)
            assert np.array_equal(points[k + 1 :].view(np.uint64), want.view(np.uint64))
            assert np.array_equal(points[: k + 1], _threshold_vertices(_stable_rank(c), box.lower, box.upper, np.arange(k + 1)))

    @pytest.mark.parametrize(
        "k, budget", [(k, budget) for k in (1, 4, 256) for budget in (1, 40, 1000)] + [(2**14 + 1, 40)]
    )
    def test_candidates_scored_in_bounded_blocks(self, monkeypatch, k, budget):
        # Every _objective call scores at most max(1, 2**14 // K) rows, and
        # the calls stack, bit for bit, to the unblocked candidate set: the
        # K+1 threshold vertices of c, then Generator.uniform's samples in
        # one draw.  At K = 2**14 + 1 every block is one row (and the attack
        # takes seconds), so each call is checked as it comes rather than
        # stacked.
        seed = 5
        c, box = synth_instance(k, seed)
        samples = keyed_rng(seed, k, 1).uniform(box.lower, box.upper, size=(budget, k))
        rank = _stable_rank(c)
        objective = harness._objective
        calls = []
        scored = 0

        def spy(c_, points):
            nonlocal scored
            idx = np.arange(scored, scored + len(points))
            vertices = _threshold_vertices(rank, box.lower, box.upper, idx[idx <= k])
            want = np.vstack((vertices, samples[idx[idx > k] - k - 1]))
            assert np.array_equal(points.view(np.uint64), want.view(np.uint64))
            calls.append(len(points))
            scored += len(points)
            return objective(c_, points)

        monkeypatch.setattr(harness, "_objective", spy)
        attack_min_objective(c, box, budget=budget, seed=seed)
        assert max(calls) <= max(1, 2**14 // k)
        assert scored == k + 1 + budget

    def test_attack_memory_is_flat_in_the_budget(self):
        # The candidates are scored in bounded blocks, so the traced peak at
        # K = 256 does not grow with the budget (it grew 1.9 -> 79.6 MiB from
        # budget 200 to 20,000 when they were scored in one array).
        c, box = synth_instance(256, 3)
        peaks = []
        for budget in (200, 20_000):
            tracemalloc.start()
            try:
                attack_min_objective(c, box, budget=budget, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    @pytest.mark.parametrize("k", [1, 4, 64, 256])
    def test_objective_rows_equal_softmax_objective(self, k):
        # The attack scores its candidates with _objective and the loop
        # oracle's descent scores one point per softmax_objective call: they
        # must agree bit for bit on any number of rows.
        for width_scale in (1.0, 50.0):
            c, box = synth_instance(k, k, width_scale=width_scale)
            points = np.random.default_rng(k).uniform(box.lower, box.upper, size=(9, k))
            want = [softmax_objective(c, p) for p in points]
            for n in (1, 2, 9):
                assert _objective(c, points[:n]).tolist() == want[:n]

    def test_direction_validated(self):
        box = ScoreBox(lower=np.zeros(3), upper=np.ones(3))
        for c in ([1.0, 2.0], [1.0, np.nan, 0.0]):
            with pytest.raises(ValidationError, match="direction"):
                attack_min_objective(c, box, budget=10)

    def test_unsampleable_box_rejected(self):
        # The width 2e308 overflows, so the box cannot be sampled.
        box = ScoreBox(lower=np.array([-1e308, 0.0]), upper=np.array([1e308, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="width"):
                attack_min_objective(np.array([1.0, -1.0]), box, budget=10)


def _attack_case(seed: int, suffix_kind: str, n_classes: int = 4, eps: float = 0.05):
    m = random_model(
        seed=seed, tokens=4, heads=2, d_model=6, n_classes=n_classes, suffix_kind=suffix_kind, hidden=6
    )
    x0 = np.random.default_rng(seed).uniform(0.2, 0.8, m.image_size)
    y = int(np.argmax(forward(m, x0)))
    return m, pixel_box(x0, eps), y, [t for t in range(n_classes) if t != y]


def _shape_m_case(seed: int, eps: float, suffix_kind: str = "linear", residual: bool = True):
    """A model of the benchmark's shape M (16 tokens, 4 heads, 10 classes,
    hidden 32 for mlp1) and a box around a uniform input."""
    m = random_model(
        seed=seed, tokens=16, heads=4, d_model=16, d_head=4, n_classes=10, residual=residual,
        suffix_kind=suffix_kind, hidden=32,
    )
    x0 = np.random.default_rng(seed).uniform(0.0, 1.0, m.image_size)
    y = int(np.argmax(forward(m, x0)))
    return m, pixel_box(x0, eps), y, [t for t in range(m.n_classes) if t != y]


def _record_attack(monkeypatch) -> dict:
    """Wrap harness.forward_batch and harness._margin_polish.  The log holds
    every scored batch, and for each polish its (start, start_val) and the
    number of batches scored before it."""
    log = {"batches": [], "starts": [], "before_polish": []}

    def recording(model, xs):
        log["batches"].append(np.array(xs))
        return forward_batch(model, xs)

    def polish(model, y, targets, start, start_val, *args):
        log["starts"].append((start.copy(), start_val.copy()))
        log["before_polish"].append(len(log["batches"]))
        return _margin_polish(model, y, targets, start, start_val, *args)

    monkeypatch.setattr(harness, "forward_batch", recording)
    monkeypatch.setattr(harness, "_margin_polish", polish)
    return log


class TestAttackMargin:
    def test_zero_radius_recovers_clean_margin(self):
        for seed in range(3):
            m = random_model(seed=seed, tokens=2, heads=1, d_model=4, n_classes=3)
            x0 = np.random.default_rng(seed).uniform(0.2, 0.8, m.image_size)
            logits = forward(m, x0)
            got = attack_min_margin(m, pixel_box(x0, 0.0), 0, [1], budget=8, seed=seed)
            assert got.shape == (1,)
            assert got[0] == pytest.approx(float(logits[0] - logits[1]), abs=1e-12)

    def test_finds_adversarial_corner(self):
        m = two_pixel_identity_model()
        box = pixel_box(np.array([0.5, 0.5]), 1.0)  # clips to the full unit box
        got = attack_min_margin(m, box, 0, [1], budget=4, seed=0)
        assert got[0] == pytest.approx(-1.0, abs=1e-12)

    def test_budget_validated(self):
        m = two_pixel_identity_model()
        with pytest.raises(ValidationError):
            attack_min_margin(m, pixel_box(np.array([0.5, 0.5]), 0.1), 0, [1], budget=0)

    @pytest.mark.parametrize("wide", [slice(None), slice(1, 2)])
    def test_unbounded_box_is_a_validation_error(self, wide):
        # Finite ends whose width passes the float range, on every pixel or on
        # one: the box cannot be sampled, so one ValidationError, with no
        # overflow warning on the way.
        m = random_model(seed=0, tokens=4, n_classes=3)
        lo, hi = np.full(m.image_size, 0.25), np.full(m.image_size, 0.75)
        lo[wide], hi[wide] = -1e308, 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="widths must be finite"):
                attack_min_margin(m, PixelBox(lo=lo, hi=hi), 0, [1, 2], budget=4)

    @pytest.mark.parametrize("budget, seed, match", [(4.0, 0, "budget"), (4, -1, "seed"), (4, 1.5, "seed")])
    def test_budget_and_seed_types_validated(self, budget, seed, match):
        m = two_pixel_identity_model()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                attack_min_margin(m, pixel_box(np.array([0.5, 0.5]), 0.1), 0, [1], budget=budget, seed=seed)

    @pytest.mark.parametrize(
        "y, targets, match",
        [
            (5, [1], "y=5"),
            (-1, [1], "y=-1"),
            (0, [7], "target 7"),
            (0, [-1], "target -1"),
            (0, [0], "equals the label"),
            (0, [1, 2, 1], "repeat"),
            (0, [1.0], "integer"),
            (0, [[1, 2]], "flat"),
        ],
    )
    def test_class_indices_validated(self, y, targets, match):
        m = random_model(seed=0, tokens=2, heads=1, d_model=4, n_classes=3)
        box = pixel_box(np.full(m.image_size, 0.5), 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                attack_min_margin(m, box, y, targets, budget=4)

    def test_box_size_validated(self):
        m = random_model(seed=0, tokens=2, heads=1, d_model=4, n_classes=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="image size"):
                attack_min_margin(m, pixel_box(np.full(m.image_size + 1, 0.5), 0.1), 0, [1], budget=4)

    def test_no_targets(self):
        m, box, y, _ = _attack_case(0, "linear")
        with pytest.raises(ValidationError, match="non-empty"):
            attack_min_margin(m, box, y, [], budget=4)

    @pytest.mark.parametrize("suffix_kind", ["linear", "mlp1"])
    @pytest.mark.parametrize("eps", [0.05, 0.5])
    def test_lockstep_polish_matches_scalar_oracle(self, suffix_kind, eps):
        # Wide boxes make some coordinates improve at both endpoints, where
        # the hi move must beat the lo move, not the starting value.
        for seed in range(6):
            m, box, y, targets = _attack_case(seed, suffix_kind, eps=eps)
            t = np.array(targets)
            starts = np.random.default_rng(100 + seed).uniform(box.lo, box.hi, (t.size, m.image_size))
            logits = forward_batch(m, starts)
            start_val = logits[:, y] - logits[np.arange(t.size), t]
            _, got = _margin_polish(m, y, t, starts, start_val, box.lo, box.hi, *margin_gradient_bounds(m, box, y, t))
            for r, target in enumerate(targets):
                want = scalar_margin_polish(m, y, target, starts[r], box.lo, box.hi)
                assert abs(got[r] - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("suffix_kind", ["linear", "mlp1"])
    @pytest.mark.parametrize("eps", [0.001, 0.05, 0.5])
    def test_windowed_polish_matches_lockstep_oracle(self, suffix_kind, eps):
        # Starts per case: an interior point, a random vertex, a point the
        # lockstep polish ended at, and such a point with the coordinate at
        # the first (0) or the last (3) of the first window flipped.
        for seed in range(4):
            m, box, y, targets = _attack_case(seed, suffix_kind, n_classes=6, eps=eps)
            t = np.array(targets)
            rng = np.random.default_rng(200 + seed)
            starts = rng.uniform(box.lo, box.hi, (t.size, m.image_size))
            starts[1] = np.where(rng.uniform(size=m.image_size) < 0.5, box.lo, box.hi)
            logits = forward_batch(m, starts)
            start_val = logits[:, y] - logits[np.arange(t.size), t]
            settled, _ = lockstep_margin_polish(m, y, t, starts, start_val, box.lo, box.hi)
            starts[2:] = settled[2:]
            for r, j in ((3, 0), (4, 3)):
                starts[r, j] = box.lo[j] + box.hi[j] - starts[r, j]
            logits = forward_batch(m, starts)
            start_val = logits[:, y] - logits[np.arange(t.size), t]
            grad = margin_gradient_bounds(m, box, y, t)
            got_x, got = _margin_polish(m, y, t, starts, start_val, box.lo, box.hi, *grad)
            want_x, want = lockstep_margin_polish(m, y, t, starts, start_val, box.lo, box.hi)
            assert np.array_equal(got_x, want_x)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_window_schedule_on_a_separable_margin(self, monkeypatch):
        # 24 one-pixel tokens passed through untouched and a linear head, so
        # each target's margin is a sum of per-pixel terms and pixel j moves
        # exactly when its start is off the term's minimizing end.  Target 1
        # moves at the first coordinate of its first window (0) and the last
        # of its second (4), target 2 at the last of its first (3), target 3
        # nowhere and target 4 inside its 16-wide second window (10).
        n = 24
        rng = np.random.default_rng(9)
        a = rng.choice([-1.0, 1.0], size=(5, n)) * rng.uniform(1, 2, (5, n))
        m = AttentionModelSpec(
            height=1, width=n, channels=1, patch=1, d_model=1, d_head=1, heads=1, n_classes=5, residual=True,
            w_embed=np.eye(1), b_embed=np.zeros(1), wq=np.zeros((1, 1, 1)), bq=np.zeros((1, 1)),
            wk=np.zeros((1, 1, 1)), bk=np.zeros((1, 1)), wv=np.zeros((1, 1, 1)), bv=np.zeros((1, 1)),
            wo=np.zeros((1, 1, 1)), bo=np.zeros(1), mask=np.zeros((1, n, n)),
            suffix=LinearSuffix(w=np.vstack((np.zeros(n), -a[1:])), b=np.zeros(5)),
        )
        box = pixel_box(np.full(n, 0.5), 0.25)
        t = np.array([1, 2, 3, 4])
        best = np.where(a[1:] > 0, box.lo, box.hi)  # margin_t = a[t] . x
        starts = best.copy()
        for r, j in ((0, 0), (0, 4), (1, 3), (3, 10)):
            starts[r, j] = box.lo[j] + box.hi[j] - starts[r, j]
        start_val = np.einsum("tj,tj->t", a[1:], starts)
        calls = []

        def recording(model, xs):
            calls.append(len(xs))
            return forward_batch(model, xs)

        monkeypatch.setattr(harness, "forward_batch", recording)
        # First with a gradient enclosure that proves nothing, so every flip
        # off the current point is scored.
        got_x, got = _margin_polish(m, 0, t, starts, start_val, box.lo, box.hi, *no_screen(m, box, 0, t))
        assert np.array_equal(got_x, best)
        assert np.allclose(got, np.einsum("tj,tj->t", a[1:], best), rtol=1e-14, atol=0.0)
        # Windows over the two rounds' coordinates 0-47: target 1 at 0-3
        # (moves at 0), 1-4 (moves at 4), 5-8, 9-24 and 25-47; target 2 at
        # 0-3 (moves at 3), 4-7, 8-23 and 24-47; target 3 at 0-3, 4-19 and
        # 20-23, its one round; target 4 at 0-3, 4-19 (moves at 10), 11-14,
        # 15-30 and 31-47.
        assert calls == [16, 40, 28, 56, 40]
        # The margin is linear, so the real enclosure is its exact gradient
        # and screens every flip but the four moves: the same windows score
        # targets 1 and 2's first moves, then target 1's second and target
        # 4's, and the windows after them score nothing, so make no call.
        calls.clear()
        grad = margin_gradient_bounds(m, box, 0, t)
        got_x, got = _margin_polish(m, 0, t, starts, start_val, box.lo, box.hi, *grad)
        assert np.array_equal(got_x, best)
        assert np.allclose(got, np.einsum("tj,tj->t", a[1:], best), rtol=1e-14, atol=0.0)
        assert calls == [2, 2]

    @pytest.mark.parametrize("suffix_kind", ["linear", "mlp1"])
    def test_values_are_margins_at_points_of_the_box(self, suffix_kind):
        for seed in range(3):
            m, box, y, targets = _attack_case(seed, suffix_kind)
            values = attack_min_margin(m, box, y, targets, budget=30, seed=seed)
            points, point_values = _attack_margin_points(m, box, y, np.array(targets), 30, seed)
            assert np.array_equal(values, point_values)
            assert np.all(points >= box.lo) and np.all(points <= box.hi)
            for x, target, v in zip(points, targets, values):
                lg = forward(m, x)
                assert v == pytest.approx(float(lg[y] - lg[target]), abs=1e-12 * max(1.0, abs(v)))

    def test_never_above_the_corners_and_center(self):
        m, box, y, targets = _attack_case(5, "mlp1")
        got = attack_min_margin(m, box, y, targets, budget=30, seed=1)
        lg = forward_batch(m, np.vstack((box.lo, box.hi, 0.5 * (box.lo + box.hi))))
        for target, v in zip(targets, got):
            assert v <= float(np.min(lg[:, y] - lg[:, target]))

    def test_deterministic_in_seed(self):
        m, box, y, targets = _attack_case(2, "linear")
        a = attack_min_margin(m, box, y, targets, budget=20, seed=7)
        b = attack_min_margin(m, box, y, targets, budget=20, seed=7)
        assert np.array_equal(a, b)

    def test_stream_is_not_the_default_input_stream(self, monkeypatch):
        # The CLI draws its default input from keyed_rng(seed, image_size); over
        # the full unit box, an attack on that stream would sample the
        # input itself.
        m = random_model(seed=1, tokens=2, heads=1, d_model=4, n_classes=3)
        seed, budget = 4, 16
        default = keyed_rng(seed, m.image_size).uniform(0.0, 1.0, (budget, m.image_size))
        log = _record_attack(monkeypatch)
        monkeypatch.setattr(harness, "margin_gradient_bounds", no_screen)
        attack_min_margin(m, pixel_box(default[0], 1.0), 0, [1, 2], budget=budget, seed=seed)
        samples = log["batches"][2]  # after the lo, hi, center and probe batch, and the corners
        assert samples.shape == default.shape
        assert not np.any(np.all(samples[:, None, :] == default[None, :, :], axis=-1))

    @pytest.mark.parametrize("shape", ["4-token", "M"])
    @pytest.mark.parametrize("eps", [0.001, 0.01])
    def test_small_boxes_match_the_sample_start_search(self, shape, eps):
        # On near-linear margins the sample start's polish walks to the
        # secant corner, so both searches end at the same point.
        for seed in range(6 if shape == "4-token" else 3):
            if shape == "4-token":
                m, box, y, targets = _attack_case(seed, "linear", eps=eps)
            else:
                m, box, y, targets = _shape_m_case(seed, eps)
            got = attack_min_margin(m, box, y, targets, budget=50, seed=seed)
            want = attack_margin_sample_start(m, box, y, targets, 50, seed)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("suffix_kind", ["linear", "mlp1"])
    @pytest.mark.parametrize("eps", [0.001, 0.05, 0.2])
    def test_never_above_the_secant_corner_or_the_samples(self, suffix_kind, eps):
        # The corner replaces the best sample only when it is lower, so the
        # attack ends at or below both.
        for seed in range(4):
            m, box, y, targets = _attack_case(seed, suffix_kind, eps=eps)
            got = attack_min_margin(m, box, y, targets, budget=20, seed=seed)
            samples = keyed_rng(seed, m.image_size, m.n_classes).uniform(box.lo, box.hi, (20, m.image_size))
            lg = forward_batch(m, samples)
            for target, v in zip(targets, got):
                assert v <= float(np.min(lg[:, y] - lg[:, target]))
                lc = forward(m, secant_corner(m, y, target, box))
                corner = float(lc[y] - lc[target])
                assert v <= corner + 1e-12 * max(1.0, abs(corner))

    def test_a_worse_corner_does_not_replace_the_best_sample(self):
        # One pixel, margin |x - 0.5|: the center is the minimum, and the
        # secant corner (lo, since the hi probe raises the margin) is 0.5.
        m = one_pixel_abs_model(0.5)
        box = pixel_box(np.array([0.5]), 0.5)
        assert np.array_equal(secant_corner(m, 0, 1, box), box.lo)
        assert attack_min_margin(m, box, 0, [1], budget=4, seed=0)[0] == 0.0

    def test_a_sample_below_the_center_and_the_corner_is_scored(self, monkeypatch):
        # One pixel, margin |x - 0.3| on [0, 1]: the center scores 0.2 and
        # the secant corner (lo) 0.3, and the samples near 0.3 score lower.
        # The gradient encloses [-1, 1], so a sample's mean-value bound is
        # 0.2 - |x - 0.5|, not above 0.2: every sample is scored, and the best
        # one, not the center, is the start.
        m = one_pixel_abs_model(0.3)
        box = pixel_box(np.array([0.5]), 0.5)
        log = _record_attack(monkeypatch)
        got = attack_min_margin(m, box, 0, [1], budget=20, seed=0)[0]
        (before,) = log["before_polish"]
        assert sum(len(batch) for batch in log["batches"][2:before]) == 20
        samples = keyed_rng(0, 1, 2).uniform(0.0, 1.0, 20)
        assert got == pytest.approx(np.abs(samples - 0.3).min(), abs=1e-15) and got < 0.2

    def test_corner_start_skips_the_second_polish_round(self, monkeypatch):
        # One batch of lo, hi, the center and the probes of the pixels that
        # the gradient enclosure leaves unproven for some target, one of the
        # corners, none of the samples (the enclosure rules them all out),
        # then one polish round.  Every start is a box vertex, so each pixel
        # has one flip, to its other end; the round scores exactly the flips
        # the enclosure leaves, and no call follows it.  (Unscreened, with no
        # start moving, the round was windows of 4, 16 and 44 of the 64
        # pixels.)
        log = _record_attack(monkeypatch)
        for seed in range(6):
            m, box, y, targets = _shape_m_case(seed, 0.001)
            for entries in log.values():
                entries.clear()
            attack_min_margin(m, box, y, targets, budget=50, seed=seed)
            g_lo, g_hi = margin_gradient_bounds(m, box, y, np.array(targets))
            unproven = ~np.all((g_hi < 0.0) | (g_lo > 0.0), axis=0)
            calls = [len(b) for b in log["batches"]]
            assert log["before_polish"] == [2]
            assert calls[:2] == [3 + unproven.sum(), len(targets)]
            ((start, _),) = log["starts"]
            at_lo = start == box.lo
            assert np.all(at_lo | (start == box.hi))
            flips = np.where(at_lo, g_lo <= 0.0, g_hi >= 0.0)  # the flip to hi, or to lo, is not screened
            assert flips.sum() < flips.size
            assert sum(calls[2:]) == flips.sum()

    @pytest.mark.parametrize("suffix_kind", ["linear", "mlp1"])
    @pytest.mark.parametrize("eps", [0.001, 0.01, 0.1])
    def test_screened_flips_never_lower_the_margin(self, monkeypatch, suffix_kind, eps):
        # At the polish's start points, every flip that the gradient
        # enclosure screens is scored anyway: none is below its start's
        # margin, scored in the same batch.
        log = _record_attack(monkeypatch)
        screened = 0
        for seed in range(3):
            m, box, y, targets = _shape_m_case(seed, eps, suffix_kind)
            t = np.array(targets)
            log["starts"].clear()
            attack_min_margin(m, box, y, targets, budget=50, seed=seed)
            ((start, _),) = log["starts"]
            g_lo, g_hi = margin_gradient_bounds(m, box, y, t)
            for end, proof in ((box.lo, g_hi < 0.0), (box.hi, g_lo > 0.0)):
                r, j = np.nonzero(proof & (start != end))
                flipped = start[r]
                flipped[np.arange(r.size), j] = end[j]
                logits = forward_batch(m, np.vstack((start, flipped)))
                margins = logits[:, [y]] - logits[:, t]
                assert np.all(margins[len(t) + np.arange(r.size), r] >= margins[r, r])
                screened += r.size
        # Crossing hidden neurons leave the mlp1 enclosure no sign at 0.1.
        assert screened > 0 or (suffix_kind, eps) == ("mlp1", 0.1)

    @pytest.mark.parametrize("budget", [30, 2000])
    @pytest.mark.parametrize("eps", [0.001, 0.01, 0.1, 0.3])
    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("suffix_kind", ["linear", "mlp1"])
    def test_screens_keep_the_attack_values(self, monkeypatch, suffix_kind, residual, eps, budget):
        # The gradient enclosure sets the proven corner pixels, rules out
        # samples and screens polish flips; the stub that proves nothing
        # turns all three off.  Budget 2,000 spans two sample chunks.
        for seed in range(2):
            m, box, y, targets = _shape_m_case(seed, eps, suffix_kind, residual)
            got = attack_min_margin(m, box, y, targets, budget=budget, seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr(harness, "margin_gradient_bounds", no_screen)
                want = attack_min_margin(m, box, y, targets, budget=budget, seed=seed)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("suffix_kind", ["linear", "mlp1"])
    @pytest.mark.parametrize("eps", [0.001, 0.003, 0.1])
    def test_skipped_samples_could_not_be_starts(self, monkeypatch, suffix_kind, eps):
        # Every sample the screen leaves unscored, scored after the fact: none
        # is strictly below its target's polish start.  The screen skips all
        # of them on the small linear boxes, some of them on mlp1 at 0.003
        # and on one of the linear boxes at 0.1.
        log = _record_attack(monkeypatch)
        budget, skipped_total = 2000, 0
        for seed in range(3):
            m, box, y, targets = _shape_m_case(seed, eps, suffix_kind)
            for entries in log.values():
                entries.clear()
            attack_min_margin(m, box, y, targets, budget=budget, seed=seed)
            (before,) = log["before_polish"]
            ((_, start_val),) = log["starts"]
            scored = {x.tobytes() for batch in log["batches"][2:before] for x in batch}
            samples = keyed_rng(seed, m.image_size, m.n_classes).uniform(box.lo, box.hi, (budget, m.image_size))
            skipped = samples[[x.tobytes() not in scored for x in samples]]
            assert len(scored) + len(skipped) == budget
            logits = forward_batch(m, skipped)
            assert np.all(logits[:, [y]] - logits[:, targets] >= start_val)
            skipped_total += len(skipped)
        assert skipped_total > 0 or (suffix_kind, eps) == ("mlp1", 0.1)

    @pytest.mark.parametrize("case", ["overflow", "one entry"])
    def test_an_enclosure_that_is_not_finite_scores_every_sample(self, monkeypatch, case):
        # An embedding scaled by 1e150 keeps the forward finite but overflows
        # the gradient enclosure to (-inf, inf) everywhere; one entry (-inf,
        # inf) proves nothing for its target.  Either way every sample is
        # scored (0 * inf must not make a NaN bound that rules them out), with
        # no float warning.  Unscaled and fully finite, the screen rules them
        # all out.
        m, box, y, targets = _shape_m_case(0, 0.001)
        if case == "overflow":
            m = dataclasses.replace(m, w_embed=m.w_embed * 1e150)
        else:

            def one_entry(*args):
                g_lo, g_hi = margin_gradient_bounds(*args)
                g_lo[-1, 0], g_hi[-1, 0] = -np.inf, np.inf
                return g_lo, g_hi

            monkeypatch.setattr(harness, "margin_gradient_bounds", one_entry)
        log = _record_attack(monkeypatch)
        budget = 100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = attack_min_margin(m, box, y, targets, budget=budget, seed=0)
        (before,) = log["before_polish"]
        assert sum(len(batch) for batch in log["batches"][2:before]) == budget
        monkeypatch.setattr(harness, "margin_gradient_bounds", no_screen)
        want = attack_min_margin(m, box, y, targets, budget=budget, seed=0)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_samples_scored_in_whole_forward_block_chunks(self, monkeypatch):
        # With a gradient enclosure that proves nothing, the attack scores lo,
        # hi, the center and all 64 one-pixel probes of the center, the 9
        # corners, then every sample, drawn and scored in chunks of 1,024
        # points at shape M (16 points per forward block).  Every chunk is
        # whole forward blocks, so the attack values equal those of one
        # unchunked batch bit for bit.
        m, box, y, targets = _shape_m_case(0, 0.05)
        budget, seed = 2500, 3
        log = _record_attack(monkeypatch)
        monkeypatch.setattr(harness, "margin_gradient_bounds", no_screen)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = attack_min_margin(m, box, y, targets, budget=budget, seed=seed)
        batches = log["batches"][: log["before_polish"][0]]
        assert [len(b) for b in batches] == [3 + m.image_size, len(targets), 1024, 1024, 452]
        center = 0.5 * (box.lo + box.hi)
        probes = np.repeat(center[None, :], m.image_size, axis=0)
        np.fill_diagonal(probes, box.hi)
        assert np.array_equal(batches[0], np.vstack((box.lo, box.hi, center, probes)))
        samples = keyed_rng(seed, m.image_size, m.n_classes).uniform(box.lo, box.hi, (budget, m.image_size))
        assert np.array_equal(np.vstack(batches[2:]), samples)
        log["batches"].clear()
        monkeypatch.setattr(harness, "_SAMPLE_CHUNK_ELEMENTS", 2**40)
        want = attack_min_margin(m, box, y, targets, budget=budget, seed=seed)
        assert len(log["batches"][2]) == budget
        assert np.array_equal(got, want)

    def test_keyed_stream_is_pinned(self):
        got = keyed_rng(4, 64).uniform(size=4)
        want = [0.8425418195834417, 0.14617068350258045, 0.6988966923461044, 0.2741518275287226]
        assert got.tolist() == want


class TestRunSweep:
    def test_empty_k_values(self):
        assert run_sweep(SweepConfig(k_values=(), trials=3, seed=0)) == []

    def test_record_layout_and_gap(self):
        config = SweepConfig(k_values=(3, 5), trials=4, seed=11)
        records = run_sweep(config, attack_budget=30)
        assert len(records) == 2 * 4 * len(METHODS)
        expect = [(k, t, m) for k in (3, 5) for t in range(4) for m in METHODS]
        assert [(r.K, r.trial, r.method) for r in records] == expect
        for r in records:
            assert r.gap == r.attack - r.lower

    def test_rerun_identical_modulo_time(self):
        config = SweepConfig(k_values=(4,), trials=5, seed=2)
        a = run_sweep(config, attack_budget=25)
        b = run_sweep(config, attack_budget=25)
        assert [(r.K, r.trial, r.method, r.lower, r.attack) for r in a] == [
            (r.K, r.trial, r.method, r.lower, r.attack) for r in b
        ]

    def test_degenerate_width_pins_every_method(self):
        config = SweepConfig(k_values=(4, 7), trials=6, seed=9, width_scale=0.0)
        for r in run_sweep(config, attack_budget=10):
            c, box = synth_instance(r.K, trial_seed(9, r.K, r.trial), width_scale=0.0)
            value = softmax_objective(c, box.lower)
            tol = 1e-9 if r.method == "certified" else 1e-12
            assert r.lower == pytest.approx(value, abs=tol)
            assert r.attack == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize(
        "width_scale, coeff_scale, block_elements",
        [
            pytest.param(1.0, 1.0, None, id="1.0-1.0"),
            pytest.param(50.0, 1e-3, None, id="50.0-0.001"),
            # Wide boxes: the sweep's tiny-denominator fallback and the
            # baseline's flagged coordinates.
            pytest.param(1e3, 1.0, None, id="1000.0-1.0"),
            # Small kernel blocks: the K = 64 and K = 256 stacks span several.
            pytest.param(1.0, 1.0, 128, id="1.0-1.0-blocks"),
        ],
    )
    def test_records_equal_their_per_cell_rebuild(self, monkeypatch, width_scale, coeff_scale, block_elements):
        # Every record is rebuilt from its cell's instance: the loop oracle's
        # attack, the exact and baseline solves and the certified kernel.
        if block_elements is not None:
            monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", block_elements)
        config = SweepConfig((1, 4, 64, 256), trials=3, seed=13, width_scale=width_scale, coeff_scale=coeff_scale)
        budget = 40
        records = run_sweep(config, attack_budget=budget)
        assert len(records) == 4 * 3 * len(METHODS)
        for r in records:
            seed = trial_seed(config.seed, r.K, r.trial)
            c, box = synth_instance(r.K, seed, width_scale, coeff_scale)
            lower = {
                "vertex": directional_min(c, box).value,
                "baseline": baseline_directional_min(c, box),
                "certified": float(certified_sweep_min(c, box.lower, box.upper)[0]),
            }[r.method]
            attack = attack_objective_loop(c, box, budget, seed=seed)
            assert (r.lower, r.attack, r.gap) == (lower, attack, attack - lower), (r.K, r.trial, r.method)

    def test_per_method_bounds_consistent(self):
        records = run_sweep(SweepConfig(k_values=(4, 8), trials=10, seed=3), attack_budget=40)
        by_cell = {}
        for r in records:
            by_cell.setdefault((r.K, r.trial), {})[r.method] = r
        for cell in by_cell.values():
            assert cell["vertex"].lower >= cell["baseline"].lower - 1e-12
            assert cell["certified"].lower <= cell["vertex"].lower + 1e-15
            for r in cell.values():
                assert r.attack >= r.lower - 1e-9

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SweepConfig(k_values=(4,), trials=0, seed=0)
        with pytest.raises(ValidationError):
            SweepConfig(k_values=(0,), trials=1, seed=0)
        with pytest.raises(ValidationError):
            SweepConfig(k_values=(4,), trials=1, seed=0, width_scale=-0.1)
        with pytest.raises(ValidationError):
            SweepConfig(k_values=(4,), trials=1, seed=0, coeff_scale=0.0)

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"k_values": (4.0,)}, "K must be an integer"),
            ({"k_values": (True,)}, "K must be an integer"),
            ({"k_values": 4}, "k_values"),
            ({"trials": 1.5}, "trials"),
            ({"trials": True}, "trials"),
            ({"seed": -1}, "seed"),
            ({"seed": 2.0}, "seed"),
            ({"width_scale": float("nan")}, "width_scale must be finite"),
            ({"width_scale": float("inf")}, "width_scale must be finite"),
            ({"coeff_scale": float("nan")}, "coeff_scale must be finite"),
            ({"coeff_scale": float("-inf")}, "coeff_scale must be finite"),
            ({"coeff_scale": "1"}, "coeff_scale must be a number"),
        ],
    )
    def test_config_types_validated(self, changes, match):
        kw = {"k_values": (4,), "trials": 1, "seed": 0, **changes}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                SweepConfig(**kw)

    def test_numpy_integers_accepted(self):
        config = SweepConfig(k_values=np.array([4, 8]), trials=np.int32(2), seed=np.uint64(7))
        assert config.k_values == (4, 8) and config.trials == 2 and config.seed == 7
        plain = SweepConfig(k_values=(4, 8), trials=2, seed=7)
        assert [(r.K, r.lower, r.attack) for r in run_sweep(config, attack_budget=5)] == [
            (r.K, r.lower, r.attack) for r in run_sweep(plain, attack_budget=5)
        ]

    @pytest.mark.parametrize("k, seed", [(4.0, 1), (True, 1), (4, -1), (4, 1.0)])
    def test_synth_instance_arguments_validated(self, k, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                synth_instance(k, seed)


class TestAggregation:
    def test_vertex_dominates_baseline_in_aggregate(self):
        records = run_sweep(SweepConfig(k_values=(4, 8), trials=50, seed=21), attack_budget=50)
        rows = {(row["K"], row["method"]): row for row in aggregate_records(records)}
        for k in (4, 8):
            assert rows[(k, "vertex")]["mean_lower"] > rows[(k, "baseline")]["mean_lower"]
            assert rows[(k, "vertex")]["mean_gap"] < rows[(k, "baseline")]["mean_gap"]
            for method in METHODS:
                assert 0.0 <= rows[(k, method)]["cert_rate"] <= 1.0

    def test_csv_round_trip(self, tmp_path):
        records = run_sweep(SweepConfig(k_values=(3,), trials=4, seed=1), attack_budget=15)
        trial_path = tmp_path / "trials.csv"
        agg_path = tmp_path / "agg.csv"
        write_trial_csv(records, str(trial_path))
        write_aggregate_csv(records, str(agg_path))

        with open(trial_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(TRIAL_COLUMNS)
        assert len(rows) == 1 + len(records)
        for row, r in zip(rows[1:], records):
            assert (int(row[0]), int(row[1]), row[2]) == (r.K, r.trial, r.method)
            assert float(row[3]) == r.lower  # repr round-trips exactly
            assert float(row[4]) == r.attack
            assert float(row[5]) == r.gap

        with open(agg_path, newline="") as fh:
            arows = list(csv.reader(fh))
        assert arows[0] == list(AGGREGATE_COLUMNS)
        assert len(arows) == 1 + len(METHODS)

    def test_sweep_writes_files(self, tmp_path):
        # `attncert sweep` writes run_sweep's records with the two writers:
        # every byte but the timing columns matches a direct call.
        cli_paths = tmp_path / "t.csv", tmp_path / "a.csv"
        argv = ["sweep", "--k", "3", "--trials", "2", "--budget", "10", "--out", str(cli_paths[0])]
        assert main(argv + ["--agg-out", str(cli_paths[1])]) == 0
        records = run_sweep(SweepConfig(k_values=(3,), trials=2, seed=0), attack_budget=10)
        api_paths = tmp_path / "t_api.csv", tmp_path / "a_api.csv"
        write_trial_csv(records, str(api_paths[0]))
        write_aggregate_csv(records, str(api_paths[1]))
        for cli_path, api_path in zip(cli_paths, api_paths):
            untimed = []
            for path in (cli_path, api_path):
                with open(path, newline="") as fh:
                    untimed.append([row[:-1] for row in csv.reader(fh)])
            assert untimed[0] == untimed[1]


class TestSelfcheck:
    def test_healthy_run_passes(self):
        report = selfcheck(trials=60, samples=60, seed=0)
        assert report.passed
        assert [s.name for s in report.suites] == ["oracle-equivalence", "soundness-sampling", "dominance"]
        for s in report.suites:
            assert s.checked == 60
            assert s.failures == 0
            assert s.failing_seeds == ()

    def test_samples_scored_in_bounded_blocks(self, monkeypatch):
        # The soundness suite scores each trial's samples in blocks of at
        # most max(1, 2**14 // K) rows, which stack to one uniform draw of
        # the trial's keyed stream bit for bit.
        calls = []
        objective = harness._objective

        def spy(c, points):
            calls.append(points.copy())
            return objective(c, points)

        monkeypatch.setattr(harness, "_objective", spy)
        trials, samples = 4, 5000
        assert selfcheck(trials=trials, samples=samples, seed=2).passed
        rng_k = keyed_rng(2, 0)
        for i in range(trials):
            k = int(rng_k.integers(2, 11))
            s_i = trial_seed(2, 0, i)
            _, box = synth_instance(k, s_i)
            blocks = []
            while sum(len(b) for b in blocks) < samples:
                blocks.append(calls.pop(0))
                assert len(blocks[-1]) <= max(1, 2**14 // k)
            want = keyed_rng(s_i, k, 1).uniform(box.lower, box.upper, size=(samples, k))
            assert np.array_equal(np.vstack(blocks), want)
        assert not calls

    def test_fault_injection_is_caught(self, monkeypatch):
        solve = harness.directional_min
        monkeypatch.setattr(harness, "directional_min", lambda c, box: solve(-c, box))
        report = selfcheck(trials=40, samples=40, seed=0)
        assert not report.passed
        broken = [s for s in report.suites if s.failures > 0]
        assert broken
        for s in broken:
            assert s.failing_seeds
            assert len(s.failing_seeds) <= 10

    def test_arguments_validated(self):
        with pytest.raises(ValidationError):
            selfcheck(trials=0)
        with pytest.raises(ValidationError):
            selfcheck(samples=0)

    @pytest.mark.parametrize(
        "kw, match",
        [({"seed": -1}, "seed"), ({"seed": 0.5}, "seed"), ({"trials": 1.5}, "trials"), ({"samples": True}, "samples")],
    )
    def test_argument_types_validated(self, kw, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                selfcheck(**kw)
