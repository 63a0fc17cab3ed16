import csv
import warnings

import numpy as np
import pytest

from attncert import (
    AttentionModelSpec,
    LinearSuffix,
    ScoreBox,
    SweepConfig,
    ValidationError,
    attack_min_margin,
    attack_min_objective,
    baseline_directional_min,
    certified_directional_min,
    directional_min,
    forward,
    pixel_box,
    random_model,
    run_sweep,
    selfcheck,
    softmax_objective,
    synth_instance,
)
from attncert.harness import (
    AGGREGATE_COLUMNS,
    METHODS,
    TRIAL_COLUMNS,
    _attack_vertices,
    aggregate_records,
    trial_seed,
    write_aggregate_csv,
    write_trial_csv,
)

from oracles import threshold_vertices


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

    @pytest.mark.parametrize("k", [1, 2, 4, 16, 64])
    def test_vertices_match_reference(self, k):
        rng = np.random.default_rng(k)
        c = np.round(rng.normal(size=k))  # tied coefficients
        lower = rng.normal(size=k)
        box = ScoreBox(lower=lower, upper=lower + rng.uniform(0, 2, size=k))
        want = np.vstack((threshold_vertices(c, box), threshold_vertices(-c, box)))
        assert np.array_equal(_attack_vertices(c, box), want)

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


class TestAttackMargin:
    def test_zero_radius_recovers_clean_margin(self):
        for seed in range(3):
            m = random_model(seed=seed, tokens=2, heads=1, d_model=4, n_classes=3)
            x0 = np.random.default_rng(seed).uniform(0.2, 0.8, m.image_size)
            logits = forward(m, x0)
            got = attack_min_margin(m, pixel_box(x0, 0.0), 0, 1, budget=8, seed=seed)
            assert got == pytest.approx(float(logits[0] - logits[1]), abs=1e-12)

    def test_finds_adversarial_corner(self):
        m = two_pixel_identity_model()
        box = pixel_box(np.array([0.5, 0.5]), 1.0)  # clips to the full unit box
        got = attack_min_margin(m, box, 0, 1, budget=4, seed=0)
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_budget_validated(self):
        m = two_pixel_identity_model()
        with pytest.raises(ValidationError):
            attack_min_margin(m, pixel_box(np.array([0.5, 0.5]), 0.1), 0, 1, budget=0)


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
        trial_path = tmp_path / "t.csv"
        agg_path = tmp_path / "a.csv"
        run_sweep(
            SweepConfig(k_values=(3,), trials=2, seed=0),
            attack_budget=10,
            trial_csv=str(trial_path),
            aggregate_csv=str(agg_path),
        )
        assert trial_path.exists() and agg_path.exists()


class TestSelfcheck:
    def test_healthy_run_passes(self):
        report = selfcheck(trials=60, samples=60, seed=0)
        assert report.passed
        assert [s.name for s in report.suites] == ["oracle-equivalence", "soundness-sampling", "dominance"]
        for s in report.suites:
            assert s.checked == 60
            assert s.failures == 0
            assert s.failing_seeds == ()

    def test_fault_injection_is_caught(self):
        report = selfcheck(trials=40, samples=40, seed=0, fault=True)
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
