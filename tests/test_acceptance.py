"""Release acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail line
(visible with `pytest -s`) before asserting, so a red run still reports every
criterion it reached.
"""

import time
from decimal import Decimal

import numpy as np

from attncert import (
    SweepConfig,
    attack_min_margin,
    baseline_directional_min,
    certified_directional_min,
    certify_targets,
    directional_max,
    directional_min,
    exhaustive_vertex_min,
    forward,
    forward_batch,
    pixel_box,
    random_model,
    run_sweep,
    synth_instance,
)
from attncert.harness import aggregate_records
from attncert.solver import ScoreBox, _objective

from oracles import decimal_min_enclosure


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _instance(rng, k, width=1.0, scale=1.0):
    c = rng.standard_normal(k) * scale
    centers = rng.standard_normal(k)
    half = rng.uniform(0.0, width, size=k)
    return c, ScoreBox(lower=centers - half, upper=centers + half)


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in (2, 4, 8, 12, 16):
        for _ in range(1000):
            c, box = _instance(rng, k)
            diff = abs(directional_min(c, box).value - exhaustive_vertex_min(c, box).value)
            worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(1, ok, f"max |threshold - exhaustive| = {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_2_soundness_by_sampling():
    t0 = time.perf_counter()
    below_fast = below_cert = 0
    for i in range(2000):
        k = 2 + i % 15
        c, box = synth_instance(k, 7000 + i)
        fast = directional_min(c, box).value
        cert = certified_directional_min(c, box).lower
        pts = np.random.default_rng(i).uniform(box.lower, box.upper, size=(10_000, k))
        vals = _objective(c, pts)
        below_fast += int(np.sum(vals < fast - 1e-9))
        below_cert += int(np.sum(vals < cert))
    elapsed = time.perf_counter() - t0
    ok = below_fast == 0 and below_cert == 0 and elapsed < 120.0
    _report(2, ok, f"violations fast={below_fast} certified={below_cert}, {elapsed:.1f}s")
    assert below_fast == 0
    assert below_cert == 0
    assert elapsed < 120.0


def test_criterion_3_dominance():
    rng = np.random.default_rng(103)
    strict = violations = 0
    n = 10_000
    for _ in range(n):
        k = int(rng.integers(2, 13))
        c, box = _instance(rng, k)
        c[0] = abs(c[0]) + 0.1  # force a sign mix so the baseline has slack
        c[1] = -abs(c[1]) - 0.1
        vertex = directional_min(c, box).value
        base = baseline_directional_min(c, box)
        if vertex < base - 1e-12:
            violations += 1
        if vertex > base:
            strict += 1
    ok = violations == 0 and strict >= 0.30 * n
    _report(3, ok, f"violations={violations}, strictly greater on {strict / n:.1%}")
    assert violations == 0
    assert strict >= 0.30 * n


def test_criterion_4_stationarity_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 17))
        c, box = _instance(rng, k)
        r = directional_min(c, box)
        y = np.exp(r.vertex - r.vertex.max())
        worst = max(worst, abs(np.dot(c - r.value, y)) / y.sum())
    ok = worst <= 1e-9
    _report(4, ok, f"max weighted residual = {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_5_duality_and_invariances():
    rng = np.random.default_rng(105)
    worst_shift = worst_affine = 0.0
    for _ in range(2000):
        k = int(rng.integers(1, 17))
        c, box = _instance(rng, k)
        r = directional_min(c, box)
        assert directional_max(c, box).value == -directional_min(-c, box).value
        assert c.min() <= r.value <= c.max()

        delta = float(rng.uniform(-5, 5))
        shifted = ScoreBox(lower=box.lower + delta, upper=box.upper + delta)
        worst_shift = max(worst_shift, abs(directional_min(c, shifted).value - r.value))

        alpha = float(rng.uniform(0.1, 3.0))
        beta = float(rng.uniform(-2, 2))
        scaled = directional_min(alpha * c + beta, box).value
        worst_affine = max(worst_affine, abs(scaled - (alpha * r.value + beta)))
    ok = worst_shift <= 1e-9 and worst_affine <= 1e-9
    _report(5, ok, f"shift drift {worst_shift:.3e}, affine drift {worst_affine:.3e}")
    assert worst_shift <= 1e-9
    assert worst_affine <= 1e-9


def test_criterion_6_complexity_scaling():
    rng = np.random.default_rng(106)
    sizes = (256, 512, 1024, 2048, 4096)
    problems = {k: _instance(rng, k) for k in sizes}
    for k in sizes:  # warm caches and allocator before timing
        directional_min(*problems[k])
    medians = {}
    for k in sizes:
        c, box = problems[k]
        reps = []
        for _ in range(50):
            t0 = time.perf_counter_ns()
            directional_min(c, box)
            reps.append(time.perf_counter_ns() - t0)
        medians[k] = float(np.median(reps))
    ratios = {k: medians[2 * k] / medians[k] for k in (256, 512, 1024, 2048)}
    t512_ms = medians[512] / 1e6
    ok = all(r <= 3.0 for r in ratios.values()) and t512_ms < 1.0
    detail = ", ".join(f"t({2 * k})/t({k})={r:.2f}" for k, r in ratios.items())
    _report(6, ok, f"{detail}, t(512)={t512_ms:.3f}ms")
    for k, r in ratios.items():
        assert r <= 3.0, f"doubling ratio at K={k} is {r:.2f}"
    assert t512_ms < 1.0


def test_criterion_7_end_to_end_soundness():
    t0 = time.perf_counter()
    kinds = ("linear", "mlp1")
    sample_violations = attack_violations = 0
    worst_clean = 0.0
    for n in range(20):
        m = random_model(
            seed=1000 + n,
            tokens=2 + n % 3,
            heads=1 + n % 2,
            d_model=4 + 2 * (n % 3),
            n_classes=2 + n % 2,
            suffix_kind=kinds[n % 2],
            hidden=6,
        )
        x0 = np.random.default_rng(2000 + n).uniform(0.2, 0.8, m.image_size)
        y = int(np.argmax(forward(m, x0)))
        clean = forward(m, x0)
        for eps in (0.0, 0.01, 0.05):
            box = pixel_box(x0, eps)
            res = certify_targets(m, box, y)
            xs = np.random.default_rng(3000 + n).uniform(box.lo, box.hi, (10_000, m.image_size))
            logits = forward_batch(m, xs)
            for b in res.bounds:
                assert b.l_hybrid == max(b.l_vertex, b.l_baseline)
                margins = logits[:, y] - logits[:, b.target]
                sample_violations += int(np.sum(margins < b.l_hybrid - 1e-9))
                attack = attack_min_margin(m, box, y, [b.target], budget=200, seed=n)[0]
                if attack < b.l_hybrid - 1e-9:
                    attack_violations += 1
                if eps == 0.0:
                    worst_clean = max(worst_clean, abs(b.l_hybrid - float(clean[y] - clean[b.target])))
    elapsed = time.perf_counter() - t0
    ok = sample_violations == 0 and attack_violations == 0 and worst_clean <= 1e-6 and elapsed < 300.0
    _report(
        7,
        ok,
        f"sample violations={sample_violations}, attack violations={attack_violations}, "
        f"clean drift {worst_clean:.3e}, {elapsed:.1f}s",
    )
    assert sample_violations == 0
    assert attack_violations == 0
    assert worst_clean <= 1e-6
    assert elapsed < 300.0


def test_criterion_8_sweep_ordering():
    records = run_sweep(SweepConfig(k_values=(4, 8, 16, 32, 64, 128), trials=100, seed=2024))
    rows = {(r["K"], r["method"]): r for r in aggregate_records(records)}
    ok = True
    for k in (4, 8, 16, 32, 64, 128):
        v, b = rows[(k, "vertex")], rows[(k, "baseline")]
        ok = ok and v["mean_lower"] > b["mean_lower"] and v["mean_gap"] < b["mean_gap"]
    _report(8, ok, "vertex beats baseline on mean lower and mean gap at every K")
    for k in (4, 8, 16, 32, 64, 128):
        v, b = rows[(k, "vertex")], rows[(k, "baseline")]
        assert v["mean_lower"] > b["mean_lower"], f"mean lower ordering fails at K={k}"
        assert v["mean_gap"] < b["mean_gap"], f"mean gap ordering fails at K={k}"


def test_criterion_9_certified_decimal_regression():
    rng = np.random.default_rng(109)
    cases = []
    for _ in range(360):
        k = int(rng.integers(1, 9))
        cases.append(_instance(rng, k, width=2.0, scale=2.0))
    # One large-dynamic-range box: scores near -700 stress the shifted exps.
    cases.append((np.array([1.0, 0.0]), ScoreBox(lower=np.array([-700.0, 0.0]), upper=np.array([-690.0, 0.0]))))
    violations = 0
    for c, box in cases:
        cb = certified_directional_min(c, box)
        assert not cb.saturated
        _, true_min_hi = decimal_min_enclosure(c, box.lower, box.upper)
        if Decimal(cb.lower) > true_min_hi:
            violations += 1
    ok = violations == 0
    _report(9, ok, f"violations={violations} over {len(cases)} boxes")
    assert violations == 0
