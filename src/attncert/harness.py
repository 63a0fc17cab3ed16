"""Synthetic sweeps, attack upper bounds, and the release selfcheck.

Instances are generated from a named portable PRNG (numpy PCG64) seeded with
SeedSequence(seed, spawn_key=(K, trial)), so every (K, trial) pair owns an
independent, platform-stable stream.  Attacks are upper bounds on the true
minimum obtained from feasible points only: threshold vertices of both c and
-c, uniform samples, and a coordinate-descent endpoint polish.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .baseline import baseline_directional_min
from .certified import certified_directional_min
from .errors import ValidationError
from .model import AttentionModelSpec, forward, forward_batch
from .attention import PixelBox
from .solver import ScoreBox, directional_min, exhaustive_vertex_min, softmax_objective

TRIAL_COLUMNS = ("K", "trial", "method", "lower", "attack", "gap", "time_us")
AGGREGATE_COLUMNS = ("K", "method", "cert_rate", "mean_lower", "mean_gap", "total_time_s")
METHODS = ("vertex", "baseline", "certified")


@dataclass(frozen=True)
class SweepConfig:
    k_values: tuple[int, ...]
    trials: int
    seed: int
    width_scale: float = 1.0
    coeff_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if any(k < 1 for k in self.k_values):
            raise ValidationError("every K must be >= 1")
        if self.width_scale < 0.0 or self.coeff_scale <= 0.0:
            raise ValidationError("width_scale must be >= 0 and coeff_scale > 0")


@dataclass(frozen=True)
class TrialRecord:
    K: int
    trial: int
    method: str
    lower: float
    attack: float
    gap: float
    time_us: float


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def trial_seed(seed: int, k: int, trial: int) -> int:
    """Derived entropy for one (K, trial) cell of a sweep."""
    child = np.random.SeedSequence(seed, spawn_key=(k, trial))
    return int(child.generate_state(1, dtype=np.uint64)[0])


def synth_instance(
    k: int, seed: int, width_scale: float = 1.0, coeff_scale: float = 1.0
) -> tuple[np.ndarray, ScoreBox]:
    """Random instance: centers and coefficients standard normal, half-width
    0.5 * width_scale on every coordinate.  Deterministic in (k, seed)."""
    if k < 1:
        raise ValidationError("K must be >= 1")
    rng = _rng(seed, k)
    centers = rng.standard_normal(k)
    c = rng.standard_normal(k) * coeff_scale
    half = 0.5 * width_scale
    return c, ScoreBox(lower=centers - half, upper=centers + half)


def _objective_batch(c: np.ndarray, points: np.ndarray) -> np.ndarray:
    shifted = points - points.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    vals = (e @ c) / e.sum(axis=1)
    return np.clip(vals, c.min(), c.max())


def _threshold_vertices(c: np.ndarray, box: ScoreBox) -> np.ndarray:
    """All K+1 threshold vertices of the ascending-c sweep, original order."""
    k = box.size
    order = np.argsort(c, kind="stable")
    ls = box.lower[order]
    us = box.upper[order]
    take_upper = np.tril(np.ones((k + 1, k), dtype=bool), -1)
    vs = np.where(take_upper, us[None, :], ls[None, :])
    out = np.empty_like(vs)
    out[:, order] = vs
    return out


def _endpoint_polish(score: Callable[[np.ndarray], float], start: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Endpoint coordinate descent from `start`: up to two rounds that try
    each coordinate at its lower and upper endpoint in turn, keeping every
    move that lowers `score`.  Returns the best score seen."""
    best = start.copy()
    best_val = score(best)
    for _ in range(2):
        improved = False
        for j in range(best.size):
            for cand in (lo[j], hi[j]):
                if cand == best[j]:
                    continue
                old = best[j]
                best[j] = cand
                v = score(best)
                if v < best_val:
                    best_val = v
                    improved = True
                else:
                    best[j] = old
        if not improved:
            break
    return best_val


def attack_min_objective(c, box: ScoreBox, budget: int, seed: int = 0) -> float:
    """Best (smallest) objective value over a feasible candidate set; an upper
    bound on the exact minimum, and equal to it whenever a threshold vertex
    attains the optimum."""
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    with np.errstate(over="ignore"):
        width = box.upper - box.lower
    if not np.all(np.isfinite(width)):
        raise ValidationError("box widths must be finite to sample the box")
    c = np.asarray(c, dtype=np.float64)
    cands = [_threshold_vertices(c, box), _threshold_vertices(-c, box)]
    rng = _rng(seed, box.size)
    cands.append(rng.uniform(box.lower, box.upper, size=(budget, box.size)))
    points = np.vstack(cands)
    vals = _objective_batch(c, points)
    best_idx = int(np.argmin(vals))
    best_val = _endpoint_polish(lambda s: softmax_objective(c, s), points[best_idx], box.lower, box.upper)
    return float(min(best_val, float(vals[best_idx])))


def attack_min_margin(
    model: AttentionModelSpec,
    box: PixelBox,
    y: int,
    target: int,
    budget: int,
    seed: int = 0,
) -> float:
    """Smallest exact forward margin logit_y - logit_target found over
    feasible inputs: box corners, the center, uniform samples, and an
    endpoint coordinate-descent polish."""
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    rng = _rng(seed, model.image_size, target)
    center = 0.5 * (box.lo + box.hi)
    points = np.vstack(
        [box.lo[None, :], box.hi[None, :], center[None, :], rng.uniform(box.lo, box.hi, size=(budget, box.size))]
    )
    logits = forward_batch(model, points)
    margins = logits[:, y] - logits[:, target]
    best_idx = int(np.argmin(margins))

    def margin_at(x: np.ndarray) -> float:
        lg = forward(model, x)
        return float(lg[y] - lg[target])

    best_val = _endpoint_polish(margin_at, points[best_idx], box.lo, box.hi)
    return float(min(best_val, float(margins[best_idx])))


def _run_trial(config: SweepConfig, k: int, trial: int, attack_budget: int) -> list[TrialRecord]:
    seed = trial_seed(config.seed, k, trial)
    c, box = synth_instance(k, seed, config.width_scale, config.coeff_scale)
    attack = attack_min_objective(c, box, attack_budget, seed=seed)

    t0 = time.perf_counter_ns()
    vertex = directional_min(c, box).value
    t_vertex = (time.perf_counter_ns() - t0) / 1e3
    t0 = time.perf_counter_ns()
    base = baseline_directional_min(c, box)
    t_base = (time.perf_counter_ns() - t0) / 1e3
    t0 = time.perf_counter_ns()
    cert = certified_directional_min(c, box).lower
    t_cert = (time.perf_counter_ns() - t0) / 1e3

    rows = []
    for method, lower, t_us in (("vertex", vertex, t_vertex), ("baseline", base, t_base), ("certified", cert, t_cert)):
        rows.append(
            TrialRecord(K=k, trial=trial, method=method, lower=lower, attack=attack, gap=attack - lower, time_us=t_us)
        )
    return rows


def run_sweep(
    config: SweepConfig,
    attack_budget: int = 200,
    threads: int = 1,
    trial_csv: str | None = None,
    aggregate_csv: str | None = None,
) -> list[TrialRecord]:
    """Vertex, baseline, and certified bounds with a shared attack per trial.

    Records come back in (K, trial, method) order regardless of thread count;
    only the timing column varies between reruns.
    """
    cells = [(k, t) for k in config.k_values for t in range(config.trials)]
    if threads > 1 and cells:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda kt: _run_trial(config, kt[0], kt[1], attack_budget), cells))
    else:
        chunks = [_run_trial(config, k, t, attack_budget) for k, t in cells]
    records = [row for chunk in chunks for row in chunk]
    if trial_csv is not None:
        write_trial_csv(records, trial_csv)
    if aggregate_csv is not None:
        write_aggregate_csv(records, aggregate_csv)
    return records


def write_trial_csv(records: Sequence[TrialRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(TRIAL_COLUMNS)
        for r in records:
            w.writerow([r.K, r.trial, r.method, repr(r.lower), repr(r.attack), repr(r.gap), f"{r.time_us:.3f}"])


def aggregate_records(records: Sequence[TrialRecord]) -> list[dict]:
    """Per (K, method) summary: certification rate (lower > 0), mean lower,
    mean gap, and total solver time."""
    keys: list[tuple[int, str]] = []
    for r in records:
        if (r.K, r.method) not in keys:
            keys.append((r.K, r.method))
    out = []
    for k, method in keys:
        rows = [r for r in records if r.K == k and r.method == method]
        n = len(rows)
        out.append(
            {
                "K": k,
                "method": method,
                "cert_rate": sum(1 for r in rows if r.lower > 0.0) / n,
                "mean_lower": sum(r.lower for r in rows) / n,
                "mean_gap": sum(r.gap for r in rows) / n,
                "total_time_s": sum(r.time_us for r in rows) / 1e6,
            }
        )
    return out


def write_aggregate_csv(records: Sequence[TrialRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(AGGREGATE_COLUMNS)
        for row in aggregate_records(records):
            w.writerow(
                [
                    row["K"],
                    row["method"],
                    repr(row["cert_rate"]),
                    repr(row["mean_lower"]),
                    repr(row["mean_gap"]),
                    f"{row['total_time_s']:.6f}",
                ]
            )


# ---------------------------------------------------------------------------
# Selfcheck: fast property suites runnable from the CLI.


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    failures: int
    failing_seeds: tuple[int, ...] = ()


@dataclass(frozen=True)
class SelfcheckReport:
    suites: tuple[SuiteResult, ...]

    @property
    def passed(self) -> bool:
        return all(s.failures == 0 for s in self.suites)


def selfcheck(trials: int = 200, samples: int = 200, seed: int = 0, fault: bool = False) -> SelfcheckReport:
    """Release gate: oracle equivalence, soundness sampling, and dominance at
    reduced trial counts.  `fault` flips the direction sign inside the solver
    call, which a healthy suite must catch (used to test the selfcheck)."""
    if trials < 1 or samples < 1:
        raise ValidationError("trials and samples must be >= 1")

    def solve_value(c: np.ndarray, box: ScoreBox) -> float:
        return directional_min(-c if fault else c, box).value

    rng_k = _rng(seed, 0)
    equivalence_fail: list[int] = []
    soundness_fail: list[int] = []
    dominance_fail: list[int] = []
    n_equiv = n_sound = n_dom = 0
    for i in range(trials):
        s_i = trial_seed(seed, 0, i)
        k = int(rng_k.integers(2, 11))
        c, box = synth_instance(k, s_i)
        fast = solve_value(c, box)

        n_equiv += 1
        if abs(fast - exhaustive_vertex_min(c, box).value) > 1e-9:
            equivalence_fail.append(s_i)

        n_sound += 1
        cert = certified_directional_min(c, box).lower
        pts = _rng(s_i, k, 1).uniform(box.lower, box.upper, size=(samples, k))
        vals = _objective_batch(c, pts)
        if np.any(vals < fast - 1e-9) or np.any(vals < cert - 1e-15):
            soundness_fail.append(s_i)

        n_dom += 1
        if solve_value(c, box) < baseline_directional_min(c, box) - 1e-12:
            dominance_fail.append(s_i)

    suites = (
        SuiteResult("oracle-equivalence", n_equiv, len(equivalence_fail), tuple(equivalence_fail[:10])),
        SuiteResult("soundness-sampling", n_sound, len(soundness_fail), tuple(soundness_fail[:10])),
        SuiteResult("dominance", n_dom, len(dominance_fail), tuple(dominance_fail[:10])),
    )
    return SelfcheckReport(suites=suites)
