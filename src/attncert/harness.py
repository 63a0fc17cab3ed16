"""Synthetic sweeps, attack upper bounds, and the release selfcheck.

Instances are generated from a named portable PRNG (numpy PCG64) seeded with
SeedSequence(seed, spawn_key=(K, trial)), so every (K, trial) pair owns an
independent, platform-stable stream.  Attacks are upper bounds on the true
minimum obtained from feasible points only:

* attack_min_objective (one score row): threshold vertices of both c and -c,
  uniform samples, and a scalar coordinate-descent endpoint polish;
* attack_min_margin (a model's margins): every target of one pixel box in
  one search, with one shared sample batch and a lockstep endpoint polish
  that scores all targets' candidate moves in one forward_batch per pixel.

The objective polish stays scalar: batching its candidate pairs made it
slower on a 2-core host (0.66 ms instead of 0.10 ms per trial at K=4,
9.96 instead of 5.06 ms at K=256): one softmax row is cheap to score.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .baseline import baseline_directional_min
from .certified import certified_directional_min
from .errors import ValidationError
from .model import AttentionModelSpec, forward_batch
from .model import forward  # noqa: F401  unused since the margin polish is batched; benchmark/tracing.py wraps this name
from .attention import PixelBox
from .solver import (
    ScoreBox,
    _as_direction,
    _objective,
    _softmax_value,
    _threshold_vertices,
    directional_min,
    exhaustive_vertex_min,
)

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


def _attack_vertices(c: np.ndarray, box: ScoreBox) -> np.ndarray:
    """All K+1 threshold vertices of the sweeps of c and of -c, in original
    coordinate order: 2(K+1) rows."""
    k = box.size
    out = np.empty((2, k + 1, k))
    for side, d in zip(out, (c, -c)):
        order = np.argsort(d, kind="stable")
        side[:, order] = _threshold_vertices(box.lower[order], box.upper[order], np.arange(k + 1))
    return out.reshape(-1, k)


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
    c = np.ascontiguousarray(_as_direction(c, box.size))
    samples = _rng(seed, box.size).uniform(box.lower, box.upper, size=(budget, box.size))
    points = np.vstack((_attack_vertices(c, box), samples))
    vals = _objective(c, points)
    best_idx = int(np.argmin(vals))
    with np.errstate(over="ignore"):
        best_val = _endpoint_polish(lambda s: _softmax_value(c, s), points[best_idx], box.lower, box.upper)
    return float(min(best_val, float(vals[best_idx])))


def _check_targets(model: AttentionModelSpec, box: PixelBox, y: int, targets) -> np.ndarray:
    if box.size != model.image_size:
        raise ValidationError(f"pixel box length {box.size} does not match image size {model.image_size}")
    n = model.n_classes
    if not isinstance(y, (int, np.integer)) or isinstance(y, bool) or not 0 <= y < n:
        raise ValidationError(f"class index y={y!r} out of range for {n} classes")
    t = np.asarray(targets)
    if t.ndim != 1 or not (t.size == 0 or np.issubdtype(t.dtype, np.integer)):
        raise ValidationError("targets must be a flat sequence of integer class indices")
    t = t.astype(np.intp)
    out = t[(t < 0) | (t >= n)]
    if out.size:
        raise ValidationError(f"target {out[0]} out of range for {n} classes")
    if np.any(t == y):
        raise ValidationError(f"target equals the label y={y}")
    if np.unique(t).size != t.size:
        raise ValidationError("targets must not repeat")
    return t


def _margin_polish(
    model: AttentionModelSpec, y: int, targets: np.ndarray, start: np.ndarray, start_val: np.ndarray,
    lo: np.ndarray, hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """_endpoint_polish of the margin for every target at once.

    Target r descends from start[r], whose margin is start_val[r].  At
    coordinate j one forward_batch scores the lo and hi candidates of every
    active target; the hi candidate is the same point whether x_j has just
    moved to lo or not, so the scalar order (keep, else lo, else hi, strict
    <) is kept exactly.  A target drops out after a round without a move.
    Returns the (T, n) best points and their (T,) margins."""
    best = start.copy()
    best_val = start_val.copy()
    active = np.arange(targets.size)
    for _ in range(2):
        improved = np.zeros(targets.size, dtype=bool)
        for j in range(lo.size):
            cur = best[active, j]
            rows_lo = active[cur != lo[j]]
            rows_hi = active[cur != hi[j]]
            if rows_lo.size + rows_hi.size == 0:
                continue
            cand = np.concatenate((best[rows_lo], best[rows_hi]))
            cand[: rows_lo.size, j] = lo[j]
            cand[rows_lo.size :, j] = hi[j]
            rows = np.concatenate((rows_lo, rows_hi))
            logits = forward_batch(model, cand)
            vals = logits[:, y] - logits[np.arange(rows.size), targets[rows]]
            v_lo = np.full(targets.size, np.inf)
            v_hi = np.full(targets.size, np.inf)
            v_lo[rows_lo] = vals[: rows_lo.size]
            v_hi[rows_hi] = vals[rows_lo.size :]
            take_lo = v_lo < best_val
            best[take_lo, j] = lo[j]
            best_val = np.where(take_lo, v_lo, best_val)
            take_hi = v_hi < best_val
            best[take_hi, j] = hi[j]
            best_val = np.where(take_hi, v_hi, best_val)
            improved |= take_lo | take_hi
        active = np.flatnonzero(improved)
        if not active.size:
            break
    return best, best_val


def _attack_margin_points(
    model: AttentionModelSpec, box: PixelBox, y: int, targets: np.ndarray, budget: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The attack's (T, n) best points and their (T,) margins."""
    rng = _rng(seed, model.image_size, model.n_classes)
    center = 0.5 * (box.lo + box.hi)
    points = np.vstack(
        [box.lo[None, :], box.hi[None, :], center[None, :], rng.uniform(box.lo, box.hi, size=(budget, box.size))]
    )
    logits = forward_batch(model, points)
    margins = logits[:, [y]] - logits[:, targets]
    best_idx = np.argmin(margins, axis=0)
    start_val = margins[best_idx, np.arange(targets.size)]
    return _margin_polish(model, y, targets, points[best_idx], start_val, box.lo, box.hi)


def attack_min_margin(
    model: AttentionModelSpec,
    box: PixelBox,
    y: int,
    targets: Sequence[int],
    budget: int,
    seed: int = 0,
) -> np.ndarray:
    """Smallest exact forward margins logit_y - logit_t found over feasible
    inputs, one per target t, in the order given.

    One candidate set serves every target: the box corners lo and hi, the
    center and `budget` uniform samples, scored by one forward_batch.  Each
    target then polishes its own best point by endpoint coordinate descent,
    all targets in lockstep (one forward_batch per coordinate and round).
    Every value is a forward margin at a point of the box, so it is an upper
    bound on the true minimum.  The sample stream is keyed by (seed,
    image_size, n_classes), apart from the stream of the CLI's default
    input."""
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    t = _check_targets(model, box, y, targets)
    return _attack_margin_points(model, box, y, t, budget, seed)[1]


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
    trial_csv: str | None = None,
    aggregate_csv: str | None = None,
) -> list[TrialRecord]:
    """Vertex, baseline, and certified bounds with a shared attack per trial.

    Records come back in (K, trial, method) order; only the timing column
    varies between reruns.
    """
    records = [
        row for k in config.k_values for t in range(config.trials) for row in _run_trial(config, k, t, attack_budget)
    ]
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
        vals = _objective(c, pts)
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
