"""Synthetic sweeps, attack upper bounds, and the release selfcheck.

Instances are generated from a named portable PRNG (numpy PCG64) seeded with
SeedSequence(seed, spawn_key=(K, trial)), so every (K, trial) pair owns an
independent, platform-stable stream.  Attacks are upper bounds on the true
minimum obtained from feasible points only:

* attack_min_objective (one score row): threshold vertices of both c and -c,
  uniform samples, and a windowed endpoint polish;
* attack_min_margin (a model's margins): every target of one pixel box in
  one search, with one shared sample batch and a lockstep endpoint polish
  that scores all targets' candidate moves in one forward_batch per pixel.

The objective polish starts from the best threshold vertex or sample, and
one threshold vertex is the exact optimum, so it rarely moves: over the
2,000 polishes of the benchmark's rows pool at seed 21, none improved on its
start.  It therefore scores the candidate moves of a window of coordinates
in one _objective call, and widens the window while no move is accepted, so
a polish without a move makes about log4(K) calls instead of 2K one-point
calls.  That raised rows throughput from 15.6 to 24.6 items/s over 10 paired
runs on a 2-core host.  Where most coordinates move (interior starts) each
move costs a call over a short window, up to 1.35x the one-point descent at
K=64 and K=256.  An earlier batch of one coordinate's two candidates per
call measured slower than the one-point descent (0.66 instead of 0.10 ms per
trial at K=4): it still made a call per coordinate.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from typing import Sequence

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
    directional_min,
    exhaustive_vertex_min,
)

TRIAL_COLUMNS = ("K", "trial", "method", "lower", "attack", "gap", "time_us")
AGGREGATE_COLUMNS = ("K", "method", "cert_rate", "mean_lower", "mean_gap", "total_time_s")
METHODS = ("vertex", "baseline", "certified")
# The objective polish's first window of coordinates; the window grows by
# this factor after a window without an accepted move.
_POLISH_WINDOW = 4


def _check_int(name: str, value, minimum: int) -> int:
    """value as an int, if it is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_finite(name: str, value) -> float:
    """value as a float, if it is a finite real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SweepConfig:
    k_values: tuple[int, ...]
    trials: int
    seed: int
    width_scale: float = 1.0
    coeff_scale: float = 1.0

    def __post_init__(self) -> None:
        try:
            k_values = tuple(self.k_values)
        except TypeError:
            raise ValidationError(f"k_values must be a sequence of integers, got {self.k_values!r}") from None
        object.__setattr__(self, "k_values", tuple(_check_int("K", k, 1) for k in k_values))
        object.__setattr__(self, "trials", _check_int("trials", self.trials, 1))
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0))
        width_scale = _check_finite("width_scale", self.width_scale)
        coeff_scale = _check_finite("coeff_scale", self.coeff_scale)
        if width_scale < 0.0 or coeff_scale <= 0.0:
            raise ValidationError("width_scale must be >= 0 and coeff_scale > 0")
        object.__setattr__(self, "width_scale", width_scale)
        object.__setattr__(self, "coeff_scale", coeff_scale)


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
    rng = _rng(_check_int("seed", seed, 0), _check_int("K", k, 1))
    centers = rng.standard_normal(k)
    c = rng.standard_normal(k) * coeff_scale
    half = 0.5 * width_scale
    return c, ScoreBox(lower=centers - half, upper=centers + half)


def _attack_vertices(c: np.ndarray, box: ScoreBox) -> np.ndarray:
    """All K+1 threshold vertices of the sweeps of c and of -c, in original
    coordinate order: 2(K+1) rows.  Vertex m of a sweep has the coordinates
    of rank < m in the stable ascending sort at their upper endpoint."""
    k = box.size
    ranks = np.argsort(np.argsort(np.stack((c, -c)), axis=-1, kind="stable"), axis=-1)
    take_upper = ranks[:, None, :] < np.arange(k + 1)[:, None]
    return np.where(take_upper, box.upper, box.lower).reshape(-1, k)


def _objective_polish(c: np.ndarray, start: np.ndarray, start_val: float, lo: np.ndarray, hi: np.ndarray) -> float:
    """Endpoint coordinate descent on c . softmax(s) from `start`, whose
    value is start_val: up to two rounds that try each coordinate at lo,
    then at hi, keeping every strict improvement (the hi move is compared
    with the value after any lo move).  Returns the best value seen.

    One _objective call scores the candidates of a window of coordinates
    against the current point: each endpoint that differs from the current
    coordinate.  The first accepted move ends the window, since later
    candidates no longer differ from the point in one coordinate only; the
    hi candidate of the same coordinate is still valid, because it is the
    same point whether x_j has just moved to lo or not.  The next window
    starts after that coordinate at _POLISH_WINDOW coordinates, and a window
    without a move is followed by one _POLISH_WINDOW times wider.  _objective
    rows equal softmax_objective bit for bit, so the result is exactly the
    one-point-per-call descent's."""
    best = start.copy()
    best_val = start_val
    ends = np.stack((lo, hi), axis=-1)  # (K, 2): lo, then hi
    k = best.size
    for _ in range(2):
        improved = False
        j, width = 0, _POLISH_WINDOW
        while j < k:
            stop = min(j + width, k)
            col, side = np.nonzero(ends[j:stop] != best[j:stop, None])
            col += j
            cand = np.repeat(best[None, :], col.size, axis=0)
            cand[np.arange(col.size), col] = ends[col, side]
            vals = _objective(c, cand)
            hit = np.flatnonzero(vals < best_val)
            if not hit.size:
                j, width = stop, width * _POLISH_WINDOW
                continue
            i = hit[0]
            at = col[i]
            best[at], best_val = ends[at, side[i]], float(vals[i])
            if side[i] == 0 and i + 1 < col.size and col[i + 1] == at and vals[i + 1] < best_val:
                best[at], best_val = hi[at], float(vals[i + 1])
            improved = True
            j, width = at + 1, _POLISH_WINDOW
        if not improved:
            break
    return best_val


def attack_min_objective(c, box: ScoreBox, budget: int, seed: int = 0) -> float:
    """Best (smallest) objective value over a feasible candidate set; an upper
    bound on the exact minimum, and equal to it whenever a threshold vertex
    attains the optimum."""
    budget = _check_int("budget", budget, 1)
    seed = _check_int("seed", seed, 0)
    with np.errstate(over="ignore"):
        width = box.upper - box.lower
    if not np.all(np.isfinite(width)):
        raise ValidationError("box widths must be finite to sample the box")
    k = box.size
    c = np.ascontiguousarray(_as_direction(c, k))
    n_vertices = 2 * (k + 1)
    points = np.empty((n_vertices + budget, k))
    points[:n_vertices] = _attack_vertices(c, box)
    points[n_vertices:] = _rng(seed, k).uniform(box.lower, box.upper, size=(budget, k))
    vals = _objective(c, points)
    best = int(np.argmin(vals))
    return _objective_polish(c, points[best], float(vals[best]), box.lower, box.upper)


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
    """Endpoint coordinate descent of the margin for every target at once.

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
    budget = _check_int("budget", budget, 1)
    seed = _check_int("seed", seed, 0)
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
    trials = _check_int("trials", trials, 1)
    samples = _check_int("samples", samples, 1)
    seed = _check_int("seed", seed, 0)

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
