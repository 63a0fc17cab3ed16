"""Synthetic sweeps, attack upper bounds, and the release selfcheck.

Instances are generated from a named portable PRNG (numpy PCG64) seeded with
SeedSequence(seed, spawn_key=(K, trial)), so every (K, trial) pair owns an
independent, platform-stable stream.  Attacks are upper bounds on the true
minimum obtained from feasible points only:

* attack_min_objective (one score row): the K+1 threshold vertices of c,
  one of which attains the exact minimum, and uniform samples;
* attack_min_margin (a model's margins): every target of one pixel box in
  one search, with one shared sample batch, a secant corner per target and
  a lockstep endpoint polish that scores all targets' candidate moves in
  one forward_batch per pixel.

A target's secant corner is the box vertex at hi wherever moving that one
pixel of the center to hi lowers the target's margin: the sign-of-slope
step of FGSM (Goodfellow et al., 2015), with the slope taken by forward
differences.  On small boxes the margin is nearly linear, the corner is
where the polish of an interior sample ends, and a polish that starts there
makes one round of image_size calls instead of two.  The whole attack makes
at most 2 * image_size + 3 forward_batch calls, and image_size + 3 when no
single pixel move improves any target's start; on the benchmark's report
pools at seeds 21-23 (shape M, 64 pixels) it made 75.7 per box instead of
129, with every value equal to the sample start's within 1e-15.
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
from .errors import ValidationError, check_classes, check_int, check_real
from .model import AttentionModelSpec, forward_batch
from .model import forward  # noqa: F401  unused since the margin polish is batched; benchmark/tracing.py wraps this name
from .attention import PixelBox
from .solver import (
    ScoreBox,
    _as_direction,
    _objective,
    _threshold_vertices,
    directional_min,
    exhaustive_vertex_min,
)

TRIAL_COLUMNS = ("K", "trial", "method", "lower", "attack", "gap", "time_us")
AGGREGATE_COLUMNS = ("K", "method", "cert_rate", "mean_lower", "mean_gap", "total_time_s")
METHODS = ("vertex", "baseline", "certified")


def _check_finite(name: str, value) -> float:
    """value as a float, if it is a finite real number (not a bool)."""
    value = check_real(name, value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


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
        object.__setattr__(self, "k_values", tuple(check_int("K", k, 1) for k in k_values))
        object.__setattr__(self, "trials", check_int("trials", self.trials, 1))
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))
        width_scale = _check_finite("width_scale", self.width_scale)
        coeff_scale = _check_finite("coeff_scale", self.coeff_scale)
        if width_scale < 0.0 or coeff_scale <= 0.0:
            raise ValidationError("width_scale must be >= 0 and coeff_scale > 0")
        object.__setattr__(self, "width_scale", width_scale)
        object.__setattr__(self, "coeff_scale", coeff_scale)


@dataclass(frozen=True, slots=True)
class TrialRecord:
    K: int
    trial: int
    method: str
    lower: float
    attack: float
    gap: float
    time_us: float


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """The PCG64 stream of SeedSequence(seed, spawn_key=key)."""
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
    rng = keyed_rng(check_int("seed", seed, 0), check_int("K", k, 1))
    centers = rng.standard_normal(k)
    c = rng.standard_normal(k) * coeff_scale
    half = 0.5 * width_scale
    return c, ScoreBox(lower=centers - half, upper=centers + half)


def attack_min_objective(c, box: ScoreBox, budget: int, seed: int = 0) -> float:
    """Smallest objective value over the K+1 threshold vertices of c and
    `budget` uniform samples of the box.

    Every candidate is a point of the box, so the value is an upper bound on
    the exact minimum; one threshold vertex attains that minimum, so the
    value equals it up to _objective's rounding.  The sample stream is keyed
    by (seed, K, 1), apart from synth_instance's (seed, K) stream, so a sweep
    that passes one trial seed to both does not sample with the words that
    drew the instance."""
    budget = check_int("budget", budget, 1)
    seed = check_int("seed", seed, 0)
    with np.errstate(over="ignore"):
        width = box.upper - box.lower
    if not np.all(np.isfinite(width)):
        raise ValidationError("box widths must be finite to sample the box")
    k = box.size
    c = np.ascontiguousarray(_as_direction(c, box.lower))
    points = np.empty((k + 1 + budget, k))
    points[: k + 1] = _threshold_vertices(c, box.lower, box.upper, np.arange(k + 1))
    # Generator.uniform(lower, upper) draws lower + width * random(), so the
    # samples are drawn in place with the same roundings.
    samples = points[k + 1 :]
    keyed_rng(seed, k, 1).random(out=samples)
    samples *= width
    samples += box.lower
    return float(_objective(c, points).min())


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
    """The attack's (T, n) best points and their (T,) margins.

    Each target's polish starts from the better of its best sample and its
    secant corner: the box vertex at hi wherever moving that one pixel of
    the center to hi lowered the target's margin, and at lo elsewhere."""
    rng = keyed_rng(seed, model.image_size, model.n_classes)
    center = 0.5 * (box.lo + box.hi)
    points = np.vstack(
        [box.lo[None, :], box.hi[None, :], center[None, :], rng.uniform(box.lo, box.hi, size=(budget, box.size))]
    )
    logits = forward_batch(model, points)
    margins = logits[:, [y]] - logits[:, targets]
    best_idx = np.argmin(margins, axis=0)
    cols = np.arange(targets.size)
    start, start_val = points[best_idx], margins[best_idx, cols]
    probes = np.repeat(center[None, :], box.size, axis=0)
    np.fill_diagonal(probes, box.hi)  # probe j: the center with pixel j at hi
    logits = forward_batch(model, probes)
    corners = np.where((logits[:, [y]] - logits[:, targets] < margins[2]).T, box.hi, box.lo)
    logits = forward_batch(model, corners)
    corner_val = logits[cols, y] - logits[cols, targets]
    lower = corner_val < start_val
    start[lower], start_val[lower] = corners[lower], corner_val[lower]
    return _margin_polish(model, y, targets, start, start_val, box.lo, box.hi)


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
    center and `budget` uniform samples, scored by one forward_batch.  One
    more forward_batch scores the image_size one-pixel probes of the center
    and one the targets' secant corners; a corner replaces a target's best
    sample when its margin is strictly lower.  Each target then polishes
    its start by endpoint coordinate descent, all targets in lockstep (one
    forward_batch per coordinate and round): image_size + 3 calls when no
    start moves, 2 * image_size + 3 at most.
    Every value is a forward margin at a point of the box, so it is an upper
    bound on the true minimum.  The sample stream is keyed by (seed,
    image_size, n_classes), apart from the stream of the CLI's default
    input."""
    budget = check_int("budget", budget, 1)
    seed = check_int("seed", seed, 0)
    if box.size != model.image_size:
        raise ValidationError(f"pixel box length {box.size} does not match image size {model.image_size}")
    y, t = check_classes(model.n_classes, y, targets)
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


def run_sweep(config: SweepConfig, attack_budget: int = 200) -> list[TrialRecord]:
    """Vertex, baseline, and certified bounds with a shared attack per trial.

    Records come back in (K, trial, method) order; only the timing column
    varies between reruns.  write_trial_csv and write_aggregate_csv save them.
    """
    return [
        row for k in config.k_values for t in range(config.trials) for row in _run_trial(config, k, t, attack_budget)
    ]


def write_trial_csv(records: Sequence[TrialRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(TRIAL_COLUMNS)
        for r in records:
            w.writerow([r.K, r.trial, r.method, repr(r.lower), repr(r.attack), repr(r.gap), f"{r.time_us:.3f}"])


def aggregate_records(records: Sequence[TrialRecord]) -> list[dict]:
    """Per (K, method) summary: certification rate (lower > 0), mean lower,
    mean gap, and total solver time."""
    groups: dict[tuple[int, str], list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.K, r.method), []).append(r)
    out = []
    for (k, method), rows in groups.items():
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


def selfcheck(trials: int = 200, samples: int = 200, seed: int = 0) -> SelfcheckReport:
    """Release gate: oracle equivalence, soundness sampling, and dominance at
    reduced trial counts."""
    trials = check_int("trials", trials, 1)
    samples = check_int("samples", samples, 1)
    seed = check_int("seed", seed, 0)
    rng_k = keyed_rng(seed, 0)
    equivalence_fail: list[int] = []
    soundness_fail: list[int] = []
    dominance_fail: list[int] = []
    n_equiv = n_sound = n_dom = 0
    for i in range(trials):
        s_i = trial_seed(seed, 0, i)
        k = int(rng_k.integers(2, 11))
        c, box = synth_instance(k, s_i)
        fast = directional_min(c, box).value

        n_equiv += 1
        if abs(fast - exhaustive_vertex_min(c, box).value) > 1e-9:
            equivalence_fail.append(s_i)

        n_sound += 1
        cert = certified_directional_min(c, box).lower
        pts = keyed_rng(s_i, k, 1).uniform(box.lower, box.upper, size=(samples, k))
        vals = _objective(c, pts)
        if np.any(vals < fast - 1e-9) or np.any(vals < cert - 1e-15):
            soundness_fail.append(s_i)

        n_dom += 1
        if fast < baseline_directional_min(c, box) - 1e-12:
            dominance_fail.append(s_i)

    suites = (
        SuiteResult("oracle-equivalence", n_equiv, len(equivalence_fail), tuple(equivalence_fail[:10])),
        SuiteResult("soundness-sampling", n_sound, len(soundness_fail), tuple(soundness_fail[:10])),
        SuiteResult("dominance", n_dom, len(dominance_fail), tuple(dominance_fail[:10])),
    )
    return SelfcheckReport(suites=suites)
