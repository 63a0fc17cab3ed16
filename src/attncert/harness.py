"""Synthetic sweeps, attack upper bounds, and the release selfcheck.

Instances are generated from a named portable PRNG (numpy PCG64) seeded with
SeedSequence(seed, spawn_key=(K, trial)), so every (K, trial) pair owns an
independent, platform-stable stream.  Attacks are upper bounds on the true
minimum obtained from feasible points only:

* attack_min_objective (one score row): the K+1 threshold vertices of c,
  one of which attains the exact minimum, and uniform samples;
* attack_min_margin (a model's margins): every target of one pixel box in
  one search, with one shared sample set, a secant corner per target and
  an endpoint polish that scores every target's next window of pixel moves
  in one forward_batch.

Both attacks, and selfcheck's soundness sampling, draw and score their
candidates in bounded blocks with a running minimum, so their memory does
not grow with the budget; each block's values are those of one unblocked
batch.

A target's secant corner is the box vertex at hi wherever moving that one
pixel of the center to hi lowers the target's margin: the sign-of-slope
step of FGSM (Goodfellow et al., 2015), with the slope taken by forward
differences.  On small boxes the margin is nearly linear, the corner is
where the polish of an interior sample ends, and a polish that starts there
makes one round instead of two.  A target's windows start at 4 pixels and
grow 4-fold while it does not move, so a round without a move over 64
pixels takes 3 calls (windows of 4, 16 and 44), and the whole attack 6.
With one sample chunk it makes at most 2 * image_size + 3 forward_batch
calls; on the benchmark's report pools at seeds 21-23 (shape M, 64
pixels) it made 6.4 per box, against 75.7 for a polish of one pixel per
call, with the same values.
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
from .model import AttentionModelSpec, _forward_block_points, forward_batch
from .model import forward  # noqa: F401  unused since the margin polish is batched; benchmark/tracing.py wraps this name
from .attention import PixelBox
from .solver import (
    ScoreBox,
    _as_direction,
    _objective,
    _stable_rank,
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


# The objective attack and the selfcheck's soundness suite score their
# candidates in consecutive row blocks of about this many elements (64 rows
# at K = 256), keeping a running minimum, so their memory does not grow with
# the budget and no block's temporaries page-fault in fresh pages.  On the
# benchmark's rows pool, 2**13 and 2**15 elements were each slower in three
# of three runs (2**15 page-faulted 768 times per item).
_OBJECTIVE_BLOCK_ELEMENTS = 2**14


def _objective_block_rows(k: int) -> int:
    """Rows of K scores per _objective block, at least one."""
    return max(1, _OBJECTIVE_BLOCK_ELEMENTS // k)


def _sample_objective_min(c: np.ndarray, lower: np.ndarray, width: np.ndarray, rng, n: int):
    """Smallest _objective value of c over n uniform samples of the box
    [lower, lower + width], drawn from rng block by block into one buffer.

    Generator.uniform(lower, upper) draws lower + width * random(), and
    random fills its rows in stream order however they are split, so the
    samples are uniform(lower, upper, (n, K))'s bit for bit."""
    block = np.empty((min(n, _objective_block_rows(c.size)), c.size))
    best = np.inf
    for i in range(0, n, block.shape[0]):
        samples = block[: n - i]
        rng.random(out=samples)
        samples *= width
        samples += lower
        best = np.minimum(best, _objective(c, samples).min())
    return best


def attack_min_objective(c, box: ScoreBox, budget: int, seed: int = 0) -> float:
    """Smallest objective value over the K+1 threshold vertices of c and
    `budget` uniform samples of the box.

    Every candidate is a point of the box, so the value is an upper bound on
    the exact minimum; one threshold vertex attains that minimum, so the
    value equals it up to _objective's rounding.  The vertices, then the
    samples, are built and scored in row blocks of _OBJECTIVE_BLOCK_ELEMENTS
    scores with a running minimum, so memory does not grow with the budget;
    an _objective row does not depend on its batch, so the value is that of
    one unblocked batch.  The sample stream is keyed by (seed, K, 1), apart
    from synth_instance's (seed, K) stream, so a sweep that passes one trial
    seed to both does not sample with the words that drew the instance."""
    budget = check_int("budget", budget, 1)
    seed = check_int("seed", seed, 0)
    with np.errstate(over="ignore"):
        width = box.upper - box.lower
    if not np.all(np.isfinite(width)):
        raise ValidationError("box widths must be finite to sample the box")
    k = box.size
    c = np.ascontiguousarray(_as_direction(c, box.lower))
    step = _objective_block_rows(k)
    rank = _stable_rank(c)
    best = np.inf
    for i in range(0, k + 1, step):
        vertices = _threshold_vertices(c, box.lower, box.upper, np.arange(i, min(i + step, k + 1)), rank)
        best = np.minimum(best, _objective(c, vertices).min())
    return float(np.minimum(best, _sample_objective_min(c, box.lower, width, keyed_rng(seed, k, 1), budget)))


# The polish's first window per target, in coordinates, and its growth
# factor after a window without a move.
_POLISH_WINDOW = 4
_POLISH_GROWTH = 4


def _margin_polish(
    model: AttentionModelSpec, y: int, targets: np.ndarray, start: np.ndarray, start_val: np.ndarray,
    lo: np.ndarray, hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint coordinate descent of the margin for every target at once.

    Target r descends from start[r], whose margin is start_val[r], over the
    coordinates in order, trying each at lo, then hi, and keeping a strict
    improvement (the hi candidate is compared with the value after any lo
    move; it is the same point whether x_j has just moved to lo or not).  A
    second round runs for the targets that moved in the first.  One
    forward_batch scores, for every target, the candidates of its own window
    of coordinates, all from its current point.  Its decisions are the
    scalar search's up to its first move, after which the rest of the
    window is stale: the next window starts at the coordinate after the move
    with _POLISH_WINDOW coordinates, and a window without a move is followed
    by one _POLISH_GROWTH times wider.  With no move, 64 pixels take three
    calls (windows of 4, 16 and 44).  Returns the (T, n) best points and
    their (T,) margins."""
    n = lo.size
    best = start.copy()
    best_val = start_val.copy()
    # Per target: its next coordinate of the up to 2 * n it may visit, the
    # end of those (n until its first move), and its window.
    pos = np.zeros(targets.size, dtype=np.intp)
    end = np.full(targets.size, n, dtype=np.intp)
    window = np.full(targets.size, _POLISH_WINDOW, dtype=np.intp)
    active = np.arange(targets.size)
    while active.size:
        width = np.minimum(window[active], end[active] - pos[active])
        offset = np.arange(width.max())
        coord = (pos[active, None] + offset) % n  # (A, W)
        inside = offset < width[:, None]
        cur = best[active[:, None], coord]
        need = np.stack((inside & (cur != lo[coord]), inside & (cur != hi[coord])))  # (2, A, W)
        side, row, k = np.nonzero(need)
        vals = np.full(need.shape, np.inf)
        if row.size:
            cand = best[active[row]]
            j = coord[row, k]
            cand[np.arange(row.size), j] = np.where(side == 0, lo[j], hi[j])
            logits = forward_batch(model, cand)
            vals[side, row, k] = logits[:, y] - logits[np.arange(row.size), targets[active[row]]]
        v_lo, v_hi = vals
        b = best_val[active, None]
        take_lo = v_lo < b
        take_hi = v_hi < np.where(take_lo, v_lo, b)
        moved = take_lo | take_hi
        has_move = moved.any(axis=1)
        first = np.argmax(moved, axis=1)
        mv = np.flatnonzero(has_move)
        r, f = active[mv], first[mv]
        to_hi = take_hi[mv, f]
        j = coord[mv, f]
        best[r, j] = np.where(to_hi, hi[j], lo[j])
        best_val[r] = np.where(to_hi, v_hi[mv, f], v_lo[mv, f])
        end[r] = 2 * n  # a move earns the second round (a second-round mover already has it)
        pos[active] += np.where(has_move, first + 1, width)
        window[active] = np.where(has_move, _POLISH_WINDOW, window[active] * _POLISH_GROWTH)
        active = active[pos[active] < end[active]]
    return best, best_val


# The margin attack draws and scores its samples in chunks of about this
# many pixel values (1,024 points at 64 pixels), each a whole number of
# _forward blocks, so its memory does not grow with the budget and every
# forward block, so every logit, is the one an unchunked batch gives.
_SAMPLE_CHUNK_ELEMENTS = 2**16


def _attack_margin_points(
    model: AttentionModelSpec, box: PixelBox, y: int, targets: np.ndarray, budget: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The attack's (T, n) best points and their (T,) margins.

    Each target's polish starts from the better of its best sample and its
    secant corner: the box vertex at hi wherever moving that one pixel of
    the center to hi lowered the target's margin, and at lo elsewhere."""
    rng = keyed_rng(seed, model.image_size, model.n_classes)
    center = 0.5 * (box.lo + box.hi)
    block = _forward_block_points(model)
    chunk = block * max(3, _SAMPLE_CHUNK_ELEMENTS // (block * box.size))  # the first holds lo, hi, center
    cols = np.arange(targets.size)
    start, start_val = np.empty((targets.size, box.size)), np.full(targets.size, np.inf)
    head = [box.lo[None, :], box.hi[None, :], center[None, :]]
    drawn = 0
    while head or drawn < budget:
        size = min(chunk - len(head), budget - drawn)
        points = np.vstack(head + [rng.uniform(box.lo, box.hi, size=(size, box.size))])
        logits = forward_batch(model, points)
        margins = logits[:, [y]] - logits[:, targets]
        if head:
            center_val = margins[2]
        best_idx = np.argmin(margins, axis=0)
        lower = margins[best_idx, cols] < start_val  # strict: an earlier chunk keeps a tie
        start[lower], start_val[lower] = points[best_idx[lower]], margins[best_idx[lower], cols[lower]]
        head, drawn = [], drawn + size
    probes = np.repeat(center[None, :], box.size, axis=0)
    np.fill_diagonal(probes, box.hi)  # probe j: the center with pixel j at hi
    logits = forward_batch(model, probes)
    corners = np.where((logits[:, [y]] - logits[:, targets] < center_val).T, box.hi, box.lo)
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
    center and `budget` uniform samples, drawn and scored by forward_batch
    in chunks of whole forward blocks (one call up to 1,021 samples at 64
    pixels; see _SAMPLE_CHUNK_ELEMENTS), keeping each target's first best
    point.  One more forward_batch scores the image_size one-pixel probes
    of the center and one the targets' secant corners; a corner replaces a
    target's best sample when its margin is strictly lower.  Each target
    then polishes its start by endpoint coordinate descent, every target's
    next window of coordinates in one forward_batch (see _margin_polish):
    with one sample chunk, 6 calls in all when no start moves at 64 pixels,
    2 * image_size + 3 at most.  Every value is a forward margin at a point of the box, so it is an upper
    bound on the true minimum.  The sample stream is keyed by (seed,
    image_size, n_classes), apart from the stream of the CLI's default
    input.  A box whose widths are not all finite cannot be sampled: a
    ValidationError."""
    budget = check_int("budget", budget, 1)
    seed = check_int("seed", seed, 0)
    if box.size != model.image_size:
        raise ValidationError(f"pixel box length {box.size} does not match image size {model.image_size}")
    with np.errstate(over="ignore"):
        width = box.hi - box.lo
    if not np.all(np.isfinite(width)):
        raise ValidationError("pixel box widths must be finite to sample the box")
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
        low = _sample_objective_min(c, box.lower, box.upper - box.lower, keyed_rng(s_i, k, 1), samples)
        if low < fast - 1e-9 or low < cert - 1e-15:
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
