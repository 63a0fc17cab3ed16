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
  in one forward_batch.  An enclosure of the margin's pixel gradient over
  the box, built once, sets the corner pixels whose sign it proves and
  leaves out the samples and moves it proves cannot give a better start or
  a lower margin.

run_sweep draws every trial's instance at one K and runs its attack, then
bounds the stacked (trials, K) rows with one batched call per method
(solver.sweep_min, baseline.baseline_min, certified.certified_sweep_min),
each row bit for bit its one-row entry point's value.  A record's time_us is
its method's batched call time over the trial count, so a (K, method)
group's total_time_s is that call's time.

Both attacks, and selfcheck's soundness sampling, draw and score their
candidates in bounded blocks with a running minimum, so their memory does
not grow with the budget.  Each block's values are those of one unblocked
batch, the margin attack's wherever its screen leaves a whole chunk.

A target's secant corner is the box vertex at hi wherever moving that one
pixel of the center to hi lowers the target's margin: the sign-of-slope
step of FGSM (Goodfellow et al., 2015).  suffix.margin_gradient_bounds
encloses every partial derivative of every target's margin over the box,
so by the mean value theorem the move lowers margin t where g_hi[t, j] < 0
and does not where g_lo[t, j] > 0; only the pixels that some target
leaves unproven are probed, by a forward difference.  On small boxes the
margin is nearly linear, the corner is where the polish of an interior
sample ends, and a polish that starts there makes one round instead of
two.  A target's windows start at 4 pixels and grow 4-fold while it does
not move, so a round without a move over 64 pixels takes 3 calls (windows
of 4, 16 and 44).

The attack scores lo, hi, the center and the probes in one forward_batch
and the corners in a second.  It then draws the samples; a sample is
scored only if, for some target, its mean-value bound about the center
c, margin_t(c) + max(x - c, 0) . g_lo[t] + min(x - c, 0) . g_hi[t] (the
centred form of interval arithmetic, Moore 1966), does not lie above the
lower of the target's best point so far and its corner, by more than a
rounding allowance (_SCREEN_PAD).  A sample left out could not become a
start, so the starts are those of scoring every sample, up to
forward_batch's ulp.  The polish likewise never scores a move to the
box's lo end where the enclosure proves the margin falls as the pixel
rises, nor one to hi where it proves it rises, and a window left with
nothing to score makes no call.  With no start moving at 64 pixels the
attack makes at most 5 calls when it scores no sample and 6 with one
sample chunk, and with one sample chunk at most 2 * image_size + 3.  It scores 3 points,
a probe per pixel left unproven, one corner per target, the samples left
in and the polish's moves.

On the benchmark's report pools at seeds 21-23 (shape M, 64 pixels,
linear head, budget 200) the attack made 4.9 calls and scored 57.6 points
(6.5 forward blocks) per box, against 5.9 calls and 303.9 points (21.7
blocks) when it scored every sample and probe, with the same values on
all 729 targets, bit for bit.  The enclosure ruled out every sample there.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .baseline import baseline_directional_min, baseline_min
from .certified import certified_directional_min, certified_sweep_min
from .errors import ValidationError, check_classes, check_int, check_real
from .model import AttentionModelSpec, _forward_block_points, forward_batch, open_output
from .model import forward  # noqa: F401  unused since the margin polish is batched; benchmark/tracing.py wraps this name
from .attention import PixelBox
from .suffix import margin_gradient_bounds
from .solver import (
    ScoreBox,
    _as_direction,
    _objective,
    _stable_rank,
    _threshold_vertices,
    directional_min,
    exhaustive_vertex_min,
    sweep_min,
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
    """Random instance: centers standard normal, coefficients standard
    normal times coeff_scale, half-width 0.5 * width_scale on every
    coordinate.  Deterministic in (k, seed).  A coefficient that overflows
    is a ValidationError: the batched solves of run_sweep trust their
    inputs."""
    rng = keyed_rng(check_int("seed", seed, 0), check_int("K", k, 1))
    centers = rng.standard_normal(k)
    with np.errstate(over="ignore"):
        c = rng.standard_normal(k) * coeff_scale
    if not np.all(np.isfinite(c)):
        raise ValidationError(f"coeff_scale {coeff_scale!r} overflows a coefficient of K={k}")
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
        vertices = _threshold_vertices(rank, box.lower, box.upper, np.arange(i, min(i + step, k + 1)))
        best = np.minimum(best, _objective(c, vertices).min())
    return float(np.minimum(best, _sample_objective_min(c, box.lower, width, keyed_rng(seed, k, 1), budget)))


# The polish's first window per target, in coordinates, and its growth
# factor after a window without a move.
_POLISH_WINDOW = 4
_POLISH_GROWTH = 4


def _margin_polish(
    model: AttentionModelSpec, y: int, targets: np.ndarray, start: np.ndarray, start_val: np.ndarray,
    lo: np.ndarray, hi: np.ndarray, g_lo: np.ndarray, g_hi: np.ndarray,
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
    calls (windows of 4, 16 and 44).  (g_lo, g_hi) is
    suffix.margin_gradient_bounds over the box [lo, hi]; a candidate that it
    proves cannot lower its target's margin is never scored (it could not
    be kept), and a call with no candidate left is not made.  Returns the
    (T, n) best points and their (T,) margins."""
    n = lo.size
    # A flip to lo cannot lower margin t where the margin falls as x_j rises
    # over the whole box (g_hi < 0), nor a flip to hi where it rises
    # (g_lo > 0).  The flips left, by side, target and coordinate:
    unscreened = np.stack((g_hi >= 0.0, g_lo <= 0.0))  # (2, T, n)
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
        need &= unscreened[:, active[:, None], coord]
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


# The margin attack draws its samples in chunks of about this many pixel
# values (1,024 points at shape M), each a whole number of _forward
# blocks, so its memory does not grow with the budget and, where no sample
# of a chunk is screened out, every logit is the one an unchunked batch
# gives.
_SAMPLE_CHUNK_ELEMENTS = 2**16

# The sample screen's rounding allowance, relative to a target's scale:
# 1 + |logit_y| + |logit_t| at the center plus the largest the mean-value
# bound's linear part can be over the box.  It covers forward_batch's
# round-to-nearest error at the center and at the sample.
_SCREEN_PAD = 2.0**-30


def _attack_margin_points(
    model: AttentionModelSpec, box: PixelBox, y: int, targets: np.ndarray, budget: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The attack's (T, n) best points and their (T,) margins.

    Each target's polish starts from the better of its best sample and its
    secant corner: the box vertex at hi wherever moving that one pixel of
    the center to hi lowers the target's margin, and at lo elsewhere.  The
    gradient enclosure sets the corner's pixels whose move it proves the
    sign of, and rules out the samples that could not become a start."""
    g_lo, g_hi = margin_gradient_bounds(model, box, y, targets)
    rng = keyed_rng(seed, model.image_size, model.n_classes)
    center = 0.5 * (box.lo + box.hi)
    cols = np.arange(targets.size)
    # By the mean value theorem, moving pixel j of the center to hi lowers
    # margin t where g_hi[t, j] < 0, and does not where g_lo[t, j] > 0; a
    # pixel that some target leaves unproven is probed.
    falls, rises = g_hi < 0.0, g_lo > 0.0
    probed = np.flatnonzero(~np.all(falls | rises, axis=0))
    head = np.vstack((box.lo, box.hi, center))
    probes = np.repeat(center[None, :], probed.size, axis=0)
    probes[np.arange(probed.size), probed] = box.hi[probed]
    logits = forward_batch(model, np.vstack((head, probes)))
    center_scale = 1.0 + np.abs(logits[2, y]) + np.abs(logits[2, targets])
    margins = logits[:, [y]] - logits[:, targets]
    center_val = margins[2]
    best_idx = np.argmin(margins[:3], axis=0)
    start, start_val = head[best_idx], margins[best_idx, cols]
    probe_lower = np.zeros_like(falls)
    probe_lower[:, probed] = (margins[3:] < center_val).T
    corners = np.where(falls | (probe_lower & ~rises), box.hi, box.lo)
    logits = forward_batch(model, corners)
    corner_val = logits[cols, y] - logits[cols, targets]

    # margin_t(x) >= margin_t(c) + max(x - c, 0) . g_lo[t] + min(x - c, 0) .
    # g_hi[t], so a sample whose bound lies above min(the best sample so
    # far, the corner), with the pad, for every target could not be kept
    # as a start.  A pad that is not finite (an enclosure entry or a center
    # logit that is not) turns the screen off, and a NaN bound or threshold
    # rules nothing out.
    with np.errstate(over="ignore", invalid="ignore"):
        reach = (box.hi - box.lo) @ np.maximum(-g_lo, g_hi).T
        pad = _SCREEN_PAD * (center_scale + reach)
    screen = bool(np.all(np.isfinite(pad)))
    block = _forward_block_points(model)
    chunk = block * max(1, _SAMPLE_CHUNK_ELEMENTS // (block * box.size))
    for drawn in range(0, budget, chunk):
        points = rng.uniform(box.lo, box.hi, size=(min(chunk, budget - drawn), box.size))
        if screen:
            d = points - center
            with np.errstate(over="ignore", invalid="ignore"):
                bound = np.maximum(d, 0.0) @ g_lo.T
                bound += np.minimum(d, 0.0, out=d) @ g_hi.T
                bound += center_val
                points = points[~np.all(bound > np.minimum(start_val, corner_val) + pad, axis=1)]
            if not len(points):
                continue
        logits = forward_batch(model, points)
        margins = logits[:, [y]] - logits[:, targets]
        best_idx = np.argmin(margins, axis=0)
        lower = margins[best_idx, cols] < start_val  # strict: an earlier point keeps a tie
        start[lower], start_val[lower] = points[best_idx[lower]], margins[best_idx[lower], cols[lower]]
    lower = corner_val < start_val
    start[lower], start_val[lower] = corners[lower], corner_val[lower]
    return _margin_polish(model, y, targets, start, start_val, box.lo, box.hi, g_lo, g_hi)


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
    center and `budget` uniform samples, keeping each target's first best
    point.  One forward_batch scores lo, hi, the center and the one-pixel
    probes of the center that the margin's gradient enclosure leaves
    unproven, one more the targets' secant corners.  The samples are drawn
    and scored in chunks of whole forward blocks (1,024 at shape M; see
    _SAMPLE_CHUNK_ELEMENTS), leaving out those that the enclosure proves
    could not become a start; a corner replaces a target's best sample
    when its margin is strictly lower.  Each target then polishes its
    start by endpoint coordinate descent, every target's next window of
    coordinates in one forward_batch, leaving out the moves that the
    enclosure proves cannot lower it (see _margin_polish).  With one sample
    chunk and no start moving at 64 pixels that is at most 6 calls in all
    (5 when no sample is scored), and with one sample chunk 2 * image_size
    + 3 at most; the points are 3, at most image_size probes, one corner
    per target, at most `budget` samples and the polish's moves.  Every
    value is a forward margin at a point of the box, so it is an upper
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


def _sweep_k(config: SweepConfig, k: int, attack_budget: int) -> list[TrialRecord]:
    """run_sweep's records at one K, in (trial, method) order."""
    c, lower, upper, attack = [], [], [], []
    for trial in range(config.trials):
        seed = trial_seed(config.seed, k, trial)
        c_t, box = synth_instance(k, seed, config.width_scale, config.coeff_scale)
        attack.append(attack_min_objective(c_t, box, attack_budget, seed=seed))
        c.append(c_t)
        lower.append(box.lower)
        upper.append(box.upper)
    c, lower, upper = np.stack(c), np.stack(lower), np.stack(upper)

    t0 = time.perf_counter_ns()
    vertex = sweep_min(c, lower, upper)[0]
    t1 = time.perf_counter_ns()
    base = baseline_min(c, lower, upper)
    t2 = time.perf_counter_ns()
    cert = certified_sweep_min(c, lower, upper)[0]
    t3 = time.perf_counter_ns()

    us = 1e3 * config.trials
    bounds = (
        ("vertex", vertex.tolist(), (t1 - t0) / us),
        ("baseline", base.tolist(), (t2 - t1) / us),
        ("certified", cert.tolist(), (t3 - t2) / us),
    )
    return [
        TrialRecord(K=k, trial=t, method=method, lower=lows[t], attack=attack[t], gap=attack[t] - lows[t], time_us=t_us)
        for t in range(config.trials)
        for method, lows, t_us in bounds
    ]


def run_sweep(config: SweepConfig, attack_budget: int = 200) -> list[TrialRecord]:
    """Vertex, baseline, and certified bounds with a shared attack per trial.

    Each K's trials are drawn and attacked one by one, then bounded by one
    batched call per method over their stacked (trials, K) rows; every row
    is exactly its one-row entry point's value.  A record's time_us is its
    method's call time over the trial count, so a (K, method) group's
    total_time_s is that call's time.  Records come back in (K, trial,
    method) order; only the timing column varies between reruns.
    write_trial_csv and write_aggregate_csv save them.
    """
    return [row for k in config.k_values for row in _sweep_k(config, k, attack_budget)]


def write_trial_csv(records: Sequence[TrialRecord], path: str) -> None:
    with open_output(path) as fh:
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
    with open_output(path) as fh:
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
