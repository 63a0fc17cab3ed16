"""Target-wise robustness certification for one input box.

For every wrong class t the margin logit_y - logit_t gets two independent
sound lower bounds: the vertex path (exact directional softmax rows) and the
baseline path (interval-softmax rows).  Their maximum is the hybrid bound;
the input is certified when every hybrid bound is positive.  In certified
mode the vertex arm's rows and their sum are rounded down and the hybrid is
that arm alone: the baseline arm is round-to-nearest, so it is reported but
never lifts a certified bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (
    PixelBox,
    ScoreBoxTensor,
    ValueCoeffs,
    _accumulate,
    _target_block,
    baseline_margin_lower_bound,
    margin_lower_bound,
    model_score_boxes,
    value_coefficients,
)
from .baseline import baseline_directional_min  # noqa: F401  unused since the baseline arm is batched; benchmark/tracing.py wraps this name
from .certified import certified_directional_min  # noqa: F401  unused since the certified arm is batched; benchmark/tracing.py wraps this name
from .certified import certified_sweep_min
from .errors import CertificationInfeasibleError, ValidationError, check_int, check_real
from .model import AttentionModelSpec, MlpSuffix
from .suffix import interval_forward, linear_suffix_bound, relu_suffix_bound


@dataclass(frozen=True, eq=False, slots=True)
class MarginBound:
    """Sound lower bounds on logit_y - logit_target over the input box."""

    target: int
    l_vertex: float
    l_baseline: float
    l_hybrid: float


@dataclass(frozen=True, eq=False, slots=True)
class CertificationResult:
    y: int
    bounds: list[MarginBound]
    certified: bool


def pixel_box(x0, epsilon: float) -> PixelBox:
    """L-infinity ball around x0 of radius epsilon (a number, inf
    included), clipped to valid pixels."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 1:
        raise ValidationError(f"clean input must be a flat vector, got shape {x0.shape}")
    epsilon = check_real("epsilon", epsilon)
    if not epsilon >= 0.0:
        raise ValidationError(f"epsilon must be nonnegative, got {epsilon}")
    return PixelBox(lo=np.clip(x0 - epsilon, 0.0, 1.0), hi=np.clip(x0 + epsilon, 0.0, 1.0))


def _certified_margin(coeffs: ValueCoeffs, scores: ScoreBoxTensor) -> np.ndarray:
    """margin_lower_bound with every (target, head, query token) row bounded
    by the certified sweep, in one kernel call, and the sum rounded down."""
    c, floor = _target_block(coeffs, scores)
    rows, saturated = certified_sweep_min(c, scores.lower, scores.upper)
    total = _accumulate_down(floor, rows)
    if saturated.any() or not np.all(np.isfinite(total)):
        raise CertificationInfeasibleError(
            "float evaluation saturated; the certified bound is not valid for this instance"
        )
    return total


def _accumulate_down(floor: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """_accumulate, lowered below the exact sum of its n terms.

    Recursive summation obeys |fl(S) - S| <= gamma_{n-1} * sum|x_i| with
    gamma_k = k*u / (1 - k*u), u = 2**-53 (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 4.2).  The computed sum of magnitudes reads
    low by at most the same factor, so n * 2**-52 times it, rounded up,
    covers the error while (n - 1) * u <= 1/4; nextafter then covers the
    rounding of the final subtraction.
    """
    rows = rows.reshape(len(floor), -1)
    n = rows.shape[1] + 1
    with np.errstate(over="ignore", invalid="ignore"):
        pad = np.nextafter((np.abs(floor) + np.abs(rows).sum(axis=1)) * (n * 2.0**-52), np.inf)
        return np.nextafter(_accumulate(floor, rows) - pad, -np.inf)


def certify_targets(
    model: AttentionModelSpec,
    box: PixelBox,
    y: int,
    certified: bool = False,
) -> CertificationResult:
    """Hybrid margin bounds for all targets t != y, in ascending target order.

    With certified=True the vertex arm runs through the certified sweep
    and l_hybrid is l_vertex; saturation raises
    CertificationInfeasibleError.
    """
    y = check_int("y", y, 0)
    if y >= model.n_classes:
        raise ValidationError(f"class index y={y} out of range for {model.n_classes} classes")
    if box.size != model.image_size:
        raise ValidationError(f"pixel box length {box.size} does not match image size {model.image_size}")

    targets = [t for t in range(model.n_classes) if t != y]
    scores: ScoreBoxTensor = model_score_boxes(model, box)
    if isinstance(model.suffix, MlpSuffix):
        suffix = relu_suffix_bound(model, interval_forward(model, box, scores), y, targets)
    else:
        suffix = linear_suffix_bound(model, y, targets)

    coeffs = value_coefficients(suffix, model, box)

    vertex = (_certified_margin if certified else margin_lower_bound)(coeffs, scores).tolist()
    baseline = baseline_margin_lower_bound(coeffs, scores).tolist()
    bounds = [
        MarginBound(target=t, l_vertex=lv, l_baseline=lb, l_hybrid=lv if certified else max(lv, lb))
        for t, lv, lb in zip(targets, vertex, baseline)
    ]
    return CertificationResult(y=y, bounds=bounds, certified=all(b.l_hybrid > 0.0 for b in bounds))
