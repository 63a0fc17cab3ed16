"""Target-wise robustness certification for one input box.

For every wrong class t the margin logit_y - logit_t gets two independent
sound lower bounds: the vertex path (exact directional softmax rows) and the
baseline path (interval-softmax rows).  Their maximum is the hybrid bound;
the input is certified when every hybrid bound is positive.  In certified
mode the vertex arm is outward-rounded and the hybrid is that arm alone:
the baseline arm is round-to-nearest, so it is reported but never lifts a
certified bound.
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
from .errors import CertificationInfeasibleError, ValidationError
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
    """L-infinity ball around x0 of radius epsilon, clipped to valid pixels."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 1:
        raise ValidationError(f"clean input must be a flat vector, got shape {x0.shape}")
    if not epsilon >= 0.0:
        raise ValidationError(f"epsilon must be nonnegative, got {epsilon}")
    return PixelBox(lo=np.clip(x0 - epsilon, 0.0, 1.0), hi=np.clip(x0 + epsilon, 0.0, 1.0))


def _certified_margin(coeffs: ValueCoeffs, scores: ScoreBoxTensor) -> np.ndarray:
    """margin_lower_bound with every (target, head, query token) row bounded
    by the outward-rounded sweep, in one kernel call."""
    c, floor = _target_block(coeffs, scores)
    rows, saturated = certified_sweep_min(c, scores.lower, scores.upper)
    if saturated.any():
        raise CertificationInfeasibleError(
            "interval evaluation saturated; the certified bound is not valid for this instance"
        )
    return _accumulate(floor, rows)


def certify_targets(
    model: AttentionModelSpec,
    box: PixelBox,
    y: int,
    certified: bool = False,
) -> CertificationResult:
    """Hybrid margin bounds for all targets t != y, in ascending target order.

    With certified=True the vertex arm runs through the outward-rounded
    interval path and l_hybrid is l_vertex; saturation raises
    CertificationInfeasibleError.
    """
    if not 0 <= y < model.n_classes:
        raise ValidationError(f"class index y={y} out of range for {model.n_classes} classes")
    if box.size != model.image_size:
        raise ValidationError(f"pixel box length {box.size} does not match image size {model.image_size}")

    targets = [t for t in range(model.n_classes) if t != y]
    if isinstance(model.suffix, MlpSuffix):
        preact = interval_forward(model, box)
        suffix_bounds = [relu_suffix_bound(model, preact, y, t) for t in targets]
    else:
        suffix_bounds = [linear_suffix_bound(model, y, t) for t in targets]

    coeffs = value_coefficients(suffix_bounds, model, box)
    scores: ScoreBoxTensor = model_score_boxes(model, box)

    vertex = (_certified_margin if certified else margin_lower_bound)(coeffs, scores).tolist()
    baseline = baseline_margin_lower_bound(coeffs, scores).tolist()
    bounds = [
        MarginBound(target=t, l_vertex=lv, l_baseline=lb, l_hybrid=lv if certified else max(lv, lb))
        for t, lv, lb in zip(targets, vertex, baseline)
    ]
    return CertificationResult(y=y, bounds=bounds, certified=all(b.l_hybrid > 0.0 for b in bounds))
