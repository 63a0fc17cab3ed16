"""Target-wise robustness certification for one input box.

For every wrong class t the margin logit_y - logit_t gets two sound lower
bounds: the vertex arm (exact directional softmax rows), which is the hybrid
bound in both modes, and the baseline arm (interval-softmax rows), reported
for comparison only: Vertex-Softmax is the tightest bound that the score
boxes alone give, so the baseline never raises it.  The input is certified
when every hybrid bound is positive.  In certified mode the vertex arm's
rows and their sum are rounded down.

The stages hand each other plain arrays: the score boxes (lower, upper),
the suffix bound (beta, gamma), its value maps, and each target's row
coefficients and floor (c, b_prime), which both arms take with the score
boxes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (
    PixelBox,
    baseline_margin_lower_bound,
    certified_margin_lower_bound,
    margin_lower_bound,
    model_score_boxes,
    value_coefficients,
    value_maps,
)
from .baseline import baseline_directional_min  # noqa: F401  unused since the baseline arm is batched; benchmark/tracing.py wraps this name
from .certified import certified_directional_min  # noqa: F401  unused since the certified arm is batched; benchmark/tracing.py wraps this name
from .errors import ValidationError, check_int, check_real
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
    included), clipped to valid pixels.  Every pixel of x0 must lie in
    [0, 1], or the clipped box need not meet x0's ball: a ValidationError
    naming the first pixel outside."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 1:
        raise ValidationError(f"clean input must be a flat vector, got shape {x0.shape}")
    outside = np.flatnonzero(~((x0 >= 0.0) & (x0 <= 1.0)))
    if outside.size:
        i = outside[0]
        raise ValidationError(f"clean input pixels must lie in [0, 1], got x0[{i}] = {float(x0[i])!r}")
    epsilon = check_real("epsilon", epsilon)
    if not epsilon >= 0.0:
        raise ValidationError(f"epsilon must be nonnegative, got {epsilon}")
    return PixelBox(lo=np.clip(x0 - epsilon, 0.0, 1.0), hi=np.clip(x0 + epsilon, 0.0, 1.0))


def certify_targets(
    model: AttentionModelSpec,
    box: PixelBox,
    y: int,
    certified: bool = False,
) -> CertificationResult:
    """Hybrid margin bounds for all targets t != y, in ascending target order.

    l_hybrid is l_vertex in both modes; l_baseline is reported beside it
    and enters no certificate.  certified is a bool (np.bool_ included).
    With certified=True the vertex arm runs through the certified sweep;
    saturation raises CertificationInfeasibleError.
    """
    if not isinstance(certified, (bool, np.bool_)):
        raise ValidationError(f"certified must be a bool, got {certified!r}")
    certified = bool(certified)
    y = check_int("y", y, 0)
    if y >= model.n_classes:
        raise ValidationError(f"class index y={y} out of range for {model.n_classes} classes")
    if box.size != model.image_size:
        raise ValidationError(f"pixel box length {box.size} does not match image size {model.image_size}")

    targets = [t for t in range(model.n_classes) if t != y]
    # Each stage up to the rows ends in a finite check (the score boxes, the
    # value bounds, the pre-activation box, the coefficients), so an
    # overflow on the way is reported there, once, as a ValidationError.
    with np.errstate(over="ignore", invalid="ignore"):
        scores = model_score_boxes(model, box)
        if isinstance(model.suffix, MlpSuffix):
            maps = value_maps(*relu_suffix_bound(model, interval_forward(model, box, scores), y, targets), model)
        else:
            # The linear head's maps depend on the label alone: built on its
            # first certification and kept on the model.
            maps = model._label_maps.get(y)
            if maps is None:
                maps = model._label_maps[y] = value_maps(*linear_suffix_bound(model, y, targets), model)
        c, b_prime = value_coefficients(maps, model, box)

    vertex = (certified_margin_lower_bound if certified else margin_lower_bound)(c, b_prime, scores).tolist()
    baseline = baseline_margin_lower_bound(c, b_prime, scores).tolist()
    bounds = [
        MarginBound(target=t, l_vertex=lv, l_baseline=lb, l_hybrid=lv)
        for t, lv, lb in zip(targets, vertex, baseline)
    ]
    return CertificationResult(y=y, bounds=bounds, certified=all(b.l_hybrid > 0.0 for b in bounds))
