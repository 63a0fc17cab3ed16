"""Exact directional softmax bounds over score boxes, a certified
floating-point evaluation path, an interval-softmax baseline, and a sound
verifier for small single-block attention classifiers."""

from .attention import (
    PixelBox,
    ValueCoeffs,
    baseline_margin_lower_bound,
    margin_lower_bound,
    model_score_boxes,
    qk_scalar_bounds,
    score_boxes_interval_product,
    value_coefficients,
    value_scalar_bounds,
)
from .baseline import baseline_directional_min
from .certified import CertifiedBound, certified_directional_min
from .errors import CertificationInfeasibleError, ValidationError
from .harness import (
    SweepConfig,
    TrialRecord,
    attack_min_margin,
    attack_min_objective,
    run_sweep,
    selfcheck,
    synth_instance,
)
from .model import (
    AttentionModelSpec,
    LinearSuffix,
    MlpSuffix,
    forward,
    forward_batch,
    forward_trace,
    load_model,
    random_model,
    save_model,
)
from .solver import (
    ScoreBox,
    ThresholdResult,
    directional_max,
    directional_min,
    exhaustive_vertex_min,
    softmax_objective,
)
from .suffix import (
    PreActBox,
    SuffixAffineBound,
    block_output_bounds,
    interval_forward,
    linear_suffix_bound,
    relu_suffix_bound,
)
from .verify import CertificationResult, MarginBound, certify_targets, pixel_box

__version__ = "0.1.0"

__all__ = [
    "AttentionModelSpec",
    "CertificationInfeasibleError",
    "CertificationResult",
    "CertifiedBound",
    "LinearSuffix",
    "MarginBound",
    "MlpSuffix",
    "PixelBox",
    "PreActBox",
    "ScoreBox",
    "SuffixAffineBound",
    "SweepConfig",
    "ThresholdResult",
    "TrialRecord",
    "ValidationError",
    "ValueCoeffs",
    "attack_min_margin",
    "attack_min_objective",
    "baseline_directional_min",
    "baseline_margin_lower_bound",
    "block_output_bounds",
    "certified_directional_min",
    "certify_targets",
    "directional_max",
    "directional_min",
    "exhaustive_vertex_min",
    "forward",
    "forward_batch",
    "forward_trace",
    "interval_forward",
    "linear_suffix_bound",
    "load_model",
    "margin_lower_bound",
    "model_score_boxes",
    "pixel_box",
    "qk_scalar_bounds",
    "random_model",
    "relu_suffix_bound",
    "run_sweep",
    "save_model",
    "score_boxes_interval_product",
    "selfcheck",
    "softmax_objective",
    "synth_instance",
    "value_coefficients",
    "value_scalar_bounds",
]
