"""Exact directional softmax bounds over score boxes, a certified
floating-point evaluation path, an interval-softmax baseline, and a sound
verifier for small single-block attention classifiers."""

from .attention import PixelBox
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
    "ScoreBox",
    "SweepConfig",
    "ThresholdResult",
    "TrialRecord",
    "ValidationError",
    "attack_min_margin",
    "attack_min_objective",
    "baseline_directional_min",
    "certified_directional_min",
    "certify_targets",
    "directional_max",
    "directional_min",
    "exhaustive_vertex_min",
    "forward",
    "forward_batch",
    "load_model",
    "pixel_box",
    "random_model",
    "run_sweep",
    "save_model",
    "selfcheck",
    "softmax_objective",
    "synth_instance",
]
