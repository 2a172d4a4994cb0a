"""Object-file / schema factorized recurrent networks.

Active slots hold per-entity state; a shared bank of GRU parameterizations
(schemata) supplies their updates, selected each step by hard Gumbel
attention. Includes a taped float64 autodiff core, synthetic video and
adding tasks, a training harness with a monolithic GRU baseline, and a CLI.
"""

from .numerics import Tape, Tensor, backward, grad_check, matmul, sample_gumbel
from .rng import Rng
from .attention import attend, topk_mask
from .recurrent import SchemaParams, gru_step, init_schema, recurrent_param_count
from .layer import ScoffConfig, ScoffLayer, StepTrace
from .codec import CodecConfig, FrameReadout, PositionEncoder, ScalarReadout, \
    TokenEncoder
from .model import GruBaseline, ScoffModel
from .training import (Adam, MetricsRecord, TrainConfig, bce_per_frame,
                       eval_rollout, mse_scalar, schema_alignment_purity,
                       train_model)

__all__ = [
    "Tape", "Tensor", "backward", "grad_check", "matmul", "sample_gumbel",
    "Rng", "attend", "topk_mask", "SchemaParams", "gru_step", "init_schema",
    "recurrent_param_count",
    "ScoffConfig", "ScoffLayer", "StepTrace", "CodecConfig", "FrameReadout",
    "PositionEncoder", "ScalarReadout", "TokenEncoder", "GruBaseline",
    "ScoffModel", "Adam", "MetricsRecord", "TrainConfig", "bce_per_frame",
    "eval_rollout", "mse_scalar", "schema_alignment_purity", "train_model",
]

__version__ = "0.1.0"
