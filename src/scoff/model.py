"""Trainable models sharing one sequence interface.

Both models expose encode / init_state / step / readout / parameters, so the
training loop and evaluators cannot tell them apart. They share the encoder,
the readout head and the parameter naming, and differ only in the recurrent
core: the scoff layer, or for the baseline a single monolithic GRU cell over
mean-pooled features. The baseline's state is one row, its own pool, so its
head draws no pooling query.

``encode`` and ``readout`` work on whole time spans: every input known before
a pass is encoded at once, and every scored state read out at once. Only
``step`` runs once per time step. The model owns the time axis, and the codec
maps rows to rows: ``encode`` cuts the feature rows into steps after
``_step_rows`` (where the baseline mean-pools each step's rows, for the whole
span in one op), and ``readout`` joins the states' rows for the head.

The rng is ``step``'s one stochastic-mode switch: with it the step draws
selection noise and dropout masks (training); without it the schema choice
is greedy and dropout is off, the deterministic evaluation mode.
"""

import numpy as np

from . import numerics as nm
from .codec import (CodecConfig, FrameReadout, PositionEncoder, ScalarReadout,
                    TokenEncoder)
from .layer import ScoffConfig, ScoffLayer
from .numerics import Tensor, record
from .recurrent import gru_step, init_schema
from .rng import Rng
from .tasks import FRAME_TASKS, GRID

TOKEN_FEATURES = 3  # value plus the two operand indicator channels


class SequenceModel:
    """Encoder, recurrent core and readout head, built in that order from one
    rng. Subclasses build the core in ``_build_core`` and name its parameters
    in ``_core_parameters``."""

    kind = ""
    # whether a state has several rows for the head to pool (scoff's slots);
    # a one-row state is its own pool, and its head draws no pooling query
    pooled_state = True

    def __init__(self, task: str, width: int, codec_cfg: CodecConfig, rng: Rng):
        self.task = task
        if task in FRAME_TASKS:
            self.encoder = PositionEncoder(rng, GRID, GRID, codec_cfg)
        else:
            self.encoder = TokenEncoder(rng, TOKEN_FEATURES, codec_cfg)
        self._build_core(rng)
        if task in FRAME_TASKS:
            self.head = FrameReadout(rng, width, codec_cfg, self.encoder, self.pooled_state)
        else:
            self.head = ScalarReadout(rng, width, codec_cfg, self.pooled_state)

    def encode(self, xs) -> list:
        """One feature Tensor per input of xs, whose leading axis is time."""
        xs = np.asarray(xs, dtype=np.float64)
        enc = self.encoder
        rows = enc.encode_frame(xs) if self.task in FRAME_TASKS else enc.encode_token(xs)
        return nm.split_rows(self._step_rows(rows, len(xs)), len(xs))

    def _step_rows(self, rows: Tensor, n: int) -> Tensor:
        """The rows the core's n steps take: the [n·P, d_a] feature rows."""
        return rows

    def readout(self, states: list) -> Tensor:
        """The outputs for a list of states, with a leading axis over them."""
        rows = states[0] if len(states) == 1 else nm.concat(states, axis=0)
        return self.head.readout(rows, len(states))

    def parameters(self) -> dict:
        return {**self.encoder.params(), **self._core_parameters(), **self.head.params()}


class ScoffModel(SequenceModel):
    kind = "scoff"

    def __init__(self, task: str, scoff_cfg: ScoffConfig, codec_cfg: CodecConfig,
                 rng: Rng):
        if scoff_cfg.d_in != codec_cfg.d_a:
            raise ValueError(
                f"layer d_in {scoff_cfg.d_in} must equal encoder width {codec_cfg.d_a}")
        self.config = scoff_cfg
        super().__init__(task, scoff_cfg.d_h, codec_cfg, rng)

    def _build_core(self, rng: Rng) -> None:
        self.layer = ScoffLayer(self.config, rng)

    def _core_parameters(self) -> dict:
        return {f"layer.{name}": t for name, t in self.layer.parameters().items()}

    def init_state(self) -> Tensor:
        return self.layer.init_state()

    def step(self, features: Tensor, state: Tensor, rng: "Rng | None" = None):
        return self.layer.step(features, state, rng)


class GruBaseline(SequenceModel):
    kind = "gru"
    pooled_state = False

    def __init__(self, task: str, width: int, codec_cfg: CodecConfig, rng: Rng):
        self.width = width
        super().__init__(task, width, codec_cfg, rng)

    def _build_core(self, rng: Rng) -> None:
        self.cell = init_schema(rng, self.encoder.d_a, self.width)

    def _core_parameters(self) -> dict:
        return self.cell.named("cell.")

    def init_state(self) -> Tensor:
        return record(np.zeros((1, self.width)), (), None)

    def _step_rows(self, rows: Tensor, n: int) -> Tensor:
        """[n, d_a]: the mean of each step's P feature rows, for all n steps."""
        return nm.reshape(rows, (n, -1, rows.shape[1])).mean(axis=1)

    def step(self, features: Tensor, state: Tensor, rng: "Rng | None" = None):
        """One GRU update from the step's one pooled feature row."""
        return gru_step(features, state, self.cell), None
