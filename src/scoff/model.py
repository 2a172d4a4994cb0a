"""Trainable models sharing one sequence interface.

Both models expose encode / init_state / step / step_block / readout /
parameters, so the training loop and evaluators cannot tell them apart; a
model carries no tag naming its kind, and a caller that must know it reads
``TrainConfig.model``, the setting that chose it. They share the encoder,
the readout head and the parameter naming, and differ only in the recurrent
core: the scoff layer, or for the baseline a single monolithic GRU cell over
mean-pooled features. The baseline's state is one row, its own pool, so its
head draws no pooling query.

``init_state``, ``encode`` and ``readout`` work on blocks of rows, as the
codec does. ``init_state(n)`` stacks the zero states of n sequences
(``[n·n_f, d_h]`` for scoff, ``[n, width]`` for the baseline), the one state
a pass over a block starts from. ``encode`` returns the feature rows of its
n inputs, r rows per input, after ``_step_rows`` (where the baseline
mean-pools each input's rows, for the whole block in one op), so every input
known before a pass is encoded at once; ``readout(rows, n)`` takes the
stacked rows of n states, so every scored state is read out at once. The n
inputs are the steps of one sequence in a loss pass, whose
``training.run_steps`` cuts the rows into one Tensor per step, and the
sequences of a block at one time step in ``training.eval_rollout``. Only the
step runs once per time step: ``step`` for one sequence, ``step_block`` for
a block of sequences in lockstep.

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
from .tasks import FRAME_TASKS, GRID, TOKEN_FEATURES


class SequenceModel:
    """Encoder, recurrent core and readout head, built in that order from one
    rng. Subclasses build the core in ``_build_core`` and name its parameters
    in ``_core_parameters``."""

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

    def encode(self, xs) -> Tensor:
        """The [n·r, d] feature rows of the n inputs of xs (leading axis), the r
        rows of each input in turn."""
        xs = np.asarray(xs, dtype=np.float64)
        enc = self.encoder
        rows = enc.encode_frame(xs) if self.task in FRAME_TASKS else enc.encode_token(xs)
        return self._step_rows(rows, len(xs))

    def _step_rows(self, rows: Tensor, n: int) -> Tensor:
        """The rows the core's n steps take: the [n·P, d_a] feature rows."""
        return rows

    def readout(self, rows: Tensor, n: int) -> Tensor:
        """The outputs of the n states whose rows are stacked in rows, with a
        leading axis over them."""
        return self.head.readout(rows, n)

    def parameters(self) -> dict:
        return {**self.encoder.params(), **self._core_parameters(), **self.head.params()}


class ScoffModel(SequenceModel):
    def __init__(self, task: str, scoff_cfg: ScoffConfig, codec_cfg: CodecConfig,
                 rng: Rng):
        self.config = scoff_cfg
        super().__init__(task, scoff_cfg.d_h, codec_cfg, rng)

    def _build_core(self, rng: Rng) -> None:
        self.layer = ScoffLayer(self.config, rng)

    def _core_parameters(self) -> dict:
        return {f"layer.{name}": t for name, t in self.layer.parameters().items()}

    def init_state(self, n: int = 1) -> Tensor:
        return self.layer.init_state(n)

    def step(self, features: Tensor, state: Tensor, rng: "Rng | None" = None):
        return self.layer.step(features, state, rng)

    def step_block(self, features: Tensor, state: Tensor, n: int) -> Tensor:
        """One greedy step of n sequences in lockstep: features and state hold
        the stacked rows of the n sequences' step inputs and states, and the
        result the rows of their next states.

        The rows are cut per sequence and each takes its own ``step``, because
        a sequence's slots attend only within it. The benchmark's tracer also
        pins n_s ``gru_step`` calls and n_f·n_s schema hypotheses per ``step``
        call; the loop can go once those pins count work rather than calls
        and the layer gains a batch axis (ROADMAP items 2 and 4).
        """
        return nm.concat([self.step(f, s)[0] for f, s in
                          zip(nm.split_rows(features, n), nm.split_rows(state, n))])


class GruBaseline(SequenceModel):
    pooled_state = False

    def __init__(self, task: str, width: int, codec_cfg: CodecConfig, rng: Rng):
        self.width = width
        super().__init__(task, width, codec_cfg, rng)

    def _build_core(self, rng: Rng) -> None:
        self.cell = init_schema(rng, self.encoder.cfg.d_a, self.width)

    def _core_parameters(self) -> dict:
        return self.cell.named("cell.")

    def init_state(self, n: int = 1) -> Tensor:
        return record(np.zeros((n, self.width)), (), None)

    def _step_rows(self, rows: Tensor, n: int) -> Tensor:
        """[n, d_a]: the mean of each input's P feature rows, for all n inputs."""
        return nm.reshape(rows, (n, -1, rows.shape[1])).mean(axis=1)

    def step(self, features: Tensor, state: Tensor, rng: "Rng | None" = None):
        """One GRU update of each pooled feature row and its state row."""
        return gru_step(features, state, self.cell), None

    def step_block(self, features: Tensor, state: Tensor, n: int) -> Tensor:
        """One step of n sequences in lockstep, one row each: a single
        ``step``, so one GRU cell call over the n rows."""
        return self.step(features, state)[0]
