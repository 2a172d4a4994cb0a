"""Input encoders and output readouts around the recurrent layer.

Frames are 16x16 grayscale rasters cut into square patches; each patch runs
through a shared two-layer perceptron and gets a learned position embedding
appended, giving one feature row per position. Scalar-task tokens take the
same perceptron route as a single position. Readout transforms every slot row
with one shared perceptron, pools the rows with a learned attention query
(so slot order cannot matter), and projects the pooled vector to the task
output.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor
from .rng import Rng


@dataclass
class CodecConfig:
    patch: int = 4
    d_c: int = 16
    d_pos: int = 8
    enc_hidden: int = 32
    dec_hidden: int = 64
    readout_hidden: int = 32
    readout_width: int = 32

    def __post_init__(self):
        for name in ("patch", "d_c", "d_pos", "enc_hidden", "dec_hidden",
                     "readout_hidden", "readout_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def d_a(self) -> int:
        return self.d_c + self.d_pos


class Perceptron:
    """Row-wise tanh(x·w1 + b1)·w2 + b2, its parameters named by ``prefix``."""

    def __init__(self, rng: Rng, n_in: int, n_hidden: int, n_out: int, prefix: str):
        self.prefix = prefix
        self.w1 = nm.glorot(rng, n_in, n_hidden)
        self.b1 = nm.zeros(n_hidden, requires_grad=True)
        self.w2 = nm.glorot(rng, n_hidden, n_out)
        self.b2 = nm.zeros(n_out, requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        """One fused tape op over the rows of x [n, n_in]."""
        xd = x.data
        if xd.ndim != 2 or xd.shape[1] != self.w1.shape[0]:
            raise ValueError(f"perceptron {self.prefix!r} takes [n, {self.w1.shape[0]}] "
                             f"rows, got {x.shape}")
        hid = np.tanh(xd @ self.w1.data + self.b1.data)

        def back(g):
            # each parent's contributions in the order of the chain's reverse scan
            nm.accum(self.b2, g.sum(axis=0))
            nm.accum_xtg(self.w2, hid, g)
            g_a = (g @ self.w2.data.T) * (1.0 - hid * hid)
            nm.accum(self.b1, g_a.sum(axis=0))
            if x.requires_grad:
                nm.accum(x, g_a @ self.w1.data.T)
            nm.accum_xtg(self.w1, xd, g_a)

        return nm.record(hid @ self.w2.data + self.b2.data,
                         (x, self.w1, self.b1, self.w2, self.b2), back)

    def params(self) -> dict:
        p = self.prefix
        return {p + "w1": self.w1, p + "b1": self.b1, p + "w2": self.w2, p + "b2": self.b2}


class EncoderBase:
    """Shared two-layer input perceptron plus one learned embedding per position."""

    def __init__(self, rng: Rng, n_in: int, positions: int, cfg: CodecConfig):
        self.cfg = cfg
        self.positions = positions
        self.mlp = Perceptron(rng, n_in, cfg.enc_hidden, cfg.d_c, "enc_")
        self.pos_table = nm.glorot(rng, positions, cfg.d_pos)

    @property
    def d_a(self) -> int:
        return self.cfg.d_a

    def _encode_rows(self, x: Tensor) -> Tensor:
        """[positions, d_a]: each input row's encoding with its position embedding."""
        return nm.concat([self.mlp(x), self.pos_table], axis=1)

    def params(self) -> dict:
        return {**self.mlp.params(), "enc_pos": self.pos_table}


class PositionEncoder(EncoderBase):
    """Frames cut into square patches, one position per patch."""

    def __init__(self, rng: Rng, height: int, width: int, cfg: CodecConfig):
        if height % cfg.patch or width % cfg.patch:
            raise ValueError(
                f"frame {height}x{width} not divisible by patch size {cfg.patch}")
        self.height = height
        self.width = width
        s = cfg.patch
        self.grid = (height // s, width // s)
        super().__init__(rng, s * s, self.grid[0] * self.grid[1], cfg)

    def patch_rows(self, frame: np.ndarray) -> np.ndarray:
        s = self.cfg.patch
        gh, gw = self.grid
        return (np.asarray(frame, dtype=np.float64)
                .reshape(gh, s, gw, s)
                .transpose(0, 2, 1, 3)
                .reshape(self.positions, s * s))

    def encode_frame(self, frame: np.ndarray) -> Tensor:
        """[P, d_a] rows, each patch encoding with its position embedding."""
        frame = np.asarray(frame, dtype=np.float64)
        if frame.shape != (self.height, self.width):
            raise ValueError(f"expected {self.height}x{self.width} frame, got {frame.shape}")
        if frame.min() < 0.0 or frame.max() > 1.0:
            raise ValueError("frame values must lie in [0, 1]")
        return self._encode_rows(nm.record(self.patch_rows(frame), (), None))


class TokenEncoder(EncoderBase):
    """Lifts one input token to a single feature row (P = 1)."""

    def __init__(self, rng: Rng, n_features: int, cfg: CodecConfig):
        self.n_features = n_features
        super().__init__(rng, n_features, 1, cfg)

    def encode_token(self, token: np.ndarray) -> Tensor:
        token = np.asarray(token, dtype=np.float64)
        if token.shape != (self.n_features,):
            raise ValueError(f"expected {self.n_features}-feature token, got {token.shape}")
        return self._encode_rows(Tensor(token.reshape(1, self.n_features)))


class ReadoutBase:
    """Shared slot transform and attention pooling over slot rows.

    ``pool_q``, the pooling query, does nothing for a one-row state (the GRU
    baseline, or a single slot), which is its own pool; it stays a parameter
    so that the parameters and init draws do not depend on the row count.
    """

    def __init__(self, rng: Rng, d_h: int, cfg: CodecConfig):
        self.cfg = cfg
        self.mlp = Perceptron(rng, d_h, cfg.readout_hidden, cfg.readout_width, "ro_")
        self.pool_q = nm.glorot(rng, cfg.readout_width, 1)

    def pooled(self, state: Tensor) -> Tensor:
        """[1, readout_width]: transform rows, pool with the learned query
        (softmax over rows); the pooling is one fused tape op. One row is
        returned as it is: its softmax weight is exactly 1."""
        rows = self.mlp(state)
        if rows.shape[0] == 1:
            return rows
        rd, qd = rows.data, self.pool_q.data
        w = nm.stable_softmax(rd @ qd, 0)

        def back(g):
            nm.accum(rows, w @ g)
            g_s = (g @ rd.T).T
            g_s = w * (g_s - (g_s * w).sum(axis=0, keepdims=True))
            nm.accum(rows, g_s @ qd.T)
            nm.accum_xtg(self.pool_q, rd, g_s)

        return nm.record(w.T @ rd, (rows, self.pool_q), back)

    def params(self) -> dict:
        return {**self.mlp.params(), "ro_pool": self.pool_q}


class FrameReadout(ReadoutBase):
    """Per-pixel logit map from a position-wise perceptron over the pooled
    vector concatenated with the encoder's position embeddings.

    The hidden layer is what lets the logits couple state content with
    position; a plain linear projection of the concatenation would decompose
    into (state term) + (position term) and could never draw content at a
    state-dependent location.
    """

    def __init__(self, rng: Rng, d_h: int, cfg: CodecConfig, encoder: PositionEncoder):
        super().__init__(rng, d_h, cfg)
        self.encoder = encoder
        self.decoder = Perceptron(rng, cfg.readout_width + cfg.d_pos, cfg.dec_hidden,
                                  cfg.patch * cfg.patch, "ro_dec_")
        self._ones = np.ones((encoder.positions, 1))

    def readout(self, state: Tensor) -> Tensor:
        """[H, W] logits."""
        patches = self.decoder(self._decoder_input(self.pooled(state)))
        return self._unpatch(patches)

    def _decoder_input(self, pooled: Tensor) -> Tensor:
        """[P, readout_width + d_pos]: the pooled vector at every position
        beside that position's embedding, as one fused tape op."""
        pos = self.encoder.pos_table
        width = pooled.shape[1]

        def back(g):
            nm.accum(pos, g[:, width:])
            # the ones-matrix product, not a sum over rows: the same bits as the
            # matmul that broadcasts pooled in the forward pass
            nm.accum(pooled, self._ones.T @ g[:, :width])

        out = np.concatenate([self._ones @ pooled.data, pos.data], axis=1)
        return nm.record(out, (pooled, pos), back)

    def _unpatch(self, patches: Tensor) -> Tensor:
        """[P, s·s] patch rows laid back out as the [H, W] frame, as one fused
        tape op."""
        gh, gw = self.encoder.grid
        s = self.cfg.patch
        shape = patches.shape

        def back(g):
            nm.accum(patches, g.reshape(gh, s, gw, s).transpose(0, 2, 1, 3).reshape(shape))

        img = patches.data.reshape(gh, gw, s, s).transpose(0, 2, 1, 3)
        return nm.record(img.reshape(self.encoder.height, self.encoder.width),
                         (patches,), back)

    def params(self) -> dict:
        return {**super().params(), **self.decoder.params()}


class ScalarReadout(ReadoutBase):
    """Single regression output from the pooled vector."""

    def __init__(self, rng: Rng, d_h: int, cfg: CodecConfig):
        super().__init__(rng, d_h, cfg)
        self.w_out = nm.glorot(rng, cfg.readout_width, 1)
        self.b_out = nm.zeros(1, requires_grad=True)

    def readout(self, state: Tensor) -> Tensor:
        pooled = self.pooled(state)
        return nm.reshape(nm.matmul(pooled, self.w_out) + self.b_out, ())

    def params(self) -> dict:
        out = super().params()
        out["ro_out_w"] = self.w_out
        out["ro_out_b"] = self.b_out
        return out
