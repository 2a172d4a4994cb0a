"""Input encoders and output readouts around the recurrent layer.

Frames are 16x16 grayscale rasters cut into square patches; each patch runs
through a shared two-layer perceptron and gets a learned position embedding
appended, giving one feature row per position. Scalar-task tokens take the
same perceptron route as a single position. Readout transforms every slot row
with one shared perceptron, pools the rows with a learned attention query
(so slot order cannot matter), and projects the pooled vector to the task
output.

Both sides map a block of rows to a block of rows and know nothing of time
steps: an encoder turns n inputs into their n·P feature rows, and a readout
turns the n·R rows of n states into n outputs. The model cuts the feature
rows into steps and joins the states (``model.SequenceModel``); a single step
is the n = 1 call.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor
from .rng import Rng


# the side of the square patches a frame is cut into; it divides the 16x16 frame
PATCH = 4


@dataclass
class CodecConfig:
    d_c: int = 16
    d_pos: int = 8
    enc_hidden: int = 32
    dec_hidden: int = 64
    readout_hidden: int = 32
    readout_width: int = 32

    def __post_init__(self):
        for name in ("d_c", "d_pos", "enc_hidden", "dec_hidden", "readout_hidden",
                     "readout_width"):
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
        hid = xd.dot(self.w1.data)
        hid += self.b1.data
        np.tanh(hid, out=hid)
        out = hid.dot(self.w2.data)
        out += self.b2.data

        def back(g):
            # each parent's contributions in the order of the chain's reverse scan
            nm.accum(self.b2, g.sum(axis=0))
            nm.accum_xtg(self.w2, hid, g)
            g_a = g.dot(self.w2.data.T)
            g_a *= 1.0 - hid * hid
            nm.accum(self.b1, g_a.sum(axis=0))
            if x.requires_grad:
                nm.accum(x, g_a.dot(self.w1.data.T))
            nm.accum_xtg(self.w1, xd, g_a)

        return nm.record(out, (x, self.w1, self.b1, self.w2, self.b2), back)

    def params(self) -> dict:
        p = self.prefix
        return {p + "w1": self.w1, p + "b1": self.b1, p + "w2": self.w2, p + "b2": self.b2}


class EncoderBase:
    """Shared two-layer input perceptron plus one learned embedding per position.

    n inputs are encoded at once: one perceptron over their n·P rows, each
    row then beside its position's embedding, giving [n·P, d_a] feature rows.
    """

    def __init__(self, rng: Rng, n_in: int, positions: int, cfg: CodecConfig):
        self.cfg = cfg
        self.positions = positions
        self.mlp = Perceptron(rng, n_in, cfg.enc_hidden, cfg.d_c, "enc_")
        self.pos_table = nm.glorot(rng, positions, cfg.d_pos)

    def beside_positions(self, left: Tensor) -> Tensor:
        """[n·P, w + d_pos]: each step's P rows of left [n·P, w] beside the
        position table, as one fused tape op."""
        w = left.shape[1]
        steps = left.shape[0] // self.positions

        def back(g):
            nm.accum(left, g[:, :w])
            # the table's tiled copies, summed over the steps
            nm.accum(self.pos_table, g[:, w:].reshape(steps, self.positions, -1).sum(axis=0))

        tiled = np.tile(self.pos_table.data, (steps, 1))
        return nm.record(np.concatenate([left.data, tiled], axis=1),
                         (left, self.pos_table), back)

    def params(self) -> dict:
        return {**self.mlp.params(), "enc_pos": self.pos_table}


class PositionEncoder(EncoderBase):
    """Frames cut into ``PATCH``-square patches, one position per patch."""

    def __init__(self, rng: Rng, height: int, width: int, cfg: CodecConfig):
        self.height = height
        self.width = width
        self.grid = (height // PATCH, width // PATCH)
        super().__init__(rng, PATCH * PATCH, self.grid[0] * self.grid[1], cfg)

    def patch_rows(self, frames: np.ndarray) -> np.ndarray:
        """[n·P, s·s]: the patches of frames [n, H, W], frame by frame."""
        gh, gw = self.grid
        frames = np.asarray(frames, dtype=np.float64)
        return (frames.reshape(-1, gh, PATCH, gw, PATCH)
                .transpose(0, 1, 3, 2, 4)
                .reshape(-1, PATCH * PATCH))

    def frames(self, rows: np.ndarray) -> np.ndarray:
        """[n, H, W]: the frames whose patches are rows [n·P, s·s], the
        inverse of ``patch_rows``."""
        gh, gw = self.grid
        return (rows.reshape(-1, gh, gw, PATCH, PATCH).transpose(0, 1, 3, 2, 4)
                .reshape(-1, self.height, self.width))

    def encode_frame(self, frames: np.ndarray) -> Tensor:
        """[n·P, d_a]: each patch of frames [n, H, W] encoded, beside its
        position's embedding, frame by frame."""
        return self.beside_positions(self.mlp(nm.record(self.patch_rows(frames), (), None)))


class TokenEncoder(EncoderBase):
    """Lifts each input token to a single feature row (P = 1)."""

    def __init__(self, rng: Rng, n_features: int, cfg: CodecConfig):
        super().__init__(rng, n_features, 1, cfg)

    def encode_token(self, tokens: np.ndarray) -> Tensor:
        """[n, d_a]: each token of tokens [n, n_features] encoded, beside the
        one position's embedding."""
        return self.beside_positions(self.mlp(Tensor(tokens)))


class ReadoutBase:
    """Shared slot transform and attention pooling over slot rows.

    A readout takes the [n·R, d_h] rows of n states, R rows each, and reads
    them all out at once: one perceptron over the rows and one pooling op.
    A single state is the n = 1 case.

    ``pool_q``, the pooling query, is drawn only when ``pool`` is set (the
    scoff model, whose states are slot rows). A one-row state, as in the GRU
    baseline, is its own pool: the head then has no ``pool_q`` and takes one
    row per state.
    """

    def __init__(self, rng: Rng, d_h: int, cfg: CodecConfig, pool: bool = True):
        self.cfg = cfg
        self.mlp = Perceptron(rng, d_h, cfg.readout_hidden, cfg.readout_width, "ro_")
        self.pool_q = nm.glorot(rng, cfg.readout_width, 1) if pool else None

    def pooled(self, rows: Tensor, n: int) -> Tensor:
        """[n, readout_width]: the rows of n states through the slot
        perceptron, then each state's rows pooled. One-row states are returned
        as they are: the softmax weight of one row is exactly 1."""
        rows = self.mlp(rows)
        return rows if rows.shape[0] == n else self._pool(rows, n)

    def _pool(self, rows: Tensor, n: int) -> Tensor:
        """[n, readout_width]: each of the n equal blocks of rows pooled with
        the learned query (softmax over the block's rows), as one fused tape
        op."""
        rd, qd = rows.data, self.pool_q.data
        rd3 = rd.reshape(n, -1, rd.shape[1])
        w = nm.stable_softmax(rd3 @ qd, 1)

        def back(g):
            g3 = g[:, None, :]
            nm.accum(rows, (w @ g3).reshape(rd.shape))
            g_s = (g3 @ rd3.transpose(0, 2, 1)).transpose(0, 2, 1)
            g_s = (w * (g_s - (g_s * w).sum(axis=1, keepdims=True))).reshape(-1, 1)
            nm.accum(rows, g_s @ qd.T)
            nm.accum_xtg(self.pool_q, rd, g_s)

        return nm.record((w.transpose(0, 2, 1) @ rd3).reshape(n, -1),
                         (rows, self.pool_q), back)

    def params(self) -> dict:
        out = self.mlp.params()
        if self.pool_q is not None:
            out["ro_pool"] = self.pool_q
        return out


class FrameReadout(ReadoutBase):
    """Per-pixel logit map from a position-wise perceptron over the pooled
    vector concatenated with the encoder's position embeddings.

    The hidden layer is what lets the logits couple state content with
    position; a plain linear projection of the concatenation would decompose
    into (state term) + (position term) and could never draw content at a
    state-dependent location.
    """

    def __init__(self, rng: Rng, d_h: int, cfg: CodecConfig, encoder: PositionEncoder,
                 pool: bool = True):
        super().__init__(rng, d_h, cfg, pool)
        self.encoder = encoder
        self.decoder = Perceptron(rng, cfg.readout_width + cfg.d_pos, cfg.dec_hidden,
                                  PATCH * PATCH, "ro_dec_")

    def readout(self, rows: Tensor, n: int) -> Tensor:
        """[n, H, W] logits, one frame per state of the rows of n states."""
        return self._unpatch(self._decode(self.pooled(rows, n)))

    def _decode(self, pooled: Tensor) -> Tensor:
        """[n·P, s·s] patch rows: the decoder perceptron over each pooled row
        [n, readout_width] beside each position's embedding, as one fused
        tape op.

        The first layer is linear, so it never forms the n·P concatenated
        rows: the pooled half of ``w1`` multiplies each state once and the
        position half each position once, and their sum, [n, 1, h] + [P, h],
        is the pre-activation of the n·P rows.
        """
        dec, pos = self.decoder, self.encoder.pos_table
        n, width = pooled.shape
        pd = pooled.data
        w1_state, w1_pos = dec.w1.data[:width], dec.w1.data[width:]
        by_pos = pos.data.dot(w1_pos)
        by_pos += dec.b1.data
        hid = pd.dot(w1_state)[:, None, :] + by_pos
        np.tanh(hid, out=hid)
        hid = hid.reshape(-1, hid.shape[2])
        out = hid.dot(dec.w2.data)
        out += dec.b2.data

        def back(g):
            nm.accum(dec.b2, g.sum(axis=0))
            nm.accum_xtg(dec.w2, hid, g)
            g_a = g.dot(dec.w2.data.T)
            # 1 − hid² in one temporary, not two: at n·P rows each is large
            # enough that a fresh allocation costs more than the arithmetic
            d_tanh = hid * hid
            np.subtract(1.0, d_tanh, out=d_tanh)
            g_a *= d_tanh
            # each position's rows summed over the states, each state's over
            # the positions: the two halves' pre-activation gradients
            g3 = g_a.reshape(n, -1, g_a.shape[1])
            g_pos = g3.sum(axis=0)
            g_state = g3.sum(axis=1)
            nm.accum(dec.b1, g_pos.sum(axis=0))
            nm.accum(pos, g_pos.dot(w1_pos.T))
            nm.accum(dec.w1, np.concatenate([pd.T.dot(g_state), pos.data.T.dot(g_pos)]))
            if pooled.requires_grad:
                nm.accum(pooled, g_state.dot(w1_state.T))

        return nm.record(out, (pooled, pos, dec.w1, dec.b1, dec.w2, dec.b2), back)

    def _unpatch(self, patches: Tensor) -> Tensor:
        """[n·P, s·s] patch rows laid back out as n [H, W] frames, as one
        fused tape op; the encoder owns the patch layout."""
        def back(g):
            nm.accum(patches, self.encoder.patch_rows(g))

        return nm.record(self.encoder.frames(patches.data), (patches,), back)

    def params(self) -> dict:
        return {**super().params(), **self.decoder.params()}


class ScalarReadout(ReadoutBase):
    """Single regression output from the pooled vector."""

    def __init__(self, rng: Rng, d_h: int, cfg: CodecConfig, pool: bool = True):
        super().__init__(rng, d_h, cfg, pool)
        self.w_out = nm.glorot(rng, cfg.readout_width, 1)
        self.b_out = nm.zeros(1, requires_grad=True)

    def readout(self, rows: Tensor, n: int) -> Tensor:
        """[n] predictions, one per state of the rows of n states."""
        pooled = self.pooled(rows, n)
        return nm.reshape(nm.matmul(pooled, self.w_out) + self.b_out, (n,))

    def params(self) -> dict:
        out = super().params()
        out["ro_out_w"] = self.w_out
        out["ro_out_b"] = self.b_out
        return out
