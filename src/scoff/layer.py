"""The factorized recurrent layer: slots compete for input positions, each
active slot picks one schema from the shared bank to run its update, and the
slots then exchange information through soft attention, all within one step.

State is a plain [n_f, d_h] Tensor, one row per slot.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .attention import AttentionProjections, attend, topk_mask
from .numerics import Tensor
from .recurrent import gru_step, init_schema
from .rng import Rng


@dataclass
class ScoffConfig:
    """Layer geometry and selection behavior.

    Both attention steps take values d_h wide: the input read ``z`` [n_f, d_h]
    is every schema cell's input, and the communication result is added onto
    the state. Both drop weights at the fixed rate ``ScoffLayer.DROPOUT``
    when stepped with an rng. The input, selection and communication queries
    and keys are all ``key_width`` wide. The input width is the layer's
    ``d_in``, which a model takes from its encoder.
    """

    n_f: int = 6
    n_s: int = 4
    d_h: int = 32
    inp_heads: int = 1
    comm_heads: int = 2
    key_width: int = 16
    n_sel: int = 0  # slots updated per step; 0: all of them
    hard_selection: bool = True

    def __post_init__(self):
        for name in ("n_f", "n_s", "d_h", "inp_heads", "comm_heads", "key_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.n_sel <= self.n_f:
            raise ValueError(f"n_sel must lie in [0, {self.n_f}], got {self.n_sel}")
        for name in ("inp_heads", "comm_heads"):
            if self.d_h % getattr(self, name):
                raise ValueError(f"d_h must divide evenly across {name}")


@dataclass
class StepTrace:
    """Per-step record of what the layer attended to and selected."""

    input_weights: np.ndarray   # [n_f, P], head-mean, columns sum to 1 over slots
    active: np.ndarray          # bool [n_f]
    schema: np.ndarray          # int [n_f], -1 for inactive slots
    comm_weights: np.ndarray    # [n_f, n_f], head-mean, rows sum to 1 over sources

    def to_record(self, t: int) -> dict:
        return {"t": t, **{k: np.asarray(v).tolist() for k, v in vars(self).items()}}


class ScoffLayer:
    """Drop-in recurrent layer over position-encoded feature rows d_in wide."""

    DROPOUT = 0.1  # attention-weight dropout of input reads and communication

    def __init__(self, config: ScoffConfig, d_in: int, rng: Rng):
        self.config = config
        c = config
        self.input_proj = AttentionProjections(rng, c.d_h, d_in, c.inp_heads, c.key_width)
        self.sel_query = nm.glorot(rng, c.d_h, c.key_width)
        self.sel_key = nm.glorot(rng, c.d_h, c.key_width)
        self.comm_proj = AttentionProjections(rng, c.d_h, c.d_h, c.comm_heads, c.key_width)
        self.bank = [init_schema(rng, c.d_h, c.d_h) for _ in range(c.n_s)]
        self._zero_noise = nm.zeros((c.n_f, c.n_s))
        self._eye = np.eye(c.n_s)  # row j: the one-hot pick of schema j
        self._slots = np.arange(c.n_f)

    def init_state(self, n: int = 1) -> Tensor:
        """The zero rows of n sequences' states, [n·n_f, d_h]."""
        return nm.record(np.zeros((n * self.config.n_f, self.config.d_h)), (), None)

    # ---- step 2: competition over input positions ----------------------

    def input_read(self, features: Tensor, state: Tensor, rng: "Rng | None" = None):
        """Per-slot reads: softmax over slots splits each position's mass.

        Returns (z [n_f, d_h], head-mean weights [n_f, P]).
        """
        return _heads(self.input_proj, state, features, "queriers", rng)

    # ---- step 3: schema selection and update ----------------------------

    def schema_select_update(self, z: Tensor, state: Tensor,
                             rng: "Rng | None" = None,
                             noise: "Tensor | None" = None):
        """Hypothetical updates under every schema, then per-slot selection,
        with the scoring, the Gumbel pick and the mix as one fused tape op.

        Selection scores are the raw query-key dots plus Gumbel noise, with
        no scale factor. Hard mode forwards the one-hot winner and routes the
        gradient through the softened scores; soft mode mixes hypotheticals.
        The noise is ``noise``, else drawn from ``rng``, else zero (greedy).
        Returns (new rows [n_f, d_h], indices [n_f]).
        """
        c = self.config
        hyps = [gru_step(z, state, theta) for theta in self.bank]
        if noise is None:
            noise = self._zero_noise if rng is None else nm.sample_gumbel(rng, (c.n_f, c.n_s))
        return self._select(hyps, state, noise)

    def _select(self, hyps: list, state: Tensor, noise: Tensor):
        """(new rows [n_f, d_h], indices [n_f]): the raw dots of each slot's
        query with the keys of its hypotheses ``hyps``, the Gumbel pick and the
        selection-weighted sum of the hypotheses, as one fused tape op. The
        pick is the argmax of the scores, ties to the lowest schema. Hard mode
        forwards each slot's picked row by a gather, the one-hot mix without
        its products by zero; only its backward pass builds the one-hot and
        computes softmax(scores)."""
        n_f, d_h = state.shape
        n_s, hard = len(hyps), self.config.hard_selection
        sel_query, sel_key = self.sel_query, self.sel_key
        hstack = np.concatenate([h.data for h in hyps], axis=1).reshape(n_f, n_s, d_h)
        flat = hstack.reshape(n_f * n_s, d_h)
        keys = flat.dot(sel_key.data).reshape(n_f, n_s, -1)
        q = state.data.dot(sel_query.data).reshape(n_f, 1, -1)
        scores = (q * keys).sum(axis=2)
        scores += noise.data
        indices = scores.argmax(axis=-1)
        if hard:
            out = hstack[self._slots, indices]
        else:
            weights = nm.stable_softmax(scores.copy(), -1)
            out = (weights[:, :, None] * hstack).sum(axis=1)

        def back(g):
            # the chain's contributions in its reverse-scan order: the mix,
            # the Gumbel selection, then the scoring. Each hypothesis takes
            # its mix and scoring parts as one sum, in that order
            if hard:
                sel, soft = self._eye[indices], nm.stable_softmax(scores.copy(), -1)
            else:
                sel = soft = weights
            g = g[:, None]
            g_h = g * sel[:, :, None]
            g_s = (g * hstack).sum(axis=2)
            g_s -= (g_s * soft).sum(axis=-1, keepdims=True)
            g_s *= soft
            nm.accum(noise, g_s)
            g_s = g_s[:, :, None]
            g_q = (g_s * keys).sum(axis=1)
            nm.accum(state, g_q.dot(sel_query.data.T))
            nm.accum_xtg(sel_query, state.data, g_q)
            g_k = (g_s * q).reshape(n_f * n_s, -1)
            nm.accum_xtg(sel_key, flat, g_k)
            g_h += g_k.dot(sel_key.data.T).reshape(n_f, n_s, d_h)
            for j, h in enumerate(hyps):
                nm.accum(h, g_h[:, j])

        return nm.record(out, (*hyps, state, sel_query, sel_key, noise), back), indices

    # ---- step 4: communication ------------------------------------------

    def communicate(self, state_prev: Tensor, state_new: Tensor,
                    rng: "Rng | None" = None):
        """Residual exchange into every slot: queries from the pre-update
        state, keys and values from the post-update state, normalized over
        sources.
        """
        update, mean_w = _heads(self.comm_proj, state_prev, state_new, "candidates", rng)
        return state_new + update, mean_w

    # ---- one full step ----------------------------------------------------

    def step(self, features: Tensor, state: Tensor, rng: "Rng | None" = None,
             noise: "Tensor | None" = None):
        """Read, select-and-update the most relevant slots, communicate; an rng
        draws dropout and (unless ``noise`` is given) selection noise."""
        c = self.config
        z, w_in = self.input_read(features, state, rng)
        h_mid, indices = self.schema_select_update(z, state, rng, noise)
        if 0 < c.n_sel < c.n_f:  # the slots with the strongest positional claim
            active = topk_mask(w_in.max(axis=1), c.n_sel)
            mask = active.astype(np.float64)[:, None]
            h_mid = h_mid * nm.record(mask, (), None) + state * nm.record(1.0 - mask, (), None)
            indices = np.where(active, indices, -1)
        else:
            active = np.ones(c.n_f, dtype=bool)
        state_out, w_comm = self.communicate(state, h_mid, rng)
        trace = StepTrace(input_weights=w_in, active=active, schema=indices,
                          comm_weights=w_comm)
        return state_out, trace

    def parameters(self) -> dict:
        out = {**self.input_proj.named("inp_"), "sel_q": self.sel_query,
               "sel_k": self.sel_key, **self.comm_proj.named("comm_")}
        for j, schema in enumerate(self.bank):
            out.update(schema.named(f"schema{j}."))
        return out


def _heads(proj: AttentionProjections, queriers: Tensor, candidates: Tensor,
           normalize_axis: str, rng: "Rng | None"):
    """Every head of ``proj``: queries from ``queriers``, keys and values from
    ``candidates``, dropping at ``ScoffLayer.DROPOUT`` if given an rng.
    Returns (head outputs concatenated, head-mean weights as an ndarray)."""
    heads = [attend(queriers, candidates, *mats, normalize_axis, proj.scale,
                    ScoffLayer.DROPOUT, rng)
             for mats in zip(proj.query, proj.key, proj.value)]
    if len(heads) == 1:
        return heads[0][1], heads[0][0]
    weights, outs = zip(*heads)
    return nm.concat(outs, axis=1), sum(weights) / len(weights)


def write_traces(f, traces: list) -> None:
    """JSON-lines trace stream, one record per timestep of each sequence in
    ``traces`` (one list of step traces per sequence)."""
    for seq, steps in enumerate(traces):
        for t, trace in enumerate(steps):
            f.write(json.dumps({"seq": seq, **trace.to_record(t)}, sort_keys=True) + "\n")


def schema_usage(traces: list, n_s: int) -> np.ndarray:
    """[n_f, n_s] matrix of selection frequencies over a trace stream."""
    schema = np.stack([trace.schema for trace in traces])  # [steps, n_f]
    slot, chosen = np.indices(schema.shape)[1], schema >= 0
    counts = np.zeros((schema.shape[1], n_s))
    np.add.at(counts, (slot[chosen], schema[chosen]), 1.0)
    totals = counts.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    return counts / totals
