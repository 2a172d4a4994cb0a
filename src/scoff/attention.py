"""Scaled dot-product key-value attention as the layer uses it: soft
competition among slots for input positions and soft pairwise communication
between slots. The hard Gumbel selection over the schema bank lives in the
layer (``layer.ScoffLayer._select``).
"""

import math

import numpy as np

from . import numerics as nm
from .numerics import Tensor
from .rng import Rng


class AttentionProjections:
    """Per-head query/key/value maps. Queries map from the ``d_h``-wide
    states, keys and values from the ``key_in``-wide candidates; queries and
    keys are ``key_width`` wide, and ``scale`` = 1/sqrt(key_width) scales
    their dots. The values are ``d_h`` wide split across the heads, and head
    outputs are concatenated, with no output mixing matrix. ``ScoffConfig``
    owns the ranges: at least one head, and a ``d_h`` the heads divide
    evenly."""

    def __init__(self, rng: Rng, d_h: int, key_in: int, heads: int, key_width: int):
        self.scale = 1.0 / math.sqrt(key_width)
        self.query = [nm.glorot(rng, d_h, key_width) for _ in range(heads)]
        self.key = [nm.glorot(rng, key_in, key_width) for _ in range(heads)]
        self.value = [nm.glorot(rng, key_in, d_h // heads) for _ in range(heads)]

    def named(self, prefix: str) -> dict:
        """{prefix}q{h}, {prefix}k{h}, {prefix}v{h}, head by head."""
        out = {}
        for h, mats in enumerate(zip(self.query, self.key, self.value)):
            out.update(zip((f"{prefix}q{h}", f"{prefix}k{h}", f"{prefix}v{h}"), mats))
        return out


def attend(queriers: Tensor, candidates: Tensor, w_query: Tensor, w_key: Tensor,
           w_value: Tensor, normalize_axis: str, scale: float, dropout: float = 0.0,
           rng: "Rng | None" = None):
    """One head of scaled dot-product attention, projections included, as one
    fused tape op.

    queries = queriers·w_query, keys = candidates·w_key and values =
    candidates·w_value; scores = queries·keysᵀ·scale, normalized along
    ``normalize_axis`` ("queriers" shares each candidate's mass across
    queriers, "candidates" makes each output row a convex combination of value
    rows). Returns the pre-dropout weights (rows are queriers, columns
    candidates) as an ndarray, and the aggregated outputs. Dropout runs if and
    only if an rng is given: it zeroes weights at rate ``dropout`` and
    rescales survivors. Values and gradients are bit-identical to the three
    projection matmuls followed by the head's chain of elementary ops (see the
    numerics module docstring).
    """
    xq, xc = queriers.data, candidates.data
    axis = 0 if normalize_axis == "queriers" else 1
    qd = xq.dot(w_query.data)
    kd = xc.dot(w_key.data)
    vd = xc.dot(w_value.data)
    weights = qd.dot(kd.T)
    weights *= scale
    nm.stable_softmax(weights, axis)
    used, mask = weights, None
    if rng is not None and dropout > 0.0:
        keep = np.asarray(rng.uniform(weights.shape)) >= dropout
        mask = keep / (1.0 - dropout)
        used = weights * mask

    def back(g):
        # each parent's contributions in the order of the chain's reverse
        # scan: the head, then the value, key and query matmuls
        g_s = g.dot(vd.T)
        g_v = used.T.dot(g)
        if mask is not None:
            g_s *= mask
        g_s -= (g_s * weights).sum(axis=axis, keepdims=True)
        g_s *= weights
        g_s *= scale
        g_q = g_s.dot(kd)
        g_k = qd.T.dot(g_s).T
        for w, g_x in ((w_value, g_v), (w_key, g_k)):
            if candidates.requires_grad:
                nm.accum(candidates, g_x.dot(w.data.T))
            nm.accum_xtg(w, xc, g_x)
        if queriers.requires_grad:
            nm.accum(queriers, g_q.dot(w_query.data.T))
        nm.accum_xtg(w_query, xq, g_q)

    return weights, nm.record(used.dot(vd), (queriers, candidates, w_query, w_key, w_value),
                              back)


def topk_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask marking the k largest entries of the vector ``scores``,
    ties to the lowest index."""
    order = np.argsort(-scores, kind="stable")
    mask = np.zeros(scores.size, dtype=bool)
    mask[order[:k]] = True
    return mask
