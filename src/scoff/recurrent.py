"""GRU cell whose parameters arrive per call, the parameter block it takes,
and the recurrent parameter accounting.

A schema is exactly one :class:`SchemaParams`: the cell itself holds no
weights, which is what lets any slot borrow any schema.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor
from .rng import Rng


@dataclass
class SchemaParams:
    """One complete GRU parameterization, its gates stacked column-wise in
    the order reset, update, candidate.

    ``w`` [d_in, 3·d_h] holds the input weights of all three gates, ``u_ru``
    [d_h, 2·d_h] the recurrent weights of the reset and update gates, ``u_c``
    [d_h, d_h] the candidate's recurrent weights and ``b`` [3·d_h] the biases.
    ``u_c`` stays apart because it multiplies r ⊙ h rather than h. A step is
    then three matrix products and one sigmoid, and each weight takes one
    product per step, forward and backward.
    """

    w: Tensor
    u_ru: Tensor
    u_c: Tensor
    b: Tensor

    _FIELDS = ("w", "u_ru", "u_c", "b")

    def named(self, prefix: str) -> dict:
        return {prefix + name: getattr(self, name) for name in self._FIELDS}


def gru_step(z: Tensor, h: Tensor, theta: SchemaParams) -> Tensor:
    """One GRU update of the rows z [n, d_in], h [n, d_h] with externally
    supplied parameters, as one fused tape op.

    a = z·w + b                         (all three gates' input terms)
    [r, u] = σ(a[:, :2·d_h] + h·u_ru)   (one sigmoid over both gates)
    c = tanh(a[:, 2·d_h:] + (r ⊙ h)·u_c)
    h' = (1 - u) ⊙ h + u ⊙ c

    The update is applied row by row, so which slot invokes it cannot matter.
    The backward pass forms the [n, 3·d_h] gradient of the pre-activations
    once, so z and h each take one contribution, each weight one product and
    the bias one sum. Values and gradients are bit-identical to the same chain
    of elementary ops with column slices, h entering it through one node (see
    the numerics module docstring).
    """
    zd, hd = z.data, h.data
    d_h = theta.u_c.data.shape[0]
    # every in-place write goes into an array allocated just above it
    a = zd.dot(theta.w.data)
    a += theta.b.data
    ru = a[:, :2 * d_h] + hd.dot(theta.u_ru.data)
    ru *= 0.5  # nm.stable_sigmoid, in place
    np.tanh(ru, out=ru)
    ru *= 0.5
    ru += 0.5
    r, u = ru[:, :d_h], ru[:, d_h:]
    rh = r * hd
    c = a[:, 2 * d_h:] + rh.dot(theta.u_c.data)
    np.tanh(c, out=c)
    keep = 1.0 - u
    out = keep * hd
    out += u * c

    def back(g):
        # g_c, g_ru and g_a are gradients of the gates' pre-activations; each
        # expression is the one the chain's reverse scan evaluates
        g_c = g * u
        g_c *= 1.0 - c * c
        g_rh = g_c.dot(theta.u_c.data.T)
        nm.accum_xtg(theta.u_c, rh, g_c)
        g_ru = np.concatenate((g_rh * hd, g * c - g * hd), axis=1)
        g_ru *= ru
        g_ru *= 1.0 - ru
        nm.accum_xtg(theta.u_ru, hd, g_ru)
        g_a = np.concatenate((g_ru, g_c), axis=1)
        nm.accum(theta.b, g_a.sum(axis=0))
        if z.requires_grad:
            nm.accum(z, g_a.dot(theta.w.data.T))
        nm.accum_xtg(theta.w, zd, g_a)
        if h.requires_grad:
            g_h = g * keep
            g_h += g_rh * r
            g_h += g_ru.dot(theta.u_ru.data.T)
            nm.accum(h, g_h)

    return nm.record(out, (z, h, theta.w, theta.u_ru, theta.u_c, theta.b), back)


def init_schema(rng: Rng, d_in: int, d_h: int) -> SchemaParams:
    """Glorot-uniform matrices drawn gate by gate (input weights of the
    reset, update and candidate gates, then their recurrent weights) and
    stacked; zero biases. ``ScoffConfig`` owns the widths' ranges
    (``CodecConfig`` the baseline cell's input width, ``d_a``)."""
    w = [nm.glorot(rng, d_in, d_h).data for _ in range(3)]
    u = [nm.glorot(rng, d_h, d_h).data for _ in range(3)]
    return SchemaParams(
        w=Tensor(np.concatenate(w, axis=1), requires_grad=True),
        u_ru=Tensor(np.concatenate(u[:2], axis=1), requires_grad=True),
        u_c=Tensor(u[2], requires_grad=True),
        b=nm.zeros(3 * d_h, requires_grad=True),
    )


def recurrent_param_count(n_f: int, n_s: int, d_h: int, d_in: int) -> tuple:
    """(bank count, monolithic count) for equal total hidden size.

    The bank holds n_s cells of width d_h; the monolithic reference is a
    single cell of width D = n_f * d_h fed the same input width d_in. That
    cell is the formula's reference, not the trained ``GruBaseline``, whose
    cell takes the encoder row (``CodecConfig.d_a`` wide) as its input. At
    ``configs/bouncing_paper.cfg`` (n_f = n_s = 4, d_h = d_in = 100) the
    counts are 241,200 and 601,200; the baseline cell there has 510,000.
    """
    bank = n_s * 3 * (d_in * d_h + d_h * d_h + d_h)
    big = n_f * d_h
    monolithic = 3 * (d_in * big + big * big + big)
    return bank, monolithic
