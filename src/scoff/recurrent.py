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
    """One complete GRU parameterization.

    w_* are input-to-hidden [d_in, d_h], u_* hidden-to-hidden [d_h, d_h],
    b_* biases [d_h], for the reset / update / candidate gates.
    """

    w_r: Tensor
    w_u: Tensor
    w_c: Tensor
    u_r: Tensor
    u_u: Tensor
    u_c: Tensor
    b_r: Tensor
    b_u: Tensor
    b_c: Tensor

    def __post_init__(self):
        d_in, d_h = self.w_r.shape
        for name in ("w_r", "w_u", "w_c"):
            if getattr(self, name).shape != (d_in, d_h):
                raise ValueError(f"{name} must be [{d_in}, {d_h}]")
        for name in ("u_r", "u_u", "u_c"):
            if getattr(self, name).shape != (d_h, d_h):
                raise ValueError(f"{name} must be [{d_h}, {d_h}]")
        for name in ("b_r", "b_u", "b_c"):
            if getattr(self, name).shape != (d_h,):
                raise ValueError(f"{name} must be [{d_h}]")

    @property
    def d_in(self) -> int:
        return self.w_r.shape[0]

    @property
    def d_h(self) -> int:
        return self.w_r.shape[1]

    _FIELDS = ("w_r", "w_u", "w_c", "u_r", "u_u", "u_c", "b_r", "b_u", "b_c")

    def params(self) -> list:
        return [getattr(self, name) for name in self._FIELDS]

    def named(self, prefix: str) -> dict:
        return {prefix + name: getattr(self, name) for name in self._FIELDS}


def gru_step(z: Tensor, h: Tensor, theta: SchemaParams) -> Tensor:
    """One GRU update of the rows z [n, d_in], h [n, d_h] with externally
    supplied parameters, as one fused tape op.

    r = σ(W_r z + U_r h + b_r)
    u = σ(W_u z + U_u h + b_u)
    c = tanh(W_c z + U_c (r ⊙ h) + b_c)
    h' = (1 - u) ⊙ h + u ⊙ c

    The update is applied row by row, so which slot invokes it cannot matter.
    Values and gradients are bit-identical to the same chain of elementary
    ops (see the numerics module docstring).
    """
    if z.data.ndim != 2 or h.data.ndim != 2 or z.shape[1] != theta.d_in \
            or h.shape[1] != theta.d_h or z.shape[0] != h.shape[0]:
        raise ValueError(
            f"gru_step shapes z={z.shape} h={h.shape} do not fit cell "
            f"d_in={theta.d_in} d_h={theta.d_h}"
        )
    zd, hd = z.data, h.data
    r = nm.stable_sigmoid(zd @ theta.w_r.data + hd @ theta.u_r.data + theta.b_r.data)
    u = nm.stable_sigmoid(zd @ theta.w_u.data + hd @ theta.u_u.data + theta.b_u.data)
    rh = r * hd
    c = np.tanh(zd @ theta.w_c.data + rh @ theta.u_c.data + theta.b_c.data)
    keep = 1.0 - u
    out = keep * hd + u * c

    def back(g):
        # each parent's contributions in the order of the chain's reverse scan;
        # g_a* are the gradients of the gates' pre-activations
        nm.accum(h, g * keep)
        g_u = g * c + -(g * hd)
        g_ac = (g * u) * (1.0 - c * c)
        nm.accum(theta.b_c, g_ac.sum(axis=0))
        g_rh = g_ac @ theta.u_c.data.T
        nm.accum_xtg(theta.u_c, rh, g_ac)
        g_r = g_rh * hd
        nm.accum(h, g_rh * r)
        nm.accum(z, g_ac @ theta.w_c.data.T)
        nm.accum_xtg(theta.w_c, zd, g_ac)
        g_au = g_u * u * (1.0 - u)
        nm.accum(theta.b_u, g_au.sum(axis=0))
        nm.accum(h, g_au @ theta.u_u.data.T)
        nm.accum_xtg(theta.u_u, hd, g_au)
        nm.accum(z, g_au @ theta.w_u.data.T)
        nm.accum_xtg(theta.w_u, zd, g_au)
        g_ar = g_r * r * (1.0 - r)
        nm.accum(theta.b_r, g_ar.sum(axis=0))
        nm.accum(h, g_ar @ theta.u_r.data.T)
        nm.accum_xtg(theta.u_r, hd, g_ar)
        nm.accum(z, g_ar @ theta.w_r.data.T)
        nm.accum_xtg(theta.w_r, zd, g_ar)

    return nm.record(out, (z, h, *theta.params()), back)


def init_schema(rng: Rng, d_in: int, d_h: int) -> SchemaParams:
    """Glorot-uniform matrices, zero biases."""
    if d_in < 1 or d_h < 1:
        raise ValueError(f"dimensions must be positive, got d_in={d_in}, d_h={d_h}")
    return SchemaParams(
        w_r=nm.glorot(rng, d_in, d_h),
        w_u=nm.glorot(rng, d_in, d_h),
        w_c=nm.glorot(rng, d_in, d_h),
        u_r=nm.glorot(rng, d_h, d_h),
        u_u=nm.glorot(rng, d_h, d_h),
        u_c=nm.glorot(rng, d_h, d_h),
        b_r=nm.zeros(d_h, requires_grad=True),
        b_u=nm.zeros(d_h, requires_grad=True),
        b_c=nm.zeros(d_h, requires_grad=True),
    )


def recurrent_param_count(n_f: int, n_s: int, d_h: int, d_in: int) -> tuple:
    """(bank count, monolithic count) for equal total hidden size.

    The bank holds n_s cells of width d_h; the monolithic reference is a
    single cell of width D = n_f * d_h fed the same input width.
    """
    bank = n_s * 3 * (d_in * d_h + d_h * d_h + d_h)
    big = n_f * d_h
    monolithic = 3 * (d_in * big + big * big + big)
    return bank, monolithic
