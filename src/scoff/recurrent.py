"""GRU cell whose parameters arrive per call, plus the bank of such parameter
blocks and the recurrent parameter accounting.

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


class SchemaBank:
    """Ordered schemata sharing d_in and d_h."""

    def __init__(self, schemas: list):
        if not schemas:
            raise ValueError("a schema bank needs at least one schema")
        d_in, d_h = schemas[0].d_in, schemas[0].d_h
        for s in schemas:
            if (s.d_in, s.d_h) != (d_in, d_h):
                raise ValueError("all schemata must share dimensions")
        self.schemas = list(schemas)

    def __len__(self) -> int:
        return len(self.schemas)

    def __getitem__(self, j: int) -> SchemaParams:
        return self.schemas[j]

    def __iter__(self):
        return iter(self.schemas)


def gru_step(z: Tensor, h: Tensor, theta: SchemaParams) -> Tensor:
    """One GRU update with externally supplied parameters.

    r = σ(W_r z + U_r h + b_r)
    u = σ(W_u z + U_u h + b_u)
    c = tanh(W_c z + U_c (r ⊙ h) + b_c)
    h' = (1 - u) ⊙ h + u ⊙ c

    Accepts vectors [d] or row-stacked matrices [n, d]; the update is applied
    row by row, so which slot invokes it cannot matter.
    """
    vector_in = isinstance(z, Tensor) and z.data.ndim == 1
    if vector_in:
        z = nm.reshape(z, (1, z.shape[0]))
        h = nm.reshape(h, (1, h.shape[0]))
    if z.shape[1] != theta.d_in or h.shape[1] != theta.d_h or z.shape[0] != h.shape[0]:
        raise ValueError(
            f"gru_step shapes z={z.shape} h={h.shape} do not fit cell "
            f"d_in={theta.d_in} d_h={theta.d_h}"
        )
    r = nm.sigmoid(nm.matmul(z, theta.w_r) + nm.matmul(h, theta.u_r) + theta.b_r)
    u = nm.sigmoid(nm.matmul(z, theta.w_u) + nm.matmul(h, theta.u_u) + theta.b_u)
    c = nm.tanh(nm.matmul(z, theta.w_c) + nm.matmul(r * h, theta.u_c) + theta.b_c)
    out = (1.0 - u) * h + u * c
    if vector_in:
        out = nm.reshape(out, (out.shape[1],))
    return out


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
