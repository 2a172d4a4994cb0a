"""The fused ops read their parents and never write them.

A fused op may write in place only into arrays it allocated itself. So a
forward and a backward pass leave the data of every input and parameter as
they found it, bit for bit, and the gradient that reaches an op's output is
not changed by the op's backward. The attention weights that ``attend``
returns keep their values through the backward pass.
"""

import numpy as np
import pytest

from scoff.attention import attend
from scoff.codec import CodecConfig, FrameReadout, Perceptron, PositionEncoder
from scoff.layer import ScoffConfig, ScoffLayer
from scoff.numerics import Tape, Tensor, backward
from scoff.recurrent import gru_step, init_schema
from scoff.rng import Rng


def rand(rng, shape):
    return np.asarray(rng.uniform(shape)) * 2.0 - 1.0


def leaf(rng, shape, requires_grad=True):
    return Tensor(rand(rng, shape), requires_grad=requires_grad)


def snapshot(tensors):
    return [t.data.tobytes() for t in tensors]


def run_and_check(forward, tensors, rng):
    """Run ``forward()`` on a tape, score its output against random weights,
    backpropagate, and check that no tensor in ``tensors`` changed and that
    the output's gradient is still the weights the score sent it. Returns
    what ``forward`` returned besides its output."""
    before = snapshot(tensors)
    with Tape() as tape:
        out, extra = forward()
        w = Tensor(rand(rng, out.shape))
        loss = (out * w).sum()
    backward(loss, tape)
    assert snapshot(tensors) == before
    assert out.grad.tobytes() == w.data.tobytes()
    assert all(t.grad is not None for t in tensors if t.requires_grad)
    return extra


@pytest.mark.parametrize("rows", [1, 4])
def test_gru_step_leaves_its_parents_unchanged(rows):
    rng = Rng(201)
    theta = init_schema(rng, 5, 3)
    for t in theta.named("").values():
        t.data[...] = rand(rng, t.shape)  # non-zero biases too
    z, h = leaf(rng, (rows, 5)), leaf(rng, (rows, 3))
    run_and_check(lambda: (gru_step(z, h, theta), None),
                  [z, h, *theta.named("").values()], rng)


@pytest.mark.parametrize("axis", ["queriers", "candidates"])
@pytest.mark.parametrize("dropout", [0.0, 0.4])
def test_attend_leaves_its_parents_and_weights_unchanged(axis, dropout):
    rng = Rng(203)
    x, y = leaf(rng, (3, 4)), leaf(rng, (5, 3))
    mats = [leaf(rng, shape) for shape in ((4, 2), (3, 2), (3, 2))]
    seen = {}

    def forward():
        weights, out = attend(x, y, *mats, axis, 0.7, dropout=dropout, rng=Rng(205))
        seen["weights"], seen["bytes"] = weights, weights.tobytes()
        return out, None

    run_and_check(forward, [x, y, *mats], rng)
    assert seen["weights"].tobytes() == seen["bytes"]


@pytest.mark.parametrize("hard", [True, False])
@pytest.mark.parametrize("drawn_noise", [True, False])
def test_select_leaves_its_parents_unchanged(hard, drawn_noise):
    rng = Rng(207)
    cfg = ScoffConfig(n_f=3, n_s=3, d_h=8, d_in=6, inp_heads=1, inp_keys=4,
                      comm_heads=1, comm_keys=4, hard_selection=hard)
    layer = ScoffLayer(cfg, rng)
    hyps = [leaf(rng, (3, 8)) for _ in range(3)]
    state = leaf(rng, (3, 8))
    # a noise leaf takes a gradient; the layer's cached zero noise must not
    noise = leaf(rng, (3, 3)) if drawn_noise else layer._zero_noise
    tensors = [*hyps, state, layer.sel_query, layer.sel_key, noise]
    indices = run_and_check(lambda: layer._select(hyps, state, noise), tensors, rng)
    assert indices.shape == (3,)


def test_perceptron_leaves_its_parents_unchanged():
    rng = Rng(209)
    mlp = Perceptron(rng, 3, 5, 4, "p_")
    for t in mlp.params().values():
        t.data[...] = rand(rng, t.shape)
    x = leaf(rng, (6, 3))
    run_and_check(lambda: (mlp(x), None), [x, *mlp.params().values()], rng)


@pytest.mark.parametrize("n", [1, 3])
def test_frame_readout_leaves_its_parents_unchanged(n):
    rng = Rng(211)
    cfg = CodecConfig(d_c=5, d_pos=3, enc_hidden=6, readout_hidden=5,
                      readout_width=4)
    enc = PositionEncoder(rng, 16, 16, cfg)
    head = FrameReadout(rng, 6, cfg, enc)
    params = list(head.params().values()) + [enc.pos_table]
    for t in params:
        t.data[...] = rand(rng, t.shape)
    rows = leaf(rng, (2 * n, 6))
    run_and_check(lambda: (head.readout(rows, n), None), [rows, *params], rng)
