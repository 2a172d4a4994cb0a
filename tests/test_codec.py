import math

import numpy as np
import pytest

import scoff.numerics as nm
from scoff.codec import (CodecConfig, FrameReadout, PositionEncoder,
                         ScalarReadout, TokenEncoder)
from scoff.layer import ScoffConfig, ScoffLayer
from scoff.numerics import Tensor, grad_check
from scoff.rng import Rng


def rand(rng, shape):
    return np.asarray(rng.uniform(shape)) * 2.0 - 1.0


def small_codec(**kw):
    base = dict(patch=4, d_c=5, d_pos=3, enc_hidden=6, readout_hidden=5,
                readout_width=4)
    base.update(kw)
    return CodecConfig(**base)


# -------------------------------------------------------------------- encoder

def test_encoder_zero_frame_rows_differ_only_in_position_embedding():
    enc = PositionEncoder(Rng(1), 16, 16, small_codec())
    out = enc.encode_frame(np.zeros((16, 16))).data
    content = out[:, :5]
    assert np.max(np.abs(content - content[0])) < 1e-15
    pos = out[:, 5:]
    assert not np.array_equal(pos[0], pos[1])


def test_encoder_position_count():
    enc = PositionEncoder(Rng(2), 16, 16, small_codec(patch=4))
    assert enc.positions == 16
    out = enc.encode_frame(np.zeros((16, 16)))
    assert out.shape == (16, 8)


def test_encoder_rejects_indivisible_geometry():
    with pytest.raises(ValueError):
        PositionEncoder(Rng(3), 15, 16, small_codec(patch=4))


def test_encoder_rejects_out_of_range_values():
    enc = PositionEncoder(Rng(4), 16, 16, small_codec())
    with pytest.raises(ValueError):
        enc.encode_frame(np.full((16, 16), 2.0))


def test_encoder_translation_permutes_content_rows():
    # moving a ball by exactly one patch moves its patch signature to the
    # neighboring position row
    enc = PositionEncoder(Rng(5), 16, 16, small_codec())
    frame_a = np.zeros((16, 16))
    frame_a[5:7, 1:3] = 1.0   # inside patch (1, 0)
    frame_b = np.zeros((16, 16))
    frame_b[5:7, 5:7] = 1.0   # same offsets inside patch (1, 1)
    ca = enc.encode_frame(frame_a).data[:, :5]
    cb = enc.encode_frame(frame_b).data[:, :5]
    idx_a = 1 * 4 + 0
    idx_b = 1 * 4 + 1
    # nearest-neighbor matching: row idx_b of B matches row idx_a of A exactly
    dists = np.abs(cb - ca[idx_a]).sum(axis=1)
    assert dists.argmin() == idx_b
    assert dists[idx_b] < 1e-12
    # and every other patch is background in both encodings
    background = [p for p in range(16) if p not in (idx_a, idx_b)]
    assert np.max(np.abs(ca[background] - cb[background])) < 1e-15


def test_encoder_deterministic_and_bounded():
    enc = PositionEncoder(Rng(6), 16, 16, small_codec())
    rng = Rng(7)
    frame = (np.asarray(rng.uniform((16, 16))) > 0.5).astype(float)
    a = enc.encode_frame(frame).data
    b = enc.encode_frame(frame).data
    assert np.array_equal(a, b)
    assert np.isfinite(a).all()


def test_token_encoder_single_row():
    enc = TokenEncoder(Rng(8), 3, small_codec())
    out = enc.encode_token(np.array([0.5, 1.0, 0.0]))
    assert out.shape == (1, 8)
    with pytest.raises(ValueError):
        enc.encode_token(np.array([0.5, 1.0]))


# -------------------------------------------------------------------- readout

def pooled_oracle(head, state):
    w1, b1 = head.mlp.w1.data, head.mlp.b1.data
    w2, b2 = head.mlp.w2.data, head.mlp.b2.data
    n, width = state.shape[0], w2.shape[1]
    rows = np.zeros((n, width))
    for i in range(n):
        hidden = np.tanh(state[i] @ w1 + b1)
        rows[i] = hidden @ w2 + b2
    scores = rows @ head.pool_q.data[:, 0]
    e = np.exp(scores - scores.max())
    w = e / e.sum()
    return w @ rows


def test_scalar_readout_single_slot_weight_one():
    head = ScalarReadout(Rng(9), 6, small_codec())
    state = Tensor(rand(Rng(10), (1, 6)))
    got = head.readout(state).item()
    pooled = pooled_oracle(head, state.data)
    expect = float(pooled @ head.w_out.data[:, 0] + head.b_out.data[0])
    assert abs(got - expect) < 1e-12


def test_readout_invariant_to_slot_permutation():
    rng = Rng(11)
    head = ScalarReadout(Rng(12), 6, small_codec())
    fhead = FrameReadout(Rng(13), 6, small_codec(),
                         PositionEncoder(Rng(14), 16, 16, small_codec()))
    state = rand(rng, (5, 6))
    for perm in ([4, 3, 2, 1, 0], [1, 0, 3, 2, 4], [2, 4, 0, 1, 3]):
        a = head.readout(Tensor(state)).item()
        b = head.readout(Tensor(state[perm])).item()
        assert abs(a - b) < 1e-12
        fa = fhead.readout(Tensor(state)).data
        fb = fhead.readout(Tensor(state[perm])).data
        assert np.max(np.abs(fa - fb)) < 1e-12


def test_readout_matches_scalar_oracle():
    head = ScalarReadout(Rng(15), 6, small_codec())
    state = rand(Rng(16), (4, 6))
    got = head.readout(Tensor(state)).item()
    pooled = pooled_oracle(head, state)
    expect = float(pooled @ head.w_out.data[:, 0] + head.b_out.data[0])
    assert abs(got - expect) < 1e-12


def test_frame_readout_geometry():
    enc = PositionEncoder(Rng(17), 16, 16, small_codec())
    head = FrameReadout(Rng(18), 6, small_codec(), enc)
    out = head.readout(Tensor(rand(Rng(19), (3, 6))))
    assert out.shape == (16, 16)


def test_frame_readout_patch_assembly_orientation():
    # kill every weight, then write a row-major ramp into the output bias:
    # each 4x4 patch of the assembled image must carry that ramp
    enc = PositionEncoder(Rng(20), 16, 16, small_codec())
    head = FrameReadout(Rng(21), 6, small_codec(), enc)
    head.decoder.w1.data[...] = 0.0
    head.decoder.b1.data[...] = 0.0
    head.decoder.w2.data[...] = 0.0
    head.decoder.b2.data[...] = np.arange(16.0)
    out = head.readout(Tensor(np.zeros((2, 6)))).data
    ramp = np.arange(16.0).reshape(4, 4)
    for gi in range(4):
        for gj in range(4):
            patch = out[gi * 4:(gi + 1) * 4, gj * 4:(gj + 1) * 4]
            assert np.array_equal(patch, ramp)


def test_frame_readout_couples_state_and_position():
    # a purely linear decode of [pooled | e_p] would shift every position by
    # the same amount when the state changes; the hidden layer must not
    enc = PositionEncoder(Rng(24), 16, 16, small_codec())
    head = FrameReadout(Rng(25), 6, small_codec(), enc)
    rng = Rng(26)
    out_a = head.readout(Tensor(rand(rng, (2, 6)))).data
    out_b = head.readout(Tensor(rand(rng, (2, 6)))).data
    diff = out_a - out_b
    patch_means = diff.reshape(4, 4, 4, 4).mean(axis=(1, 3))
    assert patch_means.max() - patch_means.min() > 1e-6


# ------------------------------------------------------- end-to-end gradients

def test_encode_rollout_readout_gradcheck_soft_selection():
    codec_cfg = small_codec(d_c=4, d_pos=2, enc_hidden=4, readout_hidden=4,
                            readout_width=4)
    scoff_cfg = ScoffConfig(n_f=2, n_s=2, d_h=4, d_in=codec_cfg.d_a,
                            inp_heads=1, inp_keys=3, inp_values=4,
                            inp_dropout=0.0, sel_keys=3, comm_heads=1,
                            comm_keys=3, comm_dropout=0.0,
                            hard_selection=False)
    rng = Rng(22)
    enc = PositionEncoder(rng, 16, 16, codec_cfg)
    layer = ScoffLayer(scoff_cfg, rng)
    head = FrameReadout(rng, scoff_cfg.d_h, codec_cfg, enc)
    frames = (np.asarray(Rng(23).uniform((3, 16, 16))) > 0.6).astype(float)
    noise = [nm.sample_gumbel(rng, (2, 2)) for _ in range(2)]

    params = {}
    params.update(enc.params())
    params.update({f"layer.{k}": v for k, v in layer.parameters().items()})
    params.update(head.params())

    def f(_):
        state = layer.init_state()
        for t in range(2):
            feats = enc.encode_frame(frames[t])
            state, _ = layer.step(feats, state, noise=noise[t])
        logits = head.readout(state)
        return nm.logistic_loss_mean(logits, frames[2])

    assert grad_check(f, list(params.values()), eps=1e-5) < 1e-4
