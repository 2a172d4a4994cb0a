import math
import os

import numpy as np
import pytest

import scoff.numerics as nm
from scoff.cli import parse_config, to_train_config
from scoff.codec import (PATCH, SIDE, CodecConfig, FrameReadout, Perceptron, PositionEncoder,
                         ScalarReadout, TokenEncoder)
from scoff.layer import ScoffConfig, ScoffLayer
from scoff.numerics import Tape, Tensor, backward, grad_check
from scoff.rng import Rng
from scoff.tasks import GRID, gen_bouncing_mini
from scoff.training import build_model, sequence_loss

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


def rand(rng, shape):
    return np.asarray(rng.uniform(shape)) * 2.0 - 1.0


def small_codec(**kw):
    base = dict(d_c=5, d_pos=3, enc_hidden=6, readout_hidden=5,
                readout_width=4)
    base.update(kw)
    return CodecConfig(**base)


# -------------------------------------------------------------------- encoder

def test_encoder_zero_frame_rows_differ_only_in_position_embedding():
    enc = PositionEncoder(Rng(1), small_codec())
    out = enc.encode_frame(np.zeros((1, 16, 16))).data
    content = out[:, :5]
    assert np.max(np.abs(content - content[0])) < 1e-15
    pos = out[:, 5:]
    assert not np.array_equal(pos[0], pos[1])


def test_encoder_position_count():
    enc = PositionEncoder(Rng(2), small_codec())
    assert enc.positions == 16
    out = enc.encode_frame(np.zeros((3, 16, 16)))
    assert out.shape == (3 * 16, 8)


def test_encoder_translation_permutes_content_rows():
    # moving a ball by exactly one patch moves its patch signature to the
    # neighboring position row
    enc = PositionEncoder(Rng(5), small_codec())
    frame_a = np.zeros((16, 16))
    frame_a[5:7, 1:3] = 1.0   # inside patch (1, 0)
    frame_b = np.zeros((16, 16))
    frame_b[5:7, 5:7] = 1.0   # same offsets inside patch (1, 1)
    ca, cb = np.split(enc.encode_frame(np.stack([frame_a, frame_b])).data[:, :5], 2)
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
    enc = PositionEncoder(Rng(6), small_codec())
    rng = Rng(7)
    frame = (np.asarray(rng.uniform((16, 16))) > 0.5).astype(float)
    a = enc.encode_frame(frame[None]).data
    b = enc.encode_frame(frame[None]).data
    assert np.array_equal(a, b)
    assert np.isfinite(a).all()


def test_token_encoder_single_row():
    enc = TokenEncoder(Rng(8), small_codec())
    out = enc.encode_token(np.array([[0.5, 1.0, 0.0], [0.1, 0.0, 1.0]]))
    assert out.shape == (2, 8)


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
    got = head.readout(state, 1).item()
    pooled = pooled_oracle(head, state.data)
    expect = float(pooled @ head.w_out.data[:, 0] + head.b_out.data[0])
    assert abs(got - expect) < 1e-12


def test_readout_invariant_to_slot_permutation():
    rng = Rng(11)
    head = ScalarReadout(Rng(12), 6, small_codec())
    fhead = FrameReadout(Rng(13), 6, small_codec(),
                         PositionEncoder(Rng(14), small_codec()))
    state = rand(rng, (5, 6))
    for perm in ([4, 3, 2, 1, 0], [1, 0, 3, 2, 4], [2, 4, 0, 1, 3]):
        a = head.readout(Tensor(state), 1).item()
        b = head.readout(Tensor(state[perm]), 1).item()
        assert abs(a - b) < 1e-12
        fa = fhead.readout(Tensor(state), 1).data
        fb = fhead.readout(Tensor(state[perm]), 1).data
        assert np.max(np.abs(fa - fb)) < 1e-12


def test_readout_matches_scalar_oracle():
    head = ScalarReadout(Rng(15), 6, small_codec())
    state = rand(Rng(16), (4, 6))
    got = head.readout(Tensor(state), 1).item()
    pooled = pooled_oracle(head, state)
    expect = float(pooled @ head.w_out.data[:, 0] + head.b_out.data[0])
    assert abs(got - expect) < 1e-12


def test_frame_readout_geometry():
    enc = PositionEncoder(Rng(17), small_codec())
    head = FrameReadout(Rng(18), 6, small_codec(), enc)
    out = head.readout(Tensor(rand(Rng(19), (3, 6))), 1)
    assert out.shape == (1, 16, 16)
    out = head.readout(Tensor(np.tile(rand(Rng(19), (3, 6)), (4, 1))), 4)
    assert out.shape == (4, 16, 16)


def test_frame_readout_patch_assembly_orientation():
    # kill every weight, then write a row-major ramp into the output bias:
    # each 4x4 patch of the assembled image must carry that ramp
    enc = PositionEncoder(Rng(20), small_codec())
    head = FrameReadout(Rng(21), 6, small_codec(), enc)
    head.decoder.w1.data[...] = 0.0
    head.decoder.b1.data[...] = 0.0
    head.decoder.w2.data[...] = 0.0
    head.decoder.b2.data[...] = np.arange(16.0)
    out = head.readout(Tensor(np.zeros((2, 6))), 1).data[0]
    ramp = np.arange(16.0).reshape(4, 4)
    for gi in range(4):
        for gj in range(4):
            patch = out[gi * 4:(gi + 1) * 4, gj * 4:(gj + 1) * 4]
            assert np.array_equal(patch, ramp)


def test_frame_readout_couples_state_and_position():
    # a purely linear decode of [pooled | e_p] would shift every position by
    # the same amount when the state changes; the hidden layer must not
    enc = PositionEncoder(Rng(24), small_codec())
    head = FrameReadout(Rng(25), 6, small_codec(), enc)
    rng = Rng(26)
    out_a = head.readout(Tensor(rand(rng, (2, 6))), 1).data[0]
    out_b = head.readout(Tensor(rand(rng, (2, 6))), 1).data[0]
    diff = out_a - out_b
    patch_means = diff.reshape(4, 4, 4, 4).mean(axis=(1, 3))
    assert patch_means.max() - patch_means.min() > 1e-6


# ------------------------------------------------------- end-to-end gradients

def test_encode_rollout_readout_gradcheck_soft_selection():
    codec_cfg = small_codec(d_c=4, d_pos=2, enc_hidden=4, readout_hidden=4,
                            readout_width=4)
    scoff_cfg = ScoffConfig(n_f=2, n_s=2, d_h=4, inp_heads=1, comm_heads=1,
                            key_width=3, hard_selection=False)
    rng = Rng(22)
    enc = PositionEncoder(rng, codec_cfg)
    layer = ScoffLayer(scoff_cfg, codec_cfg.d_a, rng)
    head = FrameReadout(rng, scoff_cfg.d_h, codec_cfg, enc)
    frames = (np.asarray(Rng(23).uniform((3, 16, 16))) > 0.6).astype(float)
    noise = [nm.sample_gumbel(rng, (2, 2)) for _ in range(2)]

    params = {}
    params.update(enc.params())
    params.update({f"layer.{k}": v for k, v in layer.parameters().items()})
    params.update(head.params())

    def f(_):
        state, states = layer.init_state(), []
        for t, feats in enumerate(nm.split_rows(enc.encode_frame(frames[:2]), 2)):
            state, _ = layer.step(feats, state, noise=noise[t])
            states.append(state)
        return nm.logistic_loss_mean(head.readout(nm.concat(states, axis=0), 2), frames[1:])

    assert grad_check(f, list(params.values()), eps=1e-5) < 1e-4


# ---------------------------------------------- fused ops against op chains

def perceptron_chain(mlp, x):
    """Reference: the perceptron as a chain of elementary taped ops."""
    return nm.matmul(nm.tanh(nm.matmul(x, mlp.w1) + mlp.b1), mlp.w2) + mlp.b2


def pooled_chain(head, state):
    """Reference: the attention pooling as a chain of elementary taped ops."""
    rows = perceptron_chain(head.mlp, state)
    w = nm.softmax(nm.matmul(rows, head.pool_q), axis=0)
    return nm.matmul(nm.transpose(w), rows)


def row_slice(t, lo, hi):
    """Reference: rows lo:hi of t as a taped op; its gradient comes back
    padded with zeros to t's shape."""
    def back(g):
        full = np.zeros_like(t.data)
        full[lo:hi] = g
        nm.accum(t, full)

    return nm.record(t.data[lo:hi], (t,), back)


def frame_readout_chain(head, state):
    """Reference: the frame readout as a chain of elementary taped ops, the
    decoder's first layer cut by rows of w1 into its pooled-state half and
    its position half."""
    dec, width = head.decoder, head.cfg.readout_width
    by_state = nm.matmul(pooled_chain(head, state), row_slice(dec.w1, 0, width))
    by_state = nm.reshape(by_state, (1, 1, -1))
    by_pos = nm.matmul(head.encoder.pos_table,
                       row_slice(dec.w1, width, dec.w1.shape[0])) + dec.b1
    hid = nm.tanh(nm.reshape(by_state + by_pos, (head.encoder.positions, -1)))
    patches = nm.matmul(hid, dec.w2) + dec.b2
    img = nm.transpose(nm.reshape(patches, (SIDE, SIDE, PATCH, PATCH)), (0, 2, 1, 3))
    return nm.reshape(img, (1, GRID, GRID))


def randomize(rng, tensors):
    """Non-zero values for every tensor, biases included, so that no
    gradient term vanishes."""
    for t in tensors:
        t.data[...] = rand(rng, t.shape)


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if b is None:
            assert a is None
        else:
            assert a.shape == b.shape
            assert (a == b).all()


def stacked_perceptrons(call, x_grad):
    """Two perceptrons, the second applied twice and the first's output used
    twice, so that x and every parameter collect several contributions.
    Returns (outputs, leaves)."""
    rng = Rng(101)
    a = Perceptron(rng, 3, 5, 4, "a_")
    b = Perceptron(rng, 4, 6, 4, "b_")
    randomize(rng, [*a.params().values(), *b.params().values()])
    x = Tensor(rand(rng, (5, 3)), requires_grad=x_grad)
    w = Tensor(rand(rng, (5, 4)))
    with Tape() as tape:
        y1 = call(a, x)
        y2 = call(b, y1)
        y3 = call(b, y2)
        loss = (y3 * w).sum() + (y1 * y1).sum()
    backward(loss, tape)
    return [y1, y2, y3, loss], [x, *a.params().values(), *b.params().values()]


@pytest.mark.parametrize("x_grad", [True, False])
def test_fused_perceptron_matches_op_chain_bit_for_bit(x_grad):
    outs, leaves = stacked_perceptrons(Perceptron.__call__, x_grad)
    ref_outs, ref_leaves = stacked_perceptrons(perceptron_chain, x_grad)
    assert_same_bits([o.data for o in outs], [o.data for o in ref_outs])
    assert_same_bits([t.grad for t in leaves], [t.grad for t in ref_leaves])
    assert (leaves[0].grad is None) == (not x_grad)


def codec_graph(fused: bool):
    """Encode a frame, mix its rows into a slot state, read the state out as
    a frame and score it. The position table feeds both the encoder and the
    readout. Returns (outputs, leaves)."""
    cfg = small_codec()
    rng = Rng(103)
    enc = PositionEncoder(rng, cfg)
    head = FrameReadout(rng, 6, cfg, enc)
    params = [*enc.params().values(), *head.params().values()]
    randomize(rng, params)
    frame = np.asarray(rng.uniform((16, 16)))
    target = (np.asarray(rng.uniform((16, 16))) > 0.5).astype(float)
    mix = Tensor(rand(rng, (3, enc.positions)))
    proj = Tensor(rand(rng, (cfg.d_a, 6)), requires_grad=True)
    with Tape() as tape:
        if fused:
            feats = enc.encode_frame(frame[None])
        else:
            patches = nm.record(enc.patch_rows(frame), (), None)
            feats = nm.concat([perceptron_chain(enc.mlp, patches), enc.pos_table], axis=1)
        state = nm.matmul(nm.matmul(mix, feats), proj)
        logits = head.readout(state, 1) if fused else frame_readout_chain(head, state)
        loss = nm.logistic_loss_mean(logits, target[None])
    backward(loss, tape)
    return [feats, state, logits, loss], [proj, *params]


def test_fused_codec_matches_op_chain_bit_for_bit():
    outs, leaves = codec_graph(fused=True)
    ref_outs, ref_leaves = codec_graph(fused=False)
    assert_same_bits([o.data for o in outs], [o.data for o in ref_outs])
    assert_same_bits([t.grad for t in leaves], [t.grad for t in ref_leaves])


def test_one_row_readout_returns_its_row_with_the_pooled_bits(monkeypatch):
    # the GRU baseline's state is one row, whose softmax weight is exactly 1:
    # skipping the batched pooling op changes no value and no gradient, and
    # the baseline has no pooling query, whose gradient would be exactly zero
    resolved = parse_config(os.path.join(CONFIGS, "bouncing_mini.cfg"), ["model=gru"])
    cfg = to_train_config(resolved)
    seqs = [gen_bouncing_mini(Rng(i), resolved["length"], resolved["n_balls"])
            for i in range(3)]

    def batch(pool):
        model = build_model(cfg, Rng(5))
        if pool:
            head = model.head
            head.pool_q = nm.glorot(Rng(9), cfg.codec.readout_width, 1)
            monkeypatch.setattr(head, "pooled", lambda rows, n: head._pool(
                head.mlp(rows), n))
        rng, losses = Rng(6), []
        for seq in seqs:
            with Tape() as tape:
                loss, _ = sequence_loss(model, seq, rng)
            backward(loss, tape)
            losses.append(loss.data)
        return losses, {name: p.grad for name, p in model.parameters().items()}

    losses, grads = batch(pool=False)
    ref_losses, ref_grads = batch(pool=True)
    assert losses == ref_losses
    assert "ro_pool" not in grads
    assert (ref_grads.pop("ro_pool") == 0.0).all()
    assert grads.keys() == ref_grads.keys()
    assert_same_bits(list(grads.values()), list(ref_grads.values()))


def test_fused_codec_ops_grad_check():
    cfg = small_codec()
    rng = Rng(107)
    enc = PositionEncoder(rng, cfg)
    head = FrameReadout(rng, 6, cfg, enc)
    randomize(rng, [*enc.params().values(), *head.params().values()])
    x = Tensor(rand(rng, (6, 6)), requires_grad=True)
    pooled = Tensor(rand(rng, (2, cfg.readout_width)), requires_grad=True)
    patches = Tensor(rand(rng, (2 * enc.positions, PATCH * PATCH)),
                     requires_grad=True)
    content = Tensor(rand(rng, (2 * enc.positions, cfg.d_c)), requires_grad=True)
    rows = Tensor(rand(rng, (6, cfg.readout_width)), requires_grad=True)

    def weighted(t):
        return (t * Tensor(np.linspace(-1.0, 1.0, t.data.size).reshape(t.shape))).sum()

    cases = [
        (lambda p: weighted(head.mlp(p[0])), [x, *head.mlp.params().values()]),
        (lambda p: weighted(head._pool(p[0], 2)), [rows, head.pool_q]),
        (lambda p: weighted(head._decode(p[0])),
         [pooled, enc.pos_table, *head.decoder.params().values()]),
        (lambda p: weighted(enc.beside_positions(p[0])), [content, enc.pos_table]),
        (lambda p: weighted(head._unpatch(p[0])), [patches]),
    ]
    for f, params in cases:
        assert grad_check(f, params, eps=1e-5) < 1e-6


def concat_decode(head, pooled):
    """Reference: the decoder as it ran before its first layer was factored,
    one perceptron over the n·P rows that put each pooled row beside every
    position's embedding."""
    enc = head.encoder
    n = pooled.shape[0]
    repeat = Tensor(np.repeat(np.eye(n), enc.positions, axis=0))
    rows = nm.concat([nm.matmul(repeat, pooled), nm.concat([enc.pos_table] * n, axis=0)],
                     axis=1)
    return head.decoder(rows)


@pytest.mark.parametrize("kind", ["scoff", "gru"])
@pytest.mark.parametrize("n", [1, 15, 29])
def test_factored_decoder_agrees_with_the_concatenated_input_decoder(kind, n):
    # the self-fed step (1 state), the teacher-forced eval readout (15) and a
    # training sequence (29) of bouncing_mini, on each model's own head
    resolved = parse_config(os.path.join(CONFIGS, "bouncing_mini.cfg"), [f"model={kind}"])
    head = build_model(to_train_config(resolved), Rng(5)).head
    rng = Rng(139)
    width = head.cfg.readout_width
    pooled_data = rand(rng, (n, width))
    targets = (np.asarray(rng.uniform((n, 16, 16))) > 0.5).astype(float)

    def run(decode):
        pooled = Tensor(pooled_data, requires_grad=True)
        leaves = [pooled, head.encoder.pos_table, *head.decoder.params().values()]
        for t in leaves[1:]:
            t.zero_grad()
        with Tape() as tape:
            logits = head._unpatch(decode(pooled))
            loss = nm.logistic_loss_mean(logits, targets)
        backward(loss, tape)
        return [logits.data, *(t.grad for t in leaves)]

    got = run(head._decode)
    want = run(lambda p: concat_decode(head, p))
    assert_close(got, want, rtol=1e-13)


# ------------------------------------ time-batched codec against the per-step loop

def assert_close(got, want, rtol=1e-13):
    """Each array within rtol of its reference, relative to the reference's
    largest entry; None (no gradient) only where the reference has None."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if b is None:
            assert a is None
            continue
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= rtol * np.abs(b).max()


def time_codec(kind: str, rows: int, batched: bool):
    """n = 4 steps of one codec op, run as one batched call or as a loop of
    n = 1 calls, under a weighted loss. ``kind`` is frame_encoder,
    token_encoder, frame_readout or scalar_readout; ``rows`` is the slot
    count of the read-out states. Returns (outputs, leaves)."""
    cfg = small_codec(dec_hidden=6)
    rng = Rng(131)
    n = 4
    if kind.endswith("encoder"):
        if kind == "frame_encoder":
            op = PositionEncoder(rng, cfg)
            xs = np.asarray(rng.uniform((n, 16, 16)))
            call = op.encode_frame
        else:
            op = TokenEncoder(rng, cfg)
            xs = rand(rng, (n, 3))
            call = op.encode_token
        leaves = list(op.params().values())
        randomize(rng, leaves)
        weights = Tensor(rand(rng, (n * op.positions, cfg.d_a)))
        with Tape() as tape:
            out = call(xs) if batched else nm.concat([call(x[None]) for x in xs], axis=0)
            loss = (out * weights).sum()
        outs = [out]
    else:
        if kind == "frame_readout":
            op = FrameReadout(rng, 6, cfg, PositionEncoder(rng, cfg))
            leaves = [*op.params().values(), op.encoder.pos_table]
            targets = (np.asarray(rng.uniform((n, 16, 16))) > 0.5).astype(float)
        else:
            op = ScalarReadout(rng, 6, cfg)
            leaves = list(op.params().values())
            targets = rand(rng, (n,))
        randomize(rng, leaves)
        states = [Tensor(rand(rng, (rows, 6)), requires_grad=True) for _ in range(n)]
        leaves += states
        with Tape() as tape:
            if batched:
                out = op.readout(nm.concat(states, axis=0), n)
            else:
                out = nm.concat([op.readout(s, 1) for s in states], axis=0)
            if kind == "frame_readout":
                loss = nm.logistic_loss_mean(out, targets)
            else:
                loss = ((out - Tensor(targets)) * (out - Tensor(targets))).sum()
        outs = [out]
    backward(loss, tape)
    return [*outs, loss], leaves


@pytest.mark.parametrize("kind,rows", [("frame_encoder", 0), ("token_encoder", 0),
                                       ("frame_readout", 3), ("frame_readout", 1),
                                       ("scalar_readout", 3), ("scalar_readout", 1)])
def test_batched_codec_matches_per_step_loop(kind, rows):
    outs, leaves = time_codec(kind, rows, batched=True)
    ref_outs, ref_leaves = time_codec(kind, rows, batched=False)
    assert_close([o.data for o in outs], [o.data for o in ref_outs])
    assert_close([t.grad for t in leaves], [t.grad for t in ref_leaves])


def test_batched_codec_ops_grad_check():
    cfg = small_codec(dec_hidden=6)
    rng = Rng(137)
    enc = PositionEncoder(rng, cfg)
    tok = TokenEncoder(rng, cfg)
    frame_head = FrameReadout(rng, 6, cfg, enc)
    scalar_head = ScalarReadout(rng, 6, cfg)
    randomize(rng, [*enc.params().values(), *tok.params().values(),
                    *frame_head.params().values(), *scalar_head.params().values()])
    frames = np.asarray(rng.uniform((3, 16, 16)))
    tokens = rand(rng, (3, 3))
    targets = (np.asarray(rng.uniform((3, 16, 16))) > 0.5).astype(float)
    wide = [Tensor(rand(rng, (3, 6)), requires_grad=True) for _ in range(3)]
    narrow = [Tensor(rand(rng, (1, 6)), requires_grad=True) for _ in range(3)]

    def weighted(ts):
        return sum((t * Tensor(np.linspace(-1.0, 1.0 + i, t.data.size).reshape(t.shape))).sum()
                   for i, t in enumerate(ts))

    def read(head, states):
        return head.readout(nm.concat(states, axis=0), len(states))

    def frame_readout(states):
        return lambda p: nm.logistic_loss_mean(read(frame_head, states), targets)

    cases = [
        (lambda p: weighted([enc.encode_frame(frames)]), list(enc.params().values())),
        (lambda p: weighted([tok.encode_token(tokens)]), list(tok.params().values())),
        (frame_readout(wide), [*frame_head.params().values(), *wide]),
        (frame_readout(narrow), [*frame_head.mlp.params().values(), *narrow]),
        (lambda p: weighted([read(scalar_head, wide)]),
         [*scalar_head.params().values(), *wide]),
        (lambda p: weighted([read(scalar_head, narrow)]), narrow),
    ]
    for f, params in cases:
        assert grad_check(f, params, eps=1e-5) < 1e-6


def test_each_fused_codec_op_appends_one_tape_node():
    cfg = small_codec()
    rng = Rng(109)
    enc = PositionEncoder(rng, cfg)
    head = FrameReadout(rng, 6, cfg, enc)
    for n in (1, 4):
        rows = Tensor(rand(rng, (n * 3, 6)), requires_grad=True)
        with Tape() as tape:
            head.readout(rows, n)
        # slot perceptron, pooling, decoder, unpatching
        assert len(tape.nodes) == 4
        with Tape() as tape:
            enc.encode_frame(np.zeros((n, 16, 16)))
        # perceptron, and the position table beside its rows
        assert len(tape.nodes) == 2


@pytest.mark.parametrize("kind", ["scoff", "gru"])
def test_model_encodes_step_rows_and_reads_out_stacked_states(kind):
    resolved = parse_config(os.path.join(CONFIGS, "bouncing_mini.cfg"), [f"model={kind}"])
    model = build_model(to_train_config(resolved), Rng(5))
    frames = np.asarray(Rng(6).uniform((4, 16, 16)))
    with Tape() as tape:
        feats = model.encode(frames)
    # the codec's two nodes, and for gru the per-input mean (reshape, mean)
    assert len(tape.nodes) == 2 + 2 * (kind == "gru")
    rows = model.encoder.encode_frame(frames).data
    if kind == "scoff":
        assert np.array_equal(feats.data, rows)
    # a pass cuts them into one Tensor per step
    steps = nm.split_rows(feats, 4)
    assert [f.shape for f in steps] == [(1 if kind == "gru" else 16, 24)] * 4
    shape = (1, model.width) if kind == "gru" else (resolved["n_f"], resolved["d_h"])
    states = Tensor(rand(Rng(7), (4 * shape[0], shape[1])), requires_grad=True)
    for n in (1, 4):
        block = Tensor(states.data[:n * shape[0]], requires_grad=True)
        with Tape() as tape:
            out = model.readout(block, n)
        assert out.shape == (n, 16, 16)
        # the head's nodes (a one-row state skips the pooling)
        assert len(tape.nodes) == 3 + (kind == "scoff")
    assert np.array_equal(model.readout(states, 4).data, model.head.readout(states, 4).data)
