import math

import numpy as np
import pytest

import scoff.numerics as nm
from scoff.layer import ScoffConfig, ScoffLayer, StepTrace, schema_usage
from scoff.numerics import Tape, Tensor, backward, grad_check
from scoff.recurrent import gru_step
from scoff.rng import Rng


def rand(rng, shape):
    return np.asarray(rng.uniform(shape)) * 2.0 - 1.0


D_IN = 6  # the feature width of the tiny layers


def tiny_config(**kw):
    base = dict(n_f=3, n_s=2, d_h=8, inp_heads=1, comm_heads=1, key_width=4)
    base.update(kw)
    return ScoffConfig(**base)


def make_layer(seed=0, **kw):
    return ScoffLayer(tiny_config(**kw), D_IN, Rng(seed))


def test_every_query_and_key_is_key_width_wide():
    for width in (3, 16):
        layer = make_layer(key_width=width, inp_heads=2, comm_heads=2)
        mats = [layer.sel_query, layer.sel_key]
        for proj in (layer.input_proj, layer.comm_proj):
            mats += proj.query + proj.key
        assert [m.shape[1] for m in mats] == [width] * 10


# -------------------------------------------------------------- input reading

def input_read_oracle(layer, feats, state):
    """Scalar double-loop reference for the slot competition."""
    c = layer.config
    scale = 1.0 / math.sqrt(c.key_width)
    z = np.zeros((c.n_f, 0))
    weights_by_head = []
    for h in range(c.inp_heads):
        q = state @ layer.input_proj.query[h].data
        kappa = feats @ layer.input_proj.key[h].data
        v = feats @ layer.input_proj.value[h].data
        P = feats.shape[0]
        scores = np.zeros((c.n_f, P))
        for k in range(c.n_f):
            for p in range(P):
                scores[k, p] = sum(q[k, e] * kappa[p, e]
                                   for e in range(c.key_width)) * scale
        w = np.zeros_like(scores)
        for p in range(P):
            col = scores[:, p] - scores[:, p].max()
            e = np.exp(col)
            w[:, p] = e / e.sum()
        out = np.zeros((c.n_f, v.shape[1]))
        for k in range(c.n_f):
            for p in range(P):
                out[k] += w[k, p] * v[p]
        z = np.concatenate([z, out], axis=1)
        weights_by_head.append(w)
    return z, np.mean(weights_by_head, axis=0)


def test_input_read_single_slot_takes_everything():
    layer = make_layer(n_f=1)
    rng = Rng(2)
    feats_np = rand(rng, (5, 6))
    feats = Tensor(feats_np)
    z, w = layer.input_read(feats, layer.init_state())
    assert np.allclose(w, 1.0)
    v = feats_np @ layer.input_proj.value[0].data
    assert np.max(np.abs(z.data[0] - v.sum(axis=0))) < 1e-12


def test_input_read_identical_slots_read_identically():
    layer = make_layer(seed=4)
    rng = Rng(5)
    row = rand(rng, (8,))
    state = Tensor(np.stack([row, row, row]))
    feats = Tensor(rand(rng, (5, 6)))
    z, _ = layer.input_read(feats, state)
    assert np.max(np.abs(z.data[0] - z.data[1])) < 1e-12
    assert np.max(np.abs(z.data[1] - z.data[2])) < 1e-12


def test_input_read_matches_scalar_oracle():
    layer = make_layer(seed=6, inp_heads=2)
    rng = Rng(7)
    state_np = rand(rng, (3, 8))
    feats_np = rand(rng, (5, 6))
    z, w = layer.input_read(Tensor(feats_np), Tensor(state_np))
    z_ref, w_ref = input_read_oracle(layer, feats_np, state_np)
    assert np.max(np.abs(z.data - z_ref)) < 1e-12
    assert np.max(np.abs(w - w_ref)) < 1e-12


# ------------------------------------------------------------ schema selection

def test_single_schema_reduces_to_plain_gru():
    from scoff.recurrent import gru_step
    layer = make_layer(seed=8, n_s=1)
    rng = Rng(9)
    state = Tensor(rand(rng, (3, 8)))
    z = Tensor(rand(rng, (3, 8)))
    h_new, idx = layer.schema_select_update(z, state, noise=Tensor(np.zeros((3, 1))))
    assert (idx == 0).all()
    logits, _ = chain_logits(layer, hypotheses(layer, z, state), state)
    _, soft, _ = gumbel_chain(logits, Tensor(np.zeros((3, 1))))
    assert np.allclose(soft, 1.0)
    plain = gru_step(z, state, layer.bank[0])
    assert np.max(np.abs(h_new.data - plain.data)) < 1e-15


def test_identical_schemata_give_identical_updates():
    layer = make_layer(seed=10)
    # overwrite schema 1 with schema 0's parameters
    for a, b in zip(layer.bank[0].named("").values(), layer.bank[1].named("").values()):
        b.data[...] = a.data
    rng = Rng(11)
    state = Tensor(rand(rng, (3, 8)))
    z = Tensor(rand(rng, (3, 8)))
    noise_a = Tensor(np.column_stack([np.ones(3), np.zeros(3)]))
    noise_b = Tensor(np.column_stack([np.zeros(3), np.ones(3)]))
    h_a, idx_a = layer.schema_select_update(z, state, noise=noise_a)
    h_b, idx_b = layer.schema_select_update(z, state, noise=noise_b)
    assert (idx_a == 0).all() and (idx_b == 1).all()
    assert np.max(np.abs(h_a.data - h_b.data)) < 1e-12
    # with zero noise the scores tie, and a tie goes to the lowest schema
    _, idx = layer.schema_select_update(z, state)
    assert (idx == 0).all()


def test_selection_frequencies_follow_categorical_law():
    layer = make_layer(seed=12, n_f=1)
    rng = Rng(13)
    state = Tensor(rand(rng, (1, 8)))
    z = Tensor(rand(rng, (1, 8)))
    logits, _ = chain_logits(layer, hypotheses(layer, z, state), state)
    _, soft, _ = gumbel_chain(logits, Tensor(np.zeros((1, 2))))
    law = soft[0]  # softmax of the actual logits

    noise_rng = Rng(14)
    counts = np.zeros(2)
    trials = 10_000
    for _ in range(trials):
        _, idx = layer.schema_select_update(z, state, rng=noise_rng)
        counts[idx[0]] += 1
    freq = counts / trials
    assert np.max(np.abs(freq - law)) < 0.02


# -------------------------------------------------------------- communication

def communicate_oracle(layer, prev, new):
    c = layer.config
    scale = 1.0 / math.sqrt(c.key_width)
    pieces = []
    for h in range(c.comm_heads):
        q = prev @ layer.comm_proj.query[h].data
        kappa = new @ layer.comm_proj.key[h].data
        v = new @ layer.comm_proj.value[h].data
        scores = np.zeros((c.n_f, c.n_f))
        for i in range(c.n_f):
            for j in range(c.n_f):
                scores[i, j] = sum(q[i, e] * kappa[j, e]
                                   for e in range(c.key_width)) * scale
        w = np.zeros_like(scores)
        for i in range(c.n_f):
            row = scores[i] - scores[i].max()
            e = np.exp(row)
            w[i] = e / e.sum()
        pieces.append(w @ v)
    return new + np.concatenate(pieces, axis=1)


def test_communicate_single_slot_reads_itself():
    layer = make_layer(seed=15, n_f=1)
    rng = Rng(16)
    prev = Tensor(rand(rng, (1, 8)))
    new = Tensor(rand(rng, (1, 8)))
    out, w = layer.communicate(prev, new)
    assert np.allclose(w, 1.0)
    expect = new.data + new.data @ layer.comm_proj.value[0].data
    assert np.max(np.abs(out.data - expect)) < 1e-12


def test_communicate_zero_values_is_identity():
    layer = make_layer(seed=17)
    for v in layer.comm_proj.value:
        v.data[...] = 0.0
    rng = Rng(18)
    prev = Tensor(rand(rng, (3, 8)))
    new = Tensor(rand(rng, (3, 8)))
    out, _ = layer.communicate(prev, new)
    assert np.array_equal(out.data, new.data)


def test_communicate_matches_scalar_oracle():
    layer = make_layer(seed=19, n_f=4, comm_heads=2)
    rng = Rng(20)
    prev = rand(rng, (4, 8))
    new = rand(rng, (4, 8))
    out, _ = layer.communicate(Tensor(prev), Tensor(new))
    assert np.max(np.abs(out.data - communicate_oracle(layer, prev, new))) < 1e-12


# ----------------------------------------------------------------- full steps

def test_step_full_degenerate_is_one_gru_step():
    from scoff.recurrent import gru_step
    layer = make_layer(seed=21, n_f=1, n_s=1)
    for v in layer.comm_proj.value:
        v.data[...] = 0.0
    rng = Rng(22)
    feats_np = rand(rng, (5, 6))
    state = Tensor(rand(rng, (1, 8)))
    out, trace = layer.step(Tensor(feats_np), state,
                            noise=Tensor(np.zeros((1, 1))))
    v = feats_np @ layer.input_proj.value[0].data
    z = Tensor(v.sum(axis=0).reshape(1, -1))
    expect = gru_step(z, state, layer.bank[0])
    assert np.max(np.abs(out.data - expect.data)) < 1e-12
    assert trace.active.all() and trace.schema[0] == 0


def test_step_dense_mode_all_active():
    layer = make_layer(seed=23)  # n_sel defaults to 0, every slot
    rng = Rng(24)
    out, trace = layer.step(Tensor(rand(rng, (5, 6))), layer.init_state(),
                            rng=rng)
    assert trace.active.all()
    assert (trace.schema >= 0).all()


def test_n_sel_zero_is_every_slot_and_range_is_checked():
    feats = Tensor(rand(Rng(30), (5, 6)))
    runs = []
    for n_sel in (0, 3):  # n_f = 3
        layer = make_layer(seed=31, n_sel=n_sel)
        runs.append(layer.step(feats, layer.init_state(), rng=Rng(32)))
    (out_0, trace_0), (out_all, trace_all) = runs
    assert np.array_equal(out_0.data, out_all.data)
    assert np.array_equal(trace_0.schema, trace_all.schema)
    for bad in (-1, 4):
        with pytest.raises(ValueError, match="n_sel"):
            tiny_config(n_sel=bad)


def test_sparse_mode_inactive_slots_keep_state_exactly():
    layer = make_layer(seed=25, n_f=3, n_sel=1)
    for v in layer.comm_proj.value:
        v.data[...] = 0.0  # isolate the pre-communication state
    rng = Rng(26)
    state_np = rand(rng, (3, 8))
    out, trace = layer.step(Tensor(rand(rng, (5, 6))), Tensor(state_np), rng=rng)
    assert trace.active.sum() == 1
    for k in range(3):
        if not trace.active[k]:
            assert np.array_equal(out.data[k], state_np[k])
            assert trace.schema[k] == -1


def test_trace_invariants():
    layer = make_layer(seed=29, n_f=4, n_sel=2)
    rng = Rng(30)
    _, trace = layer.step(Tensor(rand(rng, (5, 6))), layer.init_state(), rng=rng)
    assert set(np.unique(trace.schema)).issubset({-1, 0, 1})
    assert np.max(np.abs(trace.input_weights.sum(axis=0) - 1.0)) < 1e-12
    assert trace.input_weights.shape == (4, 5)
    assert trace.comm_weights.shape == (4, 4)


def test_step_with_dropout_is_seed_deterministic():
    layer = make_layer(seed=31)
    feats = Tensor(rand(Rng(32), (5, 6)))
    a, _ = layer.step(feats, layer.init_state(), rng=Rng(33))
    b, _ = layer.step(feats, layer.init_state(), rng=Rng(33))
    assert np.array_equal(a.data, b.data)


# ------------------------------------------------------------- exchangeability

def test_slot_permutation_equivariance():
    rng = Rng(40)
    for trial in range(10):
        layer = make_layer(seed=100 + trial, n_f=4, n_s=3)
        state_np = rand(rng, (4, 8))
        feats = Tensor(rand(rng, (5, 6)))
        noise_np = np.asarray(rng.gumbel((4, 3)))
        perm = [3, 1, 0, 2]
        out, trace = layer.step(feats, Tensor(state_np),
                                noise=Tensor(noise_np))
        out_p, trace_p = layer.step(feats, Tensor(state_np[perm]),
                                    noise=Tensor(noise_np[perm]))
        assert np.max(np.abs(out_p.data - out.data[perm])) < 1e-12
        assert (trace_p.schema == trace.schema[perm]).all()


def test_schema_permutation_invariance():
    rng = Rng(41)
    for trial in range(10):
        layer = make_layer(seed=200 + trial, n_f=3, n_s=3)
        state = Tensor(rand(rng, (3, 8)))
        feats = Tensor(rand(rng, (5, 6)))
        noise_np = np.asarray(rng.gumbel((3, 3)))
        out, trace = layer.step(feats, state, noise=Tensor(noise_np))

        perm = [2, 0, 1]  # new bank slot j holds old schema perm[j]
        old = layer.bank
        layer.bank = [old[j] for j in perm]
        out_p, trace_p = layer.step(feats, state,
                                    noise=Tensor(noise_np[:, perm]))
        layer.bank = old
        assert np.max(np.abs(out_p.data - out.data)) < 1e-12
        # selected identities map through the permutation
        assert ([perm[j] for j in trace_p.schema] == trace.schema.tolist())


def test_systematicity_equal_slots_update_equally():
    rng = Rng(42)
    layer = make_layer(seed=43, n_f=3)
    row = rand(rng, (8,))
    state = Tensor(np.stack([row, row, rand(rng, (8,))]))
    feats = Tensor(rand(rng, (5, 6)))
    noise_row = np.asarray(rng.gumbel((2,)))
    noise = np.stack([noise_row, noise_row, np.asarray(rng.gumbel((2,)))])
    out, trace = layer.step(feats, state, noise=Tensor(noise))
    assert trace.schema[0] == trace.schema[1]
    assert np.max(np.abs(out.data[0] - out.data[1])) < 1e-12


# ---------------------------------------------------------------- gradients

def test_two_step_soft_rollout_gradcheck():
    cfg = tiny_config(n_f=2, n_s=2, d_h=4, key_width=3, hard_selection=False)
    rng = Rng(60)
    layer = ScoffLayer(cfg, 4, rng)
    feats = [Tensor(rand(rng, (3, 4))) for _ in range(2)]
    noise = [nm.sample_gumbel(rng, (2, 2)) for _ in range(2)]

    def f(params):
        state = layer.init_state()
        for t in range(2):
            state, _ = layer.step(feats[t], state, noise=noise[t])
        return (state * state).sum()

    assert grad_check(f, list(layer.parameters().values()), eps=1e-5) < 1e-4


def test_hard_selection_forward_onehot_soft_backward():
    layer = make_layer(seed=61, n_f=2, n_s=3)
    rng = Rng(62)
    state = Tensor(rand(rng, (2, 8)))
    z = Tensor(rand(rng, (2, 8)))
    noise = Tensor(np.asarray(rng.gumbel((2, 3))))
    with Tape() as tape:
        h_new, idx = layer.schema_select_update(z, state, noise=noise)
        loss = (h_new * h_new).sum()
    backward(loss, tape)
    # every schema received gradient through the soft path
    for j in range(3):
        any_grad = any(t.grad is not None and np.abs(t.grad).sum() > 0
                       for t in layer.bank[j].named("").values())
        assert any_grad, f"schema {j} got no gradient"


def hypotheses(layer, z, state):
    return [gru_step(z, state, theta) for theta in layer.bank]


def chain_logits(layer, hyps, state):
    """Reference: the [n_f, n_s] selection logits of the schema hypotheses
    ``hyps`` as a chain of elementary taped ops. Returns (logits, hypotheses
    stacked [n_f, n_s, d_h])."""
    c = layer.config
    hstack = nm.stack(hyps, axis=1)
    keys = nm.reshape(
        nm.matmul(nm.reshape(hstack, (c.n_f * c.n_s, c.d_h)), layer.sel_key),
        (c.n_f, c.n_s, c.key_width))
    q = nm.reshape(nm.matmul(state, layer.sel_query), (c.n_f, 1, c.key_width))
    return (q * keys).sum(axis=2), hstack


def gumbel_chain(logits, noise, hard=True):
    """Reference: Gumbel selection along the last axis as a chain of
    elementary taped ops, its one-hot built by zeros and
    ``np.put_along_axis``. Returns (selection, soft as an ndarray, index)."""
    scores = logits + noise
    index = np.argmax(scores.data, axis=-1)
    soft = nm.softmax(scores, axis=-1)
    if not hard:
        return soft, soft.data, index
    onehot = np.zeros(logits.shape)
    np.put_along_axis(onehot, index[..., None], 1.0, axis=-1)
    return nm.straight_through(soft, onehot), soft.data, index


def select_update_chain(layer, z, state, rng):
    """Reference: schema selection and update with its scoring, Gumbel pick
    and mixing as one chain of elementary taped ops."""
    c = layer.config
    logits, hstack = chain_logits(layer, hypotheses(layer, z, state), state)
    noise = nm.sample_gumbel(rng, (c.n_f, c.n_s))
    sel, _, indices = gumbel_chain(logits, noise, c.hard_selection)
    return (nm.reshape(sel, (c.n_f, c.n_s, 1)) * hstack).sum(axis=1), indices


def selection_graph(select_update, n_s, hard):
    """Two selection steps that share z and the bank, with the state also
    used by the loss, so that every leaf collects several contributions.
    Returns (outputs, next rng draw, leaves)."""
    rng = Rng(65)
    layer = ScoffLayer(tiny_config(n_s=n_s, hard_selection=hard), D_IN, rng)
    for t in layer.parameters().values():
        t.data[...] = rand(rng, t.shape)
    z = Tensor(rand(rng, (3, 8)), requires_grad=True)
    state = Tensor(rand(rng, (3, 8)), requires_grad=True)
    w = Tensor(rand(rng, (3, 8)))
    noise_rng = Rng(66)
    with Tape() as tape:
        h1, idx1 = select_update(layer, z, state, noise_rng)
        h2, idx2 = select_update(layer, z, h1, noise_rng)
        loss = (h2 * w).sum() + (h1 * state).sum()
    backward(loss, tape)
    # the soft scores reach the comparison through every leaf's gradient
    outs = [h1.data, h2.data, idx1, idx2, loss.data]
    leaves = [z, state, *layer.parameters().values()]
    return outs, noise_rng.uniform(), leaves


@pytest.mark.parametrize("n_s", [1, 3])
@pytest.mark.parametrize("hard", [True, False])
def test_fused_selection_matches_op_chain_bit_for_bit(n_s, hard):
    def fused(layer, z, state, rng):
        return layer.schema_select_update(z, state, rng=rng)

    outs, draw, leaves = selection_graph(fused, n_s, hard)
    ref_outs, ref_draw, ref_leaves = selection_graph(select_update_chain, n_s, hard)
    for got, want in zip(outs, ref_outs):
        assert np.array_equal(got, want)
    assert draw == ref_draw  # the Gumbel draws took the same share of the stream
    for got, want in zip(leaves, ref_leaves):
        if want.grad is None:  # the input and communication projections
            assert got.grad is None
        else:
            assert got.grad.shape == want.grad.shape
            assert (got.grad == want.grad).all()


@pytest.mark.parametrize("n_s", [1, 3])
@pytest.mark.parametrize("hard", [True, False])
@pytest.mark.parametrize("n_sel", [0, 2])
def test_greedy_steps_without_tape_match_the_chain_bit_for_bit(n_s, hard, n_sel):
    # the eval path: no tape, no rng, zero noise, and in hard mode no softmax
    rng = Rng(72)
    layer = ScoffLayer(tiny_config(n_s=n_s, hard_selection=hard, n_sel=n_sel), D_IN, rng)
    for t in layer.parameters().values():
        t.data[...] = rand(rng, t.shape)
    feats = [Tensor(rand(rng, (5, 6))) for _ in range(4)]

    def run():
        state, out = layer.init_state(), []
        for f in feats:
            state, trace = layer.step(f, state)
            out += [state.data, trace.schema, trace.active]
        return out

    fused = run()

    def chain(z, state, rng=None, noise=None):
        c = layer.config
        logits, hstack = chain_logits(layer, hypotheses(layer, z, state), state)
        sel, _, indices = gumbel_chain(logits, nm.zeros((c.n_f, c.n_s)), hard)
        return (nm.reshape(sel, (c.n_f, c.n_s, 1)) * hstack).sum(axis=1), indices

    layer.schema_select_update = chain
    with Tape():  # the chain keeps its soft scores for a backward pass
        ref = run()
    for got, want in zip(fused, ref, strict=True):
        assert np.array_equal(got, want)
    assert fused[-1].sum() == (n_sel or 3)  # the active slots of the last step


def test_fused_selection_ops_grad_check():
    """The one fused selection op, in soft and in hard mode. A hard forward is
    piecewise constant, and its straight-through gradient adds the soft
    scores' gradient weighted by each hypothesis's loss term; a term with
    that value and no taped gradient, its weights fixed at the checked point,
    lets the central differences see the same sum."""
    rng = Rng(67)
    hyps = [Tensor(rand(rng, (3, 8)), requires_grad=True) for _ in range(2)]
    state = Tensor(rand(rng, (3, 8)), requires_grad=True)
    noise = Tensor(rand(rng, (3, 2)), requires_grad=True)
    w = Tensor(rand(rng, (3, 8)))
    terms = np.stack([(h.data * w.data).sum(axis=1) for h in hyps], axis=1)
    for hard in (False, True):
        layer = make_layer(seed=68, n_f=3, n_s=2, hard_selection=hard)

        def f(p):
            out, _ = layer._select(p[:2], p[2], p[5])
            loss = (out * w).sum()
            if hard:
                logits, _ = chain_logits(layer, p[:2], p[2])
                soft = nm.stable_softmax(logits.data + p[5].data, -1)
                loss = loss + float((soft * terms).sum())
            return loss

        params = [*hyps, state, layer.sel_query, layer.sel_key, noise]
        assert grad_check(f, params) < 1e-6


def test_schema_select_update_appends_one_node_per_op():
    layer = make_layer(seed=69, n_f=3, n_s=2)
    rng = Rng(70)
    z, state = Tensor(rand(rng, (3, 8))), Tensor(rand(rng, (3, 8)))
    with Tape() as tape:
        layer.schema_select_update(z, state, rng=rng)
    # n_s GRU cells, then the scoring, selection and mixing as one op
    assert len(tape.nodes) == 2 + 1


def test_schema_usage_matrix_shape():
    layer = make_layer(seed=63, n_f=3, n_s=2)
    rng = Rng(64)
    traces = []
    for _ in range(5):
        _, trace = layer.step(Tensor(rand(rng, (5, 6))), layer.init_state(),
                              rng=rng)
        traces.append(trace)
    usage = schema_usage(traces, 2)
    assert usage.shape == (3, 2)
    assert np.allclose(usage.sum(axis=1), 1.0)


def test_schema_usage_matches_per_slot_loop():
    # inactive slots (-1) are skipped, and a slot never selected gets a zero row
    rng = Rng(71)
    rows = [[rng.randint(4) - 1, rng.randint(4) - 1, -1] for _ in range(9)]
    traces = [StepTrace(np.zeros((3, 1)), np.asarray(r) >= 0, np.asarray(r),
                        np.zeros((3, 3))) for r in rows]
    counts = np.zeros((3, 3))
    for row in rows:
        for k, j in enumerate(row):
            if j >= 0:
                counts[k, j] += 1
    want = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1.0)
    assert np.array_equal(schema_usage(traces, 3), want)
