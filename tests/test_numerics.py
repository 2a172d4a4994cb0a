import gc
import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scoff.numerics as nm
from scoff.cli import parse_config, to_train_config
from scoff.numerics import (Tape, Tensor, backward, grad_check, matmul,
                            sample_gumbel, softmax)
from scoff.rng import Rng
from scoff.tasks import gen_adding, gen_bouncing_mini
from scoff.training import build_model, sequence_loss


def rand(rng, shape):
    return np.asarray(rng.uniform(shape)) * 2.0 - 1.0


# ---------------------------------------------------------------- tensor basics

def test_tensor_shape_data_invariant():
    t = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert t.shape == (2, 3)
    assert t.data.size == 6


def test_tensor_rejects_non_finite():
    with pytest.raises(ValueError):
        Tensor([1.0, float("nan")])
    with pytest.raises(ValueError):
        Tensor([float("inf")])


def test_tensor_rejects_empty():
    with pytest.raises(ValueError):
        Tensor(np.zeros((0, 3)))


def test_grad_shape_matches_data():
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    with Tape() as tape:
        loss = (x * x).sum()
    backward(loss, tape)
    assert x.grad.shape == x.data.shape


# ---------------------------------------------------------------------- matmul

def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(matmul(eye, a).data, a.data)


def test_matmul_zero():
    eye = Tensor(np.eye(2))
    zeros = Tensor(np.zeros((2, 3)))
    assert np.array_equal(matmul(eye, zeros).data, np.zeros((2, 3)))


def test_matmul_matches_triple_loop_oracle():
    rng = Rng(11)
    a = rand(rng, (3, 4))
    b = rand(rng, (4, 2))
    got = matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - naive_matmul(a, b))) < 1e-12


def test_matmul_identity_associativity_bitwise():
    rng = Rng(7)
    a = rand(rng, (3, 3))
    b = rand(rng, (3, 5))
    eye = np.eye(3)
    left = matmul(matmul(Tensor(a), Tensor(eye)), Tensor(b)).data
    right = matmul(Tensor(a), matmul(Tensor(eye), Tensor(b))).data
    assert np.array_equal(left, right)


def test_matmul_backward_rule():
    rng = Rng(3)
    a = Tensor(rand(rng, (2, 3)), requires_grad=True)
    b = Tensor(rand(rng, (3, 4)), requires_grad=True)
    with Tape() as tape:
        loss = matmul(a, b).sum()
    backward(loss, tape)
    g = np.ones((2, 4))
    assert np.allclose(a.grad, g @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ g)


# --------------------------------------------------------------------- sigmoid

def test_stable_sigmoid_is_exact_enough_and_never_raises():
    x = np.concatenate([np.linspace(-1000.0, 1000.0, 200_001),
                        [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 745.2, -745.2]])
    with np.errstate(all="raise"):
        s = nm.stable_sigmoid(x)
        s_neg = nm.stable_sigmoid(-x)
    assert ((s >= 0.0) & (s <= 1.0)).all()
    assert nm.stable_sigmoid(np.array([0.0, -0.0])).tolist() == [0.5, 0.5]
    with np.errstate(over="ignore", under="ignore"):
        exp_form = 1.0 / (1.0 + np.exp(-x))
    assert np.abs(s - exp_form).max() <= 2.0 ** -52
    assert np.abs((s + s_neg) - 1.0).max() <= np.spacing(1.0)


# --------------------------------------------------------------------- softmax

def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0]), axis=0).data
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)


def test_softmax_closed_form():
    out = softmax(Tensor([math.log(2.0), 0.0]), axis=0).data
    assert np.max(np.abs(out - [2.0 / 3.0, 1.0 / 3.0])) < 1e-15


def test_softmax_large_logits_no_overflow():
    out = softmax(Tensor([1000.0, 0.0]), axis=0).data
    assert np.max(np.abs(out - [1.0, 0.0])) < 1e-12
    assert np.isfinite(out).all()


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=6),
       st.floats(-50, 50))
def test_softmax_sums_to_one_and_shift_invariant(vals, c):
    x = np.asarray(vals)
    s = softmax(Tensor(x), axis=0).data
    assert abs(s.sum() - 1.0) < 1e-12
    shifted = softmax(Tensor(x + c), axis=0).data
    assert np.max(np.abs(s - shifted)) < 1e-12


def test_softmax_axis_errors():
    with pytest.raises(ValueError):
        softmax(Tensor(np.ones((2, 2))), axis=5)


def test_softmax_axis_rows_vs_cols():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 0.5]]))
    s0 = softmax(x, axis=0).data
    s1 = softmax(x, axis=1).data
    assert np.allclose(s0.sum(axis=0), 1.0)
    assert np.allclose(s1.sum(axis=1), 1.0)


# -------------------------------------------------------------------- backward

def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3) + 1.0, requires_grad=True)
    with Tape() as tape:
        loss = x.sum()
    backward(loss, tape)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_bilinear_dot():
    rng = Rng(5)
    xv, yv = rand(rng, (4,)), rand(rng, (4,))
    x = Tensor(xv, requires_grad=True)
    y = Tensor(yv, requires_grad=True)
    with Tape() as tape:
        loss = (x * y).sum()
    backward(loss, tape)
    assert np.allclose(x.grad, yv)
    assert np.allclose(y.grad, xv)


def test_backward_diamond_reuse_accumulates():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        y = x * x      # dy/dx = 2x
        loss = (y + x).sum()
    backward(loss, tape)
    assert np.allclose(x.grad, [2 * 2.0 + 1.0])


def mean_chain(a, axis=None, keepdims=False):
    """Reference: the mean as a sum followed by a scaling op."""
    n = a.data.size if axis is None else a.data.shape[axis]
    return nm.tensor_sum(a, axis, keepdims) * (1.0 / n)


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, True), (0, False),
                                           (1, False), (-1, True)])
def test_fused_mean_matches_op_chain_bit_for_bit(axis, keepdims):
    results = []
    for mean in (nm.tensor_mean, mean_chain):
        rng = Rng(91)
        x = Tensor(rand(rng, (3, 7)), requires_grad=True)
        w = Tensor(rand(rng, (3, 7)))
        with Tape() as tape:
            m = mean(x, axis, keepdims)
            # x also feeds the loss directly, so its gradient sums two terms
            loss = (m * m).sum() + (x * w).sum()
        backward(loss, tape)
        results.append((m.data, loss.data, x.grad))
    for got, want in zip(*results):
        assert got.shape == want.shape
        assert (got == want).all()


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_fused_mean_grad_check_and_one_node(axis):
    rng = Rng(93)
    x = Tensor(rand(rng, (4, 3)), requires_grad=True)
    w = rand(rng, (4, 3)).mean(axis=axis, keepdims=True)

    def f(params):
        return (params[0].mean(axis=axis, keepdims=True) * Tensor(w)).sum()

    assert grad_check(f, [x], eps=1e-5) < 1e-6
    with Tape() as tape:
        x.mean(axis=axis)
    assert len(tape.nodes) == 1


def split_graph(split: bool, used=(0, 2, 3, 5)):
    """Six 2-row blocks of a matmul output, some used, one of them twice,
    others not at all. The blocks come from one split of the product or, for
    the per-step reference, one product per block. Returns (blocks, loss,
    leaves)."""
    rng = Rng(95)
    z = Tensor(rand(rng, (12, 3)))
    w = Tensor(rand(rng, (3, 4)), requires_grad=True)
    c = [Tensor(rand(rng, (2, 4))) for _ in range(6)]
    with Tape() as tape:
        if split:
            blocks = nm.split_rows(matmul(z, w), 6)
        else:
            blocks = [matmul(Tensor(z.data[2 * i:2 * i + 2]), w) for i in range(6)]
        loss = sum((blocks[i] * c[i]).sum() for i in used) + (blocks[3] * blocks[3]).sum()
    backward(loss, tape)
    return blocks, loss, [w]


def test_split_rows_matches_per_step_loop():
    blocks, loss, leaves = split_graph(split=True)
    ref_blocks, ref_loss, ref_leaves = split_graph(split=False)
    for got, want in zip([*blocks, loss], [*ref_blocks, ref_loss]):
        assert np.array_equal(got.data, want.data)
    scale = np.abs(ref_leaves[0].grad).max()
    assert np.abs(leaves[0].grad - ref_leaves[0].grad).max() <= 1e-13 * scale


def test_split_rows_hands_its_parent_one_gradient(monkeypatch):
    # pieces without a gradient leave zero rows, and the parent gets every
    # piece's gradient in one accum call
    rng = Rng(97)
    x = Tensor(rand(rng, (8, 3)), requires_grad=True)
    c = Tensor(rand(rng, (2, 3)))
    calls = []
    accum = nm.accum
    monkeypatch.setattr(nm, "accum",
                        lambda t, g: calls.append(t is x) or accum(t, g))
    with Tape() as tape:
        pieces = nm.split_rows(x, 4)
        loss = (pieces[1] * c).sum() + (pieces[3] * pieces[3]).sum()
    backward(loss, tape)
    assert sum(calls) == 1
    want = np.zeros((8, 3))
    want[2:4] = c.data
    want[6:8] = 2.0 * x.data[6:8]
    assert np.array_equal(x.grad, want)
    assert [p.shape for p in pieces] == [(2, 3)] * 4
    assert all(np.shares_memory(p.data, x.data) for p in pieces)


def test_split_rows_grad_check_with_unused_pieces():
    rng = Rng(99)
    x = Tensor(rand(rng, (10, 3)), requires_grad=True)
    c = [Tensor(rand(rng, (2, 3))) for _ in range(5)]

    def f(params):
        pieces = nm.split_rows(params[0], 5)
        return (pieces[0] * c[0]).sum() + (pieces[4] * pieces[4] * c[4]).sum()

    assert grad_check(f, [x], eps=1e-5) < 1e-8


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_concat_hands_each_part_its_slice_of_the_gradient(axis):
    rng = Rng(101)
    sizes = (1, 3, 2)
    parts = [Tensor(rand(rng, (n, 4) if axis == 0 else (4, n)), requires_grad=True)
             for n in sizes]
    upstream = rand(rng, (6, 4) if axis == 0 else (4, 6))
    with Tape() as tape:
        loss = (nm.concat(parts, axis=axis) * Tensor(upstream)).sum()
    backward(loss, tape)
    lo = 0
    for part, n in zip(parts, sizes):
        want = upstream[lo:lo + n] if axis == 0 else upstream[:, lo:lo + n]
        assert np.array_equal(part.grad, want)
        lo += n


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = x * 2.0
    with pytest.raises(ValueError, match="scalar"):
        backward(y, tape)


def test_backward_rejects_foreign_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape1:
        loss = x.sum()
    with Tape() as tape2:
        x.sum()
    with pytest.raises(ValueError, match="tape"):
        backward(loss, tape2)


def test_backward_rejects_untaped_loss():
    x = Tensor(np.ones(3))  # no gradient wanted: nothing is recorded
    with Tape() as tape:
        loss = x.sum()
    assert len(tape.nodes) == 0
    with pytest.raises(ValueError, match="tape"):
        backward(loss, tape)


def test_dropped_tape_leaves_no_cyclic_garbage():
    # a node holds no reference to its tape, so dropping the tape and the loss
    # frees the whole graph by reference counting, without the cycle collector
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    gc.collect()
    gc.disable()
    try:
        with Tape() as tape:
            loss = (nm.tanh(matmul(x, x)) * x).sum()
        backward(loss, tape)
        del tape, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


# leaf gradients of one bouncing_mini training sequence (model init spawn(0),
# run rng spawn(1), sequence Rng(0)), SHA-256 prefix over the parameters in
# name order; taken with the same BLAS build and thread count as the golden
# digests of test_golden_artifacts.py
LEAF_GRADS = {"scoff": "026d21d44528", "gru": "4a8d030fd44b"}


@pytest.mark.parametrize("model", sorted(LEAF_GRADS))
def test_backward_consumes_the_tape_once(model):
    resolved = parse_config(os.path.join(CONFIGS, "bouncing_mini.cfg"), [f"model={model}"])
    cfg = to_train_config(resolved)
    net = build_model(cfg, Rng(cfg.seed).spawn(0))
    seq = gen_bouncing_mini(Rng(0), resolved["length"], resolved["n_balls"])
    with Tape() as tape:
        loss, _ = sequence_loss(net, seq, Rng(cfg.seed).spawn(1))
    backward(loss, tape)
    assert tape.nodes and all(node._backward is None for node in tape.nodes)
    params = sorted(net.parameters().items())
    digest = hashlib.sha256(b"".join(p.grad.tobytes() for _, p in params))
    assert digest.hexdigest()[:12] == LEAF_GRADS[model]
    before = [p.grad.copy() for _, p in params]
    with pytest.raises(ValueError, match="consumed"):
        backward(loss, tape)
    assert all(np.array_equal(p.grad, g) for (_, p), g in zip(params, before))


def test_backward_releases_each_closure_as_the_scan_reaches_it():
    x = Tensor(np.ones(2), requires_grad=True)
    seen = []
    with Tape() as tape:
        first = nm.record(x.data * 1.0, (x,), lambda g: seen.append(
            [node._backward for node in tape.nodes[1:]]))
        loss = (nm.tanh(first) * first).sum()
    backward(loss, tape)
    assert seen == [[None] * (len(tape.nodes) - 1)]


def test_tape_topological_order():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        y = x * 3.0
        z = y + x
        w = (z * y).sum()
    pos = {id(t): i for i, t in enumerate(tape.nodes)}
    checked = 0
    for node in tape.nodes:
        # a node's parents are the Tensors its backward closure holds
        for cell in node._backward.__closure__:
            parent = cell.cell_contents
            if isinstance(parent, Tensor) and id(parent) in pos:
                assert pos[id(parent)] < pos[id(node)]
                checked += 1
    assert checked == 4  # z <- y, z * y <- z, z * y <- y, sum <- z * y


def test_backward_composite_attention_gru_graph_matches_finite_differences():
    # small graph combining the op families the layer uses
    rng = Rng(21)
    w_q = Tensor(rand(rng, (3, 2)), requires_grad=True)
    w_k = Tensor(rand(rng, (3, 2)), requires_grad=True)
    w_v = Tensor(rand(rng, (3, 3)), requires_grad=True)
    u = Tensor(rand(rng, (3, 3)), requires_grad=True)
    b = Tensor(rand(rng, (3,)), requires_grad=True)
    feats = Tensor(rand(rng, (4, 3)))
    h0 = Tensor(rand(rng, (1, 3)))

    def f(params):
        wq, wk, wv, uu, bb = params
        scores = matmul(matmul(h0, wq), nm.transpose(matmul(feats, wk)))
        w = softmax(scores, axis=1)
        z = matmul(w, matmul(feats, wv))
        g = nm.sigmoid(matmul(z, uu) + bb)
        c = nm.tanh(matmul(h0, uu))
        out = (1.0 - g) * h0 + g * c
        return (out * out).sum()

    err = grad_check(f, [w_q, w_k, w_v, u, b], eps=1e-5)
    assert err < 1e-4


# ------------------------------------------------------ deferred weight products

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


def per_step_backward(loss, tape):
    """Reference for ``backward``: the same reverse scan, but every closure
    runs outside ``backward``, so each ``accum_xtg`` product is added at
    once, step by step."""
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node.grad is not None:
            node._backward(node.grad)


def _batch_grads(cfg, sequences, run_backward):
    """Leaf gradients of a freshly built model summed over ``sequences``,
    each trained with the same noise stream."""
    model = build_model(cfg, Rng(cfg.seed).spawn(0))
    run_rng = Rng(cfg.seed).spawn(1)
    for seq in sequences:
        with Tape() as tape:
            loss, _ = sequence_loss(model, seq, run_rng)
        run_backward(loss, tape)
    return {name: p.grad for name, p in model.parameters().items()}


@pytest.mark.parametrize("config,model", [("bouncing_mini", "scoff"),
                                          ("bouncing_mini", "gru"),
                                          ("adding_mini", "scoff")])
def test_deferred_leaf_products_match_per_step_reference(config, model):
    resolved = parse_config(os.path.join(CONFIGS, f"{config}.cfg"), [f"model={model}"])
    cfg = to_train_config(resolved)
    if cfg.task == "adding":
        sequences = [gen_adding(Rng(i), resolved["length"], n)
                     for i, n in enumerate((2, 4))]
    else:
        sequences = [gen_bouncing_mini(Rng(i), resolved["length"], resolved["n_balls"])
                     for i in range(2)]
    got = _batch_grads(cfg, sequences, backward)
    want = _batch_grads(cfg, sequences, per_step_backward)
    assert got.keys() == want.keys()
    for name, g in got.items():
        assert g is not None and g.shape == want[name].shape, name
        scale = max(np.abs(want[name]).max(), 1e-300)
        assert np.abs(g - want[name]).max() <= 1e-12 * scale, name


def test_deferred_product_is_one_product_over_stacked_rows():
    rng = Rng(61)
    w = Tensor(rand(rng, (3, 2)), requires_grad=True)
    xs = [Tensor(rand(rng, (n, 3))) for n in (1, 2, 4)]
    ws = [Tensor(rand(rng, (n, 2))) for n in (1, 2, 4)]
    with Tape() as tape:
        loss = sum((matmul(x, w) * c).sum() for x, c in zip(xs, ws))
    backward(loss, tape)
    # the reverse scan queues the last use first
    want = (np.concatenate([x.data for x in reversed(xs)]).T
            @ np.concatenate([c.data for c in reversed(ws)]))
    assert (w.grad == want).all()


def test_non_leaf_right_operand_is_complete_before_its_backward():
    rng = Rng(62)
    w = Tensor(rand(rng, (3, 2)), requires_grad=True)
    x1, x2 = Tensor(rand(rng, (2, 3))), Tensor(rand(rng, (4, 3)))
    results = []
    for run_backward in (backward, per_step_backward):
        w.zero_grad()
        with Tape() as tape:
            v = w * 2.0  # a non-leaf right operand, used twice
            loss = matmul(x1, v).sum() + nm.tanh(matmul(x2, v)).sum()
        run_backward(loss, tape)
        assert v.grad is not None
        results.append((v.grad, w.grad))
    (v_got, w_got), (v_want, w_want) = results
    assert (v_got == v_want).all() and (w_got == w_want).all()
    g1 = x1.data.T @ np.ones((2, 2))
    g2 = x2.data.T @ (1.0 - np.tanh(x2.data @ (2.0 * w.data)) ** 2)
    assert np.allclose(w_got, 2.0 * (g1 + g2), rtol=1e-13, atol=0.0)


def test_leaf_as_left_and_right_operand_sums_both():
    rng = Rng(63)
    w = Tensor(rand(rng, (3, 3)), requires_grad=True)
    results = []
    for run_backward in (backward, per_step_backward):
        w.zero_grad()
        with Tape() as tape:
            loss = matmul(matmul(w, w), w).sum()
        run_backward(loss, tape)
        results.append(w.grad)
    got, want = results
    wd, ones = w.data, np.ones((3, 3))
    # d/dW of sum(W·W·W): three placements of W, each left- or right-operand
    analytic = ones @ (wd @ wd).T + wd.T @ ones @ wd.T + (wd @ wd).T @ ones
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.allclose(got, analytic, rtol=1e-12, atol=0.0)


def test_weight_reused_over_five_steps_grad_check():
    rng = Rng(64)
    w = Tensor(rand(rng, (3, 3)) * 0.5, requires_grad=True)
    u = Tensor(rand(rng, (2, 3)), requires_grad=True)
    xs = [Tensor(rand(rng, (2, 2))) for _ in range(5)]

    def f(params):
        w_, u_ = params
        h = Tensor(np.zeros((2, 3)))
        for x in xs:
            h = nm.tanh(matmul(h, w_) + matmul(x, u_))
        return (h * h).sum()

    assert grad_check(f, [w, u], eps=1e-5) < 1e-7


def test_failed_backward_leaves_no_queue_behind():
    w = Tensor(np.ones((2, 2)), requires_grad=True)

    def fail(g):
        raise RuntimeError("backward closure failed")

    with Tape() as tape:
        loss = nm.record(np.asarray(1.0), (w,), fail)
    with pytest.raises(RuntimeError):
        backward(loss, tape)
    # outside backward the product is added at once
    nm.accum_xtg(w, np.ones((1, 2)), np.ones((1, 2)))
    assert (w.grad == np.ones((2, 2))).all()


# ------------------------------------------------------------------- grad_check

def test_grad_check_quadratic():
    x = Tensor([3.0], requires_grad=True)

    def f(params):
        (p,) = params
        return (p * p).sum()

    assert grad_check(f, [x], eps=1e-5) < 1e-9


def test_grad_check_linear():
    x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
    c = np.array([2.0, 3.0, -1.0])

    def f(params):
        (p,) = params
        return (p * Tensor(c)).sum()

    assert grad_check(f, [x], eps=1e-4) < 1e-10


def test_grad_check_reports_non_finite_coordinate():
    x = Tensor([1e-9], requires_grad=True)

    def f(params):
        (p,) = params
        return nm.log(p).sum()  # perturbing below zero explodes

    with pytest.raises((FloatingPointError, ValueError)):
        grad_check(f, [x], eps=1e-3)


# ----------------------------------------------------------------- gumbel + rng

def test_gumbel_transform_closed_forms():
    assert abs(-math.log(-math.log(math.exp(-1.0)))) < 1e-15
    assert abs(-math.log(-math.log(math.exp(-math.e))) + 1.0) < 1e-15


def test_sample_gumbel_consumes_uniform_stream():
    u = Rng(99).uniform((8,))
    g = sample_gumbel(Rng(99), (8,))
    assert np.allclose(g.data, -np.log(-np.log(u)), atol=0, rtol=0)


def test_sample_gumbel_empirical_mean_matches_euler_mascheroni():
    g = sample_gumbel(Rng(123), (1_000_000,))
    assert abs(float(g.data.mean()) - 0.5772) < 0.01


def _splitmix64_raw(seed, n, start=0):
    # independent pure-int implementation of the documented generator:
    # draws start + 1 .. start + n of the stream
    mask = (1 << 64) - 1
    out = []
    for i in range(start + 1, start + n + 1):
        z = ((seed & mask) + 0x9E3779B97F4A7C15 * i) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def _splitmix64_reference(seed, n, start=0):
    return [(z >> 11) / float(2**53) for z in _splitmix64_raw(seed, n, start)]


RNG_SEEDS = (0, 1, 20240501, 2**63 + 12345, 2**64 - 1, -7)


def _rng_at(seed, offset):
    """Rng(seed) after ``offset`` draws taken as one block."""
    rng = Rng(seed)
    if offset:
        rng.uniform((offset,))
    return rng


def test_rng_matches_pure_python_reference():
    for seed in RNG_SEEDS:
        for offset in (0, 1, 5, 1000):
            want = np.clip(_splitmix64_reference(seed, 5, offset), 2.0**-53, 1 - 2.0**-53)
            assert np.array_equal(_rng_at(seed, offset).uniform((5,)), want)
            rng = _rng_at(seed, offset)
            scalars = [rng.uniform() for _ in range(5)]
            assert all(type(u) is float for u in scalars)
            assert np.array_equal(np.array(scalars), want)
            rng = _rng_at(seed, offset)
            for n, z in zip((1, 2, 3, 1000, 2**40), _splitmix64_raw(seed, 5, offset)):
                assert rng.randint(n) == (z * n) >> 64


def test_rng_streams_identical_and_open_interval():
    a = Rng(77).uniform((1000,))
    b = Rng(77).uniform((1000,))
    assert np.array_equal(a, b)
    assert a.min() > 0.0 and a.max() < 1.0


def test_rng_block_vs_scalar_draws_identical():
    for seed in RNG_SEEDS:
        block = Rng(seed).uniform((40,))
        raw = _splitmix64_raw(seed, 40)
        mixed = Rng(seed)
        for i in range(40):  # scalar uniform, randint, gumbel and blocks interleaved
            if i % 4 == 0:
                assert mixed.uniform() == block[i]
            elif i % 4 == 1:
                assert mixed.randint(3 + i) == (raw[i] * (3 + i)) >> 64
            elif i % 4 == 2:
                assert mixed.uniform((1,))[0] == block[i]
            else:
                assert mixed.gumbel() == -np.log(-np.log(block[i]))


def test_rng_spawn_streams_differ():
    root = Rng(1)
    a = root.spawn(0).uniform((4,))
    b = root.spawn(1).uniform((4,))
    assert not np.array_equal(a, b)


def _spawn_uint64_reference(seed, index):
    # the child seed in numpy uint64 arithmetic, as first documented
    gamma, mix1, mix2 = (np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                                0x94D049BB133111EB))
    with np.errstate(over="ignore"):
        z = np.uint64(seed & ((1 << 64) - 1)) ^ (gamma * np.uint64(index + 1))
        z = (z ^ (z >> np.uint64(30))) * mix1
        z = (z ^ (z >> np.uint64(27))) * mix2
        return int(z ^ (z >> np.uint64(31)))


def test_rng_spawn_matches_uint64_reference():
    near_top = [2**63, 2**64 - 1000, 2**64 - 3, 2**64 - 2]
    for seed in RNG_SEEDS:
        root = Rng(seed)
        for index in [*range(1000), *near_top]:
            assert root.spawn(index).seed == _spawn_uint64_reference(seed, index)
    for index in (-1, 2**64 - 1):
        with pytest.raises(ValueError, match="spawn index"):
            Rng(0).spawn(index)


_SHAPES = st.one_of(st.integers(0, 3000), st.tuples(st.integers(1, 3000)),
                    st.tuples(st.integers(1, 60), st.integers(1, 60)))
_RNG_OPS = st.lists(st.one_of(
    st.tuples(st.just("uniform"), _SHAPES),
    st.tuples(st.just("gumbel"), st.one_of(st.just(()), _SHAPES)),
    st.tuples(st.just("bernoulli"), st.floats(0.0, 1.0), st.one_of(st.just(()), _SHAPES)),
    st.tuples(st.just("randint"), st.integers(1, 2**40)),
    st.tuples(st.just("shuffle"), st.integers(0, 40)),
    st.tuples(st.just("scalar")),
    st.tuples(st.just("spawn"), st.integers(0, 2**64 - 2)),
), max_size=25)


@settings(deadline=None, max_examples=60)
@given(seed=st.one_of(st.sampled_from(RNG_SEEDS), st.integers(0, 2**64 - 1)),
       ops=_RNG_OPS)
def test_rng_interleaved_draws_match_unbuffered_reference(seed, ops):
    # whatever mix of array, scalar and integer draws a stream serves, and
    # wherever the read-ahead block's edges fall, draw i is a function of
    # (seed, i) alone
    rng, at = Rng(seed), 0

    def uniforms(n):
        nonlocal at
        want = np.clip(_splitmix64_reference(seed, n, at), 2.0**-53, 1 - 2.0**-53)
        at += n
        return np.asarray(want, dtype=np.float64)

    for op, *args in ops:
        shape = args[-1] if op in ("uniform", "gumbel", "bernoulli") else None
        shape = (shape,) if isinstance(shape, int) else shape
        if op == "uniform":
            got = rng.uniform(args[0])
            assert got.shape == shape
            assert np.array_equal(got, uniforms(math.prod(shape)).reshape(shape))
        elif op == "gumbel":
            got = rng.gumbel(args[0])
            want = -np.log(-np.log(uniforms(math.prod(shape) if shape else 1)))
            assert np.shape(got) == shape
            assert np.array_equal(np.reshape(got, -1), want)
        elif op == "bernoulli":
            got = rng.bernoulli(*args)
            want = uniforms(math.prod(shape) if shape else 1) < args[0]
            assert np.shape(got) == shape
            assert np.array_equal(np.reshape(got, -1), want)
        elif op == "randint":
            (z,) = _splitmix64_raw(seed, 1, at)
            at += 1
            assert rng.randint(args[0]) == (z * args[0]) >> 64
        elif op == "shuffle":
            items = list(range(args[0]))
            want = list(items)
            for i, z in zip(range(len(want) - 1, 0, -1),
                            _splitmix64_raw(seed, max(0, len(want) - 1), at)):
                j = (z * (i + 1)) >> 64
                want[i], want[j] = want[j], want[i]
            at += max(0, len(want) - 1)
            rng.shuffle(items)
            assert items == want
        elif op == "scalar":
            got = rng.uniform()
            assert type(got) is float and got == uniforms(1)[0]
        else:
            child = rng.spawn(args[0])
            assert child.seed == _spawn_uint64_reference(seed, args[0])
            assert np.array_equal(child.uniform((3,)), np.clip(
                _splitmix64_reference(child.seed, 3), 2.0**-53, 1 - 2.0**-53))
    assert rng.uniform((5,)).tolist() == uniforms(5).tolist()


def test_bouncing_mini_training_sequence_fetches_at_most_two_blocks(monkeypatch):
    # one training sequence of bouncing_mini draws 29 steps x 96 uniforms
    # through three array draws a step: the stream's first draw fetches
    # exactly its 64, and one read-ahead block covers the rest
    import scoff.rng

    fetches, clamped = [], scoff.rng._clamped

    def counted(seed, start, n):
        fetches.append(n)
        return clamped(seed, start, n)

    resolved = parse_config(os.path.join(CONFIGS, "bouncing_mini.cfg"), [])
    model = build_model(to_train_config(resolved), Rng(0))
    seq = gen_bouncing_mini(Rng(1), resolved["length"], resolved["n_balls"])
    rng = Rng(2)
    monkeypatch.setattr(scoff.rng, "_clamped", counted)
    with Tape():
        sequence_loss(model, seq, rng)
    assert rng._counter == 2784
    assert len(fetches) <= 2 and fetches[0] == 64
