import math

import numpy as np
import pytest

import scoff.numerics as nm
from scoff.attention import AttentionProjections, attend, topk_mask
from scoff.numerics import Tape, Tensor, backward, grad_check
from scoff.rng import Rng


def rand(rng, shape):
    return np.asarray(rng.uniform(shape)) * 2.0 - 1.0


def attend_oracle(q, k, v, axis, scale):
    """Explicit double-loop softmax-weighted sum."""
    nq, nc = q.shape[0], k.shape[0]
    scores = np.zeros((nq, nc))
    for i in range(nq):
        for j in range(nc):
            scores[i, j] = sum(q[i, e] * k[j, e] for e in range(q.shape[1])) * scale
    weights = np.zeros_like(scores)
    if axis == "candidates":
        for i in range(nq):
            row = scores[i] - scores[i].max()
            e = np.exp(row)
            weights[i] = e / e.sum()
    else:
        for j in range(nc):
            col = scores[:, j] - scores[:, j].max()
            e = np.exp(col)
            weights[:, j] = e / e.sum()
    out = np.zeros((nq, v.shape[1]))
    for i in range(nq):
        for j in range(nc):
            out[i] += weights[i, j] * v[j]
    return weights, out


def attend_qkv(q, k, v, axis, scale, dropout=0.0, rng=None):
    """``attend`` on given queries q, keys k and values v: the queriers are q,
    the candidates k beside v, and the projections identity blocks that pick
    them out exactly."""
    q, k, v = (np.asarray(x, dtype=np.float64) for x in (q, k, v))
    d_k = k.shape[1]
    eye = np.eye(d_k + v.shape[1])
    return attend(Tensor(q), Tensor(np.concatenate([k, v], axis=1)),
                  Tensor(np.eye(q.shape[1])), Tensor(eye[:, :d_k]), Tensor(eye[:, d_k:]),
                  axis, scale, dropout, rng)


def test_attend_single_candidate():
    v = [[2.0, 3.0, 4.0]]
    aw, out = attend_qkv([[1.0, -0.5]], [[0.3, 0.7]], v, "candidates", 1.0)
    assert np.allclose(aw, [[1.0]])
    assert np.allclose(out.data, v)


def test_attend_identical_keys_average_values():
    aw, out = attend_qkv([[0.2, 0.4]], [[1.0, 1.0], [1.0, 1.0]], [[2.0, 0.0], [0.0, 4.0]],
                         "candidates", 1.0)
    assert np.allclose(aw, [[0.5, 0.5]])
    assert np.allclose(out.data, [[1.0, 2.0]])


def test_attend_matches_double_loop_oracle():
    rng = Rng(31)
    q, k, v = rand(rng, (3, 5)), rand(rng, (4, 5)), rand(rng, (4, 2))
    scale = 1.0 / math.sqrt(5)
    for axis in ("candidates", "queriers"):
        aw, out = attend_qkv(q, k, v, axis, scale)
        w_ref, out_ref = attend_oracle(q, k, v, axis, scale)
        assert np.max(np.abs(aw - w_ref)) < 1e-12
        assert np.max(np.abs(out.data - out_ref)) < 1e-12


def test_attend_candidate_outputs_are_convex_combinations():
    rng = Rng(8)
    for trial in range(20):
        q, k, v = rand(rng, (3, 4)), rand(rng, (5, 4)), rand(rng, (5, 3))
        _, out = attend_qkv(q, k, v, "candidates", 0.5)
        lo, hi = v.min(axis=0), v.max(axis=0)
        assert (out.data >= lo - 1e-12).all()
        assert (out.data <= hi + 1e-12).all()


def test_attend_equivariant_to_candidate_permutation():
    rng = Rng(9)
    q, k, v = rand(rng, (3, 4)), rand(rng, (5, 4)), rand(rng, (5, 3))
    perm = [3, 0, 4, 1, 2]
    _, out = attend_qkv(q, k, v, "candidates", 1.0)
    _, out_p = attend_qkv(q, k[perm], v[perm], "candidates", 1.0)
    assert np.max(np.abs(out.data - out_p.data)) < 1e-12


def test_attend_deterministic_without_dropout():
    rng = Rng(10)
    q, k, v = rand(rng, (2, 3)), rand(rng, (4, 3)), rand(rng, (4, 2))
    _, a = attend_qkv(q, k, v, "candidates", 1.0)
    _, b = attend_qkv(q, k, v, "candidates", 1.0)
    assert np.array_equal(a.data, b.data)


def test_attend_dropout_rescales_survivors():
    rng = Rng(12)
    q, k, v = rand(rng, (2, 3)), rand(rng, (6, 3)), np.ones((6, 2))
    drop = 0.5
    aw, out = attend_qkv(q, k, v, "candidates", 1.0, dropout=drop, rng=Rng(4))
    # weights returned are pre-dropout and still normalized
    assert np.allclose(aw.sum(axis=1), 1.0)
    # with all-ones values the output equals the dropped weight row sums
    mask = np.asarray(Rng(4).uniform((2, 6))) >= drop
    expect = (aw * mask / (1 - drop)).sum(axis=1)
    assert np.allclose(out.data[:, 0], expect)


def attend_chain(queriers, candidates, w_query, w_key, w_value, normalize_axis,
                 scale, dropout=0.0, rng=None):
    """Reference: one attention head as its three projection matmuls and a
    chain of elementary taped ops, with dropout when an rng is given."""
    queries = nm.matmul(queriers, w_query)
    keys = nm.matmul(candidates, w_key)
    values = nm.matmul(candidates, w_value)
    scores = nm.matmul(queries, nm.transpose(keys)) * scale
    weights = nm.softmax(scores, axis=0 if normalize_axis == "queriers" else 1)
    used = weights
    if rng is not None and dropout > 0.0:
        keep = np.asarray(rng.uniform(weights.shape)) >= dropout
        used = weights * Tensor(keep / (1.0 - dropout))
    return weights.data, nm.matmul(used, values)


def two_heads(head, rows, axis, dropout, shared):
    """Two heads over shared inputs, as the layer runs them, so that queriers,
    candidates and projections collect several contributions; with
    ``shared`` the queriers are the candidates. Returns (weights, outputs,
    loss, leaves)."""
    rng = Rng(53)
    d_q, d_c, d_k, d_v = 3, 4, 5, 2
    x = Tensor(rand(rng, (rows, d_q)), requires_grad=True)
    y = Tensor(rand(rng, (6, d_c)), requires_grad=True)
    if shared:
        x, d_q = y, d_c
    mats = [Tensor(rand(rng, shape), requires_grad=True)
            for _ in range(2) for shape in ((d_q, d_k), (d_c, d_k), (d_c, d_v))]
    w = Tensor(rand(rng, (x.shape[0], 2 * d_v)))
    noise = Rng(59)
    weights, outs = [], []
    with Tape() as tape:
        for h in range(2):
            aw, out = head(x, y, *mats[3 * h:3 * h + 3], axis, 1.0 / math.sqrt(d_k),
                           dropout=dropout, rng=noise)
            weights.append(aw)
            outs.append(out)
        loss = (nm.concat(outs, axis=1) * w).sum() + (y * y).sum()
    backward(loss, tape)
    return weights, outs, loss, [*dict.fromkeys((x, y)), *mats]


def assert_heads_match_chain(rows, axis, dropout, shared):
    weights, outs, loss, leaves = two_heads(attend, rows, axis, dropout, shared)
    ref_w, ref_outs, ref_loss, ref_leaves = two_heads(attend_chain, rows, axis,
                                                      dropout, shared)
    assert np.array_equal(loss.data, ref_loss.data)
    for got, want in zip(weights, ref_w):
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    for got, want in zip(outs, ref_outs):
        assert np.array_equal(got.data, want.data)
    assert len(leaves) == len(ref_leaves)
    for got, want in zip(leaves, ref_leaves):
        assert got.grad.shape == want.grad.shape
        assert (got.grad == want.grad).all()


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("axis", ["queriers", "candidates"])
@pytest.mark.parametrize("dropout", [0.0, 0.4])
def test_fused_attend_matches_op_chain_bit_for_bit(rows, axis, dropout):
    assert_heads_match_chain(rows, axis, dropout, shared=False)


@pytest.mark.parametrize("axis", ["queriers", "candidates"])
def test_fused_attend_self_attention_matches_op_chain_bit_for_bit(axis):
    # one tensor as queriers and candidates, itself used again besides: the
    # order in which the fused backward adds the contributions decides the bits
    for dropout in (0.0, 0.4):
        assert_heads_match_chain(6, axis, dropout, shared=True)


@pytest.mark.parametrize("axis", ["queriers", "candidates"])
@pytest.mark.parametrize("dropout", [0.0, 0.4])
def test_fused_attend_grad_check_all_parents(axis, dropout):
    rng = Rng(61)
    x = Tensor(rand(rng, (3, 4)), requires_grad=True)
    y = Tensor(rand(rng, (5, 3)), requires_grad=True)
    mats = [Tensor(rand(rng, shape), requires_grad=True)
            for shape in ((4, 2), (3, 2), (3, 2))]
    w = Tensor(rand(rng, (3, 2)))

    def f(params):
        _, out = attend(*params, axis, 0.7, dropout=dropout, rng=Rng(67))
        return (out * w).sum()

    assert grad_check(f, [x, y, *mats], eps=1e-5) < 1e-6


def test_training_attend_appends_one_tape_node_and_detached_weights():
    rng = Rng(71)
    x = Tensor(rand(rng, (3, 4)))
    y = Tensor(rand(rng, (5, 3)))
    mats = [Tensor(rand(rng, shape), requires_grad=True)
            for shape in ((4, 2), (3, 2), (3, 2))]
    with Tape() as tape:
        aw, out = attend(x, y, *mats, "queriers", 0.5, dropout=0.3, rng=Rng(73))
    assert len(tape.nodes) == 1
    assert tape.nodes[0] is out
    assert isinstance(aw, np.ndarray)


def test_projections_validation():
    rng = Rng(1)
    proj = AttentionProjections(rng, 8, 6, heads=2, key_width=3)
    assert [(q.shape, k.shape, v.shape) for q, k, v in
            zip(proj.query, proj.key, proj.value)] == [((8, 3), (6, 3), (6, 4))] * 2
    assert list(proj.named("p_")) == ["p_q0", "p_k0", "p_v0", "p_q1", "p_k1", "p_v1"]
    assert proj.scale == 1 / math.sqrt(3)


# ------------------------------------------------------------------- topk mask

def test_topk_basic():
    assert topk_mask(np.array([3.0, 1.0, 2.0]), 2).tolist() == [True, False, True]


def test_topk_all():
    assert topk_mask(np.array([1.0, 5.0, 2.0]), 3).all()


def test_topk_tie_rule():
    assert topk_mask(np.array([1.0, 1.0, 1.0]), 2).tolist() == [True, True, False]
