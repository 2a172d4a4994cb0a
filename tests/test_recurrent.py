import math

import numpy as np
import pytest

import scoff.numerics as nm
from scoff.numerics import Tape, Tensor, backward
from scoff.recurrent import SchemaParams, gru_step, init_schema, recurrent_param_count
from scoff.rng import Rng


def rand(rng, shape):
    return np.asarray(rng.uniform(shape)) * 2.0 - 1.0


def zero_schema(d_in, d_h):
    z = lambda *s: Tensor(np.zeros(s))
    return SchemaParams(z(d_in, 3 * d_h), z(d_h, 2 * d_h), z(d_h, d_h), z(3 * d_h))


def gates(th):
    """The nine per-gate arrays of a stacked schema, as views:
    (w_r, w_u, w_c, u_r, u_u, u_c, b_r, b_u, b_c)."""
    d = th.u_c.shape[0]
    w, u_ru, b = th.w.data, th.u_ru.data, th.b.data
    return (w[:, :d], w[:, d:2 * d], w[:, 2 * d:], u_ru[:, :d], u_ru[:, d:],
            th.u_c.data, b[:d], b[d:2 * d], b[2 * d:])


def gru_oracle(z, h, th):
    """Elementwise scalar-loop reference for one GRU row."""
    d_in, d_h = len(z), len(h)
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    w_r, w_u, w_c, u_r, u_u, u_c, b_r, b_u, b_c = gates(th)

    def affine(w, u, b, hvec):
        out = []
        for j in range(d_h):
            acc = b[j]
            for i in range(d_in):
                acc += z[i] * w[i][j]
            for i in range(d_h):
                acc += hvec[i] * u[i][j]
            out.append(acc)
        return out

    r = [sig(v) for v in affine(w_r, u_r, b_r, h)]
    u = [sig(v) for v in affine(w_u, u_u, b_u, h)]
    rh = [r[i] * h[i] for i in range(d_h)]
    c = [math.tanh(v) for v in affine(w_c, u_c, b_c, rh)]
    return [(1.0 - u[i]) * h[i] + u[i] * c[i] for i in range(d_h)]


def test_gru_all_zero_parameters_halve_state():
    th = zero_schema(2, 3)
    h = Tensor([[0.4, -0.8, 1.0]])
    out = gru_step(Tensor([[1.0, 2.0]]), h, th)
    assert np.allclose(out.data, 0.5 * h.data, atol=1e-15)


def test_gru_zero_inputs_closed_form():
    rng = Rng(3)
    th = init_schema(rng, 2, 4)
    th.b.data[4:] = rand(rng, (8,))
    out = gru_step(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 4))), th)
    b_u, b_c = gates(th)[7:]
    sig = 1.0 / (1.0 + np.exp(-b_u))
    assert np.allclose(out.data[0], sig * np.tanh(b_c), atol=1e-15)


def test_gru_matches_scalar_oracle():
    rng = Rng(17)
    th = init_schema(rng, 3, 4)
    for t in th.named("").values():
        t.data[...] = rand(rng, t.shape)
    z, h = rand(rng, (3,)), rand(rng, (4,))
    got = gru_step(Tensor(z[None]), Tensor(h[None]), th).data[0]
    want = gru_oracle(z.tolist(), h.tolist(), th)
    assert np.max(np.abs(got - np.asarray(want))) < 1e-12


def test_gru_bounded_state_stays_bounded():
    rng = Rng(23)
    for _ in range(20):
        th = init_schema(rng, 2, 5)
        for t in th.named("").values():
            t.data[...] = rand(rng, t.shape) * 3.0
        h = rand(rng, (1, 5))  # components within [-1, 1]
        z = rand(rng, (1, 2)) * 10.0
        out = gru_step(Tensor(z), Tensor(h), th).data
        assert (np.abs(out) <= 1.0 + 1e-12).all()


def test_gru_is_slot_blind():
    # identical (z, h, theta) rows produce identical updates no matter which
    # row carries them
    rng = Rng(29)
    th = init_schema(rng, 3, 4)
    z_row, h_row = rand(rng, (3,)), rand(rng, (4,))
    stacked_z = Tensor(np.stack([z_row, z_row]))
    stacked_h = Tensor(np.stack([h_row, h_row]))
    out = gru_step(stacked_z, stacked_h, th).data
    assert np.array_equal(out[0], out[1])
    single = gru_step(Tensor(z_row[None]), Tensor(h_row[None]), th).data[0]
    assert np.max(np.abs(out[0] - single)) < 1e-15


def test_gru_backward_is_finite_difference_clean():
    rng = Rng(31)
    th = init_schema(rng, 2, 3)

    def f(params):
        z = Tensor(np.array([[0.3, -0.7]]))
        h = Tensor(np.array([[0.1, 0.2, -0.4]]))
        out = gru_step(z, h, th)
        return (out * out).sum()

    assert nm.grad_check(f, list(th.named("").values()), eps=1e-5) < 1e-4


def cols(t, lo, hi):
    """Test-local op: the slice lo:hi of the last axis of t."""

    def back(g):
        full = np.zeros_like(t.data)
        full[..., lo:hi] = g
        nm.accum(t, full)

    return nm.record(t.data[..., lo:hi].copy(), (t,), back)


def gru_chain(z, h, th):
    """Reference: the stacked GRU cell as a chain of elementary taped ops.
    h enters through one full-width slice, so that its three contributions
    are summed before they reach h, as the fused backward sums them."""
    d = th.u_c.shape[0]
    h = cols(h, 0, d)
    a = nm.matmul(z, th.w) + th.b
    ru = nm.sigmoid(cols(a, 0, 2 * d) + nm.matmul(h, th.u_ru))
    r, u = cols(ru, 0, d), cols(ru, d, 2 * d)
    c = nm.tanh(cols(a, 2 * d, 3 * d) + nm.matmul(r * h, th.u_c))
    return (1.0 - u) * h + u * c


def nine_matrix_chain(z, h, th):
    """Reference: the cell as three separate gates with nine parameter
    tensors, each a slice of the stacked ones."""
    d = th.u_c.shape[0]
    w_r, w_u, w_c = (cols(th.w, i * d, (i + 1) * d) for i in range(3))
    u_r, u_u = (cols(th.u_ru, i * d, (i + 1) * d) for i in range(2))
    b_r, b_u, b_c = (cols(th.b, i * d, (i + 1) * d) for i in range(3))
    r = nm.sigmoid(nm.matmul(z, w_r) + nm.matmul(h, u_r) + b_r)
    u = nm.sigmoid(nm.matmul(z, w_u) + nm.matmul(h, u_u) + b_u)
    c = nm.tanh(nm.matmul(z, w_c) + nm.matmul(r * h, th.u_c) + b_c)
    return (1.0 - u) * h + u * c


def random_cell(rng, d_in, d_h):
    th = init_schema(rng, d_in, d_h)
    for t in th.named("").values():
        t.data[...] = rand(rng, t.shape)
    return th


def unrolled_loss(cell, rows, h_grad):
    """Two cells applied in a small graph that reuses z, h and each cell, so
    that every leaf collects several contributions; returns (loss, leaves)."""
    rng = Rng(41)
    d_in, d_h = 3, 5
    th_a, th_b = random_cell(rng, d_in, d_h), random_cell(rng, d_in, d_h)
    z = Tensor(rand(rng, (rows, d_in)), requires_grad=True)
    h0 = Tensor(rand(rng, (rows, d_h)), requires_grad=h_grad)
    w = Tensor(rand(rng, (rows, d_h)))
    with Tape() as tape:
        h1 = cell(z, h0, th_a)
        h2 = cell(z, h1, th_b)
        h3 = cell(z, h1, th_a)
        loss = (h2 * h3).sum() + (h1 * w).sum() + (h0 * h0).sum()
    backward(loss, tape)
    return (h1, h2, h3, loss), [z, h0, *th_a.named("").values(), *th_b.named("").values()]


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("h_grad", [True, False])
def test_fused_gru_matches_op_chain_bit_for_bit(rows, h_grad):
    outs, leaves = unrolled_loss(gru_step, rows, h_grad)
    ref_outs, ref_leaves = unrolled_loss(gru_chain, rows, h_grad)
    for got, want in zip(outs, ref_outs):
        assert np.array_equal(got.data, want.data)
    for got, want in zip(leaves, ref_leaves):
        if want.grad is None:
            assert got.grad is None
        else:
            assert got.grad.shape == want.grad.shape
            assert (got.grad == want.grad).all()


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("h_grad", [True, False])
def test_stacked_gru_matches_nine_matrix_formula(rows, h_grad):
    # stacking reassociates the gate sums (z·w + b, then + h·u), so the two
    # forms agree to rounding, not to the bit
    outs, leaves = unrolled_loss(gru_step, rows, h_grad)
    ref_outs, ref_leaves = unrolled_loss(nine_matrix_chain, rows, h_grad)
    for got, want in zip(outs, ref_outs):
        assert np.abs(got.data - want.data).max() <= 1e-13 * max(np.abs(want.data).max(), 1.0)
    for got, want in zip(leaves, ref_leaves):
        if want.grad is None:
            assert got.grad is None
            continue
        assert got.grad.shape == want.grad.shape
        assert np.abs(got.grad - want.grad).max() <= 1e-12 * np.abs(want.grad).max()


def test_fused_gru_shared_input_and_state_matches_op_chain_bit_for_bit():
    # one tensor as input and state: the order in which the fused backward
    # adds its two contributions decides the bits
    grads = []
    for cell in (gru_step, gru_chain):
        rng = Rng(83)
        th = random_cell(rng, 4, 4)
        x = Tensor(rand(rng, (3, 4)), requires_grad=True)
        with Tape() as tape:
            out = cell(x, x, th)
            loss = (out * out).sum()
        backward(loss, tape)
        grads.append(x.grad)
    assert (grads[0] == grads[1]).all()


def test_fused_gru_grad_check_all_parents():
    rng = Rng(43)
    th = random_cell(rng, 3, 4)
    z = Tensor(rand(rng, (4, 3)), requires_grad=True)
    h = Tensor(rand(rng, (4, 4)), requires_grad=True)
    w = Tensor(rand(rng, (4, 4)))

    def f(params):
        return (gru_step(params[0], params[1], th) * w).sum()

    assert nm.grad_check(f, [z, h, *th.named("").values()], eps=1e-5) < 1e-6


def test_fused_gru_grad_check_two_steps_one_schema():
    # the schema's weights queue two pairs and its bias takes two sums
    rng = Rng(45)
    th = random_cell(rng, 3, 4)
    z = Tensor(rand(rng, (2, 3)), requires_grad=True)
    h = Tensor(rand(rng, (2, 4)), requires_grad=True)
    w = Tensor(rand(rng, (2, 4)))

    def f(params):
        return (gru_step(params[0], gru_step(params[0], params[1], th), th) * w).sum()

    assert nm.grad_check(f, [z, h, *th.named("").values()], eps=1e-5) < 1e-6


def test_gru_step_appends_one_tape_node():
    rng = Rng(47)
    th = random_cell(rng, 3, 4)
    z, h = Tensor(rand(rng, (2, 3))), Tensor(rand(rng, (2, 4)))
    with Tape() as tape:
        out = gru_step(z, h, th)
    assert len(tape.nodes) == 1
    assert tape.nodes[0] is out


def test_init_schema_biases_zero_and_bounds():
    rng = Rng(5)
    th = init_schema(rng, 3, 4)
    assert np.array_equal(th.b.data, np.zeros(12))
    assert (np.abs(th.w.data) <= math.sqrt(6.0 / (3 + 4))).all()
    assert (np.abs(th.u_ru.data) <= math.sqrt(6.0 / (4 + 4))).all()
    assert all(t.requires_grad for t in th.named("").values())


def test_init_schema_equals_six_gate_draws_bit_for_bit():
    # each gate drawn on its own, input weights first, as before the stacking,
    # so the stacked cell starts from the same values and leaves the stream
    # where the per-gate draws left it
    got_rng, want_rng = Rng(9), Rng(9)
    th = init_schema(got_rng, 3, 4)
    w = [nm.glorot(want_rng, 3, 4).data for _ in range(3)]
    u = [nm.glorot(want_rng, 4, 4).data for _ in range(3)]
    assert np.array_equal(th.w.data, np.concatenate(w, axis=1))
    assert np.array_equal(th.u_ru.data, np.concatenate(u[:2], axis=1))
    assert np.array_equal(th.u_c.data, u[2])
    assert np.array_equal(got_rng.uniform((4,)), want_rng.uniform((4,)))


def test_init_schema_deterministic():
    a = init_schema(Rng(9), 3, 4)
    b = init_schema(Rng(9), 3, 4)
    for x, y in zip(a.named("").values(), b.named("").values()):
        assert np.array_equal(x.data, y.data)


def enumerate_cell_size(d_in, d_h):
    return sum(t.data.size for t in init_schema(Rng(0), d_in, d_h).named("").values())


def test_param_count_single_schema_case():
    bank, mono = recurrent_param_count(n_f=1, n_s=1, d_h=3)
    assert bank == mono == 63
    assert enumerate_cell_size(3, 3) == 63


def test_param_count_matched_hidden_defaults():
    bank, mono = recurrent_param_count(n_f=4, n_s=4, d_h=100)
    assert bank == 241_200
    assert mono == 601_200
    # cross-check by enumerating actually constructed cells
    assert 4 * enumerate_cell_size(100, 100) == bank
    assert enumerate_cell_size(100, 400) == mono


def test_param_count_sweep_fewer_schemata_always_smaller():
    for n_f in range(2, 6):
        for n_s in range(1, n_f):
            for d_h in (2, 5, 9):
                bank, mono = recurrent_param_count(n_f, n_s, d_h)
                assert bank < mono


def test_param_count_linear_in_bank_size_independent_of_slots():
    one, _ = recurrent_param_count(3, 1, 7)
    four, _ = recurrent_param_count(3, 4, 7)
    assert four == 4 * one
    a, _ = recurrent_param_count(2, 3, 7)
    b, _ = recurrent_param_count(9, 3, 7)
    assert a == b
