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
    return SchemaParams(z(d_in, d_h), z(d_in, d_h), z(d_in, d_h),
                        z(d_h, d_h), z(d_h, d_h), z(d_h, d_h),
                        z(d_h), z(d_h), z(d_h))


def gru_oracle(z, h, th):
    """Elementwise scalar-loop reference for one GRU row."""
    d_in, d_h = len(z), len(h)
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))

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

    r = [sig(v) for v in affine(th.w_r.data, th.u_r.data, th.b_r.data, h)]
    u = [sig(v) for v in affine(th.w_u.data, th.u_u.data, th.b_u.data, h)]
    rh = [r[i] * h[i] for i in range(d_h)]
    c = [math.tanh(v) for v in affine(th.w_c.data, th.u_c.data, th.b_c.data, rh)]
    return [(1.0 - u[i]) * h[i] + u[i] * c[i] for i in range(d_h)]


def test_gru_all_zero_parameters_halve_state():
    th = zero_schema(2, 3)
    h = Tensor([[0.4, -0.8, 1.0]])
    out = gru_step(Tensor([[1.0, 2.0]]), h, th)
    assert np.allclose(out.data, 0.5 * h.data, atol=1e-15)


def test_gru_zero_inputs_closed_form():
    rng = Rng(3)
    th = init_schema(rng, 2, 4)
    for b in (th.b_u, th.b_c):
        b.data[...] = rand(rng, (4,))
    out = gru_step(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 4))), th)
    sig = 1.0 / (1.0 + np.exp(-th.b_u.data))
    assert np.allclose(out.data[0], sig * np.tanh(th.b_c.data), atol=1e-15)


def test_gru_matches_scalar_oracle():
    rng = Rng(17)
    th = init_schema(rng, 3, 4)
    for t in th.params():
        t.data[...] = rand(rng, t.shape)
    z, h = rand(rng, (3,)), rand(rng, (4,))
    got = gru_step(Tensor(z[None]), Tensor(h[None]), th).data[0]
    want = gru_oracle(z.tolist(), h.tolist(), th)
    assert np.max(np.abs(got - np.asarray(want))) < 1e-12


def test_gru_bounded_state_stays_bounded():
    rng = Rng(23)
    for _ in range(20):
        th = init_schema(rng, 2, 5)
        for t in th.params():
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


def test_gru_shape_errors():
    th = zero_schema(2, 3)
    with pytest.raises(ValueError):  # input width
        gru_step(Tensor([[1.0, 2.0, 3.0]]), Tensor([[0.0, 0.0, 0.0]]), th)
    with pytest.raises(ValueError):  # state width
        gru_step(Tensor([[1.0, 2.0]]), Tensor([[0.0, 0.0]]), th)
    with pytest.raises(ValueError):  # row counts
        gru_step(Tensor([[1.0, 2.0]]), Tensor(np.zeros((2, 3))), th)
    with pytest.raises(ValueError):  # rows only, no vectors
        gru_step(Tensor([1.0, 2.0]), Tensor([0.0, 0.0, 0.0]), th)


def test_gru_backward_is_finite_difference_clean():
    rng = Rng(31)
    th = init_schema(rng, 2, 3)

    def f(params):
        z = Tensor(np.array([[0.3, -0.7]]))
        h = Tensor(np.array([[0.1, 0.2, -0.4]]))
        out = gru_step(z, h, th)
        return (out * out).sum()

    assert nm.grad_check(f, th.params(), eps=1e-5) < 1e-4


def gru_chain(z, h, th):
    """Reference: the GRU cell as a chain of elementary taped ops."""
    r = nm.sigmoid(nm.matmul(z, th.w_r) + nm.matmul(h, th.u_r) + th.b_r)
    u = nm.sigmoid(nm.matmul(z, th.w_u) + nm.matmul(h, th.u_u) + th.b_u)
    c = nm.tanh(nm.matmul(z, th.w_c) + nm.matmul(r * h, th.u_c) + th.b_c)
    return (1.0 - u) * h + u * c


def random_cell(rng, d_in, d_h):
    th = init_schema(rng, d_in, d_h)
    for t in th.params():
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
    return (h1, h2, h3, loss), [z, h0, *th_a.params(), *th_b.params()]


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


def test_fused_gru_shared_input_and_state_matches_op_chain_bit_for_bit():
    # one tensor as input and state: the order in which the fused backward
    # adds its seven contributions decides the bits
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

    assert nm.grad_check(f, [z, h, *th.params()], eps=1e-5) < 1e-6


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
    assert np.array_equal(th.b_r.data, np.zeros(4))
    assert np.array_equal(th.b_u.data, np.zeros(4))
    assert np.array_equal(th.b_c.data, np.zeros(4))
    bound = math.sqrt(6.0 / (4 + 4))
    assert (np.abs(th.u_r.data) <= bound).all()


def test_init_schema_deterministic():
    a = init_schema(Rng(9), 3, 4)
    b = init_schema(Rng(9), 3, 4)
    for x, y in zip(a.params(), b.params()):
        assert np.array_equal(x.data, y.data)


def enumerate_cell_size(d_in, d_h):
    return sum(t.data.size for t in init_schema(Rng(0), d_in, d_h).params())


def test_param_count_single_schema_case():
    bank, mono = recurrent_param_count(n_f=1, n_s=1, d_h=3, d_in=2)
    assert bank == mono == 54
    assert enumerate_cell_size(2, 3) == 54


def test_param_count_matched_hidden_defaults():
    bank, mono = recurrent_param_count(n_f=4, n_s=4, d_h=100, d_in=100)
    assert bank == 241_200
    assert mono == 601_200
    # cross-check by enumerating actually constructed cells
    assert 4 * enumerate_cell_size(100, 100) == bank
    assert enumerate_cell_size(100, 400) == mono


def test_param_count_sweep_fewer_schemata_always_smaller():
    for n_f in range(2, 6):
        for n_s in range(1, n_f):
            for d_h in (2, 5, 9):
                for d_in in (1, 4, 11):
                    bank, mono = recurrent_param_count(n_f, n_s, d_h, d_in)
                    assert bank < mono


def test_param_count_linear_in_bank_size_independent_of_slots():
    one, _ = recurrent_param_count(3, 1, 7, 5)
    four, _ = recurrent_param_count(3, 4, 7, 5)
    assert four == 4 * one
    a, _ = recurrent_param_count(2, 3, 7, 5)
    b, _ = recurrent_param_count(9, 3, 7, 5)
    assert a == b

