import itertools
import json
import math
import os
import struct
import sys
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import scoff.numerics as nm
import scoff.training as training
from scoff.codec import CodecConfig
from scoff.layer import ScoffConfig, StepTrace
from scoff.model import GruBaseline
from scoff.numerics import Tape, Tensor, backward
from scoff.cli import parse_config, to_train_config
from scoff.rng import Rng
from scoff.tasks import FrameSequence, gen_adding, gen_bouncing_mini, gen_switching_dynamics
from scoff.training import (Adam, TrainConfig, bce_per_frame, build_model,
                            check_rollout_window, collect_traces,
                            eval_rollout, load_checkpoint, mse_scalar,
                            restore_model, save_checkpoint,
                            schema_alignment_purity, sequence_loss,
                            train_model)


def rand(rng, shape):
    return np.asarray(rng.uniform(shape)) * 2.0 - 1.0


def tiny_train_config(task="switching", model="scoff", **kw):
    codec = CodecConfig(d_c=6, d_pos=4, enc_hidden=8,
                        readout_hidden=8, readout_width=8)
    scoff_cfg = ScoffConfig(n_f=2, n_s=2, d_h=8, d_in=codec.d_a, inp_heads=1,
                            inp_keys=4, comm_heads=1, comm_keys=4)
    base = dict(task=task, model=model, scoff=scoff_cfg, codec=codec,
                lr=1e-3, batch_size=5, epochs=1, seed=7, burn_in=3, horizon=5,
                eval_subset=4)
    base.update(kw)
    return TrainConfig(**base)


# --------------------------------------------------------------------- losses

def test_bce_saturated_logits_near_zero_loss():
    logits = Tensor(np.full((4, 4), 50.0))
    target = np.ones((4, 4))
    assert bce_per_frame(logits, target).item() < 1e-12


def test_bce_zero_logits_is_ln2():
    logits = Tensor(np.zeros((4, 4)))
    target = np.zeros((4, 4))
    assert abs(bce_per_frame(logits, target).item() - math.log(2.0)) < 1e-15


def test_bce_matches_direct_summation_oracle():
    rng = Rng(1)
    logits = rand(rng, (5, 5)) * 4.0
    target = (np.asarray(rng.uniform((5, 5))) > 0.5).astype(float)
    got = bce_per_frame(Tensor(logits), target).item()
    total = 0.0
    for i in range(5):
        for j in range(5):
            p = 1.0 / (1.0 + math.exp(-logits[i, j]))
            y = target[i, j]
            total += -(y * math.log(p) + (1 - y) * math.log(1 - p))
    assert abs(got - total / 25.0) < 1e-12


def test_bce_gradient_matches_finite_differences():
    rng = Rng(2)
    logits = Tensor(rand(rng, (3, 3)), requires_grad=True)
    target = (np.asarray(rng.uniform((3, 3))) > 0.5).astype(float)

    def f(params):
        return bce_per_frame(params[0], target)

    assert nm.grad_check(f, [logits], eps=1e-5) < 1e-6


def test_bce_shape_mismatch():
    with pytest.raises(ValueError):
        bce_per_frame(Tensor(np.zeros((2, 2))), np.zeros((3, 3)))


def test_mse_cases():
    assert mse_scalar(Tensor(2.0), 2.0).item() == 0.0
    assert mse_scalar(Tensor(2.5), 2.0).item() == 0.25
    rng = Rng(3)
    preds = rand(rng, (10,))
    targets = rand(rng, (10,))
    batch = sum(mse_scalar(Tensor(p), t).item() for p, t in zip(preds, targets))
    direct = sum((p - t) ** 2 for p, t in zip(preds, targets))
    assert abs(batch - direct) < 1e-12


# ----------------------------------------------------------------------- adam

def adam_oracle(x0, grad_fn, steps, lr):
    """Scalar reference trajectory, its gradient clipped to norm 1."""
    b1, b2, eps = Adam.BETA1, Adam.BETA2, Adam.EPS
    x, m, v = x0, 0.0, 0.0
    history = []
    for t in range(1, steps + 1):
        g = grad_fn(x)
        if abs(g) > 1.0:
            g = g / abs(g)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        x = x - lr * mhat / (math.sqrt(vhat) + eps)
        history.append(x)
    return history


def test_adam_zero_gradient_keeps_parameters():
    p = Tensor([1.5, -2.0], requires_grad=True)
    before = p.data.copy()
    p.grad = np.zeros(2)
    Adam([p], 0.1).apply(1.0)
    assert np.array_equal(p.data, before)


def test_adam_first_step_magnitude_close_to_lr():
    for g in (0.3, -4.0, 1e3):
        p = Tensor([0.0], requires_grad=True)
        p.grad = np.array([g])
        Adam([p], 0.01).apply(1.0)
        assert abs(abs(p.data[0]) - 0.01) < 1e-5
        assert np.sign(p.data[0]) == -np.sign(g)


def test_adam_trajectory_matches_scalar_oracle():
    lr = 0.05
    p = Tensor([3.0], requires_grad=True)
    opt = Adam([p], lr)
    got = []
    for _ in range(100):
        with Tape() as tape:
            loss = (p * p).sum()
        backward(loss, tape)
        opt.apply(1.0)
        got.append(float(p.data[0]))
    # the gradient 2x starts at 6, so the first steps are clipped
    want = adam_oracle(3.0, lambda x: 2.0 * x, 100, lr)
    assert (Adam.CLIP_NORM, Adam.BETA1, Adam.BETA2, Adam.EPS) == (1.0, 0.9, 0.999, 1e-8)
    assert np.max(np.abs(np.asarray(got) - np.asarray(want))) < 1e-12


def test_adam_takes_every_optimizer_value_from_its_caller():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(TypeError):
        Adam([p])
    with pytest.raises(TypeError):
        Adam([p], 0.1).apply()


def test_adam_clip_bounds_update_norm():
    p = Tensor(np.zeros(4), requires_grad=True)
    opt = Adam([p], 1.0)
    p.grad = np.full(4, 100.0)
    opt.apply(1.0)
    # clipped gradient has norm 1, so each component is 0.5 and the first
    # bias-corrected step is close to lr in magnitude per coordinate sign
    assert np.isfinite(p.data).all()
    assert (np.abs(p.data) <= 1.0 + 1e-9).all()
    assert np.allclose(opt.m[0], (1 - Adam.BETA1) * 0.5, rtol=0, atol=1e-15)
    # the scale applies before clipping: 100 / 1000 per component has norm
    # 0.2, which passes unclipped
    q = Tensor(np.zeros(4), requires_grad=True)
    opt = Adam([q], 1.0)
    q.grad = np.full(4, 100.0)
    opt.apply(1e-3)
    assert np.allclose(opt.m[0], (1 - Adam.BETA1) * 0.1, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------- purity

def fake_trace(schema_row):
    n_f = len(schema_row)
    return StepTrace(
        input_weights=np.zeros((n_f, 1)),
        active=np.asarray(schema_row) >= 0,
        schema=np.asarray(schema_row),
        comm_weights=np.zeros((n_f, n_f)))


def test_purity_perfect_correspondence():
    traces = [[fake_trace([0]), fake_trace([1]), fake_trace([0])]]
    labels = [np.array([0, 1, 0])]
    assert schema_alignment_purity(traces, labels) == 1.0


def test_purity_single_schema_single_mode():
    traces = [[fake_trace([0]) for _ in range(5)]]
    labels = [np.zeros(5, dtype=int)]
    assert schema_alignment_purity(traces, labels) == 1.0


def test_purity_uniform_random_tends_to_half():
    # [DERIVED] expectation of the best assignment under uniform selection
    rng = Rng(5)
    traces, labels = [], []
    steps = 20_000
    seq_t, seq_l = [], []
    for _ in range(steps):
        seq_t.append(fake_trace([rng.randint(2)]))
        seq_l.append(rng.randint(2))
    traces.append(seq_t)
    labels.append(np.asarray(seq_l))
    purity = schema_alignment_purity(traces, labels)
    assert abs(purity - 0.5) < 0.02


def test_purity_invariant_to_relabeling():
    rng = Rng(6)
    seq = [fake_trace([rng.randint(3)]) for _ in range(200)]
    lab = np.asarray([rng.randint(2) for _ in range(200)])
    base = schema_alignment_purity([seq], [lab])
    remap = {0: 2, 1: 0, 2: 1}
    seq_r = [fake_trace([remap[int(t.schema[0])]]) for t in seq]
    assert schema_alignment_purity([seq_r], [lab]) == pytest.approx(base)
    assert schema_alignment_purity([seq], [1 - lab]) == pytest.approx(base)


def test_purity_more_modes_than_schemata_matches_brute_force():
    # n_m > n_s: the best injective map from schemata to modes
    rng = Rng(7)
    for n_s, n_m in ((1, 2), (2, 3), (2, 5), (3, 4)):
        seq = [fake_trace([rng.randint(n_s)]) for _ in range(60)]
        lab = np.asarray([rng.randint(n_m) for _ in range(60)])
        counts = np.zeros((n_s, n_m))
        for trace, mode in zip(seq, lab):
            counts[trace.schema[0], mode] += 1
        best = max(sum(counts[j, p[j]] for j in range(n_s))
                   for p in itertools.permutations(range(n_m), n_s))
        assert schema_alignment_purity([seq], [lab]) == best / 60


def test_purity_counts_every_active_slot_of_every_sequence():
    # several slots, inactive ones (-1) and a label list longer than its
    # traces, against the per-slot loop over (trace, label) pairs
    rng = Rng(8)
    traces, labels, counts = [], [], np.zeros((3, 2))
    for steps in (7, 4):
        seq = [fake_trace([rng.randint(4) - 1 for _ in range(3)]) for _ in range(steps)]
        lab = np.asarray([rng.randint(2) for _ in range(steps + 2)])
        for trace, mode in zip(seq, lab):
            for j in trace.schema:
                if j >= 0:
                    counts[j, mode] += 1
        traces.append(seq)
        labels.append(lab)
    best = max(counts[p[0], 0] + counts[p[1], 1]
               for p in itertools.permutations(range(3), 2))
    assert schema_alignment_purity(traces, labels) == best / counts.sum()


# ------------------------------------------------------------------- training

def make_switching_data(count, length=13):
    return [gen_switching_dynamics(Rng(1000 + i), length) for i in range(count)]


def test_rng_is_the_one_stochastic_mode_switch(monkeypatch):
    # dropout runs on both attentions: a step with no rng is greedy,
    # draws nothing and runs no dropout; a step given an rng draws the input
    # dropout mask, the selection noise and the communication dropout mask
    scoff_cfg = ScoffConfig(n_f=3, n_s=2, d_h=8, d_in=tiny_train_config().codec.d_a,
                            inp_keys=4, comm_heads=1, comm_keys=4)
    model = build_model(tiny_train_config(scoff=scoff_cfg), Rng(0))
    feats = nm.split_rows(model.encode(make_switching_data(1)[0].frames[:2]), 2)
    state, _ = model.step(feats[0], model.init_state())
    draws, uniform = [], Rng.uniform

    def recorded(self, shape=()):
        draws.append(tuple(shape))
        return uniform(self, shape)

    monkeypatch.setattr(Rng, "uniform", recorded)
    a, trace_a = model.step(feats[1], state)
    b, trace_b = model.step(feats[1], state)
    c, _ = model.layer.step(feats[1], state, noise=nm.zeros((3, 2)))
    assert draws == []
    assert np.array_equal(a.data, b.data) and np.array_equal(a.data, c.data)
    assert np.array_equal(trace_a.schema, trace_b.schema)
    model.step(feats[1], state, Rng(1))
    assert draws == [(3, 16), (3, 2), (3, 3)]
    draws.clear()
    d, _ = model.layer.step(feats[1], state, Rng(1), noise=nm.zeros((3, 2)))
    assert draws == [(3, 16), (3, 3)]
    assert not np.array_equal(d.data, a.data)  # the same noise, but dropout ran


def test_train_smoke_single_epoch_finite_loss():
    data = make_switching_data(10)
    cfg = tiny_train_config(epochs=1, batch_size=5)
    metrics, model = train_model(cfg, data, data[:4])
    assert len(metrics) == 1
    assert math.isfinite(metrics[0].train_loss)
    assert metrics[0].train_loss >= 0.0
    assert len(metrics[0].eval_losses) == cfg.horizon
    assert len(metrics[0].schema_usage) == 2


def test_training_frees_each_graph_before_the_next_forward_pass(monkeypatch):
    # a weak reference to an array held only by each finished training graph:
    # no earlier graph may be alive when the next sequence's forward pass starts
    graphs, alive = [], []

    class ProbeTape(Tape):
        def __exit__(self, *exc):
            graphs.append(weakref.ref(self.nodes[0].data))
            return super().__exit__(*exc)

    def probed_sequence_loss(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in graphs))
        return sequence_loss(*args, **kwargs)

    monkeypatch.setattr(training, "Tape", ProbeTape)
    monkeypatch.setattr(training, "sequence_loss", probed_sequence_loss)
    for model in ("scoff", "gru"):
        graphs.clear()
        alive.clear()
        train_model(tiny_train_config(model=model, epochs=2, batch_size=2),
                    make_switching_data(3))
        assert alive == [0] * 6, model
        assert len(graphs) == 6


def _bouncing_mini_model(kind):
    config = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs", "bouncing_mini.cfg")
    resolved = parse_config(config, [f"model={kind}"])
    return resolved, build_model(to_train_config(resolved), Rng(0))


@pytest.mark.parametrize("kind,nodes", [("scoff", 270), ("gru", 68)])
def test_bouncing_mini_training_sequence_tape_nodes(kind, nodes):
    # 29 steps of 8 (scoff: one head each to read and to communicate, 4
    # schema cells, the selection and the residual add) or 1 (gru) fused ops;
    # once per sequence, the encoder's 3 ops (gru: 5, its pooling reshape and
    # mean) and 29 per-step pieces, the readout's 5 ops (the states' concat,
    # slot perceptron, pooling, decoder and unpatching; gru: 4, a one-row
    # state is not pooled) and the loss: an op chain that creeps
    # back into a step, a codec op that moves back into the time loop, or a
    # fusion that drops an op, changes the count
    resolved, model = _bouncing_mini_model(kind)
    seq = gen_bouncing_mini(Rng(1), resolved["length"], resolved["n_balls"])
    with Tape() as tape:
        sequence_loss(model, seq, Rng(2))
    assert len(tape.nodes) == nodes


@pytest.mark.parametrize("key", ["epochs", "batch_size", "eval_subset"])
def test_train_config_counts_must_be_positive(key):
    with pytest.raises(ValueError, match=key):
        tiny_train_config(**{key: 0})


def test_train_is_bit_deterministic():
    data = make_switching_data(8)
    cfg = tiny_train_config(epochs=2, batch_size=4)
    m1, _ = train_model(cfg, data, data[:2])
    m2, _ = train_model(cfg, data, data[:2])
    assert [r.to_json() for r in m1] == [r.to_json() for r in m2]


def test_train_gru_baseline_same_interface():
    data = make_switching_data(6)
    cfg = tiny_train_config(model="gru", epochs=1, batch_size=3)
    metrics, model = train_model(cfg, data, data[:2])
    assert isinstance(model, GruBaseline)
    assert math.isfinite(metrics[0].train_loss)
    # the baseline's hidden width is always the factorized total
    assert model.width == cfg.scoff.n_f * cfg.scoff.d_h


def test_gru_baseline_reports_no_schema_usage():
    # a model without schemata writes null usage and dead schemata, as it
    # does purity, and its epoch log names no usage
    data = make_switching_data(6)
    lines = []
    metrics, _ = train_model(tiny_train_config(model="gru", epochs=1, batch_size=3),
                             data, data[:2], log=lines.append)
    record = json.loads(metrics[0].to_json())
    assert record["schema_usage"] is None
    assert record["dead_schemata"] is None
    assert record["alignment_purity"] is None
    assert "usage" not in lines[0]
    metrics, _ = train_model(tiny_train_config(epochs=1, batch_size=3),
                             data, data[:2], log=lines.append)
    assert len(metrics[0].schema_usage) == 2
    assert "usage=" in lines[1]


def test_purity_is_null_when_the_eval_labels_hold_one_mode():
    # every bouncing label is 0, so purity would be only the most-used
    # schema's share: it is written null and logged with no chance level
    data = [gen_bouncing_mini(Rng(60 + i), 11, 2) for i in range(3)]
    lines = []
    metrics, _ = train_model(tiny_train_config(task="bouncing", batch_size=3),
                             data, data[:2], log=lines.append)
    assert json.loads(metrics[0].to_json())["alignment_purity"] is None
    assert "purity=- " in lines[0] and "chance" not in lines[0]


def test_training_collects_traces_only_where_purity_is_scored(monkeypatch):
    # a one-mode eval set (every bouncing set) takes its labels without a
    # model pass; a switching set still runs the trace pass for its purity
    def no_traces(*args):
        raise AssertionError("collect_traces ran")

    monkeypatch.setattr(training, "collect_traces", no_traces)
    data = [gen_bouncing_mini(Rng(60 + i), 11, 2) for i in range(3)]
    metrics, _ = train_model(tiny_train_config(task="bouncing", batch_size=3),
                             data, data[:2])
    assert json.loads(metrics[0].to_json())["alignment_purity"] is None
    with pytest.raises(AssertionError, match="collect_traces ran"):
        train_model(tiny_train_config(batch_size=3), make_switching_data(6),
                    make_switching_data(2))


def test_switching_purity_is_logged_beside_its_chance_level():
    # the chance level is the eval labels' majority-mode share, the purity
    # of always selecting one schema
    data = make_switching_data(6)
    cfg = tiny_train_config(batch_size=3)
    lines = []
    metrics, _ = train_model(cfg, data, data[:2], log=lines.append)
    purity = json.loads(metrics[0].to_json())["alignment_purity"]
    assert isinstance(purity, float) and 0.0 < purity <= 1.0
    labels = np.concatenate([seq.labels[1 + cfg.burn_in:] for seq in data[:2]])
    modes = np.bincount(labels)
    assert len(modes) == 2 and modes.min() > 0
    assert f"purity={purity:.3f} (chance {modes.max() / labels.size:.3f}) " in lines[0]


def test_train_adding_task():
    data = [gen_adding(Rng(50 + i), 8, 2) for i in range(6)]
    cfg = tiny_train_config(task="adding", epochs=1, batch_size=3, lr=1e-2)
    metrics, model = train_model(cfg, data, data[:2])
    assert math.isfinite(metrics[0].train_loss)
    assert len(metrics[0].eval_losses) == 1


def test_train_times_each_epoch_in_disjoint_phases():
    data = make_switching_data(6)
    metrics, _ = train_model(tiny_train_config(epochs=2, batch_size=4), data, data[:2])
    for epoch, record in enumerate(metrics):
        timing = json.loads(record.timing_json())
        assert set(timing) == {"epoch", "wall_seconds", "phase_seconds"}
        assert timing["epoch"] == epoch
        parts = timing["phase_seconds"]
        assert set(parts) == {"forward", "backward", "adam", "eval"}
        assert all(v >= 0.0 for v in parts.values())
        assert parts["forward"] > 0.0 and parts["eval"] > 0.0
        assert sum(parts.values()) <= timing["wall_seconds"]
        assert "seconds" not in record.to_json()  # metrics.jsonl stays reproducible


def test_train_rejects_update_that_overflows_a_parameter(monkeypatch):
    # a loss that saturates: the logistic loss of enc_w1 against target 1.
    # With the largest finite lr, batch 0's clipped step drives every entry
    # to about +max, where loss and gradient are 0, both finite; batch 1's
    # step, carried by Adam's momentum alone, then overflows
    def saturating_loss(model, seq, rng=None):
        w = model.parameters()["enc_w1"]
        return bce_per_frame(w, np.ones(w.shape)), []

    monkeypatch.setattr(training, "sequence_loss", saturating_loss)
    data = [gen_adding(Rng(50 + i), 8, 2) for i in range(2)]
    cfg = tiny_train_config(task="adding", epochs=1, batch_size=1,
                            lr=sys.float_info.max)
    logged = []
    with np.errstate(all="ignore"), pytest.raises(ValueError) as err:
        train_model(cfg, data, data, log=logged.append)
    assert str(err.value) == ("training diverged in epoch 0, batch 1: "
                              "the update made enc_w1 non-finite")
    assert logged == []


# ------------------------------------------------------------------ evaluation

class OracleModel:
    """Predicts the next frame perfectly by peeking at the sequence: its
    state counts the steps taken, one row per sequence of a block."""

    def __init__(self, frames):
        self.frames = frames

    def encode(self, xs):
        xs = np.asarray(xs, dtype=np.float64)
        return Tensor(xs.reshape(len(xs), -1))

    def init_state(self, n=1):
        return Tensor(np.zeros((n, 1)))

    def step_block(self, features, state, n):
        return Tensor(state.data + 1.0)

    def readout(self, rows, n):
        targets = self.frames[rows.data[:, 0].astype(int)]
        return Tensor(np.where(targets > 0.5, 80.0, -80.0))


def test_eval_rollout_perfect_oracle_zero_loss():
    seq = gen_switching_dynamics(Rng(9), 13)
    model = OracleModel(seq.frames.astype(float))
    teacher, self_fed = eval_rollout(model, [seq], burn_in=3, horizon=5)
    assert max(teacher) < 1e-9
    assert max(self_fed) < 1e-9


def test_eval_rollout_horizon_one_is_next_step_eval():
    data = make_switching_data(3)
    cfg = tiny_train_config(epochs=1)
    _, model = train_model(cfg, data, None)
    teacher, self_fed = eval_rollout(model, data, burn_in=3, horizon=1)
    assert len(teacher) == len(self_fed) == 1
    assert teacher[0] == pytest.approx(self_fed[0])  # no self-feeding yet


def test_eval_rollout_modes_agree_before_and_diverge_after_burn_in():
    data = make_switching_data(2)
    cfg = tiny_train_config(epochs=1)
    _, model = train_model(cfg, data, None)
    teacher, self_fed = eval_rollout(model, data, burn_in=3, horizon=6)
    # the first predicted frame uses only ground-truth inputs in both modes
    assert teacher[0] == pytest.approx(self_fed[0])
    assert any(abs(a - b) > 1e-12 for a, b in zip(teacher[1:], self_fed[1:]))


def rollout_every_step(model, sequences, burn_in, horizon):
    """Reference for ``eval_rollout``: the loop that encodes one frame and
    reads out one state after every step, burn-in included, and scores only
    the steps from burn_in on."""
    teacher, self_fed = np.zeros(horizon), np.zeros(horizon)
    for seq in sequences:
        frames = seq.frames
        for mode, acc in (("teacher", teacher), ("self", self_fed)):
            state = model.init_state()
            feed = frames[0]
            for t in range(burn_in + horizon - 1):
                state, _ = model.step(model.encode(feed[None]), state)
                logits = model.readout(state, 1)
                target_idx = t + 1
                if target_idx >= burn_in:
                    acc[target_idx - burn_in] += bce_per_frame(
                        logits, frames[target_idx][None]).item()
                if mode == "teacher" or target_idx < burn_in:
                    feed = frames[target_idx]
                else:
                    feed = (logits.data[0] > 0.0).astype(np.float64)
    return (teacher / len(sequences)).tolist(), (self_fed / len(sequences)).tolist()


def test_frame_bce_matches_bce_per_frame_bit_for_bit():
    # the rollout scores a pass's frames in one array expression; each
    # frame's value must keep the bits of scoring that frame alone
    rng = Rng(5)
    for scale in (0.1, 3.0, 40.0):
        logits = rand(rng, (7, 16, 16)) * scale
        targets = (np.asarray(rng.uniform((7, 16, 16))) > 0.5).astype(np.float64)
        got = training._frame_bce(logits, targets)
        want = [bce_per_frame(Tensor(x), y).item() for x, y in zip(logits, targets)]
        assert got.tolist() == want


def _frames_sequence(frames) -> FrameSequence:
    frames = np.asarray(frames, dtype=np.uint8)
    return FrameSequence("bouncing", frames, np.zeros(len(frames), dtype=np.int64))


def test_constant_rate_bce_scores_only_the_rollout_window():
    # frames 1..2 of two 4-frame sequences of 2x2 pixels: 3 of 16 scored
    # pixels are on; the on pixels of frames 0 and 3 are not scored
    a = np.zeros((4, 2, 2))
    a[0] = a[3] = 1
    a[1, 0, 0] = a[2, 1, 1] = 1
    b = np.zeros((4, 2, 2))
    b[2, 0, 1] = b[3, 0, 0] = 1
    p = 3 / 16
    got = training.constant_rate_bce([_frames_sequence(a), _frames_sequence(b)], 1, 2)
    assert got == pytest.approx(-p * math.log(p) - (1 - p) * math.log(1 - p), rel=1e-15)


def test_constant_rate_bce_is_the_bce_of_a_constant_logit():
    sequences = [gen_bouncing_mini(Rng(seed), 30, 2) for seed in range(4)]
    burn_in, horizon = 10, 15
    window = [seq.frames[burn_in:burn_in + horizon] for seq in sequences]
    p = np.mean(window)
    logits = np.full_like(window[0], math.log(p / (1 - p)), dtype=np.float64)
    want = np.mean([training._frame_bce(logits, w) for w in window])
    got = training.constant_rate_bce(sequences, burn_in, horizon)
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("value", [0, 1])
def test_constant_rate_bce_of_a_constant_window_is_zero(value):
    sequences = [_frames_sequence(np.full((3, 2, 2), value)) for _ in range(2)]
    assert training.constant_rate_bce(sequences, 1, 2) == 0.0


@pytest.mark.parametrize("kind", ["scoff", "gru"])
@pytest.mark.parametrize("teacher", [True, False])
def test_eval_rollout_rejects_non_finite_logits(kind, teacher, monkeypatch):
    # one bad pixel in one sequence's row of the last teacher-forced or the
    # last self-fed readout of the block: the first sequence, then the second
    data = make_switching_data(2, length=13)
    model = build_model(tiny_train_config(model=kind), Rng(0))
    readout = model.readout
    last = 6 if teacher else 12  # each pass reads the block out 6 times
    for bad in range(len(data)):
        calls = []

        def overflowing(rows, n):
            out = readout(rows, n)
            calls.append(n)
            if len(calls) == last:
                out.data[bad, 0, 0] = np.nan if teacher else np.inf
            return out

        monkeypatch.setattr(model, "readout", overflowing)
        with pytest.raises(ValueError, match="non-finite"):
            eval_rollout(model, data, burn_in=4, horizon=6)
        assert calls == [len(data)] * last


@pytest.mark.parametrize("kind", ["scoff", "gru"])
def test_eval_rollout_reads_out_only_scored_steps(kind, monkeypatch):
    data = make_switching_data(3, length=13)
    cfg = tiny_train_config(model=kind)
    model = build_model(cfg, Rng(cfg.seed))
    want = rollout_every_step(model, data, burn_in=4, horizon=6)
    monkeypatch.setattr(training, "ROLLOUT_BLOCK", 2)
    rows = []
    readout = model.readout
    monkeypatch.setattr(model, "readout",
                        lambda states, n: rows.append(n) or readout(states, n))
    got = eval_rollout(model, data, burn_in=4, horizon=6)
    # per block and pass, one readout of the whole block's states at each of
    # the 6 scored steps: a block of 2 sequences, then a block of 1
    assert rows == [2] * 12 + [1] * 12
    assert sum(rows) == 2 * 6 * len(data)
    # the batched readout's matrix products may round differently from the
    # per-step ones in the last bits
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ["scoff", "gru"])
def test_eval_rollout_blocks_match_one_sequence_at_a_time(kind):
    # block + 1 sequences: a full block, then a last block of one sequence
    data = make_switching_data(training.ROLLOUT_BLOCK + 1, length=11)
    model = build_model(tiny_train_config(model=kind), Rng(3))
    teacher, self_fed = eval_rollout(model, data, burn_in=3, horizon=6)
    want_teacher, want_self_fed = np.zeros(6), np.zeros(6)
    for seq in data:
        one_teacher, one_self_fed = eval_rollout(model, [seq], burn_in=3, horizon=6)
        want_teacher += one_teacher
        want_self_fed += one_self_fed
    want_teacher /= len(data)
    want_self_fed /= len(data)
    # the teacher-forced passes are the same ops; only the self-fed codec
    # calls take a block's rows at once
    assert teacher == want_teacher.tolist()
    np.testing.assert_allclose(self_fed, want_self_fed, rtol=1e-12, atol=0.0)


def _block_inputs(model, resolved, n):
    """The stacked rows of n bouncing sequences' first-step features and of
    n distinct states, and the per-sequence pieces of both."""
    frames = np.stack([gen_bouncing_mini(Rng(40 + i), 2, resolved["n_balls"]).frames[0]
                       for i in range(n)])
    feats = model.encode(frames)
    state = Tensor(rand(Rng(41), (n * model.init_state().shape[0],
                                  model.init_state().shape[1])))
    return feats, state, nm.split_rows(feats, n), nm.split_rows(state, n)


def test_scoff_step_block_is_each_sequences_own_step():
    resolved, model = _bouncing_mini_model("scoff")
    feats, state, one_feats, one_states = _block_inputs(model, resolved, 5)
    got = model.step_block(feats, state, 5)
    want = np.concatenate([model.step(f, s)[0].data for f, s in zip(one_feats, one_states)])
    assert np.array_equal(got.data, want)


def test_gru_step_block_is_one_cell_call_over_the_block(monkeypatch):
    import scoff.model
    resolved, model = _bouncing_mini_model("gru")
    feats, state, one_feats, one_states = _block_inputs(model, resolved, 5)
    want = np.concatenate([model.step(f, s)[0].data for f, s in zip(one_feats, one_states)])
    calls = []
    cell = scoff.model.gru_step
    monkeypatch.setattr(scoff.model, "gru_step",
                        lambda z, h, theta: calls.append(z.shape) or cell(z, h, theta))
    got = model.step_block(feats, state, 5)
    assert calls == [(5, feats.shape[1])]
    # the n-row matrix products may round differently from n one-row ones in
    # the last bits; the state's entries lie in (-1, 1)
    np.testing.assert_allclose(got.data, want, rtol=0.0, atol=1e-15)


def test_gru_eval_rollout_makes_one_cell_call_per_block_step(monkeypatch):
    import scoff.model
    _, model = _bouncing_mini_model("gru")
    monkeypatch.setattr(training, "ROLLOUT_BLOCK", 2)
    calls = []
    cell = scoff.model.gru_step
    monkeypatch.setattr(scoff.model, "gru_step",
                        lambda z, h, theta: calls.append(z.shape[0]) or cell(z, h, theta))
    data = make_switching_data(5, length=11)
    eval_rollout(model, data, burn_in=3, horizon=6)
    # both passes over each block of 2, 2 and 1 sequences: 8 steps each
    steps = 3 + 6 - 1
    assert calls == [2] * 2 * steps + [2] * 2 * steps + [1] * 2 * steps


@pytest.mark.parametrize("kind", ["scoff", "gru"])
def test_init_state_of_n_sequences_stacks_n_one_sequence_states(kind):
    cfg = tiny_train_config(model=kind)
    model = build_model(cfg, Rng(cfg.seed))
    one = model.init_state()
    want_rows = cfg.scoff.n_f if kind == "scoff" else 1
    assert one.shape[0] == want_rows
    for n in (1, 2, 5):
        assert np.array_equal(model.init_state(n).data, np.tile(one.data, (n, 1)))


@pytest.mark.parametrize("kind", ["scoff", "gru"])
def test_eval_rollout_starts_each_pass_of_a_block_with_one_init_state(kind, monkeypatch):
    # the benchmark's tracer begins a pass at each init_state call and pairs a
    # block's teacher-forced and self-fed passes by that count
    cfg = tiny_train_config(model=kind)
    model = build_model(cfg, Rng(cfg.seed))
    monkeypatch.setattr(training, "ROLLOUT_BLOCK", 2)
    calls = []
    init_state = model.init_state
    monkeypatch.setattr(model, "init_state", lambda n=1: calls.append(n) or init_state(n))
    eval_rollout(model, make_switching_data(3, length=11), burn_in=3, horizon=6)
    assert calls == [2, 2, 1, 1]


def test_eval_rollout_memory_is_bounded_by_the_block():
    # a block's readout holds decoder rows for each of its states, so eval
    # holds at most ROLLOUT_BLOCK sequences' worth at once: three blocks
    # peak where one does (all 96 at once would peak about 1.1 MB higher)
    resolved, model = _bouncing_mini_model("gru")
    data = [gen_bouncing_mini(Rng(70 + i), 7, resolved["n_balls"]) for i in range(96)]

    def peak_mb(count):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            eval_rollout(model, data[:count], burn_in=3, horizon=4)
            return (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            tracemalloc.stop()

    assert training.ROLLOUT_BLOCK == 32
    assert peak_mb(96) - peak_mb(32) < 0.25


def test_eval_rollout_window_validation():
    data = make_switching_data(1, length=13)
    check_rollout_window(data, burn_in=8, horizon=5)
    with pytest.raises(ValueError):
        check_rollout_window(data, burn_in=10, horizon=5)


def test_rollout_window_is_checked_against_the_shortest_sequence():
    # the first sequence holds the window of 12 frames, the second only 11
    data = make_switching_data(1, length=13) + make_switching_data(1, length=11)
    with pytest.raises(ValueError, match=r"burn_in \+ horizon <= 11, the shortest"):
        check_rollout_window(data, burn_in=4, horizon=8)
    # train_model checks the eval set before its first epoch
    logged = []
    with pytest.raises(ValueError, match=r"burn_in \+ horizon <= 11, the shortest"):
        train_model(tiny_train_config(burn_in=4, horizon=8), make_switching_data(2),
                    data, log=logged.append)
    assert logged == []


def test_train_checks_the_rollout_window_once(monkeypatch):
    # before epoch 0, not again in each epoch's eval
    calls, check = [], training.check_rollout_window
    monkeypatch.setattr(training, "check_rollout_window",
                        lambda *args: calls.append(args) or check(*args))
    metrics, _ = train_model(tiny_train_config(epochs=3), make_switching_data(2),
                             make_switching_data(2))
    assert len(metrics) == 3 and all(m.eval_losses for m in metrics)
    assert len(calls) == 1


def test_collect_traces_shapes_and_burn_in():
    data = make_switching_data(2, length=13)
    cfg = tiny_train_config(epochs=1)
    _, model = train_model(cfg, data, None)
    traces = collect_traces(model, data, burn_in=4)
    assert len(traces) == 2
    assert len(traces[0]) == 12 - 4  # T-1 steps minus burn-in
    # train_model scores purity against the labels _step_labels gives
    for seq, seq_traces in zip(data, traces):
        assert len(training._step_labels(seq, 4)) == len(seq_traces)


@pytest.mark.parametrize("task", ["switching", "adding"])
def test_collect_traces_equal_the_loss_pass_traces_without_a_readout(task, monkeypatch):
    if task == "adding":
        data = [gen_adding(Rng(60 + i), 8, 2) for i in range(2)]
    else:
        data = make_switching_data(2, length=13)
    cfg = tiny_train_config(task=task)
    model = build_model(cfg, Rng(cfg.seed))
    want = [sequence_loss(model, seq)[1] for seq in data]

    def no_readout(states):
        raise AssertionError("collect_traces read a state out")

    monkeypatch.setattr(model, "readout", no_readout)
    got = collect_traces(model, data)
    assert len(got) == len(want)
    for seq_got, seq_want in zip(got, want):
        assert len(seq_got) == len(seq_want)
        for a, b in zip(seq_got, seq_want):
            for field in ("input_weights", "active", "schema", "comm_weights"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), field


# ------------------------------------------------------------------ checkpoints

def test_checkpoint_roundtrip(tmp_path):
    data = make_switching_data(4)
    cfg = tiny_train_config(epochs=1)
    _, model = train_model(cfg, data, None)
    save_checkpoint(tmp_path / "ck", model.parameters(), {"note": "test"})
    tensors, config = load_checkpoint(tmp_path / "ck")
    assert config == {"note": "test"}
    fresh = build_model(cfg, Rng(123))
    restore_model(fresh, tensors)
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, fresh.parameters()[name].data)
    # restored model evaluates identically
    a, _ = sequence_loss(model, data[0])
    b, _ = sequence_loss(fresh, data[0])
    assert a.item() == b.item()


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_nan=False, allow_infinity=False),
                         st.text(max_size=12))


_EDGE_DOUBLES = np.array([-0.0, 5e-324, -2.2250738585072009e-308,
                          1.7976931348623157e308, -1.7976931348623157e308])


@settings(max_examples=60, deadline=None)
# rank 0, signed zero, subnormals and the largest doubles, bit for bit
@example(params={"a": np.array(-0.0), "b": _EDGE_DOUBLES,
                 "c": _EDGE_DOUBLES.reshape(5, 1, 1, 1)}, config={})
@given(params=st.dictionaries(
           st.text(alphabet="abcxyz_.0123456789", min_size=1, max_size=10),
           hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=0, max_dims=4, min_side=1, max_side=3),
                      elements=st.floats(allow_nan=False, allow_infinity=False)),
           min_size=1, max_size=5),
       config=st.dictionaries(st.text(max_size=8), _JSON_SCALARS, max_size=6))
def test_checkpoint_roundtrip_any_tensors_and_config(params, config):
    with tempfile.TemporaryDirectory() as tmp:
        directory = os.path.join(tmp, "ck")
        save_checkpoint(directory, {n: Tensor(a) for n, a in params.items()}, config)
        tensors, stored = load_checkpoint(directory)
    assert stored == config
    assert set(tensors) == set(params)
    for name, arr in params.items():
        assert tensors[name].shape == arr.shape
        assert tensors[name].data.tobytes() == arr.tobytes()


def test_tensors_bin_holds_only_the_values_in_sorted_name_order(tmp_path):
    params = build_model(tiny_train_config(), Rng(1)).parameters()
    save_checkpoint(tmp_path / "ck", params, {})
    want = b"".join(struct.pack(f"<{params[n].data.size}d", *params[n].data.ravel(order="C"))
                    for n in sorted(params))
    assert (tmp_path / "ck" / "tensors.bin").read_bytes() == want
    manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
    assert [e["name"] for e in manifest["tensors"]] == sorted(params)
    assert any(len(e["shape"]) == 2 and e["shape"][0] != e["shape"][1]
               for e in manifest["tensors"])  # so C order is pinned, not implied


def _edited_checkpoint(directory, edit, extra=b""):
    """A two-tensor checkpoint whose manifest went through ``edit`` and whose
    tensors.bin has ``extra`` appended."""
    save_checkpoint(directory, {"a": Tensor([1.0, 2.0]), "b": Tensor(3.0)}, {})
    path = os.path.join(directory, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    edit(manifest["tensors"])
    with open(path, "w") as f:
        json.dump(manifest, f)
    with open(os.path.join(directory, "tensors.bin"), "ab") as f:
        f.write(extra)


def test_checkpoint_extent_past_the_file_is_refused_before_reading(tmp_path):
    directory = str(tmp_path / "ck")
    _edited_checkpoint(directory, lambda entries: entries[0].update(shape=[2**61]))
    # 2**64 bytes wanted: refused against the bytes left, before any read
    with pytest.raises(ValueError, match=r"tensors\.bin: truncated .*wanted 18446744073709551616"):
        load_checkpoint(directory)


@pytest.mark.parametrize("shape", [[-1], [0], [2.5], ["3"], [True], 3])
def test_checkpoint_malformed_shape_names_the_manifest(tmp_path, shape):
    directory = str(tmp_path / "ck")
    _edited_checkpoint(directory, lambda entries: entries[0].update(shape=shape))
    with pytest.raises(ValueError, match=r"manifest\.json: bad shape"):
        load_checkpoint(directory)


@pytest.mark.parametrize("name", [["a"], 3, None])
def test_checkpoint_name_that_is_not_a_string_names_the_manifest(tmp_path, name):
    directory = str(tmp_path / "ck")
    _edited_checkpoint(directory, lambda entries: entries[0].update(name=name))
    with pytest.raises(ValueError, match=r"manifest\.json: tensor name .* is not a string"):
        load_checkpoint(directory)


def test_checkpoint_name_listed_twice_names_the_manifest(tmp_path):
    # the repeated entry's values are present too, so only the index is wrong
    directory = str(tmp_path / "ck")
    _edited_checkpoint(directory, lambda entries: entries.append(dict(entries[1])),
                       extra=struct.pack("<d", 3.0))
    with pytest.raises(ValueError, match=r"manifest\.json: tensor 'b' is listed twice"):
        load_checkpoint(directory)


def test_restore_rejects_missing_params(tmp_path):
    cfg = tiny_train_config()
    model = build_model(cfg, Rng(1))
    params = dict(list(model.parameters().items())[:-1])
    save_checkpoint(tmp_path / "ck", params, {})
    tensors, _ = load_checkpoint(tmp_path / "ck")
    with pytest.raises(ValueError, match="missing"):
        restore_model(model, tensors)


def test_restore_rejects_unexpected_params(tmp_path):
    cfg = tiny_train_config()
    model = build_model(cfg, Rng(1))
    params = dict(model.parameters())
    params["extra"] = Tensor([1.0])
    save_checkpoint(tmp_path / "ck", params, {})
    tensors, _ = load_checkpoint(tmp_path / "ck")
    with pytest.raises(ValueError, match="extra"):
        restore_model(model, tensors)


def test_codec_widths_must_be_at_least_1():
    with pytest.raises(ValueError, match="dec_hidden must be >= 1"):
        CodecConfig(dec_hidden=0)


def test_train_config_takes_the_task_dependent_keys_from_its_caller():
    keys = ("lr", "burn_in", "horizon")
    for missing in keys:
        with pytest.raises(TypeError, match=missing):
            TrainConfig(task="switching", **{k: 1 for k in keys if k != missing})
    TrainConfig(task="switching", lr=1e-3, burn_in=1, horizon=1)
