import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoff.rng import Rng
from scoff.tasks import (BALL, GRID, INDICATOR_ROW, OCCLUDER, OSC_HI, OSC_LO, POS_MAX,
                         TASKS, AddingSequence, DataConfig, FrameSequence, _reflect,
                         gen_adding, gen_bouncing_mini, gen_switching_dynamics, generate,
                         read_dataset, write_dataset)


# ------------------------------------------------------------------ one ball

def _steps(seq):
    """(previous position, previous velocity, position, velocity) per step of
    a one-ball sequence, as lists of ints."""
    pos, vel = seq.positions[:, 0].tolist(), seq.velocities[:, 0].tolist()
    return list(zip(pos, vel, pos[1:], vel[1:]))


def _moved(p, v):
    """Both coordinates advanced by ``_reflect``: (position, velocity)."""
    (r, vr), (c, vc) = _reflect(p[0], v[0]), _reflect(p[1], v[1])
    return [r, c], [vr, vc]


def test_constant_mode_advances_one_column_per_frame():
    # a ball drawn with velocity (0, +-1) keeps its row and moves exactly one
    # column each frame, a wall bounce included
    horizontal = 0
    for seed in range(300):
        seq = gen_bouncing_mini(Rng(seed), 20, 1)
        if abs(seq.velocities[0, 0]).tolist() != [0, 1]:
            continue
        horizontal += 1
        rows, cols = seq.positions[:, 0, 0], seq.positions[:, 0, 1]
        assert (rows == rows[0]).all()
        assert (np.abs(np.diff(cols)) == 1).all()
    assert horizontal > 0


def test_constant_mode_reflects_at_wall():
    # the oracle on its own: a free step, a bounce off each wall
    assert _reflect(5, 1) == (6, 1)
    assert _reflect(13, 2) == (13, -2)
    assert _reflect(1, -2) == (1, 2)
    reflections = 0
    for seed in range(300):
        seq = gen_bouncing_mini(Rng(seed), 20, 1)
        assert seq.velocities[0, 0].tolist() != [0, 0]
        for p, v, p_next, v_next in _steps(seq):
            assert [p_next, v_next] == [*_moved(p, v)]
            reflections += v_next != v
        assert (0 <= seq.positions).all() and (seq.positions <= POS_MAX).all()
    assert reflections > 0


# ------------------------------------------------------------------- switching

def test_switching_indicator_always_matches_label():
    for seed in range(20):
        seq = gen_switching_dynamics(Rng(seed), 21)
        for t in range(21):
            mode = int(seq.labels[t])
            assert seq.frames[t, GRID - 1, mode] == 1
            assert seq.frames[t, GRID - 1, 1 - mode] == 0


def test_switching_exactly_one_switch_at_midpoint():
    for seed in range(20):
        length = 21
        seq = gen_switching_dynamics(Rng(seed), length)
        changes = np.nonzero(np.diff(seq.labels))[0]
        assert len(changes) == 1
        assert changes[0] == (length - 1) // 2 - 1  # labels change at midpoint


def test_switching_oscillation_matches_triangle_closed_form():
    # [DERIVED] the moving coordinate follows a triangle wave with period
    # 2 * (OSC_HI - OSC_LO)
    seq = gen_switching_dynamics(Rng(7), 41)
    first_mode = int(seq.labels[0])
    axis = 1 if first_mode == 0 else 0
    switch = (41 - 1) // 2
    moving = seq.positions[:switch, 0, axis]
    p0 = int(moving[0])
    d0 = int(seq.velocities[0, 0, axis])
    span = OSC_HI - OSC_LO
    # triangle phase: distance travelled from OSC_LO along the unfolded line
    phase0 = (p0 - OSC_LO) if d0 > 0 else (2 * span - (p0 - OSC_LO))
    for t in range(switch):
        phase = (phase0 + t) % (2 * span)
        expect = OSC_LO + (phase if phase <= span else 2 * span - phase)
        assert moving[t] == expect


# -------------------------------------------------------------------- adding

def test_adding_trivial_targets():
    seq = gen_adding(Rng(5), 4, 2)
    marked = np.nonzero(seq.indicators.any(axis=1))[0]
    assert len(marked) == 2
    assert abs(seq.target - seq.values[marked].sum()) < 1e-15


def test_adding_all_marked():
    seq = gen_adding(Rng(6), 5, 5)
    assert seq.indicators.any(axis=1).all()
    assert abs(seq.target - seq.values.sum()) < 1e-12


def test_adding_half_split():
    for seed in range(30):
        seq = gen_adding(Rng(seed), 20, 5)
        half = (20 + 1) // 2
        first = seq.indicators[:half, 0].sum() + seq.indicators[:half, 1].sum()
        second = seq.indicators[half:, 0].sum() + seq.indicators[half:, 1].sum()
        assert first == 3 and second == 2
        assert seq.indicators[half:, 0].sum() == 0  # channel 0 is first half


def test_adding_mean_target_two_operands():
    # [DERIVED] Monte Carlo of 2 * E[U(0,1)] = 1.0
    total = 0.0
    n = 100_000
    root = Rng(99)
    for i in range(n):
        total += gen_adding(root.spawn(i), 8, 2).target
    assert abs(total / n - 1.0) < 0.01


# ------------------------------------------------------------------- bouncing

def test_bouncing_kinetic_energy_exactly_conserved():
    for seed in range(15):
        seq = gen_bouncing_mini(Rng(seed), 30, 3)
        energy = (seq.velocities.astype(np.int64) ** 2).sum(axis=(1, 2))
        assert (energy == energy[0]).all()


def test_bouncing_balls_stay_on_the_grid_apart_and_keep_their_energy():
    # a contact that sends a ball back onto its previous square can land it
    # on a ball that an earlier pair of the same step already moved; every
    # step must still end with no two balls overlapping
    for n_balls in range(1, 5):
        for seed in range(200):
            seq = gen_bouncing_mini(Rng(seed), 30, n_balls)
            pos = seq.positions
            assert ((pos >= 0) & (pos <= POS_MAX)).all(), (n_balls, seed)
            gap = np.abs(pos[:, :, None, :] - pos[:, None, :, :])
            overlap = (gap < BALL).all(axis=-1)
            overlap[:, range(n_balls), range(n_balls)] = False
            assert not overlap.any(), (n_balls, seed)
            energy = (seq.velocities ** 2).sum(axis=(1, 2))
            assert (energy == energy[0]).all(), (n_balls, seed)


def test_head_on_symmetric_collision_reverses_both():
    # equal masses approaching along the line of centers swap velocities,
    # which for opposite velocities is a reversal; search seeds for a clean
    # head-on event and verify the swap plus the position hold
    found = False
    for seed in range(4000):
        s = gen_bouncing_mini(Rng(seed), 20, 2)
        v = s.velocities
        p = s.positions
        for t in range(1, 20):
            before = v[t - 1]
            after = v[t]
            if (before[0] == -before[1]).all() and (after[0] == before[1]).all() \
                    and (after[1] == before[0]).all() \
                    and not (before[0] == 0).all() \
                    and (p[t] == p[t - 1]).all():
                found = True
                break
        if found:
            break
    assert found, "no head-on swap observed across seeds"


def test_bouncing_balls_pass_behind_occluder():
    seq = gen_bouncing_mini(Rng(11), 25, 2, occluder=OCCLUDER)
    top, left, h, w = OCCLUDER
    assert (seq.frames[:, top:top + h, left:left + w] == 0).all()


# ------------------------------------------------------------------ invariants

def test_generators_bit_deterministic():
    for gen in (lambda r: gen_switching_dynamics(r, 13),
                lambda r: gen_bouncing_mini(r, 10, 2)):
        a, b = gen(Rng(31)), gen(Rng(31))
        assert np.array_equal(a.frames, b.frames)
        assert np.array_equal(a.positions, b.positions)
    x, y = gen_adding(Rng(31), 10, 3), gen_adding(Rng(31), 10, 3)
    assert np.array_equal(x.values, y.values)
    assert x.target == y.target


def reference_frame(positions, indicator_mode=None, occluder=None) -> np.ndarray:
    """One frame drawn ball by ball with slices: the reference for
    ``tasks.render_frames``."""
    frame = np.zeros((GRID, GRID), dtype=np.uint8)
    for r, c in positions:
        frame[r:r + BALL, c:c + BALL] = 1
    if indicator_mode is not None:
        frame[INDICATOR_ROW, indicator_mode] = 1
    if occluder is not None:
        top, left, h, w = occluder
        frame[top:top + h, left:left + w] = 0
    return frame


def rerender(seq: FrameSequence) -> np.ndarray:
    """Frames recomputed from the recorded ball states."""
    out = np.zeros_like(seq.frames)
    for t in range(seq.length):
        mode = int(seq.labels[t]) if seq.task == "switching" else None
        out[t] = reference_frame(seq.positions[t], indicator_mode=mode,
                                 occluder=seq.occluder)
    return out


def test_frames_are_binary_and_rerender_exactly():
    seqs = [gen_switching_dynamics(Rng(4), 15)]
    seqs += [gen_bouncing_mini(Rng(5 + n_balls), 15, n_balls, occluder=occluder)
             for n_balls in range(1, 5) for occluder in (None, OCCLUDER)]
    for seq in seqs:
        assert seq.frames.dtype == np.uint8
        assert set(np.unique(seq.frames)).issubset({0, 1})
        assert np.array_equal(rerender(seq), seq.frames)


# ------------------------------------------------------------------- file I/O

def test_video_dataset_roundtrip(tmp_path):
    seqs = [gen_switching_dynamics(Rng(s), 13) for s in range(4)]
    path = tmp_path / "data.scfd"
    write_dataset(path, seqs)
    with open(path, "rb") as f:
        assert f.read(4) == b"SCFD"
    back = read_dataset(path, "switching")
    assert len(back) == 4
    for a, b in zip(seqs, back):
        assert np.array_equal(a.frames, b.frames)
        assert np.array_equal(a.labels, b.labels)


def test_adding_dataset_roundtrip(tmp_path):
    seqs = [gen_adding(Rng(s), 12, 3) for s in range(5)]
    path = tmp_path / "adding.scfd"
    write_dataset(path, seqs)
    back = read_dataset(path, "adding")
    for a, b in zip(seqs, back):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.indicators, b.indicators)
        assert a.target == b.target
        assert a.n_operands == b.n_operands


@st.composite
def datasets(draw):
    """A list of generated sequences of one task, sharing one length."""
    task = draw(st.sampled_from(tuple(TASKS)))
    count = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32))
    rngs = [Rng(seed).spawn(i) for i in range(count)]
    if task == "switching":
        length = 2 * draw(st.integers(5, 12)) + 1
        return [gen_switching_dynamics(r, length) for r in rngs]
    if task == "bouncing":
        length, n_balls = draw(st.integers(2, 24)), draw(st.integers(1, 4))
        occluder = OCCLUDER if draw(st.booleans()) else None
        return [gen_bouncing_mini(r, length, n_balls, occluder) for r in rngs]
    length = draw(st.integers(1, 40))
    return [gen_adding(r, length, draw(st.integers(1, length))) for r in rngs]


@settings(max_examples=60, deadline=None)
@given(seqs=datasets())
def test_dataset_roundtrip_any_task_count_and_length(seqs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.scfd")
        write_dataset(path, seqs)
        back = read_dataset(path, seqs[0].task)
    assert len(back) == len(seqs)
    for a, b in zip(seqs, back):
        assert type(a) is type(b) and a.length == b.length
        if isinstance(a, AddingSequence):
            assert a.values.tobytes() == b.values.tobytes()
            assert np.array_equal(a.indicators, b.indicators)
            assert a.target == b.target and a.n_operands == b.n_operands
        else:
            assert a.task == b.task
            assert np.array_equal(a.frames, b.frames)
            assert np.array_equal(a.labels, b.labels)


def test_dataset_write_is_byte_deterministic(tmp_path):
    seqs = [gen_bouncing_mini(Rng(s), 10, 2) for s in range(3)]
    p1, p2 = tmp_path / "a.scfd", tmp_path / "b.scfd"
    write_dataset(p1, seqs)
    write_dataset(p2, seqs)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.scfd"
    p.write_bytes(b"JUNKxxxxxxxxxxxxxxxxxxxxxxx")
    with pytest.raises(ValueError):
        read_dataset(p, "switching")


def test_dataset_rejects_corrupt_sizes_naming_the_file(tmp_path):
    # intact header for one bouncing sequence of 2**31 frames of 16x16 pixels
    p = tmp_path / "huge.scfd"
    p.write_bytes(b"SCFD" + struct.pack("<IIIII", 3, 1, 2**31, 16, 16) + b"\x00" * 64)
    with pytest.raises(ValueError, match="huge.scfd: truncated"):
        read_dataset(p, "bouncing")
    # the frame size is checked first: 2**16 pixels, or any frame for adding
    p.write_bytes(b"SCFD" + struct.pack("<IIIII", 3, 1, 2**31, 2**8, 2**8) + b"\x00" * 64)
    with pytest.raises(ValueError, match="huge.scfd holds 256x256 frames, expected 16x16"):
        read_dataset(p, "bouncing")
    p.write_bytes(b"SCFD" + struct.pack("<IIIII", 4, 1, 50, 16, 16))
    with pytest.raises(ValueError, match="huge.scfd holds 16x16 frames, expected 0x0"):
        read_dataset(p, "adding")


def test_read_dataset_rejects_another_task_an_unknown_task_or_no_sequences(tmp_path):
    p = tmp_path / "bouncing.scfd"
    write_dataset(p, [gen_bouncing_mini(Rng(0), 10, 2)])
    with pytest.raises(ValueError, match="bouncing.scfd holds bouncing sequences, "
                                         "expected switching"):
        read_dataset(p, "switching")
    empty = tmp_path / "empty.scfd"
    empty.write_bytes(b"SCFD" + struct.pack("<IIIII", 4, 0, 50, 0, 0))
    with pytest.raises(ValueError, match="empty.scfd holds no sequences"):
        read_dataset(empty, "adding")
    unknown = tmp_path / "unknown.scfd"
    unknown.write_bytes(b"SCFD" + struct.pack("<IIIII", 9, 1, 50, 0, 0))
    with pytest.raises(ValueError, match="unknown.scfd: unknown task id 9"):
        read_dataset(unknown, "adding")
    # the retired single-ball task's id
    retired = tmp_path / "retired.scfd"
    retired.write_bytes(b"SCFD" + struct.pack("<IIIII", 1, 1, 20, 16, 16))
    with pytest.raises(ValueError, match="retired.scfd: unknown task id 1"):
        read_dataset(retired, "bouncing")


@pytest.mark.parametrize("task,length", [("adding", 0), ("bouncing", 1)])
def test_read_dataset_rejects_sequences_shorter_than_the_task_minimum_naming_the_file(
        tmp_path, task, length):
    # hand-written: two sequences of the given length, each record complete
    task_id, size = (4, 0) if task == "adding" else (3, GRID)
    record = 8 * 3 * length + 12 if task == "adding" else length * (size * size + 1)
    p = tmp_path / "short.scfd"
    p.write_bytes(b"SCFD" + struct.pack("<IIIII", task_id, 2, length, size, size)
                  + b"\x00" * (2 * record))
    least = TASKS[task]["min_length"]
    with pytest.raises(ValueError, match=f"short.scfd holds sequences of length {length}, "
                                         f"but {task} needs at least {least}"):
        read_dataset(p, task)


@pytest.mark.parametrize("task", ["bouncing", "adding"])
def test_write_dataset_streams_a_generator_to_the_bytes_of_the_list(tmp_path, task):
    cfg = DataConfig(task=task, length=TASKS[task]["length"])
    write_dataset(tmp_path / "list.scfd", list(generate(cfg, 5, 3, 0)))
    write_dataset(tmp_path / "stream.scfd", generate(cfg, 5, 3, 0))
    assert (tmp_path / "stream.scfd").read_bytes() == (tmp_path / "list.scfd").read_bytes()


def test_empty_iterable_raises_and_creates_no_file(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        write_dataset(tmp_path / "data.scfd", iter(()))
    assert list(tmp_path.iterdir()) == []


def failing_stream():
    yield gen_switching_dynamics(Rng(0), 13)
    raise RuntimeError("generator failed")


@pytest.mark.parametrize("sequences,error,message", [
    (failing_stream, RuntimeError, "generator failed"),
    (lambda: [gen_switching_dynamics(Rng(0), 13), gen_switching_dynamics(Rng(1), 15)],
     ValueError, "all sequences in a dataset must share length"),
], ids=["failed_stream", "mixed_lengths"])
def test_write_cut_short_leaves_no_readable_dataset(tmp_path, sequences, error, message):
    # the header's count is written last: publishing only a complete file is
    # the caller's step (gen-data's staging directory)
    p = tmp_path / "data.scfd"
    with pytest.raises(error, match=message):
        write_dataset(p, sequences())
    with pytest.raises(ValueError, match="data.scfd holds no sequences"):
        read_dataset(p, "switching")


def test_data_config_checks_the_task():
    with pytest.raises(ValueError, match="task must be one of"):
        DataConfig(task="pong", length=20)
    with pytest.raises(TypeError):
        DataConfig(task="bouncing")  # length has no default
