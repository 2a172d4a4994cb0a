"""Synthetic sequence generators with exact ground truth.

Video tasks live on a 16x16 binary grid with 2x2 balls and small integer
velocities, so the physics is exact and every frame can be re-rendered from
the recorded ball states. The adding task produces value/indicator channel
sequences with an exact scalar target.

A frame generator tracks, then renders. The bouncing task's one ball-motion
loop, ``_ball_tracks``, places the balls and moves them at constant velocity,
with wall reflection and the velocity swap on contact. It and the switching
task's loop are plain integer arithmetic on Python ints that
appends each step's positions and velocities to flat lists; one bulk copy
then fills each [T, n_balls, 2] array from its list, and one
``render_frames`` call draws all T frames. A numpy write per step or a
render per frame costs more in call overhead than the physics itself on
arrays this small.

The generators check none of their settings: ``generate``, their one caller,
passes them from a ``DataConfig``, which checked each range.

Datasets are streamed: ``generate`` yields one sequence at a time and
``write_dataset`` writes each as it arrives, so a set is never held whole
in memory. A dataset file's header count is written last, so a file cut
short holds no sequences; publishing a complete file is the caller's step.
"""

import itertools
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .rng import Rng

GRID = 16
BALL = 2
POS_MAX = GRID - BALL  # largest valid top-left coordinate

# switching task geometry: oscillation bounds for the moving coordinate and
# the two mode-indicator pixels in the bottom-left corner
OSC_LO = 2
OSC_HI = 11
INDICATOR_ROW = GRID - 1

# centered 4-row by 8-column occluder, drawn as background
OCCLUDER = (6, 4, 4, 8)

# each task's dataset-file id, a frame task's count of dynamics modes (its
# labels lie below it; only frame tasks have one), the shortest sequence it
# has (what the generator needs and a model can step through) and the
# defaults that depend on the task
TASKS = {
    "switching": {"id": 2, "modes": 2, "min_length": 11,
                  "length": 21, "lr": 1e-4, "burn_in": 5, "horizon": 10},
    "bouncing": {"id": 3, "modes": 1, "min_length": 2,
                 "length": 30, "lr": 1e-4, "burn_in": 10, "horizon": 15},
    "adding": {"id": 4, "min_length": 1,
               "length": 50, "lr": 1e-2, "burn_in": 5, "horizon": 10},
}
FRAME_TASKS = tuple(name for name, spec in TASKS.items() if "modes" in spec)


def check_task(task: str) -> None:
    if task not in TASKS:
        raise ValueError(f"task must be one of {tuple(TASKS)}, got {task!r}")


@dataclass
class FrameSequence:
    task: str
    frames: np.ndarray                    # uint8 [T, GRID, GRID], values {0,1}
    labels: np.ndarray                    # int64 [T], dynamics mode per step
    positions: "np.ndarray | None" = None  # int64 [T, n_balls, 2]
    velocities: "np.ndarray | None" = None
    occluder: "tuple | None" = None

    @property
    def length(self) -> int:
        return self.frames.shape[0]


TOKEN_FEATURES = 3  # an adding token: value plus the two operand indicator channels


@dataclass
class AddingSequence:
    task = "adding"
    values: np.ndarray      # f64 [L], drawn U(0,1)
    indicators: np.ndarray  # uint8 [L, 2], first/second-half operand marks
    target: float
    n_operands: int

    @property
    def length(self) -> int:
        return self.values.shape[0]

    def tokens(self) -> np.ndarray:
        """f64 [L, TOKEN_FEATURES] model inputs, as a dataset file stores them."""
        return np.column_stack([self.values, self.indicators.astype(np.float64)])


# offsets of a ball's BALL x BALL pixels from its top-left pixel, in a
# flattened frame
_BALL_PIXELS = np.array([r * GRID + c for r in range(BALL) for c in range(BALL)])


def render_frames(positions, indicator_modes=None, occluder=None) -> np.ndarray:
    """uint8 frames [T, GRID, GRID] of the balls at ``positions`` [T, n_balls, 2]
    (top-left pixels, each coordinate in [0, POS_MAX]), with the pixel
    (INDICATOR_ROW, mode) set for each step's mode in ``indicator_modes`` [T]
    and the ``occluder`` rectangle (top, left, height, width) cleared."""
    positions = np.asarray(positions)
    count = positions.shape[0]
    frames = np.zeros((count, GRID, GRID), dtype=np.uint8)
    corners = (positions[..., 0] * GRID + positions[..., 1]
               + np.arange(0, count * GRID * GRID, GRID * GRID)[:, None])
    frames.reshape(-1)[corners[..., None] + _BALL_PIXELS] = 1
    if indicator_modes is not None:
        frames[np.arange(count), INDICATOR_ROW, indicator_modes] = 1
    if occluder is not None:
        top, left, h, w = occluder
        frames[:, top:top + h, left:left + w] = 0
    return frames


def _tracks(track: list, speeds: list, n_balls: int) -> tuple:
    """int64 positions and velocities [T, n_balls, 2] of flat per-step lists.
    Each is filled in place rather than reshaped, so that it owns its data:
    a reshaped view would keep a second array object alive per sequence."""
    shape = (len(track) // (2 * n_balls), n_balls, 2)
    positions, velocities = np.empty(shape, np.int64), np.empty(shape, np.int64)
    positions.reshape(-1)[:] = track
    velocities.reshape(-1)[:] = speeds
    return positions, velocities


def _reflect(p: int, v: int, lo: int = 0, hi: int = POS_MAX) -> tuple:
    """Advance one coordinate with wall reflection; returns (p', v')."""
    p += v
    if p < lo:
        p = 2 * lo - p
        v = -v
    elif p > hi:
        p = 2 * hi - p
        v = -v
    return p, v


def _sample_step(rng: Rng) -> tuple:
    """A nonzero pair of ints, each drawn uniformly from [-2, 2]."""
    while True:
        v = (rng.randint(5) - 2, rng.randint(5) - 2)
        if v != (0, 0):
            return v


def _ball_tracks(rng: Rng, length: int, n_balls: int) -> tuple:
    """int64 positions and velocities [T, n_balls, 2] of 2x2 balls at constant
    velocity.

    The balls are placed without overlap, then each gets a nonzero velocity.
    Each step moves every ball with wall reflection. Contacts are then
    resolved in passes over the pairs (i < j, in order) until a pass finds
    none: a pair whose squares overlap swaps velocity vectors, and both balls
    go back to their previous squares for that step, so a ball that overlaps
    a held ball is held as well. Previous squares never overlap, so each
    further pass holds at least one more ball and the passes end with no two
    balls overlapping. Every exchange is a swap, which conserves kinetic
    energy exactly.

    The state is two flat lists of Python ints, ``pos`` and ``vel``, with
    ball i's row and column at 2i and 2i + 1. A move is one addition and a
    range test per coordinate; ``_reflect`` runs only for a coordinate that
    left [0, POS_MAX]. The contact test is a chained comparison of each
    coordinate difference with +-BALL.
    """
    pos = []
    for _ in range(n_balls):
        for attempt in range(100):
            r, c = rng.randint(POS_MAX + 1), rng.randint(POS_MAX + 1)
            if not any(-BALL < r - pos[k] < BALL and -BALL < c - pos[k + 1] < BALL
                       for k in range(0, len(pos), 2)):
                pos += r, c
                break
        else:
            raise RuntimeError("could not place balls without overlap")
    vel = []
    for _ in range(n_balls):
        vel += _sample_step(rng)

    coords = range(2 * n_balls)
    pairs = [(i, j) for i in range(0, 2 * n_balls, 2) for j in range(i + 2, 2 * n_balls, 2)]
    track, speeds = pos[:], vel[:]
    for _ in range(1, length):
        moved = []
        for k in coords:
            p = pos[k] + vel[k]
            if not 0 <= p <= POS_MAX:
                p, vel[k] = _reflect(pos[k], vel[k])
            moved.append(p)
        contact = True
        while contact:
            contact = False
            for i, j in pairs:
                if (-BALL < moved[i] - moved[j] < BALL
                        and -BALL < moved[i + 1] - moved[j + 1] < BALL):
                    vel[i:i + 2], vel[j:j + 2] = vel[j:j + 2], vel[i:i + 2]
                    moved[i:i + 2], moved[j:j + 2] = pos[i:i + 2], pos[j:j + 2]
                    contact = True
        pos = moved
        track += pos
        speeds += vel
    return _tracks(track, speeds, n_balls)


def gen_switching_dynamics(rng: Rng, length: int) -> FrameSequence:
    """One ball oscillating horizontally then vertically (or the reverse),
    switching exactly once at the midpoint. The pixel at (15, mode) marks the
    current dynamics. ``generate`` passes an odd length ``DataConfig`` checked.
    """
    first = rng.randint(2)  # 0 horizontal, 1 vertical
    span = OSC_HI - OSC_LO + 1
    fixed = rng.randint(span) + OSC_LO
    moving = rng.randint(span) + OSC_LO
    direction = 1 if rng.randint(2) else -1
    switch_at = (length - 1) // 2
    labels = np.where(np.arange(length) < switch_at, first, 1 - first).astype(np.int64)

    track, speeds = [], []
    for t in range(length):
        if t:
            moving, direction = _reflect(moving, direction, OSC_LO, OSC_HI)
        # horizontal motion (mode 0) moves the column, vertical the row
        if (first if t < switch_at else 1 - first) == 0:
            track += fixed, moving
            speeds += 0, direction
        else:
            track += moving, fixed
            speeds += direction, 0

    positions, velocities = _tracks(track, speeds, 1)
    frames = render_frames(positions, indicator_modes=labels)
    return FrameSequence("switching", frames, labels, positions, velocities)


def gen_bouncing_mini(rng: Rng, length: int, n_balls: int,
                      occluder: "tuple | None" = None) -> FrameSequence:
    """Equal 2x2 balls at constant velocity with wall reflection and velocity
    exchange on contact (see ``_ball_tracks``). Occluder pixels are forced to
    background so balls pass behind. ``generate`` passes a length and a ball
    count ``DataConfig`` checked.
    """
    positions, velocities = _ball_tracks(rng, length, n_balls)
    frames = render_frames(positions, occluder=occluder)
    labels = np.zeros(length, dtype=np.int64)
    return FrameSequence("bouncing", frames, labels, positions, velocities,
                         occluder=occluder)


def _sample_distinct(rng: Rng, lo: int, hi: int, count: int) -> list:
    pool = list(range(lo, hi))
    for i in range(count):
        j = i + rng.randint(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:count])


def gen_adding(rng: Rng, length: int, n_operands: int) -> AddingSequence:
    """Uniform values with ceil(N/2) operands marked in the first half of the
    sequence and floor(N/2) in the second; the target is their exact sum.
    ``generate`` passes a length and an operand count ``DataConfig`` checked.
    """
    values = np.asarray(rng.uniform(length))
    half = (length + 1) // 2
    first = _sample_distinct(rng, 0, half, (n_operands + 1) // 2)
    second = _sample_distinct(rng, half, length, n_operands // 2)
    indicators = np.zeros((length, 2), dtype=np.uint8)
    indicators[first, 0] = 1
    indicators[second, 1] = 1
    target = float(sum(values[i] for i in first) + sum(values[i] for i in second))
    return AddingSequence(values, indicators, target, n_operands)


@dataclass(kw_only=True)
class DataConfig:
    """The keys ``generate`` reads, each checked for the task that reads it."""

    task: str
    length: int
    train_count: int = 2000
    test_count: int = 500
    n_balls: int = 2
    occluder: bool = False
    operands: str = "2,4"

    def __post_init__(self):
        check_task(self.task)
        task, length = self.task, self.length
        least = TASKS[task]["min_length"]
        odd = " and odd" if task == "switching" else ""
        for key, ok, want in (
                ("train_count", self.train_count >= 1, ">= 1"),
                ("test_count", self.test_count >= 1, ">= 1"),
                ("length", length >= least and (not odd or length % 2), f">= {least}{odd}"),
                ("n_balls", task != "bouncing" or 1 <= self.n_balls <= 4, "in [1, 4]"),
                ("operands", task != "adding" or self.operand_counts(),
                 f"integers in [1, {length}]")):
            if not ok:
                raise ValueError(f"{key} must be {want} for {task}, got {getattr(self, key)!r}")

    def operand_counts(self) -> list:
        """The counts in ``operands``; [] unless each is an integer in [1, length]."""
        try:
            counts = [int(x) for x in self.operands.split(",") if x.strip()]
        except ValueError:
            return []
        return counts if all(1 <= n <= self.length for n in counts) else []


def generate(cfg: DataConfig, seed: int, count: int, offset: int) -> Iterator:
    """``count`` sequences of ``cfg``'s task, yielded one at a time; sequence
    i draws from ``Rng(seed).spawn(offset + i)`` alone."""
    root = Rng(seed)
    occluder = OCCLUDER if cfg.occluder else None
    for i in range(count):
        child = root.spawn(offset + i)
        if cfg.task == "switching":
            yield gen_switching_dynamics(child, cfg.length)
        elif cfg.task == "bouncing":
            yield gen_bouncing_mini(child, cfg.length, cfg.n_balls, occluder)
        else:
            yield gen_adding(child, cfg.length, child.choice(cfg.operand_counts()))


# ---- dataset files ---------------------------------------------------------

_MAGIC = b"SCFD"


def write_dataset(path, sequences: Iterable) -> None:
    """Header: magic, u32 task id, u32 count, u32 T (or L), u32 H, u32 W.

    ``sequences`` may be any iterable, a generator included: each sequence is
    written as it arrives, so a generator's set is never held whole, and the
    count is patched into the header at the end. The file is written at
    ``path`` itself: one cut short by a failure or by sequences of mixed
    lengths holds count 0, which ``read_dataset`` refuses, and a caller that
    must not disturb an existing file writes elsewhere and moves it into
    place (``scoff gen-data`` does)."""
    seqs = iter(sequences)
    first = next(seqs, None)
    if first is None:
        raise ValueError("refusing to write an empty dataset")
    t_or_l = first.length
    h, w = (0, 0) if first.task == "adding" else first.frames.shape[1:]
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IIIII", TASKS[first.task]["id"], 0, t_or_l, h, w))
        count = 0
        for seq in itertools.chain((first,), seqs):
            if seq.length != t_or_l:
                raise ValueError("all sequences in a dataset must share length")
            if isinstance(seq, AddingSequence):
                f.write(seq.tokens().astype("<f8").tobytes(order="C"))
                f.write(struct.pack("<d", seq.target))
                f.write(struct.pack("<I", seq.n_operands))
            else:
                f.write(seq.frames.astype(np.uint8).tobytes(order="C"))
                f.write(seq.labels.astype(np.uint8).tobytes(order="C"))
            count += 1
        f.seek(len(_MAGIC) + 4)
        f.write(struct.pack("<I", count))


def read_exact(f, n: int, what: str) -> bytes:
    """Exactly ``n`` bytes from the seekable ``f``. Fewer left raises ValueError
    naming the file, before any read, so a corrupt length allocates nothing."""
    pos = f.tell()
    left = f.seek(0, 2) - pos
    f.seek(pos)
    if n > left:
        raise ValueError(f"{f.name}: truncated {what} (wanted {n} bytes, {left} left)")
    return f.read(n)


def read_dataset(path, task: str) -> list:
    """Sequences of a dataset file of ``task``; a file of an unknown or another
    task, of another frame size (16x16 frames, 0x0 for adding), of sequences
    shorter than the task's ``min_length``, a short, overlong or empty one,
    or one holding a value the model cannot take (a frame pixel or an adding
    indicator outside {0, 1}, a label outside the task's modes, a non-finite
    adding value or target) raises ValueError naming it."""
    with open(path, "rb") as f:
        if f.read(4) != _MAGIC:
            raise ValueError(f"{path} is not a dataset file")
        task_id, count, t_or_l, h, w = struct.unpack("<IIIII", read_exact(f, 20, "header"))
        names = {spec["id"]: name for name, spec in TASKS.items()}
        if task_id not in names:
            raise ValueError(f"{path}: unknown task id {task_id}")
        if names[task_id] != task:
            raise ValueError(f"{path} holds {names[task_id]} sequences, expected {task}")
        if count == 0:
            raise ValueError(f"{path} holds no sequences")
        least = TASKS[task]["min_length"]
        if t_or_l < least:
            raise ValueError(f"{path} holds sequences of length {t_or_l}, "
                             f"but {task} needs at least {least}")
        size = (0, 0) if task == "adding" else (GRID, GRID)
        if (h, w) != size:
            raise ValueError(f"{path} holds {h}x{w} frames, expected {size[0]}x{size[1]}")
        out = []
        for k in range(count):
            if task == "adding":
                tokens = np.frombuffer(read_exact(f, 8 * TOKEN_FEATURES * t_or_l, "sequence"),
                                       dtype="<f8").reshape(t_or_l, TOKEN_FEATURES)
                target, n_ops = struct.unpack("<dI", read_exact(f, 12, "sequence"))
                if not (np.isfinite(tokens[:, 0]).all() and np.isfinite(target)):
                    raise ValueError(f"{path}: sequence {k} holds a non-finite value "
                                     f"or target")
                marks = tokens[:, 1:]
                if not ((marks == 0.0) | (marks == 1.0)).all():
                    raise ValueError(f"{path}: sequence {k} holds an indicator "
                                     f"outside {{0, 1}}")
                out.append(AddingSequence(
                    tokens[:, 0].astype(np.float64),
                    marks.astype(np.uint8), float(target), n_ops))
            else:
                frames = np.frombuffer(read_exact(f, t_or_l * h * w, "sequence"),
                                       dtype=np.uint8)
                frames = frames.reshape(t_or_l, h, w).copy()
                labels = np.frombuffer(read_exact(f, t_or_l, "sequence"), dtype=np.uint8)
                if (frames > 1).any():
                    raise ValueError(f"{path}: sequence {k} holds a frame value "
                                     f"outside {{0, 1}}")
                modes = TASKS[task]["modes"]
                if (labels >= modes).any():
                    raise ValueError(f"{path}: sequence {k} holds label {labels.max()}, "
                                     f"but {task} has {modes} modes")
                out.append(FrameSequence(task, frames, labels.astype(np.int64)))
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after the last sequence")
        return out
