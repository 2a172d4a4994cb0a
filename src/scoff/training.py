"""Losses, the Adam optimizer, train/eval loops, and trace analysis.

Every optimizer step clips the batch gradient to global norm 1.0
(``Adam.CLIP_NORM``); no setting turns clipping off or moves the norm.

Training is single-threaded and fully determined by (seed, config): two
children of ``Rng(seed)`` feed it, ``spawn(0)`` the model init and
``spawn(1)`` the run (epoch shuffles, Gumbel noise and dropout masks, drawn in
a fixed order). Evaluation runs greedy (no selection noise, no dropout) so
repeated evaluations agree bit for bit.
"""

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from itertools import permutations

import numpy as np

from . import numerics as nm
from .codec import CodecConfig
from .layer import ScoffConfig
from .model import GruBaseline, ScoffModel
from .numerics import Tape, Tensor, backward
from .rng import Rng
from .tasks import FRAME_TASKS, GRID, AddingSequence, check_task, read_exact


@dataclass(kw_only=True)
class TrainConfig:
    task: str = "switching"
    model: str = "scoff"  # "scoff" or "gru"
    scoff: ScoffConfig = field(default_factory=ScoffConfig)
    codec: CodecConfig = field(default_factory=CodecConfig)
    lr: float  # lr, burn_in and horizon: per-task defaults in tasks.TASKS
    batch_size: int = 64
    epochs: int = 10
    seed: int = 0
    burn_in: int
    horizon: int
    eval_subset: int = 32

    def __post_init__(self):
        check_task(self.task)
        if self.model not in ("scoff", "gru"):
            raise ValueError(f"model must be one of ('scoff', 'gru'), got {self.model!r}")
        for name in ("epochs", "batch_size", "eval_subset", "burn_in", "horizon"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.task in FRAME_TASKS and GRID % self.codec.patch:
            raise ValueError(f"patch {self.codec.patch} must divide the "
                             f"{GRID}x{GRID} frame")


@dataclass
class MetricsRecord:
    epoch: int
    train_loss: float
    eval_losses: list          # per rollout step (self-fed) or [mse]
    eval_teacher: list
    schema_usage: "list | None"  # fraction of selections per schema; None without schemata
    alignment_purity: "float | None"
    dead_schemata: "list | None"
    wall_seconds: float
    phase_seconds: dict        # disjoint parts of wall_seconds, by phase name

    def to_json(self) -> str:
        # wall-clock is intentionally left out so metrics files are
        # reproducible byte for byte from (seed, config)
        rec = asdict(self)
        del rec["wall_seconds"], rec["phase_seconds"]
        return json.dumps(rec, sort_keys=True)

    def timing_json(self) -> str:
        """The epoch's wall-clock seconds, whole and split by phase: the one
        record of a run that is not reproducible."""
        return json.dumps({"epoch": self.epoch, "wall_seconds": self.wall_seconds,
                           "phase_seconds": self.phase_seconds}, sort_keys=True)


# ---- losses ----------------------------------------------------------------


def bce_per_frame(logits: Tensor, target) -> Tensor:
    """Mean per-pixel binary cross entropy in stable logit form, over every
    pixel of every frame given."""
    return nm.logistic_loss_mean(logits, np.asarray(target, dtype=np.float64))


def mse_scalar(pred: Tensor, target: float) -> Tensor:
    if pred.data.size != 1:
        raise ValueError(f"mse_scalar expects a scalar prediction, got {pred.shape}")
    d = pred - float(target)
    return d * d


# ---- optimizer -------------------------------------------------------------


class Adam:
    """Holds moments for a parameter list and applies scaled, clipped,
    bias-corrected steps in place, with a fixed global clipping norm, moment
    decays and epsilon."""

    CLIP_NORM, BETA1, BETA2, EPS = 1.0, 0.9, 0.999, 1e-8

    def __init__(self, params: list, lr: float):
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def apply(self, scale: float) -> None:
        grads = [np.zeros_like(p.data) if p.grad is None else p.grad * scale
                 for p in self.params]
        norm = np.sqrt(sum(float((g * g).sum()) for g in grads))
        if norm > self.CLIP_NORM:
            coef = self.CLIP_NORM / norm
            grads = [g * coef for g in grads]
        self.t += 1
        beta1, beta2 = self.BETA1, self.BETA2
        bc1 = 1.0 - beta1 ** self.t
        bc2 = 1.0 - beta2 ** self.t
        for p, g, mi, vi in zip(self.params, grads, self.m, self.v):
            mi *= beta1
            mi += (1.0 - beta1) * g
            vi *= beta2
            vi += (1.0 - beta2) * (g * g)
            p.data -= self.lr * (mi / bc1) / (np.sqrt(vi / bc2) + self.EPS)
            p.zero_grad()


# ---- model construction and per-sequence passes -----------------------------


def build_model(cfg: TrainConfig, rng: Rng):
    if cfg.model == "scoff":
        return ScoffModel(cfg.task, cfg.scoff, cfg.codec, rng)
    # the baseline's one hidden row is as wide as all the slots together
    return GruBaseline(cfg.task, cfg.scoff.n_f * cfg.scoff.d_h, cfg.codec, rng)


def run_steps(model, xs, rng=None):
    """The recurrence over the inputs xs (leading axis time) from a fresh
    state, all encoded in one op: the state after each step and each step's
    trace; an rng makes the steps stochastic."""
    state = model.init_state()
    states, traces = [], []
    for f in nm.split_rows(model.encode(xs), len(xs)):
        state, trace = model.step(f, state, rng)
        states.append(state)
        traces.append(trace)
    return states, traces


def video_loss(model, frames, rng=None):
    """Teacher-forced next-frame prediction loss, averaged over steps: every
    frame but the last is encoded, and every state read out, in one op each."""
    states, traces = run_steps(model, frames[:-1], rng)
    logits = model.readout(nm.concat(states), len(states))
    return bce_per_frame(logits, frames[1:]), traces


def adding_loss(model, seq: AddingSequence, rng=None):
    """Terminal-target regression loss over the full token sequence."""
    states, traces = run_steps(model, seq.tokens(), rng)
    return mse_scalar(model.readout(states[-1], 1), seq.target), traces


def sequence_loss(model, seq, rng=None):
    if isinstance(seq, AddingSequence):
        return adding_loss(model, seq, rng)
    return video_loss(model, seq.frames, rng)


# ---- evaluation -------------------------------------------------------------


# the most sequences eval_rollout advances together: a block's readout holds
# its decoder rows for every state at once, and 32 keeps eval's peak memory
# below train's on bouncing_mini (all 128 of a test set at once do not)
ROLLOUT_BLOCK = 32


def eval_rollout(model, sequences: list, burn_in: int, horizon: int):
    """Per-step BCE curves for teacher-forced and self-fed prediction.

    Step i predicts frame burn_in + i. The self-fed mode thresholds each
    predicted frame at probability 0.5 before re-encoding it. Both passes
    run in lockstep over blocks of at most ``ROLLOUT_BLOCK`` sequences: each
    starts from the block's ``model.init_state(n)``, one call per pass, and
    each time step encodes the block's frames in one ``encode``, advances
    the block in one ``model.step_block`` and, where the next frame is
    scored (frame burn_in on), reads out its states in one ``readout`` and
    scores their frames in one array expression. The self-fed pass
    repeats the burn-in steps on the teacher-forced pass's features, then
    encodes its thresholded predictions. The curves are summed in sequence
    order. Against one sequence at a time, a block's batched matrix products
    may round differently in the last bits (within 1e-12 relative).
    """
    if not sequences:
        raise ValueError("no sequences to evaluate")
    _check_rollout_window(sequences, burn_in, horizon)
    teacher, self_fed = np.zeros(horizon), np.zeros(horizon)
    for lo in range(0, len(sequences), ROLLOUT_BLOCK):
        frames = np.stack([seq.frames[:burn_in + horizon]
                           for seq in sequences[lo:lo + ROLLOUT_BLOCK]])
        n = len(frames)
        burn = []  # the teacher-forced pass's burn-in features
        for total, fed_back in ((teacher, False), (self_fed, True)):
            state = model.init_state(n)
            curves = np.empty((n, horizon))
            for t in range(burn_in + horizon - 1):
                if fed_back and t < burn_in:
                    feats = burn[t]
                else:
                    feats = model.encode(feed if fed_back else frames[:, t])
                    if t < burn_in:
                        burn.append(feats)
                state = model.step_block(feats, state, n)
                if t + 1 >= burn_in:
                    logits = model.readout(state, n).data
                    curves[:, t + 1 - burn_in] = _frame_bce(logits, frames[:, t + 1])
                    feed = (logits > 0.0).astype(np.float64)
            for curve in curves:
                total += curve
    return (teacher / len(sequences)).tolist(), (self_fed / len(sequences)).tolist()


def constant_rate_bce(sequences: list, burn_in: int, horizon: int) -> float:
    """The mean BCE of predicting every pixel of frames burn_in ..
    burn_in + horizon - 1, the frames a rollout scores, at those frames' mean
    on-rate p: -p ln p - (1 - p) ln(1 - p), and 0 when p is 0 or 1. A curve
    above it predicts worse than a constant."""
    window = [seq.frames[burn_in:burn_in + horizon] for seq in sequences]
    p = sum(int(w.sum()) for w in window) / sum(w.size for w in window)
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log1p(-p)


def _frame_bce(logits: np.ndarray, targets) -> np.ndarray:
    """[n]: the mean binary cross entropy of each frame of logits [n, H, W]
    against targets, the value :func:`bce_per_frame` gives it alone."""
    if not np.isfinite(logits).all():
        raise ValueError("rollout logits hold non-finite entries")
    loss = nm.logistic_loss(logits, np.asarray(targets, dtype=np.float64))
    return loss.mean(axis=(1, 2))


def _check_rollout_window(sequences: list, burn_in: int, horizon: int) -> None:
    T = min(seq.frames.shape[0] for seq in sequences)
    if burn_in < 1 or horizon < 1 or burn_in + horizon > T:
        raise ValueError(
            f"need 1 <= burn_in and burn_in + horizon <= {T}, the shortest eval "
            f"sequence's length, got burn_in={burn_in}, horizon={horizon}")


def eval_adding(model, sequences: list) -> float:
    """Mean squared error of the terminal prediction."""
    if not sequences:
        raise ValueError("no sequences to evaluate")
    total = 0.0
    for seq in sequences:
        loss, _ = adding_loss(model, seq)
        total += loss.item()
    return total / len(sequences)


def collect_traces(model, sequences: list, burn_in: int = 0) -> list:
    """Greedy-mode traces, one list per sequence, burn-in steps dropped.

    Runs the steps of each sequence's loss pass, with no readout and no loss.
    """
    all_traces = []
    for seq in sequences:
        inputs = seq.tokens() if isinstance(seq, AddingSequence) else seq.frames[:-1]
        all_traces.append(run_steps(model, inputs)[1][burn_in:])
    return all_traces


def _step_labels(seq, burn_in: int) -> np.ndarray:
    """The labels of a sequence's loss-pass steps from step burn_in on: an
    adding step is operand (1) or null (0); frame step t predicts frame t + 1
    and takes that frame's label."""
    if isinstance(seq, AddingSequence):
        return seq.indicators.any(axis=1).astype(np.int64)[burn_in:]
    return np.asarray(seq.labels[1 + burn_in:])


def schema_alignment_purity(traces: list, labels: list) -> float:
    """Best assignment score between selected schemata and ground-truth modes.

    Builds the schema-by-mode co-occurrence over every active slot step and
    returns the matched mass of the best injective assignment divided by the
    total mass. Invariant under relabeling of either side.
    """
    pairs = [(trace, int(label)) for seq_traces, seq_labels in zip(traces, labels)
             for trace, label in zip(seq_traces, seq_labels)]
    if not pairs:
        raise ValueError("no traces to score")
    schema = np.stack([trace.schema for trace, _ in pairs])  # [steps, n_f]
    mode = np.broadcast_to(np.array([m for _, m in pairs])[:, None], schema.shape)
    chosen = schema >= 0
    counts = np.zeros((schema.max() + 1, mode.max() + 1))
    np.add.at(counts, (schema[chosen], mode[chosen]), 1.0)
    total = counts.sum()
    if total == 0:
        raise ValueError("no selections to score")
    if counts.shape[1] > counts.shape[0]:
        counts = counts.T  # search over the narrower side: rows >= columns
    rows, cols = counts.shape
    if cols > 8:
        raise ValueError("assignment enumeration capped at 8 on the smaller side")
    best = max(sum(counts[p[i], i] for i in range(cols))
               for p in permutations(range(rows), cols))
    return float(best / total)


# ---- the training loop -------------------------------------------------------


def train_model(cfg: TrainConfig, train_data: list, eval_data: "list | None" = None,
                log=None):
    """Returns (metrics records, trained model); bit-deterministic per (seed, config)."""
    if not train_data:
        raise ValueError("empty training dataset")
    if eval_data and cfg.task in FRAME_TASKS:
        # the rollout window of every epoch's eval, checked before epoch 0
        _check_rollout_window(eval_data, cfg.burn_in, cfg.horizon)
    root = Rng(cfg.seed)
    model = build_model(cfg, root.spawn(0))
    run_rng = root.spawn(1)
    params = model.parameters()
    opt = Adam(list(params.values()), cfg.lr)

    n_s = cfg.scoff.n_s
    metrics, clock = [], time.perf_counter
    last_update = None  # (epoch, batch) of the latest Adam step
    for epoch in range(cfg.epochs):
        started = clock()
        phases = dict.fromkeys(("forward", "backward", "adam", "eval"), 0.0)
        order = list(range(len(train_data)))
        run_rng.shuffle(order)
        epoch_loss = 0.0
        usage = np.zeros(n_s)
        for b, lo in enumerate(range(0, len(order), cfg.batch_size)):
            batch = order[lo:lo + cfg.batch_size]
            for idx in batch:
                t0 = clock()
                with Tape() as tape:
                    loss, traces = sequence_loss(model, train_data[idx], run_rng)
                t1 = clock()
                backward(loss, tape)
                phases["forward"] += t1 - t0
                phases["backward"] += clock() - t1
                epoch_loss += loss.item()
                # free this graph before the next sequence's forward pass
                del loss, tape
                if traces and traces[0] is not None:
                    schema = np.stack([trace.schema for trace in traces])
                    usage += np.bincount(schema[schema >= 0], minlength=n_s)
            where = f"training diverged in epoch {epoch}, batch {b}"
            bad = _first_non_finite((n, p.grad) for n, p in params.items())
            if bad is not None:
                raise ValueError(f"{where}: non-finite gradient of {bad} "
                                 f"(loss so far {epoch_loss})"
                                 + _after_update(last_update, params))
            if not math.isfinite(epoch_loss):
                raise ValueError(f"{where}: non-finite loss"
                                 + _after_update(last_update, params))
            t0 = clock()
            opt.apply(scale=1.0 / len(batch))
            phases["adam"] += clock() - t0
            bad = _first_non_finite((n, p.data) for n, p in params.items())
            if bad is not None:
                raise ValueError(f"{where}: the update made {bad} non-finite")
            last_update = (epoch, b)
        epoch_loss /= len(order)

        usage_frac = dead = None
        if model.kind == "scoff":
            usage_frac = (usage / usage.sum()).tolist() if usage.sum() else [0.0] * n_s
            dead = [j for j, frac in enumerate(usage_frac) if frac < 0.01] \
                if usage.sum() else []

        t0 = clock()
        eval_self, eval_teacher, purity, chance = [], [], None, None
        if eval_data:
            subset = eval_data[:cfg.eval_subset]
            if cfg.task in FRAME_TASKS:
                eval_teacher, eval_self = eval_rollout(model, subset, cfg.burn_in,
                                                       cfg.horizon)
            else:
                eval_self = [eval_adding(model, subset)]
                eval_teacher = list(eval_self)
            if model.kind == "scoff":
                labels = [_step_labels(seq, cfg.burn_in) for seq in subset]
                modes = np.bincount(np.concatenate(labels))
                # against one mode, purity is only the most-used schema's
                # share: it is left null, and the traces are not collected
                if np.count_nonzero(modes) > 1:
                    chance = modes.max() / modes.sum()
                    traces = collect_traces(model, subset, cfg.burn_in)
                    try:
                        purity = schema_alignment_purity(traces, labels)
                    except ValueError:
                        purity = None
        phases["eval"] = clock() - t0

        record = MetricsRecord(
            epoch=epoch, train_loss=epoch_loss, eval_losses=eval_self,
            eval_teacher=eval_teacher, schema_usage=usage_frac,
            alignment_purity=purity, dead_schemata=dead,
            wall_seconds=clock() - started, phase_seconds=phases)
        metrics.append(record)
        if log is not None:
            purity_s = "-" if purity is None else f"{purity:.3f} (chance {chance:.3f})"
            usage_s = "" if usage_frac is None else \
                f" usage={[round(u, 3) for u in usage_frac]}"
            log(f"epoch {epoch}: train_loss={epoch_loss:.6f} "
                f"purity={purity_s}{usage_s} ({record.wall_seconds:.1f}s)")
    return metrics, model


def _after_update(last_update, params: dict) -> str:
    """What a non-finite gradient or loss owes to the latest update: that
    update's epoch and batch, and the parameter it left largest in |value|.
    Empty before the first update."""
    if last_update is None:
        return ""
    name = max(params, key=lambda n: np.abs(params[n].data).max())
    return (f", after the update of epoch {last_update[0]}, batch {last_update[1]}, "
            f"which left {name} largest at |value| {np.abs(params[name].data).max():.3g}")


def _first_non_finite(named_arrays) -> "str | None":
    """Name of the first (name, array) pair holding a non-finite entry."""
    for name, arr in named_arrays:
        if arr is not None and not np.isfinite(arr).all():
            return name
    return None


# ---- checkpoints -------------------------------------------------------------


def save_checkpoint(directory, params: dict, config: dict) -> None:
    """``manifest.json`` lists each tensor's name and shape, in sorted-name
    order, beside ``config``; ``tensors.bin`` holds only their values, as
    little-endian float64 in C order, back to back in that order."""
    os.makedirs(directory, exist_ok=True)
    names = sorted(params)
    manifest = {"tensors": [{"name": n, "shape": list(params[n].shape)}
                            for n in names],
                "config": config}
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    with open(os.path.join(directory, "tensors.bin"), "wb") as f:
        for n in names:
            f.write(params[n].data.astype("<f8").tobytes(order="C"))


def load_checkpoint(directory):
    """(name -> Tensor, stored config) of the layout :func:`save_checkpoint`
    writes. A malformed manifest, a shape that is not a list of ints >= 1, or a
    name that is not a string or is listed twice raises ValueError naming
    manifest.json; a truncated or overlong tensors.bin, or a non-finite value,
    one naming tensors.bin."""
    manifest_path = os.path.join(directory, "manifest.json")
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
        entries = [(e["name"], e["shape"]) for e in manifest["tensors"]]
        config = manifest["config"]
    except (ValueError, KeyError, TypeError) as e:  # ValueError: not JSON
        raise ValueError(f"{manifest_path}: malformed manifest ({e!r})") from None
    if not isinstance(config, dict):
        raise ValueError(f"{manifest_path}: config must be a mapping")
    tensors = {}
    with open(os.path.join(directory, "tensors.bin"), "rb") as f:
        for name, shape in entries:
            if not isinstance(shape, list) or any(type(n) is not int or n < 1
                                                  for n in shape):
                raise ValueError(f"{manifest_path}: bad shape {shape!r} for {name!r}")
            if not isinstance(name, str):
                raise ValueError(f"{manifest_path}: tensor name {name!r} is not a string")
            if name in tensors:
                raise ValueError(f"{manifest_path}: tensor {name!r} is listed twice")
            values = read_exact(f, 8 * math.prod(shape), f"tensor {name!r}")
            try:
                tensors[name] = Tensor(np.frombuffer(values, dtype="<f8").reshape(shape))
            except ValueError as e:
                raise ValueError(f"{f.name}: {name!r}: {e}") from None
        if f.read(1):
            raise ValueError(f"{f.name}: trailing bytes after the last tensor")
    return tensors, config


def restore_model(model, tensors: dict) -> None:
    params = model.parameters()
    missing = set(params) - set(tensors)
    if missing:
        raise ValueError(f"checkpoint is missing parameters: {sorted(missing)}")
    unexpected = set(tensors) - set(params)
    if unexpected:
        raise ValueError(f"checkpoint holds parameters the model lacks: {sorted(unexpected)}")
    for name, p in params.items():
        if tensors[name].shape != p.shape:
            raise ValueError(f"shape mismatch restoring {name}")
        p.data[...] = tensors[name].data
