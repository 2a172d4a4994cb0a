"""Command-line entry point.

Commands: gen-data, train, eval, check-grad, param-count. Config files
are plain ``key = value`` lines with optional ``[section]`` headers and ``#``
comments; ``--set key=value`` overrides win over file values. Every key but
the paths ``data`` and ``checkpoint`` is a field of a config dataclass. Every
command that writes artifacts also writes the resolved configuration beside
them, and every artifact is reproducible byte for byte from (command, config,
seed). gen-data streams each set to disk and publishes both files only once
both are complete; train keeps only the first ``eval_subset`` sequences of the
test set, the ones each epoch evaluates. gen-data, train and eval reject an
``--out`` inside a file before reading any data.

A process that imports this module freezes its heap at exit (``gc.freeze``
through ``atexit``): the interpreter's shutdown collections would otherwise
walk every object numpy and scoff left alive, 20-30 ms per command on a
2-vCPU x86-64 host, and free nothing, since the process ends anyway.

Exit codes: 0 success, 1 usage error, 2 runtime error, 3 verification failure.
"""

import argparse
import atexit
import contextlib
import gc
import os
import sys
import tempfile
from dataclasses import MISSING, fields

import numpy as np

from . import numerics as nm
from . import tasks
from .codec import CodecConfig
from .layer import ScoffConfig, ScoffLayer, schema_usage, write_traces
from .numerics import Tensor, grad_check
from .recurrent import recurrent_param_count
from .rng import Rng
from .training import (MetricsRecord, TrainConfig, build_model, check_rollout_window,
                       collect_traces, constant_rate_bce, eval_adding, eval_rollout,
                       load_checkpoint, restore_model, save_checkpoint, train_model)

# the interpreter's shutdown collections skip frozen objects; they would free none
atexit.register(gc.freeze)


class ConfigError(Exception):
    pass


def _field_keys(cls, skip=()) -> dict:
    """key -> (type, default or None) for each plain-typed field of a config dataclass."""
    return {f.name: (f.type, None if f.default is MISSING else f.default)
            for f in fields(cls)
            if f.type in (int, float, bool, str) and f.name not in skip}


# key -> (type, default); parse_config fills a None default from tasks.TASKS
_KEYS = {
    **_field_keys(TrainConfig),
    # every run selects hard (soft selection is check-grad's, which builds its
    # ScoffConfig directly) and every run's attention keys are 16 wide
    # (check-grad and the tests pass smaller ones)
    **_field_keys(ScoffConfig, skip=("hard_selection", "key_width")),
    **_field_keys(tasks.DataConfig, skip=("task",)),  # task is TrainConfig's
    "data": (str, ""),
    "checkpoint": (str, ""),
}


def _coerce(key: str, raw: str, where: str):
    kind = _KEYS[key][0]
    raw = raw.strip()
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"{where}: malformed value for {key!r}: {raw!r}") from None
    return value


def parse_config(path: "str | None", overrides=(), seed: "int | None" = None) -> dict:
    """Defaults, then file values, then overrides; unknown keys and values
    out of range (per the config dataclasses) raise."""
    resolved = {k: d for k, (_, d) in _KEYS.items()}
    entries = []  # (where, "key = value"): file lines, then overrides
    if path:
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.readlines()
        except OSError as e:
            raise ConfigError(f"cannot read config file {path}: {e.strerror}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"config file {path} is not UTF-8") from None
        for lineno, line in enumerate(lines, 1):
            s = line.split("#", 1)[0].strip()
            # section headers are organizational only
            if s and not (s.startswith("[") and s.endswith("]")):
                entries.append((f"{path}:{lineno}", s))
    entries += [("override", item) for item in overrides]
    for where, s in entries:
        key, eq, raw = s.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"{where}: expected key=value, got {s!r}")
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        resolved[key] = _coerce(key, raw, where)
    if seed is not None:
        resolved["seed"] = int(seed)

    defaults = tasks.TASKS.get(resolved["task"], {})  # an unknown task fails below
    for key, value in resolved.items():
        if value is None:
            resolved[key] = defaults.get(key)
    try:  # the ranges live in the config dataclasses
        to_train_config(resolved)
        _from_fields(tasks.DataConfig, resolved)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return resolved


def _from_fields(cls, r: dict, **given):
    """``cls`` with each field that ``r`` names taken from it, unless
    ``given``; the dataclass defaults fill the rest."""
    return cls(**{f.name: r[f.name] for f in fields(cls)
                  if f.name in r and f.name not in given}, **given)


def to_train_config(r: dict) -> TrainConfig:
    # every run's codec widths, selection and key width are the defaults
    return _from_fields(TrainConfig, r, scoff=_from_fields(ScoffConfig, r),
                        codec=CodecConfig())


def _write_snapshot(out_dir: str, resolved: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.cfg"), "w") as f:
        f.write("# resolved configuration\n")
        for key in sorted(resolved):
            f.write(f"{key} = {resolved[key]}\n")


def _require(resolved: dict, key: str) -> str:
    if not resolved[key]:
        raise ConfigError(f"missing required key: {key}")
    return resolved[key]


def _missing_dirs(out_dir: str) -> list:
    """The directories of ``out_dir`` that do not exist yet, deepest first.
    Raises NotADirectoryError, naming ``--out``, if its nearest existing path
    is not a directory."""
    missing = []
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise NotADirectoryError(f"--out {out_dir}: {path} is not a directory")
    return missing


def cmd_gen_data(args, resolved: dict) -> int:
    """Streams each set into a staging directory inside ``--out``, then moves
    both files into place; a failure before both are complete leaves an
    existing ``--out`` as it was and removes one this command created."""
    cfg = _from_fields(tasks.DataConfig, resolved)
    fresh = _missing_dirs(args.out_dir)
    sets = (("train.scfd", cfg.train_count, 0), ("test.scfd", cfg.test_count, 1_000_000))
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".gen-data-", dir=args.out_dir) as staging:
            for name, count, offset in sets:
                tasks.write_dataset(os.path.join(staging, name),
                                    tasks.generate(cfg, resolved["seed"], count, offset))
            for name, _, _ in sets:  # both sets exist: now publish
                os.replace(os.path.join(staging, name), os.path.join(args.out_dir, name))
    except BaseException:
        for made in fresh:
            with contextlib.suppress(OSError):
                os.rmdir(made)
        raise
    _write_snapshot(args.out_dir, resolved)
    print(f"wrote {cfg.train_count} train / {cfg.test_count} test sequences "
          f"to {args.out_dir}")
    return 0


def cmd_train(args, resolved: dict) -> int:
    _missing_dirs(args.out_dir)
    data_dir = _require(resolved, "data")
    cfg = to_train_config(resolved)
    train_data = tasks.read_dataset(os.path.join(data_dir, "train.scfd"), cfg.task)
    # the whole file is validated, but only the sequences evaluated are kept
    eval_data = tasks.read_dataset(os.path.join(data_dir, "test.scfd"),
                                   cfg.task)[:cfg.eval_subset]
    metrics, model = train_model(cfg, train_data, eval_data,
                                 log=lambda s: print(s, file=sys.stderr))
    os.makedirs(args.out_dir, exist_ok=True)
    for name, dump in (("metrics.jsonl", MetricsRecord.to_json),
                       ("timing.jsonl", MetricsRecord.timing_json)):
        with open(os.path.join(args.out_dir, name), "w") as f:
            f.writelines(dump(record) + "\n" for record in metrics)
    save_checkpoint(os.path.join(args.out_dir, "checkpoint"),
                    model.parameters(), resolved)
    _write_snapshot(args.out_dir, resolved)
    print(f"final train loss {metrics[-1].train_loss:.6f}; artifacts in {args.out_dir}")
    return 0


def _restore(resolved: dict):
    """eval's model, train config and snapshot (the stored config with this
    command's data and checkpoint), and the stored task's test set. A stored
    config must hold exactly the known keys, each of its key's type and range."""
    data_dir = _require(resolved, "data")
    ckpt_dir = _require(resolved, "checkpoint")
    tensors, stored = load_checkpoint(ckpt_dir)
    manifest = os.path.join(ckpt_dir, "manifest.json")
    if set(stored) != set(_KEYS):
        raise ValueError(f"{manifest}: stored config lacks keys {sorted(set(_KEYS) - set(stored))}"
                         f" and holds unknown keys {sorted(set(stored) - set(_KEYS))}")
    for key, value in stored.items():
        if type(value) is not _KEYS[key][0]:
            raise ValueError(f"{manifest}: stored config key {key!r} holds {value!r}, "
                             f"not a {_KEYS[key][0].__name__}")
    try:
        cfg = to_train_config(stored)
        _from_fields(tasks.DataConfig, stored)
    except ValueError as e:
        raise ValueError(f"{manifest}: {e}") from None
    test = tasks.read_dataset(os.path.join(data_dir, "test.scfd"), cfg.task)
    model = build_model(cfg, Rng(stored["seed"]).spawn(0))
    restore_model(model, tensors)
    return model, cfg, {**stored, "data": data_dir, "checkpoint": ckpt_dir}, test


def cmd_eval(args, resolved: dict) -> int:
    """The loss curve and, of a scoff checkpoint, the selection traces of the
    first ``eval_subset`` test sequences with their slot-by-schema usage. All
    are computed before ``--out`` is created, so a failure writes nothing."""
    _missing_dirs(args.out_dir)
    model, cfg, snapshot, test = _restore(resolved)
    if cfg.task == "adding":
        mse = eval_adding(model, test)
        floor = np.var([seq.target for seq in test])  # the MSE of their mean
        rows = ["step,mse", f"0,{mse}"]
        summary = f"test mse {mse:.6f} (mean-target floor {floor:.6f})"
    else:
        check_rollout_window(test, cfg.burn_in, cfg.horizon)
        teacher, self_fed = eval_rollout(model, test, cfg.burn_in, cfg.horizon)
        rows = ["step,teacher_forced,self_fed"] + [
            f"{i},{a},{b}" for i, (a, b) in enumerate(zip(teacher, self_fed))]
        floor = constant_rate_bce(test, cfg.burn_in, cfg.horizon)
        summary = (f"mean self-fed bce {np.mean(self_fed):.6f} "
                   f"(constant-rate floor {floor:.6f})")
    traces = []  # a GRU checkpoint has no slots or schemata to trace
    if cfg.model == "scoff":
        traces = collect_traces(model, test[:cfg.eval_subset])
        usage = schema_usage([t for seq in traces for t in seq], cfg.scoff.n_s)
    os.makedirs(args.out_dir, exist_ok=True)  # every result exists: now write
    path = os.path.join(args.out_dir, "rollout_curve.csv")
    with open(path, "w") as f:
        f.writelines(row + "\n" for row in rows)
    print(f"{summary}; curve in {path}")
    if traces:
        with open(os.path.join(args.out_dir, "traces.jsonl"), "w") as f:
            write_traces(f, traces)
        with open(os.path.join(args.out_dir, "schema_usage.csv"), "w") as f:
            f.writelines(",".join(str(v) for v in row) + "\n" for row in usage)
        print(f"traced {len(traces)} sequences into {args.out_dir}")
    _write_snapshot(args.out_dir, snapshot)
    return 0


def cmd_check_grad(args, resolved: dict) -> int:
    """Two unrolled soft-selection steps over the fixed verification layer
    (3 slots, 2 schemata, width 8, 4 positions of 6 features, every attention
    key 4 wide; no rng, so no dropout), against central differences at
    eps=1e-5; threshold 1e-4."""
    n_f, n_s, d_h, positions, d_in = 3, 2, 8, 4, 6
    cfg = ScoffConfig(n_f=n_f, n_s=n_s, d_h=d_h, inp_heads=1, comm_heads=1,
                      key_width=4, hard_selection=False)
    rng = Rng(resolved["seed"])
    layer = ScoffLayer(cfg, d_in, rng)
    feats = [Tensor(np.asarray(rng.uniform((positions, d_in)))) for _ in range(2)]
    noise = [nm.sample_gumbel(rng, (n_f, n_s)) for _ in range(2)]
    params = list(layer.parameters().values())

    def loss_fn(_params):
        state = layer.init_state()
        for t in range(2):
            state, _ = layer.step(feats[t], state, noise=noise[t])
        return (state * state).sum()

    err = grad_check(loss_fn, params, eps=1e-5)
    print(f"max relative gradient error: {err:.3e}")
    return 0 if err < 1e-4 else 3


def cmd_param_count(args, resolved: dict) -> int:
    bank, mono = recurrent_param_count(resolved["n_f"], resolved["n_s"], resolved["d_h"])
    print(f"schema-bank recurrent parameters: {bank}")
    print(f"monolithic recurrent parameters: {mono}")
    print(f"ratio: {bank / mono:.4f}")
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "check-grad": cmd_check_grad,
    "param-count": cmd_param_count,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="scoff", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", dest="out_dir", default="out")
    try:
        args = parser.parse_args(argv)
        resolved = parse_config(args.config, args.overrides, args.seed)
        return _COMMANDS[args.command](args, resolved)
    except ConfigError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
