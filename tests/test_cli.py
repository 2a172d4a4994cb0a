import contextlib
import glob
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scoff.cli import ConfigError, main, parse_config, to_train_config
from scoff.model import GruBaseline, ScoffModel
from scoff.numerics import Tensor
from scoff.rng import Rng
from scoff.tasks import TASKS, gen_bouncing_mini, read_dataset, write_dataset
from scoff.training import build_model, load_checkpoint, save_checkpoint


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


def run_cli(*argv):
    return main(list(argv))


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------- config parsing

SWITCHING_DEFAULTS = {
    "batch_size": 64, "burn_in": 5, "checkpoint": "", "comm_heads": 2,
    "comm_keys": 16, "d_c": 16, "d_h": 32, "d_pos": 8, "data": "",
    "dec_hidden": 64, "enc_hidden": 32, "epochs": 10, "eval_subset": 32,
    "horizon": 10, "inp_heads": 1, "inp_keys": 16,
    "length": 21, "lr": 0.0001, "model": "scoff",
    "n_balls": 2, "n_f": 6, "n_s": 4, "n_sel": 0, "occluder": False,
    "operands": "2,4", "readout_hidden": 32, "readout_width": 32,
    "seed": 0, "task": "switching",
    "test_count": 500, "train_count": 2000,
}

# the task-dependent entries on top of the switching defaults
TASK_DEFAULTS = {
    "switching": {},
    "bouncing": {"task": "bouncing", "burn_in": 10, "horizon": 15, "length": 30},
    "adding": {"task": "adding", "lr": 0.01, "length": 50},
}


def test_empty_file_plus_task_gives_full_defaults(tmp_path):
    path = write_cfg(tmp_path, "")
    for task, extra in TASK_DEFAULTS.items():
        expected = {**SWITCHING_DEFAULTS, **extra}
        for resolved in (parse_config(path, [f"task={task}"]),
                         parse_config(None, [f"task={task}"])):
            assert resolved == expected, task
            # types too: resolved_config.cfg prints each value with str()
            assert {k: type(v) for k, v in resolved.items()} == \
                {k: type(v) for k, v in expected.items()}, task
        cfg = to_train_config(resolved)
        assert cfg.task == task and cfg.lr == expected["lr"]
        assert cfg.scoff.n_f == 6 and cfg.scoff.n_s == 4
        assert cfg.scoff.n_sel == 0
        assert cfg.scoff.d_in == cfg.codec.d_a == 24


def test_adding_lr_default():
    resolved = parse_config(None, ["task=adding"])
    assert resolved["lr"] == 1e-2


def test_override_wins_over_file(tmp_path):
    path = write_cfg(tmp_path, "[model]\nn_s = 6\n")
    resolved = parse_config(path, ["n_s=2"])
    assert resolved["n_s"] == 2


def test_misspelled_key_named_in_error(tmp_path):
    path = write_cfg(tmp_path, "nf = 4\n")
    with pytest.raises(ConfigError, match="'nf'"):
        parse_config(path)


def test_comm_values_must_match_d_h():
    # comm_values was dropped: the communication value width is always d_h,
    # so the key is rejected whether or not it agrees with d_h. So are the
    # keys retired since, each at the one value every run used: the GRU
    # baseline is n_f * d_h wide, Adam's moment decays, epsilon and clipping
    # norm are fixed, communication reaches every slot, both attention steps
    # drop at ScoffLayer.DROPOUT, a sequence of the retired single-ball task
    # drew its mode, the selection temperature is 1, selection is hard, frame
    # patches are codec.PATCH square, selection keys ScoffLayer.SEL_KEYS wide,
    # and input values d_h wide
    for override in ("comm_values=16", "comm_values=32", "baseline_width=0", "beta1=0.9",
                     "beta2=0.999", "epsilon=1e-8", "comm_sparse=false",
                     "clip_norm=1.0", "inp_dropout=0.1", "comm_dropout=0.1",
                     "mode=mixed", "tau=1.0", "hard_selection=false", "patch=4",
                     "sel_keys=16", "inp_values=24"):
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(None, [override, "d_h=32"])
        assert run_cli("param-count", "--set", override) == 1
    from scoff.layer import ScoffLayer
    from scoff.rng import Rng
    for d_h in (8, 32):
        cfg = to_train_config(parse_config(None, ["task=switching", f"d_h={d_h}"]))
        values = ScoffLayer(cfg.scoff, Rng(0)).comm_proj.value
        assert sum(v.shape[1] for v in values) == d_h


def test_file_error_carries_line_number(tmp_path):
    path = write_cfg(tmp_path, "# comment\nn_f = 4\nbogus_key = 1\n")
    with pytest.raises(ConfigError, match=":3"):
        parse_config(path)


def test_malformed_value_rejected(tmp_path):
    path = write_cfg(tmp_path, "n_f = many\n")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(path)


@pytest.mark.parametrize("kind", ["missing", "not-utf8", "directory"])
def test_unreadable_config_file_exits_1_naming_it(tmp_path, capsys, kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"task = switching\nseed = \xff\n")
    out = tmp_path / "out"
    assert run_cli("gen-data", "--config", str(path), "--out", str(out)) == 1
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


def test_sections_and_comments_ignored(tmp_path):
    path = write_cfg(tmp_path, "[model]\nn_f = 3  # inline comment\n[train]\nepochs = 2\n")
    resolved = parse_config(path)
    assert resolved["n_f"] == 3
    assert resolved["epochs"] == 2


def test_bad_override_format():
    with pytest.raises(ConfigError):
        parse_config(None, ["n_f"])


def test_seed_flag_overrides():
    resolved = parse_config(None, [], seed=99)
    assert resolved["seed"] == 99


@pytest.mark.parametrize("key", ["lr"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_float_rejected(key, raw):
    with pytest.raises(ConfigError, match="finite"):
        parse_config(None, [f"{key}={raw}"])


def test_unknown_task_and_model():
    with pytest.raises(ConfigError):
        parse_config(None, ["task=pong"])
    with pytest.raises(ConfigError):
        parse_config(None, ["model=transformer"])


# ------------------------------------------------------------------- commands

def test_param_count_bouncing_defaults(tmp_path, capsys):
    code = run_cli("param-count", "--config", "configs/bouncing_paper.cfg")
    out = capsys.readouterr().out
    assert code == 0
    assert "241200" in out
    assert "601200" in out
    assert "0.40" in out


def test_check_grad_default_config_passes(capsys):
    code = run_cli("check-grad")
    out = capsys.readouterr().out
    assert code == 0
    assert "gradient error" in out


def test_gen_data_byte_identical(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    args = ["gen-data", "--set", "task=switching", "--set", "train_count=5",
            "--set", "test_count=3", "--set", "length=13", "--seed", "5"]
    assert run_cli(*args, "--out", out1) == 0
    assert run_cli(*args, "--out", out2) == 0
    for name in ("train.scfd", "test.scfd", "resolved_config.cfg"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


@pytest.mark.parametrize("key,overrides", [
    ("n_balls", ["task=bouncing", "n_balls=7"]),
    ("operands", ["task=adding", "operands=2,x"]),
    ("operands", ["task=adding", "operands=0"]),
    ("operands", ["task=adding", "operands=60"]),  # length 50
    ("mode", ["task=bouncing", "mode=warp"]),  # retired: now an unknown key
    ("length", ["task=switching", "length=12"]),
    ("length", ["task=bouncing", "length=1"]),
    ("train_count", ["task=switching", "train_count=0"]),
    ("test_count", ["task=switching", "test_count=0"]),
    # the low ends: DataConfig is the only check the generators get
    ("n_balls", ["task=bouncing", "n_balls=0"]),
    ("length", ["task=switching", "length=9"]),  # odd, but under 11
    # the retired single-ball task
    pytest.param("task must be one of ('switching', 'bouncing', 'adding')",
                 ["task=single"], id="retired-task"),
])
def test_gen_data_bad_data_key_exits_1_naming_it_and_writes_nothing(tmp_path, capsys,
                                                                    key, overrides):
    out = tmp_path / "data"
    assert run_cli("gen-data", *[a for kv in overrides for a in ("--set", kv)],
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and key in err
    assert not out.exists()


def test_gen_data_writes_nothing_unless_both_sets_exist(tmp_path, capsys, monkeypatch):
    # a failure while generating the test set leaves an existing output
    # directory as it was, and creates no new one
    from scoff import tasks
    out = tmp_path / "data"
    args = ["gen-data", "--set", "task=switching", "--set", "train_count=2",
            "--set", "test_count=1", "--set", "length=13"]
    assert run_cli(*args, "--seed", "1", "--out", str(out)) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    calls, gen = [], tasks.gen_switching_dynamics

    def fail_on_test_set(rng, length):
        calls.append(length)
        if len(calls) > 2:
            raise RuntimeError("generator failed")
        return gen(rng, length)

    monkeypatch.setattr(tasks, "gen_switching_dynamics", fail_on_test_set)
    for target in (out, tmp_path / "fresh"):
        calls.clear()
        assert run_cli(*args, "--seed", "2", "--out", str(target)) == 2
        assert len(calls) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert not (tmp_path / "fresh").exists()


def test_failed_gen_data_removes_every_directory_it_created(tmp_path, capsys, monkeypatch):
    from scoff import tasks

    def fail(rng, length):
        raise RuntimeError("generator failed")

    monkeypatch.setattr(tasks, "gen_switching_dynamics", fail)
    assert run_cli("gen-data", "--set", "task=switching", "--set", "length=13",
                   "--out", str(tmp_path / "a" / "b")) == 2
    assert list(tmp_path.iterdir()) == []


def _peak_traced_mb(fn) -> float:
    """The peak of the memory traced while ``fn()`` runs, in MB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def test_gen_data_peak_memory_does_not_grow_with_the_set_size(tmp_path, capsys):
    # each set is streamed to disk, so gen-data holds one sequence at a time
    def gen(count):
        assert run_cli("gen-data", "--set", "task=bouncing", "--set", f"train_count={count}",
                       "--set", "test_count=1", "--seed", "0",
                       "--out", str(tmp_path / str(count))) == 0

    small = _peak_traced_mb(lambda: gen(50))
    assert _peak_traced_mb(lambda: gen(1000)) - small < 1.0


def test_train_holds_only_the_eval_subset_of_the_test_set(tmp_path, capsys, monkeypatch):
    import scoff.cli
    held = []

    def entered(cfg, train_data, eval_data, log=None):
        held.append(tracemalloc.get_traced_memory()[0])
        raise RuntimeError("stopped at train_model")

    monkeypatch.setattr(scoff.cli, "train_model", entered)
    used = {}
    for count in (4, 200):
        data_dir = tmp_path / str(count)
        assert run_cli("gen-data", "--set", "task=bouncing", "--set", "train_count=2",
                       "--set", f"test_count={count}", "--out", str(data_dir)) == 0

        def train():
            assert run_cli("train", "--set", "task=bouncing", "--set", f"data={data_dir}",
                           "--set", "eval_subset=1", "--out", str(tmp_path / "run")) == 2

        held.clear()
        _peak_traced_mb(train)  # traced, so that entered() can read the memory held
        used[count] = held[0]
    # 196 more sequences of 30 16x16 frames would be about 1.6 MB
    assert abs(used[200] - used[4]) < 100_000


def _gen_and_train(tmp_path, extra_train=()):
    data_dir = str(tmp_path / "data")
    assert run_cli("gen-data", "--set", "task=switching",
                   "--set", "train_count=6", "--set", "test_count=4",
                   "--set", "length=13", "--seed", "3", "--out", data_dir) == 0
    run_dir = str(tmp_path / "run")
    args = ["train", "--set", "task=switching", "--set", f"data={data_dir}",
            "--set", "n_f=2", "--set", "n_s=2", "--set", "d_h=8",
            "--set", "inp_keys=4", "--set", "comm_heads=1",
            "--set", "comm_keys=4", "--set", "epochs=1",
            "--set", "batch_size=3", "--set", "burn_in=3",
            "--set", "horizon=5", "--set", "eval_subset=2",
            "--set", "lr=0.001", "--seed", "11", "--out", run_dir]
    assert run_cli(*args, *extra_train) == 0
    return data_dir, run_dir, args


def test_train_eval_trace_pipeline(tmp_path, capsys):
    data_dir, run_dir, _ = _gen_and_train(tmp_path)
    capsys.readouterr()

    assert os.path.exists(os.path.join(run_dir, "metrics.jsonl"))
    assert os.path.exists(os.path.join(run_dir, "checkpoint", "manifest.json"))
    assert os.path.exists(os.path.join(run_dir, "resolved_config.cfg"))
    with open(os.path.join(run_dir, "metrics.jsonl")) as f:
        records = [json.loads(line) for line in f]
    assert len(records) == 1
    assert "train_loss" in records[0]
    assert "wall" not in json.dumps(records[0])  # reproducible artifact
    with open(os.path.join(run_dir, "timing.jsonl")) as f:
        timing = [json.loads(line) for line in f]
    assert [t["epoch"] for t in timing] == [0]
    assert sum(timing[0]["phase_seconds"].values()) <= timing[0]["wall_seconds"]

    eval_dir = str(tmp_path / "eval")
    assert run_cli("eval", "--set", f"data={data_dir}",
                   "--set", f"checkpoint={os.path.join(run_dir, 'checkpoint')}",
                   "--out", eval_dir) == 0
    lines = open(os.path.join(eval_dir, "rollout_curve.csv")).read().splitlines()
    assert lines[0] == "step,teacher_forced,self_fed"
    assert len(lines) == 1 + 5  # header + horizon rows

    # eval of a scoff checkpoint also traces the first eval_subset sequences
    assert f"traced 2 sequences into {eval_dir}" in capsys.readouterr().out
    trace_lines = open(os.path.join(eval_dir, "traces.jsonl")).read().splitlines()
    # every traced sequence (2), each of length 13 -> 12 prediction steps
    assert len(trace_lines) == 2 * 12
    recs = [json.loads(line) for line in trace_lines]
    assert [(r["seq"], r["t"]) for r in recs] == [(s, t) for s in range(2) for t in range(12)]
    rec = recs[0]
    assert set(rec) == {"seq", "t", "active", "schema", "input_weights", "comm_weights"}
    assert len(rec["active"]) == 2
    assert len(rec["input_weights"]) == 2      # n_f rows
    assert len(rec["input_weights"][0]) == 16  # P columns
    usage = open(os.path.join(eval_dir, "schema_usage.csv")).read().splitlines()
    assert len(usage) == 2                     # n_f rows
    assert len(usage[0].split(",")) == 2       # n_s columns


def test_adding_checkpoint_evaluates_on_a_held_out_longer_test_set(tmp_path, capsys):
    # the route configs/adding_mini.cfg documents: train at length 50, then
    # gen-data a length-200 set into another directory and eval on it
    config = os.path.join(CONFIGS, "adding_mini.cfg")
    small = ["--set", "n_f=2", "--set", "d_h=8",
             "--set", "inp_keys=4", "--set", "comm_keys=4"]
    data_dir, run_dir = str(tmp_path / "data"), str(tmp_path / "run")
    assert run_cli("gen-data", "--config", config, "--set", "train_count=4",
                   "--set", "test_count=2", "--out", data_dir) == 0
    assert run_cli("train", "--config", config, *small, "--set", f"data={data_dir}",
                   "--set", "epochs=1", "--set", "batch_size=2",
                   "--set", "eval_subset=1", "--out", run_dir) == 0
    held_out = str(tmp_path / "data_200")
    assert run_cli("gen-data", "--config", config, "--set", "length=200",
                   "--set", "train_count=1", "--set", "test_count=2",
                   "--out", held_out) == 0
    test = read_dataset(os.path.join(held_out, "test.scfd"), "adding")
    assert [len(s.values) for s in test] == [200, 200]
    assert [len(s.values) for s in read_dataset(os.path.join(data_dir, "test.scfd"),
                                                "adding")] == [50, 50]
    eval_dir = str(tmp_path / "eval_200")
    capsys.readouterr()
    assert run_cli("eval", "--set", f"checkpoint={os.path.join(run_dir, 'checkpoint')}",
                   "--set", f"data={held_out}", "--out", eval_dir) == 0
    # the floor is the MSE of predicting the evaluated targets' mean
    printed = capsys.readouterr().out.split("mean-target floor ")[1].split(")")[0]
    assert printed == f"{np.var([s.target for s in test]):.6f}"
    lines = open(os.path.join(eval_dir, "rollout_curve.csv")).read().splitlines()
    assert lines[0] == "step,mse"
    assert len(lines) == 2
    step, mse = lines[1].split(",")
    assert step == "0" and math.isfinite(float(mse))
    assert _snapshot(eval_dir)["data"] == held_out


def _snapshot(run_dir):
    lines = open(os.path.join(run_dir, "resolved_config.cfg")).read().splitlines()
    return dict(line.split(" = ", 1) for line in lines[1:])


def test_eval_and_trace_snapshot_the_config_that_ran(tmp_path, capsys):
    # eval, which also traces a scoff checkpoint, snapshots the checkpoint's
    # stored config with the command's own data and checkpoint, not the
    # parsed defaults (n_f 6, seed 0, switching horizon 10)
    data_dir, run_dir, _ = _gen_and_train(tmp_path)
    ckpt = os.path.join(run_dir, "checkpoint")
    out = str(tmp_path / "eval")
    assert run_cli("eval", "--set", f"data={data_dir}", "--set", f"checkpoint={ckpt}",
                   "--out", out) == 0
    assert os.path.exists(os.path.join(out, "traces.jsonl"))
    snap = _snapshot(out)
    assert (snap["n_f"], snap["seed"], snap["horizon"]) == ("2", "11", "5")
    assert snap == {**_snapshot(run_dir), "checkpoint": ckpt}


def test_train_reruns_byte_identical(tmp_path, capsys):
    _, run_dir, args = _gen_and_train(tmp_path)
    first = open(os.path.join(run_dir, "metrics.jsonl"), "rb").read()
    first_ck = open(os.path.join(run_dir, "checkpoint", "tensors.bin"), "rb").read()
    capsys.readouterr()
    assert run_cli(*args) == 0
    second = open(os.path.join(run_dir, "metrics.jsonl"), "rb").read()
    second_ck = open(os.path.join(run_dir, "checkpoint", "tensors.bin"), "rb").read()
    assert first == second
    assert first_ck == second_ck


# ------------------------------------------------------------------ exit codes

def test_usage_error_exit_code(capsys):
    assert run_cli("train", "--set", "bogus=1") == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_command_exit_code(capsys):
    assert run_cli("explode") == 1


def test_missing_data_exit_code(tmp_path, capsys):
    assert run_cli("train", "--set", "data=/nonexistent/dir",
                   "--out", str(tmp_path / "x")) == 2
    assert "error" in capsys.readouterr().err


def test_non_finite_lr_exits_1_and_writes_nothing(tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    assert run_cli("gen-data", "--set", "task=switching", "--set", "train_count=2",
                   "--set", "test_count=1", "--set", "length=13", "--out", data_dir) == 0
    run_dir = tmp_path / "run"
    assert run_cli("train", "--set", "task=switching", "--set", f"data={data_dir}",
                   "--set", "lr=nan", "--out", str(run_dir)) == 1
    assert "finite" in capsys.readouterr().err
    assert not (run_dir / "checkpoint").exists()


@pytest.mark.parametrize("override", ["epochs=0", "batch_size=0", "eval_subset=0",
                                      "n_sel=9", "burn_in=0", "horizon=0",
                                      "patch=3", "d_c=0", "readout_width=0",
                                      "tau=0", "tau=-1"])
def test_out_of_range_value_exits_1_before_reading_data(tmp_path, capsys, override):
    data_dir = str(tmp_path / "data")
    assert run_cli("gen-data", "--set", "task=switching", "--set", "train_count=2",
                   "--set", "test_count=1", "--set", "length=13", "--out", data_dir) == 0
    key = override.split("=")[0]
    # a dataset that is there, and one that is not: a read would exit 2
    for data in (data_dir, str(tmp_path / "missing")):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--set", "task=switching", "--set", "n_f=4",
                       "--set", f"data={data}", "--set", override,
                       "--out", str(run_dir)) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and key in err
        assert not (run_dir / "metrics.jsonl").exists()
        assert not (run_dir / "checkpoint").exists()


def test_diverging_training_exits_2_and_writes_nothing(tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    assert run_cli("gen-data", "--set", "task=switching", "--set", "train_count=2",
                   "--set", "test_count=1", "--set", "length=13", "--out", data_dir) == 0
    run_dir = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = run_cli("train", "--set", "task=switching", "--set", f"data={data_dir}",
                       "--set", "lr=1e300", "--set", "epochs=3", "--set", "batch_size=1",
                       "--set", "horizon=8", "--out", str(run_dir))
    assert code == 2
    err = capsys.readouterr().err
    assert "diverged in epoch 0, batch 1: non-finite gradient of " in err
    # the blame goes to batch 0's update, which took parameters to ~lr
    assert ", after the update of epoch 0, batch 0, which left " in err
    assert "largest at |value| 1e+300" in err
    assert not (run_dir / "metrics.jsonl").exists()
    assert not (run_dir / "checkpoint").exists()


@pytest.mark.parametrize("window", [("burn_in=5", "horizon=50"), ("burn_in=13", "horizon=1")])
def test_rollout_window_past_eval_length_exits_2_before_training(tmp_path, capsys, window):
    data_dir = str(tmp_path / "data")
    assert run_cli("gen-data", "--set", "task=switching", "--set", "train_count=2",
                   "--set", "test_count=1", "--set", "length=13", "--out", data_dir) == 0
    capsys.readouterr()
    run_dir = tmp_path / "run"
    assert run_cli("train", "--set", "task=switching", "--set", f"data={data_dir}",
                   "--set", window[0], "--set", window[1], "--out", str(run_dir)) == 2
    err = capsys.readouterr().err
    assert window[0] in err and window[1] in err and "13" in err
    assert "epoch 0" not in err  # nothing trained
    assert not (run_dir / "metrics.jsonl").exists()
    assert not (run_dir / "checkpoint").exists()


def test_train_on_another_frame_size_exits_2_naming_the_file_and_writes_nothing(
        tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    seqs = [gen_bouncing_mini(Rng(i), 30, 2) for i in range(2)]
    for seq in seqs:
        seq.frames = seq.frames[:, :8, :8].copy()
    for name in ("train.scfd", "test.scfd"):
        write_dataset(str(data_dir / name), seqs)
    run_dir = tmp_path / "run"
    assert run_cli("train", "--set", "task=bouncing", "--set", f"data={data_dir}",
                   "--out", str(run_dir)) == 2
    err = capsys.readouterr().err
    assert f"{data_dir / 'train.scfd'} holds 8x8 frames, expected 16x16" in err
    assert not run_dir.exists()


def test_train_on_sequences_below_the_task_minimum_exits_2_naming_the_file(
        tmp_path, capsys):
    # hand-written adding file: two sequences of length 0
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for name in ("train.scfd", "test.scfd"):
        (data_dir / name).write_bytes(b"SCFD" + struct.pack("<IIIII", 4, 2, 0, 0, 0)
                                      + b"\x00" * 24)
    run_dir = tmp_path / "run"
    assert run_cli("train", "--set", "task=adding", "--set", f"data={data_dir}",
                   "--out", str(run_dir)) == 2
    err = capsys.readouterr().err
    assert f"{data_dir / 'train.scfd'} holds sequences of length 0, " \
           "but adding needs at least 1" in err
    assert not run_dir.exists()


def _spoil_frame(seq):
    seq.frames[2, 5, 5] = 2


def _spoil_label(seq):
    seq.labels[3] = 9


def _spoil_value(seq):
    seq.values[4] = np.nan


def _spoil_target(seq):
    seq.target = np.inf


def _spoil_indicator(seq):
    seq.indicators = seq.indicators.astype(np.float64)
    seq.indicators[0, 0] = 0.5


@pytest.mark.parametrize("task,spoil,message", [
    ("bouncing", _spoil_frame, "holds a frame value outside {0, 1}"),
    ("switching", _spoil_label, "holds label 9, but switching has 2 modes"),
    ("adding", _spoil_value, "holds a non-finite value or target"),
    ("adding", _spoil_target, "holds a non-finite value or target"),
    ("adding", _spoil_indicator, "holds an indicator outside {0, 1}"),
], ids=["frame", "label", "value", "target", "indicator"])
def test_train_on_a_value_the_model_cannot_take_exits_2_naming_the_file(
        tmp_path, capsys, task, spoil, message):
    from scoff import tasks
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    seqs = list(tasks.generate(tasks.DataConfig(task=task, length=11), 3, 2, 0))
    tasks.write_dataset(str(data_dir / "test.scfd"), seqs)
    spoil(seqs[1])
    tasks.write_dataset(str(data_dir / "train.scfd"), seqs)
    run_dir = tmp_path / "run"
    assert run_cli("train", "--set", f"task={task}", "--set", f"data={data_dir}",
                   "--set", "epochs=1", "--set", "burn_in=2", "--set", "horizon=3",
                   "--set", "n_f=2", "--set", "d_h=4", "--set", "comm_heads=1",
                   "--out", str(run_dir)) == 2
    err = capsys.readouterr().err
    assert f"{data_dir / 'train.scfd'}: sequence 1 {message}" in err
    assert not run_dir.exists()


def test_missing_required_key_names_it(capsys):
    assert run_cli("train") == 1
    assert "data" in capsys.readouterr().err


# ------------------------------------------------------ damaged artifact files

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A tiny dataset and the checkpoint trained on it."""
    base = tmp_path_factory.mktemp("tiny")
    data_dir, run_dir = str(base / "data"), str(base / "run")
    assert run_cli("gen-data", "--set", "task=switching", "--set", "train_count=2",
                   "--set", "test_count=1", "--set", "length=11", "--out", data_dir) == 0
    assert run_cli("train", "--set", "task=switching", "--set", f"data={data_dir}",
                   "--set", "n_f=1", "--set", "n_s=2", "--set", "d_h=4",
                   "--set", "inp_keys=2", "--set", "comm_heads=1", "--set", "comm_keys=2",
                   "--set", "d_c=4", "--set", "d_pos=2", "--set", "enc_hidden=4",
                   "--set", "dec_hidden=4", "--set", "readout_hidden=4",
                   "--set", "readout_width=4",
                   "--set", "epochs=1", "--set", "burn_in=2", "--set", "horizon=3",
                   "--out", run_dir) == 0
    return base


def _eval_copy(tiny_run, damage) -> tuple:
    """(exit code, stderr) of eval on a copy of the tiny run after ``damage(copy)``."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        copy = os.path.join(tmp, "copy")
        shutil.copytree(str(tiny_run), copy)
        damage(copy)
        code = run_cli("eval", "--set", f"data={os.path.join(copy, 'data')}",
                       "--set", f"checkpoint={os.path.join(copy, 'run', 'checkpoint')}",
                       "--out", os.path.join(tmp, "eval"))
    return code, err.getvalue()


def _truncate(path, size):
    with open(path, "r+b") as f:
        f.truncate(size)


def test_tiny_run_evaluates(tiny_run):
    assert _eval_copy(tiny_run, lambda copy: None) == (0, "")


@settings(max_examples=40, deadline=None)
@example(cut=0)
@example(cut=6)    # inside the first value
@example(cut=18)   # inside the third value
@given(cut=st.integers(min_value=0, max_value=10**9))
def test_truncated_tensors_bin_exits_2(tiny_run, cut):
    path = os.path.join("run", "checkpoint", "tensors.bin")
    cut %= os.path.getsize(os.path.join(str(tiny_run), path))
    code, err = _eval_copy(tiny_run, lambda copy: _truncate(os.path.join(copy, path), cut))
    assert code == 2
    assert "tensors.bin" in err


@settings(max_examples=40, deadline=None)
@example(cut=0)
@example(cut=10)   # inside the 24-byte header
@example(cut=23)
@given(cut=st.integers(min_value=0, max_value=10**9))
def test_truncated_dataset_exits_2(tiny_run, cut):
    path = os.path.join("data", "test.scfd")
    cut %= os.path.getsize(os.path.join(str(tiny_run), path))
    code, err = _eval_copy(tiny_run, lambda copy: _truncate(os.path.join(copy, path), cut))
    assert code == 2
    assert "test.scfd" in err


def test_overlong_artifacts_exit_2(tiny_run):
    for name in (os.path.join("data", "test.scfd"),
                 os.path.join("run", "checkpoint", "tensors.bin")):
        def append(copy):
            with open(os.path.join(copy, name), "ab") as f:
                f.write(b"\0")
        code, err = _eval_copy(tiny_run, append)
        assert code == 2
        assert "trailing bytes" in err


@pytest.mark.parametrize("drop", ["tensors", "config", "not-json"])
def test_manifest_missing_key_exits_2(tiny_run, drop):
    def damage(copy):
        path = os.path.join(copy, "run", "checkpoint", "manifest.json")
        with open(path) as f:
            manifest = json.load(f)
        with open(path, "w") as f:
            if drop == "not-json":
                f.write("{bad")
            else:
                del manifest[drop]
                json.dump(manifest, f)
    code, err = _eval_copy(tiny_run, damage)
    assert code == 2
    assert "manifest.json" in err


def test_non_finite_checkpoint_entry_exits_2_naming_the_file(tiny_run):
    def damage(copy):
        with open(os.path.join(copy, "run", "checkpoint", "tensors.bin"), "r+b") as f:
            f.seek(-8, os.SEEK_END)
            f.write(struct.pack("<d", float("nan")))
    code, err = _eval_copy(tiny_run, damage)
    assert code == 2
    assert "tensors.bin" in err
    assert "non-finite" in err


def test_checkpoint_in_the_old_record_layout_exits_2_naming_tensors_bin(tiny_run):
    # before the manifest became the only index, each tensor's values followed
    # a header: magic "SCFT", u32 rank, u64 extents
    def damage(copy):
        ckpt = os.path.join(copy, "run", "checkpoint")
        tensors, _ = load_checkpoint(ckpt)
        with open(os.path.join(ckpt, "tensors.bin"), "wb") as f:
            for name in sorted(tensors):
                data = tensors[name].data
                f.write(b"SCFT" + struct.pack(f"<I{data.ndim}Q", data.ndim, *data.shape))
                f.write(data.astype("<f8").tobytes())
    code, err = _eval_copy(tiny_run, damage)
    assert code == 2
    assert "tensors.bin" in err


def test_eval_window_past_the_data_exits_2_and_writes_nothing(tiny_run, tmp_path, capsys):
    # a stored burn_in 9 + horizon 3 scores 12 steps of the length-11 test data
    copy = tmp_path / "copy"
    shutil.copytree(str(tiny_run), str(copy))
    path = copy / "run" / "checkpoint" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["burn_in"] = 9
    path.write_text(json.dumps(manifest))
    out = tmp_path / "eval"
    assert run_cli("eval", "--set", f"data={copy / 'data'}",
                   "--set", f"checkpoint={path.parent}", "--out", str(out)) == 2
    assert "burn_in + horizon <= 11" in capsys.readouterr().err
    assert not out.exists()


def test_eval_checks_the_rollout_window_once(tiny_run, tmp_path, monkeypatch):
    from scoff import cli, training
    calls, check = [], training.check_rollout_window

    def counted(*args):
        calls.append(args)
        check(*args)

    # the cli calls it by its imported name, the training module by its own
    monkeypatch.setattr(cli, "check_rollout_window", counted)
    monkeypatch.setattr(training, "check_rollout_window", counted)
    assert run_cli("eval", "--set", f"data={tiny_run / 'data'}",
                   "--set", f"checkpoint={tiny_run / 'run' / 'checkpoint'}",
                   "--out", str(tmp_path / "eval")) == 0
    assert len(calls) == 1


def test_checkpoint_with_per_gate_schema_names_exits_2_writing_nothing(tiny_run, tmp_path,
                                                                     capsys):
    # the layout from before the gates were stacked: nine tensors per schema
    copy = tmp_path / "copy"
    shutil.copytree(str(tiny_run), str(copy))
    ckpt = str(copy / "run" / "checkpoint")
    tensors, config = load_checkpoint(ckpt)
    old = {}
    for name, t in tensors.items():
        prefix, _, field = name.rpartition(".")
        if not prefix.startswith("layer.schema"):
            old[name] = t
            continue
        parts = {"w": ("w_r", "w_u", "w_c"), "u_ru": ("u_r", "u_u"), "u_c": ("u_c",),
                 "b": ("b_r", "b_u", "b_c")}[field]
        for piece, part in zip(np.split(t.data, len(parts), axis=-1), parts):
            old[f"{prefix}.{part}"] = Tensor(piece)
    save_checkpoint(ckpt, old, config)
    out = tmp_path / "eval"
    code = run_cli("eval", "--set", f"data={copy / 'data'}", "--set", f"checkpoint={ckpt}",
                   "--out", str(out))
    assert code == 2
    assert "layer.schema0.w'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("named,edit", [
    ("'d_h'", lambda config: config.pop("d_h")),
    # a key the program no longer reads: the run it names would not be the
    # one evaluated
    ("'comm_sparse'", lambda config: config.update(comm_sparse=True)),
    # a value of the wrong type: each would reach the model unchecked
    ("'d_h'", lambda config: config.update(d_h="32")),
    ("'n_sel'", lambda config: config.update(n_sel=1.5)),
    ("'occluder'", lambda config: config.update(occluder=1)),
    # a key retired at the one value every run used: the checkpoints of
    # that time store it
    ("'clip_norm'", lambda config: config.update(clip_norm=1.0)),
    ("'tau'", lambda config: config.update(tau=1.0)),
    ("'hard_selection'", lambda config: config.update(hard_selection=True)),
    ("'patch'", lambda config: config.update(patch=4)),
    ("'sel_keys'", lambda config: config.update(sel_keys=16)),
    ("'inp_values'", lambda config: config.update(inp_values=4)),
    # a key gen-data reads, which the model never does
    ("'length'", lambda config: config.pop("length")),
    # values out of their range, one of them a key only gen-data reads,
    # and a task retired since the run
    ("n_sel must lie in [0, 1], got 99", lambda config: config.update(n_sel=99)),
    ("train_count must be >= 1", lambda config: config.update(train_count=0)),
    ("task must be one of ('switching', 'bouncing', 'adding'), got 'single'",
     lambda config: config.update(task="single")),
], ids=["missing", "unknown", "str-for-int", "float-for-int", "int-for-bool", "retired",
        "retired-tau", "retired-hard-selection", "retired-patch", "retired-sel-keys",
        "retired-inp-values", "missing-length", "out-of-range",
        "out-of-range-data", "retired-task"])
def test_stored_config_missing_or_unknown_key_exits_2(tiny_run, tmp_path, capsys,
                                                      named, edit):
    copy = tmp_path / "copy"
    shutil.copytree(str(tiny_run), str(copy))
    path = copy / "run" / "checkpoint" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest["config"])
    path.write_text(json.dumps(manifest))
    out = tmp_path / "eval"
    assert run_cli("eval", "--set", f"data={copy / 'data'}",
                   "--set", f"checkpoint={path.parent}", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert named in err and "manifest.json" in err
    assert not out.exists()


def test_eval_of_a_gru_checkpoint_writes_only_the_curve(tiny_run, tmp_path, capsys):
    # a GRU has no slots or schemata, so there is nothing to trace
    run_dir = tmp_path / "gru"
    assert run_cli("train", "--set", "task=switching", "--set", f"data={tiny_run / 'data'}",
                   "--set", "model=gru", "--set", "n_f=1", "--set", "d_h=4",
                   "--set", "d_c=4", "--set", "d_pos=2", "--set", "enc_hidden=4",
                   "--set", "dec_hidden=4", "--set", "readout_hidden=4",
                   "--set", "readout_width=4", "--set", "epochs=1", "--set", "burn_in=2",
                   "--set", "horizon=3", "--out", str(run_dir)) == 0
    capsys.readouterr()
    out = tmp_path / "eval"
    assert run_cli("eval", "--set", f"data={tiny_run / 'data'}",
                   "--set", f"checkpoint={run_dir / 'checkpoint'}", "--out", str(out)) == 0
    assert "traced" not in capsys.readouterr().out
    assert sorted(os.listdir(out)) == ["resolved_config.cfg", "rollout_curve.csv"]


def test_eval_whose_tracing_fails_writes_nothing(tiny_run, tmp_path, capsys, monkeypatch):
    # the curve is already computed; the traces come before --out too
    from scoff import cli

    def fail(*args, **kwargs):
        raise RuntimeError("tracing failed")

    monkeypatch.setattr(cli, "collect_traces", fail)
    out = tmp_path / "eval"
    assert run_cli("eval", "--set", f"data={tiny_run / 'data'}",
                   "--set", f"checkpoint={tiny_run / 'run' / 'checkpoint'}",
                   "--out", str(out)) == 2
    assert "tracing failed" in capsys.readouterr().err
    assert not out.exists()


def test_trace_is_an_unknown_command(tiny_run, tmp_path, capsys):
    out = tmp_path / "trace"
    assert run_cli("trace", "--set", f"data={tiny_run / 'data'}",
                   "--set", f"checkpoint={tiny_run / 'run' / 'checkpoint'}",
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "invalid choice: 'trace'" in err
    assert not out.exists()


# --------------------------------------------------------- the config schema

TASKS_ALL = list(TASKS)


SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                                "configs", "*.cfg")))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
def test_shipped_config_parses_and_builds_its_model(path):
    resolved = parse_config(path)
    model = build_model(to_train_config(resolved), Rng(resolved["seed"]).spawn(0))
    assert isinstance(model, ScoffModel if resolved["model"] == "scoff" else GruBaseline)


def test_every_task_has_a_shipped_config():
    # a task that no shipped config runs is code that no run exercises
    shipped = {parse_config(path)["task"] for path in SHIPPED_CONFIGS}
    assert sorted(set(TASKS) - shipped) == []


@pytest.mark.parametrize("task", TASKS_ALL)
def test_generate_matches_gen_data_byte_for_byte(tmp_path, task):
    from scoff import tasks
    out = tmp_path / "data"
    assert run_cli("gen-data", "--set", f"task={task}", "--set", "train_count=3",
                   "--set", "test_count=1", "--seed", "4", "--out", str(out)) == 0
    cfg = tasks.DataConfig(task=task, length=tasks.TASKS[task]["length"])
    tasks.write_dataset(tmp_path / "direct.scfd", tasks.generate(cfg, 4, 3, 0))
    assert (tmp_path / "direct.scfd").read_bytes() == (out / "train.scfd").read_bytes()


@pytest.mark.parametrize("task", TASKS_ALL)
def test_task_defaults_come_from_the_task_table(task):
    from scoff.tasks import TASKS
    resolved = parse_config(None, [f"task={task}"])
    cfg = to_train_config(resolved)
    assert (resolved["length"], cfg.lr, cfg.burn_in, cfg.horizon) == tuple(
        TASKS[task][k] for k in ("length", "lr", "burn_in", "horizon"))


@pytest.mark.parametrize("override", ["lr=-0.01", "lr=0",
                                      # retired keys: any value is now an
                                      # unknown key, still a usage error
                                      "clip_norm=-1", "clip_norm=0", "beta1=1.5",
                                      "beta1=-0.1", "beta2=1", "epsilon=0",
                                      "baseline_width=-1"])
def test_optimizer_key_out_of_range_exits_1_naming_it_and_writes_nothing(
        tiny_run, tmp_path, capsys, override):
    run_dir = tmp_path / "run"
    assert run_cli("train", "--set", "task=switching", "--set", f"data={tiny_run / 'data'}",
                   "--set", override, "--out", str(run_dir)) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and override.split("=")[0] in err
    assert not run_dir.exists()


@pytest.mark.parametrize("command,other", [("train", "bouncing"), ("eval", "adding")])
def test_dataset_of_another_task_exits_2_naming_it_and_writes_nothing(
        tiny_run, tmp_path, capsys, command, other):
    data = tmp_path / other
    assert run_cli("gen-data", "--set", f"task={other}", "--set", "train_count=2",
                   "--set", "test_count=1", "--set", "length=11", "--out", str(data)) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    args = (["--set", "task=switching", "--set", "epochs=1", "--set", "burn_in=3",
             "--set", "horizon=5"] if command == "train" else
            ["--set", f"checkpoint={tiny_run / 'run' / 'checkpoint'}"])
    assert run_cli(command, "--set", f"data={data}", *args, "--out", str(out)) == 2
    name = "train.scfd" if command == "train" else "test.scfd"
    err = capsys.readouterr().err
    assert f"{data / name} holds {other} sequences, expected switching" in err
    assert not out.exists()


def test_dataset_of_no_sequences_exits_2_naming_it(tiny_run):
    def empty(copy):
        with open(os.path.join(copy, "data", "test.scfd"), "r+b") as f:
            f.seek(8)  # the count, after the magic and the task id
            f.write(struct.pack("<I", 0))
    code, err = _eval_copy(tiny_run, empty)
    assert code == 2
    assert "test.scfd holds no sequences" in err


@pytest.mark.parametrize("inside", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["gen-data", "train", "eval"])
def test_out_in_a_file_exits_2_naming_it_before_any_work(tiny_run, tmp_path, capsys,
                                                         monkeypatch, command, inside):
    # a train that finds out only when it writes has run every epoch
    from scoff import cli

    def ran(*args, **kwargs):
        raise AssertionError(f"{command} did its work before checking --out")

    for name in ("train_model", "eval_rollout", "collect_traces"):
        monkeypatch.setattr(cli, name, ran)
    monkeypatch.setattr(cli.tasks, "generate", ran)
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = blocker / "sub" if inside else blocker
    args = {"gen-data": ["--set", "task=switching"],
            "train": ["--set", "task=switching", "--set", f"data={tiny_run / 'data'}",
                      "--set", "burn_in=2", "--set", "horizon=3"]}.get(
        command, ["--set", f"data={tiny_run / 'data'}",
                  "--set", f"checkpoint={tiny_run / 'run' / 'checkpoint'}"])
    assert run_cli(command, *args, "--out", str(out)) == 2
    assert f"--out {out}: {blocker} is not a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "kept"


# ------------------------------------------------------------------ process exit

def test_a_process_that_imported_the_cli_freezes_its_heap_at_exit():
    # atexit runs its hooks last in, first out, so this probe, registered
    # before the CLI module is imported, runs after the CLI's own hook
    probe = ("import atexit, gc, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
             "import scoff.cli\n"
             "sys.exit(scoff.cli.main(['param-count']))\n")
    src = os.path.join(os.path.dirname(CONFIGS), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    last = done.stdout.splitlines()[-1]
    assert last.startswith("frozen ")
    assert int(last.split()[1]) > 0
