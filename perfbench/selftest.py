"""Exact-count self-test of the benchmark's tracer and gate.

    python3 -m pytest -q perfbench/selftest.py     # from the repository root

Runs each workload once, traced, at a tiny size, and checks the counts that
follow from the config alone. Takes about a minute on one core.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer

sys.path.insert(0, run.SRC)

from scoff.cli import parse_config  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _traced(monkeypatch, workload: str, extra=()) -> tuple:
    monkeypatch.setattr(run, "TRAIN_COUNT", 2)
    monkeypatch.setattr(run, "TRAIN_SET", (*run.TRAIN_SET, *extra))
    monkeypatch.setitem(run.WORKLOADS, workload,
                        {**run.WORKLOADS[workload], "test_count": 2})
    result = run.run_workload(workload, 3, 0, True, _spec())
    assert result["correct"], result
    values = {k: v["value"] for k, v in result["metrics"].items()}
    spec = run.WORKLOADS[workload]
    cfg = parse_config(os.path.join(run.ROOT, spec["config"]),
                       [f"model={spec['model']}", *run.TRAIN_SET])
    return values, cfg


@pytest.mark.parametrize("workload,extra", [
    ("bouncing-scoff", ()), ("bouncing-scoff", ("n_sel=2",)),
    ("adding-scoff", ()), ("bouncing-gru", ())])
def test_counts_follow_from_the_config(monkeypatch, workload, extra):
    m, cfg = _traced(monkeypatch, workload, extra)
    if cfg["model"] == "scoff":
        n_sel = cfg["n_sel"] or cfg["n_f"]
        assert m["recurrent.gru_step_calls_per_step"] == cfg["n_s"]
        assert m["recurrent.useful_update_ratio"] == n_sel / (cfg["n_f"] * cfg["n_s"])
        assert m["layer.schema_hypotheses_per_step"] == cfg["n_f"] * cfg["n_s"]
        assert m["attention.attend_calls_per_step"] == cfg["inp_heads"] + cfg["comm_heads"]
    else:
        assert m["recurrent.gru_step_calls_per_step"] == 1
        assert m["recurrent.useful_update_ratio"] == 1.0
        assert m["layer.schema_hypotheses_per_step"] == 0
        assert m["attention.attend_calls_per_step"] == 0
        assert m["layer.input_read_ms_per_step"] == 0
    if cfg["task"] == "adding":
        assert m["training.rollout_useful_ratio"] == 0  # no rollout runs
    else:
        steps, burn_in = cfg["burn_in"] + cfg["horizon"] - 1, cfg["burn_in"]
        assert m["training.rollout_useful_ratio"] == (2 * steps - burn_in) / (2 * steps)


def test_tape_nodes_repeat_exactly(monkeypatch):
    first, _ = _traced(monkeypatch, "adding-scoff")
    second, _ = _traced(monkeypatch, "adding-scoff")
    assert first["numerics.tape_nodes_per_seq"] > 0
    assert first["numerics.tape_nodes_per_seq"] == second["numerics.tape_nodes_per_seq"]


def test_truncated_checkpoint_is_a_gate_miss(tmp_path):
    from scoff.cli import to_train_config
    from scoff.rng import Rng
    from scoff.training import build_model, save_checkpoint

    resolved = parse_config(os.path.join(run.ROOT, "configs", "bouncing_mini.cfg"), [])
    model = build_model(to_train_config(resolved), Rng(resolved["seed"]).spawn(0))
    ckpt = str(tmp_path / "checkpoint")
    save_checkpoint(ckpt, model.parameters(), resolved)
    gate = run.Gate()
    run._check_restore(ckpt, gate)
    assert (gate.attempted, gate.failed) == (1, 0)
    # cut inside the first record's rank field: read_tensor raises struct.error
    with open(os.path.join(ckpt, "tensors.bin"), "r+b") as f:
        f.truncate(6)
    run._check_restore(ckpt, gate)
    assert (gate.attempted, gate.failed) == (2, 1)


def test_tracer_wraps_by_name_import_sites():
    code = ("import json, tracer; t = tracer.Tracer(); t.install(); "
            "print(json.dumps(t.sites))")
    out = subprocess.run([sys.executable, "-c", code], cwd=os.path.dirname(run.RUNNER),
                         env={**os.environ, "PYTHONPATH": run.SRC},
                         capture_output=True, text=True, check=True).stdout
    sites = set(json.loads(out))
    assert set(tracer.REQUIRED_SITES) <= sites


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(run.RUNNER), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "bouncing-scoff", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
