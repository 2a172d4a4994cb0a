"""The benchmark's tracer patches scoff functions and import sites by name.

A rename or merge in ``src/scoff`` that drops one of those names breaks the
traced benchmark; this check makes it fail in the unit suite too. So does a
fusion that swallows a traced call: one tiny bouncing sequence trained under
the tracer must give the per-step counts that ``perfbench/selftest.py`` pins.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_current_sources():
    code = ('import sys; sys.path.insert(0, "perfbench"); '
            'from tracer import Tracer; Tracer().install()')
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


TRAIN_ONE_SEQUENCE = """
import json, sys
sys.path.insert(0, "perfbench")
from tracer import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
from scoff.cli import parse_config, to_train_config
from scoff.rng import Rng
from scoff.tasks import gen_bouncing_mini
from scoff.training import train_model
resolved = parse_config("configs/bouncing_mini.cfg",
                        ["model=" + sys.argv[1], "epochs=1", "batch_size=1", *sys.argv[2:]])
seq = gen_bouncing_mini(Rng(0), 6, resolved["n_balls"])
train_model(to_train_config(resolved), [seq])
print(json.dumps({"resolved": resolved,
                  "metrics": layer_metrics([("train", tracer.dump())])}))
"""


def train_one_traced_sequence(model, *overrides):
    proc = subprocess.run([sys.executable, "-c", TRAIN_ONE_SEQUENCE, model, *overrides],
                          cwd=ROOT, capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return out["resolved"], out["metrics"]


@pytest.mark.parametrize("model", ["scoff", "gru"])
def test_traced_training_counts_follow_from_the_config(model):
    cfg, m = train_one_traced_sequence(model)
    if model == "scoff":
        assert m["recurrent.gru_step_calls_per_step"] == cfg["n_s"]
        assert m["attention.attend_calls_per_step"] == cfg["inp_heads"] + cfg["comm_heads"]
        assert m["layer.schema_hypotheses_per_step"] == cfg["n_f"] * cfg["n_s"]
    else:
        assert m["recurrent.gru_step_calls_per_step"] == 1
        assert m["attention.attend_calls_per_step"] == 0
        assert m["layer.schema_hypotheses_per_step"] == 0
    assert m["numerics.tape_nodes_per_seq"] > 0


@pytest.mark.parametrize("model", ["scoff", "gru"])
def test_traced_useful_update_ratio_follows_n_sel(model):
    # the tracer reads each step trace's ``active`` mask: of the n_f * n_s
    # schema hypotheses a scoff step computes, n_sel rows are used; the
    # monolithic GRU uses its one update
    cfg, m = train_one_traced_sequence(model, "n_sel=2")
    want = cfg["n_sel"] / (cfg["n_f"] * cfg["n_s"]) if model == "scoff" else 1.0
    assert m["recurrent.useful_update_ratio"] == want


ROLLOUT = """
import json, sys
sys.path.insert(0, "perfbench")
from tracer import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
from scoff import training
from scoff.cli import parse_config, to_train_config
from scoff.rng import Rng
from scoff.tasks import gen_bouncing_mini
resolved = parse_config("configs/bouncing_mini.cfg",
                        ["model=" + sys.argv[1], "burn_in=3", "horizon=4"])
cfg = to_train_config(resolved)
model = training.build_model(cfg, Rng(0))
seqs = [gen_bouncing_mini(Rng(i), cfg.burn_in + cfg.horizon, resolved["n_balls"])
        for i in range(2)]
training.eval_rollout(model, seqs, cfg.burn_in, cfg.horizon)
print(json.dumps({"resolved": resolved,
                  "metrics": layer_metrics([("eval", tracer.dump())])}))
"""


@pytest.mark.parametrize("model", ["scoff", "gru"])
def test_traced_rollout_repeats_only_the_burn_in(model):
    # the self-fed pass repeats the teacher-forced pass's burn-in steps and no
    # others, which the benchmark reads as training.rollout_useful_ratio
    proc = subprocess.run([sys.executable, "-c", ROLLOUT, model], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    cfg, m = out["resolved"], out["metrics"]
    steps, burn_in = cfg["burn_in"] + cfg["horizon"] - 1, cfg["burn_in"]
    assert m["training.rollout_useful_ratio"] == (2 * steps - burn_in) / (2 * steps)


GEN_DATA = """
import json, sys, tempfile
sys.path.insert(0, "perfbench")
from tracer import Tracer
tracer = Tracer()
tracer.install()
from scoff.cli import main
with tempfile.TemporaryDirectory() as out:
    code = main(["gen-data", "--config", "configs/bouncing_mini.cfg", "--set", "train_count=5",
                 "--set", "test_count=2", "--out", out])
print(json.dumps({"code": code, "spans": [s[0] for s in tracer.dump()["spans"]]}))
"""


def test_traced_gen_data_records_one_generator_span_per_sequence():
    # the benchmark's tasks.gen_ms_per_seq divides generator time by these
    # spans, so it stays a per-sequence figure only while each sequence is
    # one generator call
    proc = subprocess.run([sys.executable, "-c", GEN_DATA], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0
    assert out["spans"].count("tasks.gen_bouncing_mini") == 5 + 2
