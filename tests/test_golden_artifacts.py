"""Golden artifacts: a fixed recipe run through the CLI must reproduce known
bytes, so a refactor that claims to keep every artifact byte-identical is
checked by the unit suite rather than by hand.

The recipe runs, in this process, ``gen-data`` (8 train / 4 test sequences),
``train`` (2 epochs, batch 4, eval subset 2) and ``eval``, which also traces
a scoff checkpoint, on ``switching_mini``, ``bouncing_mini`` (scoff and
``model=gru``) and ``adding_mini``, then ``check-grad``. One gen-data-only
run, of ``bouncing_mini`` with three balls and the occluder, pins the
generator paths the recipe does not reach: collisions among three balls and
the occluded render. The ``bouncing_gru`` run is
repeated with each command in its own ``python -m scoff.cli`` process, so
its files are also checked as a process that ends normally leaves them.
Each artifact is compared by SHA-256. ``resolved_config.cfg`` and the
``config`` part of ``manifest.json`` embed the data path and are left out; of
the manifest only its ``tensors`` list is hashed.

The digests were taken with Python 3.11.7 and numpy 2.4.6 linked against
scipy-openblas 0.3.31 (x86-64), with one BLAS thread, which ``conftest.py``
sets for the whole test process. Float results can differ in the last bit
under another BLAS build, CPU kernel or thread count; if they do, this test
fails on that build, and the digests must be retaken there from a commit
known to be good.
"""

import hashlib
import json
import os
import subprocess
import sys

from scoff.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
SRC = os.path.join(ROOT, "src")

RUNS = (("switching", "switching_mini", ()),
        ("bouncing", "bouncing_mini", ()),
        ("bouncing_gru", "bouncing_mini", ("--set", "model=gru")),
        ("adding", "adding_mini", ()))

# runs of gen-data alone, same sizes as RUNS
GEN_ONLY_RUNS = (("bouncing_occluded", "bouncing_mini",
                  ("--set", "n_balls=3", "--set", "occluder=true")),)

# SHA-256 prefixes (12 hex digits) by artifact; "file:key" hashes one key
# of a JSON file, re-serialized with sorted keys
GOLDEN = {
    "switching/data/train.scfd": "80ad636a71bc",
    "switching/data/test.scfd": "fa336d04675e",
    "switching/train/metrics.jsonl": "ec43357bec30",
    "switching/train/checkpoint/tensors.bin": "5b1561371799",
    "switching/train/checkpoint/manifest.json:tensors": "2643d619f217",
    "switching/eval/rollout_curve.csv": "3fb4d76e2e6d",
    "switching/eval/schema_usage.csv": "f19a02de582b",
    "switching/eval/traces.jsonl": "54a2c4d3f275",
    "bouncing/data/train.scfd": "677a533d3700",
    "bouncing/data/test.scfd": "ff0731ea192d",
    "bouncing/train/metrics.jsonl": "e78bc3702e2c",
    "bouncing/train/checkpoint/tensors.bin": "bebc42c59202",
    "bouncing/train/checkpoint/manifest.json:tensors": "783cbb200c62",
    "bouncing/eval/rollout_curve.csv": "0575a538471e",
    "bouncing/eval/schema_usage.csv": "23a56d3b073d",
    "bouncing/eval/traces.jsonl": "44957d46638f",
    "bouncing_gru/data/train.scfd": "677a533d3700",
    "bouncing_gru/data/test.scfd": "ff0731ea192d",
    "bouncing_gru/train/metrics.jsonl": "74a549560de5",
    "bouncing_gru/train/checkpoint/tensors.bin": "31b4caae9677",
    "bouncing_gru/train/checkpoint/manifest.json:tensors": "e1741d47066d",
    "bouncing_gru/eval/rollout_curve.csv": "810d0dd50f54",
    "adding/data/train.scfd": "859e755d4f0e",
    "adding/data/test.scfd": "4ab84a03c646",
    "adding/train/metrics.jsonl": "cc5cf1ea411d",
    "adding/train/checkpoint/tensors.bin": "5cbe99de2e28",
    "adding/train/checkpoint/manifest.json:tensors": "9539d31bad95",
    "adding/eval/rollout_curve.csv": "2a3bdd44ea76",
    "adding/eval/schema_usage.csv": "c1733e2643e2",
    "adding/eval/traces.jsonl": "39c1a70cf670",
    "check-grad:stdout": "357bdd3deb6f",
    "bouncing_occluded/data/train.scfd": "2ea91268c084",
    "bouncing_occluded/data/test.scfd": "a005697b0116",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def _run(*argv) -> None:
    assert main(list(argv)) == 0, argv


def _run_process(*argv) -> None:
    """One command as its own ``python -m scoff.cli`` process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "scoff.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, (argv, done.stderr)


def _recipe(run, tmp_path, name, cfg, extra) -> None:
    config = os.path.join(CONFIGS, f"{cfg}.cfg")
    out = tmp_path / name
    data, ckpt = str(out / "data"), str(out / "train" / "checkpoint")
    run("gen-data", "--config", config, *extra, "--set", "train_count=8",
        "--set", "test_count=4", "--out", data)
    if (name, cfg, extra) in GEN_ONLY_RUNS:
        return
    run("train", "--config", config, *extra, "--set", f"data={data}",
        "--set", "epochs=2", "--set", "batch_size=4", "--set", "eval_subset=2",
        "--out", str(out / "train"))
    run("eval", "--config", config, "--set", f"checkpoint={ckpt}",
        "--set", f"data={data}", "--out", str(out / "eval"))


def _file_digests(tmp_path, keys) -> dict:
    digests = {}
    for key in keys:
        path, _, part = key.partition(":")
        raw = (tmp_path / path).read_bytes()
        if part:
            raw = json.dumps(json.loads(raw)[part], sort_keys=True).encode()
        digests[key] = _sha(raw)
    return digests


def test_recipe_artifacts_match_golden_digests(tmp_path, capsys):
    for name, cfg, extra in GEN_ONLY_RUNS + RUNS:
        _recipe(_run, tmp_path, name, cfg, extra)
    capsys.readouterr()
    _run("check-grad")
    digests = {"check-grad:stdout": _sha(capsys.readouterr().out.encode())}
    digests.update(_file_digests(tmp_path, [k for k in GOLDEN if k != "check-grad:stdout"]))
    assert digests == GOLDEN


def test_recipe_run_as_separate_processes_matches_golden_digests(tmp_path):
    # each command ends its own process, which freezes its heap at exit and
    # so skips the shutdown collections: every file must still be complete
    name, cfg, extra = RUNS[2]
    _recipe(_run_process, tmp_path, name, cfg, extra)
    keys = [k for k in GOLDEN if k.startswith(f"{name}/")]
    assert _file_digests(tmp_path, keys) == {k: GOLDEN[k] for k in keys}
