"""scoff benchmark: the gen-data -> train -> eval pipeline on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each scoff command runs in its own process,
one at a time (a closed loop), on one CPU, with BLAS and OpenMP pinned to one
thread. The run first generates the workload's data from ``--seed`` and
checks gradients, then repeats gen-data (at the config's own size), train,
gen-data and eval for ``--seconds``. Rates are total sequences over total
command time across the repetitions, setup_s the median set-up, both scaled
to a reference host speed (see PROBE_REF_S). With ``--trace 1`` untraced and
traced repetitions alternate, and the per-layer metrics come from the traced
ones' spans (see tracer.py).

Every repetition passes the correctness gate: each command exits 0, losses
and curves are finite, metrics.jsonl has one record per epoch, the checkpoint
restores every parameter, generated files and losses are bit-identical to the
first repetition's. The last line of standard output is one JSON object:
correct, attempted and failed operations, and the metrics named in
BENCHMARK.json. ``--workload all`` runs every workload in turn.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUNNER = os.path.join(HERE, "runner.py")
RUN_LIMIT_S = 160  # a workload's commands are killed past this, to exit within 180 s

# Each CPU of a shared host can switch between speeds ~1.4x apart, and the
# share of slow time drifts over minutes. Before each command this process
# times a fixed probe of interpreter work and small numpy ops, the mix scoff
# spends its time on, on the CPU the commands are pinned to, and the timed
# end-to-end metrics are scaled to a host on which the probe takes
# PROBE_REF_S: rate * probe / PROBE_REF_S, time * PROBE_REF_S / probe, with
# the probe time averaged over the run. The probe runs in this process, so
# the program under test cannot move it.
PROBE_ROUNDS = 8000
PROBE_REF_S = 0.08
SCALED = {"setup_s": -1, "gen_seq_per_s": 1, "train_seq_per_s": 1, "eval_seq_per_s": 1}

# Sizes are fixed at gen-data time: train reads all of train.scfd and eval
# all of test.scfd. Two epochs, each with a per-epoch eval subset of one
# sequence; the training set is sized so that eval subset over trained
# sequences matches the config's (32/600 on bouncing_mini: 19 sequences),
# and with it the share of a train command spent on the per-epoch eval and
# traces. TRAIN_COUNT, if set, overrides that size.
TRAIN_COUNT = None
TRAIN_SET = ("epochs=2", "batch_size=8", "eval_subset=1")
WORKLOADS = {
    # every scoff layer does real work; the only self-fed frame rollout
    "bouncing-scoff": {"config": "configs/bouncing_mini.cfg", "model": "scoff",
                       "test_count": 64, "test_length": None},
    # deep per-sequence tapes, 200-step forward eval, idle codec, no rollout;
    # run by hand, not listed in BENCHMARK.json (see DESIGN.md)
    "adding-scoff": {"config": "configs/adding_mini.cfg", "model": "scoff",
                     "test_count": 16, "test_length": 200},
    # matched-width baseline: same data and codec, never enters the layer
    "bouncing-gru": {"config": "configs/bouncing_mini.cfg", "model": "gru",
                     "test_count": 128, "test_length": None},
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


class Command:
    """One scoff CLI process: exit code, parent-side times and its report."""

    def __init__(self, work: str, tag: str, args: list, trace: bool, deadline: float):
        self.tag = tag
        self.args = args
        report = os.path.join(work, f"{tag}.report.json")
        self.log = os.path.join(work, f"{tag}.log")
        self.t0 = time.monotonic()
        with open(self.log, "w") as out:
            try:
                self.rc = subprocess.run(
                    [sys.executable, RUNNER, report, "1" if trace else "0", "--", *args],
                    stdout=out, stderr=subprocess.STDOUT, env=_child_env(),
                    timeout=max(1.0, deadline - self.t0)).returncode
            except subprocess.TimeoutExpired:
                self.rc = -1
        self.t1 = time.monotonic()
        self.report = None
        if self.rc == 0:
            with open(report) as f:
                self.report = json.load(f)

    @property
    def ok(self) -> bool:
        return self.rc == 0

    def wall_s(self, mark: str = None) -> float:
        """Seconds from spawning the process, or from a child-side mark, to its exit."""
        return self.t1 - (self.t0 if mark is None else self.report["marks"][mark])

    def explain(self) -> str:
        with open(self.log) as f:
            tail = f.read()[-2000:]
        return f"{self.tag} exited {self.rc}: {' '.join(self.args)}\n{tail}"


class Gate:
    """Counts operations and failures; every miss is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str, weight: int = 1) -> bool:
        self.attempted += weight
        if not ok:
            self.failed += weight
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def host_probe() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy ops."""
    import numpy as np

    a = np.full((4, 24), 0.5)
    w = np.full((24, 24), 0.01)
    start = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        h = np.tanh(a @ w + 0.1)
        sum(float(n.sum()) for n in (h, h.T, h * h))
    return time.perf_counter() - start


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _read_metrics(path: str, epochs: int, gate: Gate):
    """Last epoch's train loss, if metrics.jsonl is well formed."""
    try:
        with open(path) as f:
            records = [json.loads(line) for line in f if line.strip()]
    except (OSError, json.JSONDecodeError) as e:
        gate.check(False, f"metrics.jsonl unreadable: {e}")
        return None
    ok = gate.check([r.get("epoch") for r in records] == list(range(epochs)),
                    f"metrics.jsonl needs one record per epoch, got {len(records)}")
    values = [v for r in records for v in
              [r.get("train_loss"), *r.get("eval_losses", []), *r.get("eval_teacher", [])]]
    ok &= gate.check(_finite(values), "metrics.jsonl holds non-finite losses")
    return records[-1]["train_loss"] if ok else None


def _read_curve(path: str, rows: int, gate: Gate):
    """Mean self-fed BCE (frame tasks) or the test MSE (adding)."""
    try:
        with open(path) as f:
            lines = f.read().split()
        table = [[float(x) for x in line.split(",")[1:]] for line in lines[1:]]
    except (OSError, ValueError) as e:
        gate.check(False, f"rollout_curve.csv unreadable: {e}")
        return None
    ok = gate.check(len(table) == rows, f"rollout_curve.csv has {len(table)} rows, not {rows}")
    ok &= gate.check(_finite([v for row in table for v in row]),
                     "rollout_curve.csv holds non-finite values")
    return statistics.fmean(row[-1] for row in table) if ok else None


def _check_restore(ckpt: str, gate: Gate) -> None:
    """The checkpoint restores every parameter through the public API."""
    import numpy as np
    from scoff.cli import to_train_config
    from scoff.rng import Rng
    from scoff.training import build_model, load_checkpoint, restore_model

    try:
        tensors, stored = load_checkpoint(ckpt)
        model = build_model(to_train_config(stored), Rng(stored["seed"]).spawn(0))
        restore_model(model, tensors)
    except Exception as e:  # noqa: BLE001  any failure to restore is a gate miss
        gate.check(False, f"checkpoint does not restore: {e!r}")
        return
    params = model.parameters()
    gate.check(set(params) == set(tensors) and all(
        np.array_equal(params[n].data, tensors[n].data) for n in params),
        "restored parameters differ from the checkpoint")


class Pipeline:
    def __init__(self, name: str, seed: int, work: str, gate: Gate):
        from scoff.cli import parse_config

        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.gate = gate
        self.config = os.path.join(ROOT, self.spec["config"])
        own = parse_config(self.config, [f"model={self.spec['model']}"])
        resolved = parse_config(self.config, [f"model={self.spec['model']}", *TRAIN_SET])
        self.train_count = TRAIN_COUNT or round(
            own["train_count"] * resolved["eval_subset"] / own["eval_subset"])
        self.frame_task = resolved["task"] != "adding"
        self.epochs = resolved["epochs"]
        self.horizon = resolved["horizon"]
        self.full_gen_count = resolved["train_count"] + resolved["test_count"]
        self.data = os.path.join(work, "data")
        self.eval_data = os.path.join(work, "eval_data") if self.spec["test_length"] else self.data
        self.first = None  # (gen digest, train loss, eval loss) of the first repetition
        self.n = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.probes = []  # host_probe() seconds, one before each command

    def cli(self, tag: str, args: list, trace: bool = False, seqs: int = 0) -> Command:
        """Run one command; it and the sequences it serves are operations."""
        self.probes.append(host_probe())
        cmd = Command(self.work, tag, args, trace, self.deadline)
        self.gate.check(cmd.ok, cmd.explain() if not cmd.ok else "", 1 + seqs)
        return cmd

    def prepare(self) -> bool:
        """Generate the workload's data and check gradients, once per run."""
        gen = ["gen-data", "--config", self.config, "--seed", str(self.seed)]
        ok = self.cli("data", [*gen, "--out", self.data, "--set", f"train_count={self.train_count}",
                               "--set", f"test_count={self.spec['test_count']}"]).ok
        if self.spec["test_length"]:
            ok &= self.cli("eval_data", [
                *gen, "--out", self.eval_data, "--set", f"length={self.spec['test_length']}",
                "--set", "train_count=1", "--set", f"test_count={self.spec['test_count']}"]).ok
        ok &= self.cli("check_grad", ["check-grad", "--seed", str(self.seed)]).ok
        return ok

    def repeat(self, trace: bool) -> dict:
        """gen-data, train, gen-data, eval; returns the samples and traces.

        gen-data runs twice because one call is short and its time noisy.
        """
        self.n += 1
        tag = f"rep{self.n}"
        rep = os.path.join(self.work, tag)
        run = os.path.join(rep, "run")
        os.makedirs(rep)
        trained = self.train_count * self.epochs
        tested = self.spec["test_count"]
        gen_args = ["gen-data", "--config", self.config, "--seed", str(self.seed),
                    "--out", os.path.join(rep, "gen")]
        gens, digests = [], []

        def gen(n):
            cmd = self.cli(f"{tag}.gen{n}", gen_args, trace)
            gens.append(cmd)
            digests.append(_digest(os.path.join(rep, "gen", "train.scfd"),
                                   os.path.join(rep, "gen", "test.scfd")) if cmd.ok else None)

        gen(1)
        train = self.cli(f"{tag}.train", [
            "train", "--config", self.config, "--seed", str(self.seed), "--out", run,
            "--set", f"data={self.data}", "--set", f"model={self.spec['model']}",
            *[a for kv in TRAIN_SET for a in ("--set", kv)]], trace, trained)
        gen(2)
        evaluate = None
        if train.ok:
            evaluate = self.cli(f"{tag}.eval", [
                "eval", "--out", run, "--set", f"checkpoint={os.path.join(run, 'checkpoint')}",
                "--set", f"data={self.eval_data}"], trace, tested)
        else:
            self.gate.check(False, "eval skipped: train failed", 1 + tested)

        train_loss = eval_loss = None
        if train.ok:
            train_loss = _read_metrics(os.path.join(run, "metrics.jsonl"), self.epochs, self.gate)
            _check_restore(os.path.join(run, "checkpoint"), self.gate)
        if evaluate is not None and evaluate.ok:
            eval_loss = _read_curve(os.path.join(run, "rollout_curve.csv"),
                                    self.horizon if self.frame_task else 1, self.gate)
        outputs = (digests[0], train_loss, eval_loss)
        if self.first is None:
            self.first = outputs
        for digest in digests[self.n == 1:]:
            self.gate.check((digest, train_loss, eval_loss) == self.first,
                            f"outputs differ between repetitions: "
                            f"{(digest, train_loss, eval_loss)} vs {self.first}")
        shutil.rmtree(rep)

        cmds = [c for c in (*gens, train, evaluate) if c is not None and c.ok]
        # (sequences, seconds) per timed command; see _run_metrics
        samples = {"gen": [(self.full_gen_count, g.wall_s()) for g in gens if g.ok],
                   "peak_rss_mb": [max(c.report["maxrss_kb"] for c in cmds) / 1024] if cmds else []}
        if train.ok:
            samples["setup_s"] = [train.report["marks"]["setup_done"] - train.t0]
            samples["train"] = [(trained, train.wall_s("setup_done"))]
        if evaluate is not None and evaluate.ok:
            samples["eval"] = [(tested, evaluate.wall_s())]
        traces = [(kind, c.report["trace"]) for kind, c in
                  (("gen", gens[0]), ("train", train), ("eval", evaluate))
                  if c is not None and c.ok and trace]
        return {"samples": samples, "traces": traces,
                "losses": {"train_loss": train_loss, "eval_loss": eval_loss}}


def _run_metrics(reps: list) -> dict:
    """End-to-end metrics over a run's repetitions.

    The host's speed switches between two levels about 1.5x apart several
    times a second, so one short command lands on either; a median of such
    samples jumps between the levels. Each rate is therefore the run's total
    sequences over its total command time. setup_s is the median set-up,
    peak_rss_mb the highest RSS of any command.
    """
    def values(key):
        return [v for rep in reps for v in rep["samples"].get(key, [])]

    def rate(key):
        pairs = values(key)
        return sum(n for n, _ in pairs) / sum(t for _, t in pairs) if pairs else None

    setups, rss = values("setup_s"), values("peak_rss_mb")
    return {"setup_s": statistics.median(setups) if setups else None,
            "gen_seq_per_s": rate("gen"), "train_seq_per_s": rate("train"),
            "eval_seq_per_s": rate("eval"), "peak_rss_mb": max(rss, default=None)}


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_used": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": 1, "seed": seed}


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    """One benchmark run; returns the result object the last line prints."""
    from tracer import layer_metrics

    gate = Gate()
    work = os.path.join(ROOT, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        pipe = Pipeline(name, seed, work, gate)
        ready = pipe.prepare()
        plain, traced = [], []
        started = time.monotonic()
        while ready:
            # traced runs alternate untraced and traced repetitions, so the
            # tracing overhead is priced under the same host conditions
            tracing = trace and len(plain) > len(traced)
            t = time.monotonic()
            rep = pipe.repeat(tracing)
            print(f"{name} rep {pipe.n}{' traced' if tracing else ''}: "
                  + json.dumps(rep["samples"]), file=sys.stderr)
            (traced if tracing else plain).append(rep)
            over = time.monotonic() - started + (time.monotonic() - t) > seconds
            if over and (traced or not trace):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(work))

    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = layer_metrics([t for rep in traced for t in rep["traces"]]) if traced else {}
        untraced = _run_metrics(plain)["train_seq_per_s"]
        traced_rate = _run_metrics(traced)["train_seq_per_s"]
        if untraced and traced_rate:
            metrics["trace.overhead_ratio"] = untraced / traced_rate
        # deterministic per seed, so gated for bit-identity rather than bounded:
        # across seeds they spread far more than any bound allows
        if traced:
            losses = traced[0]["losses"]
            metrics["training.train_loss"] = losses["train_loss"]
            metrics["training.eval_loss"] = losses["eval_loss"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        raw = _run_metrics(plain)
        probe = statistics.fmean(pipe.probes) / PROBE_REF_S
        print(f"{name}  host probe {probe:.4f} x reference; raw "
              + json.dumps(raw), file=sys.stderr)
        metrics = {n: None if v is None else v * probe ** SCALED.get(n, 0)
                   for n, v in raw.items()}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = [n for n in names if metrics.get(n) is None]
    gate.check(not missing, f"metrics not measured: {missing}")
    return {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names
                        if metrics.get(n) is not None}}


def _print_result(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{name}  failed_frac = {frac:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations: "
          "commands, trained and evaluated sequences, gate checks)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit, so a running command is killed and the work
    # directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    needed = [os.path.join(SRC, "scoff", "cli.py"), os.path.join(ROOT, "BENCHMARK.json")]
    needed += [os.path.join(ROOT, w["config"]) for w in WORKLOADS.values()]
    absent = [p for p in needed if not os.path.isfile(p)]
    if absent:
        print(f"perfbench: run from the scoff repository root; missing {absent}",
              file=sys.stderr)
        return 2
    # one CPU for this process and every command it starts (they inherit the
    # mask): the probe then times the same CPU the commands run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        _print_result(name, results[name])
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
