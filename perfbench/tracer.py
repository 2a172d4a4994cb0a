"""Span tracer for one scoff CLI process, installed from outside the program.

``Tracer.install`` replaces public scoff functions and methods with wrappers
that record one span per call: (name, start_ns, end_ns, parent span index,
sequence pass). A function is replaced at every module global that refers to
it, not only where it is defined, so a call through a name imported with
``from .x import f`` cannot escape its span. Tensor ops are only counted,
because a span per op would cost more than the op itself.

Spans stay in memory; ``Tracer.dump`` returns them, with the counters, for
the parent benchmark process to aggregate with ``layer_metrics``.
"""

import functools
import statistics
import sys
import time

# span name -> (defining module, attribute path); the span name's first
# component is the scoff module (layer) that owns the time
TRACED = {
    "cli.parse_config": ("scoff.cli", "parse_config"),
    "tasks.gen_bouncing_mini": ("scoff.tasks", "gen_bouncing_mini"),
    "tasks.gen_adding": ("scoff.tasks", "gen_adding"),
    "tasks.write_dataset": ("scoff.tasks", "write_dataset"),
    "tasks.read_dataset": ("scoff.tasks", "read_dataset"),
    "rng.uniform": ("scoff.rng", "Rng.uniform"),
    "rng.gumbel": ("scoff.rng", "Rng.gumbel"),
    "rng.bernoulli": ("scoff.rng", "Rng.bernoulli"),
    "rng.randint": ("scoff.rng", "Rng.randint"),
    "rng.choice": ("scoff.rng", "Rng.choice"),
    "rng.shuffle": ("scoff.rng", "Rng.shuffle"),
    "rng.spawn": ("scoff.rng", "Rng.spawn"),
    "numerics.backward": ("scoff.numerics", "backward"),
    "attention.attend": ("scoff.attention", "attend"),
    "attention.topk_mask": ("scoff.attention", "topk_mask"),
    "recurrent.gru_step": ("scoff.recurrent", "gru_step"),
    "layer.input_read": ("scoff.layer", "ScoffLayer.input_read"),
    "layer.schema_select_update": ("scoff.layer", "ScoffLayer.schema_select_update"),
    "layer.communicate": ("scoff.layer", "ScoffLayer.communicate"),
    "layer.step": ("scoff.layer", "ScoffLayer.step"),
    "codec.encode_frame": ("scoff.codec", "PositionEncoder.encode_frame"),
    "codec.encode_token": ("scoff.codec", "TokenEncoder.encode_token"),
    "codec.frame_readout": ("scoff.codec", "FrameReadout.readout"),
    "codec.scalar_readout": ("scoff.codec", "ScalarReadout.readout"),
    "model.scoff_step": ("scoff.model", "ScoffModel.step"),
    "model.gru_step": ("scoff.model", "GruBaseline.step"),
    "model.scoff_init_state": ("scoff.model", "ScoffModel.init_state"),
    "model.gru_init_state": ("scoff.model", "GruBaseline.init_state"),
    "training.build_model": ("scoff.training", "build_model"),
    "training.train_model": ("scoff.training", "train_model"),
    "training.video_loss": ("scoff.training", "video_loss"),
    "training.adding_loss": ("scoff.training", "adding_loss"),
    "training.bce_per_frame": ("scoff.training", "bce_per_frame"),
    "training.mse_scalar": ("scoff.training", "mse_scalar"),
    "training.adam_apply": ("scoff.training", "Adam.apply"),
    "training.eval_rollout": ("scoff.training", "eval_rollout"),
    "training.eval_adding": ("scoff.training", "eval_adding"),
    "training.collect_traces": ("scoff.training", "collect_traces"),
    "training.save_checkpoint": ("scoff.training", "save_checkpoint"),
    "training.load_checkpoint": ("scoff.training", "load_checkpoint"),
    "training.restore_model": ("scoff.training", "restore_model"),
}

# tensor ops: counted per call, no span
COUNTED_OPS = ("add", "sub", "mul", "sigmoid", "tanh", "exp", "log", "reshape",
               "transpose", "concat", "stack", "tensor_sum", "tensor_mean",
               "matmul", "softmax", "straight_through", "logistic_loss_mean")

# import sites that name a traced function through a by-name import; install
# fails if any of them still holds the unwrapped function
REQUIRED_SITES = (
    "scoff.cli.train_model", "scoff.cli.eval_rollout", "scoff.cli.eval_adding",
    "scoff.cli.collect_traces", "scoff.cli.save_checkpoint",
    "scoff.cli.load_checkpoint", "scoff.cli.build_model",
    "scoff.training.backward", "scoff.training.Tape",
    "scoff.layer.attend", "scoff.layer.gru_step", "scoff.layer.topk_mask",
    "scoff.model.gru_step",
)


class Tracer:
    """Records spans and counters for the process it is installed in."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, pass]
        self.stack = []
        self.passes = 0          # sequence passes begun (model.init_state calls)
        self.step_in_pass = 0
        self.sites = []          # "module.name" globals that were replaced
        self.counts = {"op_calls": 0, "tape_nodes": [], "hyp_rows": 0,
                       "bank_rows": 0, "selected_rows": 0,
                       "rollout_seqs": 0, "rollout_steps": 0,
                       "rollout_distinct": 0}
        self._rollout = None     # (first pass, seen step keys) inside eval_rollout
        self._hyp_mark = 0       # hyp_rows when the current model step began

    # ---- spans ----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.passes])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[4] = self.passes  # the pass the span served, known by its end
        self.stack.pop()

    def span(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before(args, kwargs) and after(args, result)
        are optional hooks that count work at the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["op_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- hooks that count work where it happens -----------------------------

    def _begin_pass(self, args, result):
        self.passes += 1
        self.step_in_pass = 0

    def _tape_nodes(self, args, kwargs):
        self.counts["tape_nodes"].append(len(args[1].nodes))

    def _gru_rows(self, args, kwargs):
        z = args[0]
        self.counts["hyp_rows"] += 1 if z.data.ndim == 1 else z.shape[0]

    def _step_before(self, args, kwargs):
        self._hyp_mark = self.counts["hyp_rows"]
        if self._rollout is not None:
            first, seen = self._rollout
            features, state = args[1], args[2]
            key = ((self.passes - first) // 2, self.step_in_pass,
                   features.data.tobytes(), state.data.tobytes())
            self.counts["rollout_steps"] += 1
            if key not in seen:
                seen.add(key)
                self.counts["rollout_distinct"] += 1
        self.step_in_pass += 1

    def _step_after(self, args, result):
        rows = self.counts["hyp_rows"] - self._hyp_mark
        trace = result[1]
        if trace is None:  # monolithic GRU: its one update is always used
            self.counts["selected_rows"] += rows
        else:
            self.counts["bank_rows"] += rows
            self.counts["selected_rows"] += int(trace.active.sum())

    def _rollout_begin(self, args, kwargs):
        # eval_rollout runs a teacher-forced then a self-fed pass per sequence
        self._rollout = (self.passes + 1, set())
        self.counts["rollout_seqs"] += len(args[1])

    def _rollout_end(self, args, result):
        self._rollout = None

    # ---- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every scoff global naming it."""
        import scoff.cli  # noqa: F401  imports every scoff module
        from scoff import numerics

        hooks = {
            "numerics.backward": (self._tape_nodes, None),
            "recurrent.gru_step": (self._gru_rows, None),
            "model.scoff_step": (self._step_before, self._step_after),
            "model.gru_step": (self._step_before, self._step_after),
            "model.scoff_init_state": (None, self._begin_pass),
            "model.gru_init_state": (None, self._begin_pass),
            "training.eval_rollout": (self._rollout_begin, self._rollout_end),
        }
        replace = {}
        for name, (module, path) in TRACED.items():
            owner = sys.modules[module]
            before, after = hooks.get(name, (None, None))
            if "." in path:  # a method: patch the class, which every call goes through
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.span(name, getattr(cls, attr), before, after))
            else:
                fn = getattr(owner, path)
                replace[id(fn)] = (fn, self.span(name, fn, before, after))
        for op in COUNTED_OPS:
            fn = getattr(numerics, op)
            replace[id(fn)] = (fn, self.counter(fn))
        replace[id(numerics.Tape)] = (numerics.Tape, self._traced_tape(numerics.Tape))

        for mod_name, module in list(sys.modules.items()):
            if mod_name != "scoff" and not mod_name.startswith("scoff."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self.sites.append(f"{mod_name}.{attr}")
        missing = sorted(set(REQUIRED_SITES) - set(self.sites))
        if missing:
            raise RuntimeError(f"tracer left import sites unwrapped: {missing}")

    def _traced_tape(self, tape_cls):
        tracer = self

        class TracedTape(tape_cls):
            """A Tape whose with-block is one span: a training forward pass."""

            __slots__ = ("_span",)

            def __enter__(self):
                self._span = tracer.open("numerics.Tape")
                return super().__enter__()

            def __exit__(self, *exc):
                out = super().__exit__(*exc)
                tracer.close(self._span)
                return out

        return TracedTape

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


# ---- aggregation into per-layer metrics ---------------------------------------


def _self_ns(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _summarize(spans: list) -> dict:
    """name -> [calls, inclusive ns, self ns]."""
    out = {}
    for (name, start, end, _, _), own in zip(spans, _self_ns(spans)):
        row = out.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += own
    return out


def _loss_self_ns(spans: list) -> int:
    """Self time of loss functions called under a training Tape."""
    in_tape = [False] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:  # parents precede their children
            in_tape[i] = in_tape[parent] or spans[parent][0] == "numerics.Tape"
    losses = ("training.video_loss", "training.adding_loss",
              "training.bce_per_frame", "training.mse_scalar")
    return sum(own for span, own, under in zip(spans, _self_ns(spans), in_tape)
               if under and span[0] in losses)


def _batch_ms(spans: list) -> list:
    """One sample per optimizer step: first Tape start of the batch to Adam end."""
    out, first = [], None
    for name, start, end, _, _ in spans:
        if name == "numerics.Tape" and first is None:
            first = start
        elif name == "training.adam_apply" and first is not None:
            out.append((end - first) / 1e6)
            first = None
    return out


def tail_percentile(samples: list) -> tuple:
    """(percentile, value): the highest of p99/p95/p90/p75 with at least ten
    samples beyond it, else the maximum (p100)."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct, ordered[min(n - 1, int(n * pct / 100))]
    return 100, ordered[-1]


def layer_metrics(commands: list) -> dict:
    """Per-layer metrics from traced commands: [(kind, dump)], kind in gen/train/eval."""

    def merged(kinds):
        spans_by_cmd = [d["spans"] for k, d in commands if k in kinds]
        table = {}
        for spans in spans_by_cmd:
            for name, row in _summarize(spans).items():
                acc = table.setdefault(name, [0, 0, 0])
                for j in range(3):
                    acc[j] += row[j]
        return table, spans_by_cmd

    def count(kinds, key):
        return sum(d["counts"][key] for k, d in commands if k in kinds)

    def calls(table, *names):
        return sum(table.get(n, (0, 0, 0))[0] for n in names)

    def self_ms(table, *names):
        return sum(table.get(n, (0, 0, 0))[2] for n in names) / 1e6

    def incl_ms(table, *names):
        return sum(table.get(n, (0, 0, 0))[1] for n in names) / 1e6

    def per(value, base):
        return value / base if base else 0.0

    def layer_self_ms(table, layer):
        return sum(row[2] for name, row in table.items()
                   if name.split(".")[0] == layer) / 1e6

    everything, _ = merged(("gen", "train", "eval"))
    gen, _ = merged(("gen",))
    train, train_spans = merged(("train",))
    model, _ = merged(("train", "eval"))

    gen_seqs = calls(gen, "tasks.gen_bouncing_mini", "tasks.gen_adding")
    train_seqs = calls(train, "numerics.Tape")
    steps = calls(model, "model.scoff_step", "model.gru_step")
    train_steps = calls(train, "model.scoff_step", "model.gru_step")
    rng_names = [n for n in TRACED if n.startswith("rng.")]
    tape_nodes = [n for k, d in commands if k == "train" for n in d["counts"]["tape_nodes"]]
    batches = [ms for spans in train_spans for ms in _batch_ms(spans)]
    tail_pct, tail_ms = tail_percentile(batches) if batches else (0, 0.0)
    hyp = count(("train", "eval"), "hyp_rows")
    rollout_steps = count(("train", "eval"), "rollout_steps")

    return {
        "cli.parse_config_ms": per(incl_ms(everything, "cli.parse_config"),
                                   calls(everything, "cli.parse_config")),
        "tasks.gen_ms_per_seq": per(self_ms(gen, "tasks.gen_bouncing_mini",
                                            "tasks.gen_adding"), gen_seqs),
        "tasks.write_dataset_ms": per(incl_ms(gen, "tasks.write_dataset"),
                                      calls(gen, "tasks.write_dataset")),
        "tasks.read_dataset_ms": per(incl_ms(model, "tasks.read_dataset"),
                                     calls(model, "tasks.read_dataset")),
        "rng.calls_per_seq": per(calls(train, *rng_names), train_seqs),
        "rng.ms_per_seq": per(layer_self_ms(train, "rng"), train_seqs),
        "rng.gen_calls_per_seq": per(calls(gen, *rng_names), gen_seqs),
        "rng.gen_ms_per_seq": per(layer_self_ms(gen, "rng"), gen_seqs),
        "numerics.tape_nodes_per_seq": per(sum(tape_nodes), len(tape_nodes)),
        "numerics.op_calls_per_step": per(count(("train",), "op_calls"), train_steps),
        "numerics.backward_ms_per_seq": per(incl_ms(train, "numerics.backward"),
                                            train_seqs),
        "attention.attend_calls_per_step": per(calls(model, "attention.attend"), steps),
        "attention.attend_ms_per_step": per(self_ms(model, "attention.attend"), steps),
        "recurrent.gru_step_calls_per_step": per(calls(model, "recurrent.gru_step"),
                                                 steps),
        "recurrent.gru_step_ms_per_step": per(self_ms(model, "recurrent.gru_step"),
                                              steps),
        "recurrent.useful_update_ratio": per(count(("train", "eval"), "selected_rows"),
                                             hyp),
        "layer.schema_hypotheses_per_step": per(count(("train", "eval"), "bank_rows"),
                                                steps),
        "layer.input_read_ms_per_step": per(self_ms(model, "layer.input_read"), steps),
        "layer.schema_select_update_ms_per_step": per(
            self_ms(model, "layer.schema_select_update"), steps),
        "layer.communicate_ms_per_step": per(self_ms(model, "layer.communicate"), steps),
        "codec.encode_ms_per_step": per(self_ms(model, "codec.encode_frame",
                                                "codec.encode_token"), steps),
        "codec.readout_ms_per_call": per(
            self_ms(model, "codec.frame_readout", "codec.scalar_readout"),
            calls(model, "codec.frame_readout", "codec.scalar_readout")),
        "model.step_ms_per_step": per(incl_ms(model, "model.scoff_step",
                                              "model.gru_step"), steps),
        "training.loss_ms_per_seq": per(
            sum(_loss_self_ns(s) for s in train_spans) / 1e6, train_seqs),
        "training.adam_ms_per_batch": per(incl_ms(train, "training.adam_apply"),
                                          calls(train, "training.adam_apply")),
        "training.batch_ms_p50": statistics.median(batches) if batches else 0.0,
        "training.batch_ms_tail": tail_ms,
        "training.batch_ms_tail_pct": tail_pct,
        "training.batch_samples": len(batches),
        "training.eval_rollout_ms_per_seq": per(
            incl_ms(model, "training.eval_rollout"),
            count(("train", "eval"), "rollout_seqs")),
        "training.rollout_useful_ratio": per(
            count(("train", "eval"), "rollout_distinct"), rollout_steps),
        "training.epoch_eval_share": per(
            incl_ms(train, "training.eval_rollout", "training.eval_adding",
                    "training.collect_traces"),
            incl_ms(train, "training.train_model")),
        "training.collect_traces_ms": per(incl_ms(train, "training.collect_traces"),
                                          calls(train, "training.collect_traces")),
        "training.checkpoint_save_ms": per(incl_ms(train, "training.save_checkpoint"),
                                           calls(train, "training.save_checkpoint")),
        "training.checkpoint_load_ms": per(incl_ms(model, "training.load_checkpoint"),
                                           calls(model, "training.load_checkpoint")),
    }
