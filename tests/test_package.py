import ast
import os
import re

import scoff
from scoff.cli import _COMMANDS

SRC = os.path.dirname(scoff.__file__)
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


# names no code in the package calls, each kept for a caller outside it
UNCALLED = {
    "cli._Parser.error": "argparse calls it",
    # the benchmark's tracer wraps each of these by name (ROADMAP item 2)
    "numerics.exp": "perfbench/tracer.py COUNTED_OPS",
    "numerics.sigmoid": "perfbench/tracer.py COUNTED_OPS",
    "numerics.softmax": "perfbench/tracer.py COUNTED_OPS",
    "numerics.stack": "perfbench/tracer.py COUNTED_OPS",
    "numerics.straight_through": "perfbench/tracer.py COUNTED_OPS",
    "numerics.tanh": "perfbench/tracer.py COUNTED_OPS",
    "rng.Rng.bernoulli": "perfbench/tracer.py TRACED",
}


# modules outside the package whose attributes share names with its own
FOREIGN = ("np", "math")


def _modules():
    """(module name, AST) of each module of the package."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as f:
                yield name[:-3], ast.parse(f.read())


def test_every_defined_name_is_used_by_the_package():
    """Every top-level function and class of the package, and every method
    that is not a dunder, is named by a Name, an Attribute or an import in
    the package, so no code in src is kept only for the tests. An attribute
    of ``np`` or ``math`` is no use (``np.tanh`` does not use
    ``numerics.tanh``); other names are matched bare, so ``numerics.log``
    passes through the ``log`` parameter of ``train_model`` and
    ``numerics.transpose`` through the array method."""
    defined, used = [], set()
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id in FOREIGN):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.split(".")[-1] for alias in node.names)
    unused = sorted(qual for qual, bare in defined if bare not in used)
    assert unused == sorted(UNCALLED)


def test_only_generate_calls_the_generators():
    """The ``gen_*`` functions of ``tasks`` check none of their settings:
    they trust ``DataConfig``, whose settings reach them only through
    ``tasks.generate``. So no other code in the package may name one."""
    tasks = dict(_modules())["tasks"]
    generators = {node.name for node in tasks.body
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("gen_")}
    callers = {}
    for module, tree in _modules():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = {alias.name.split(".")[-1] for alias in node.names}
                else:
                    names = {getattr(node, "id", None), getattr(node, "attr", None)}
                for found in names & generators:
                    callers.setdefault(found, set()).add(
                        f"{module}.{getattr(top, 'name', type(top).__name__)}")
    assert callers == {name: {"tasks.generate"} for name in generators}


# the functions that may hold a ``raise``, each for one reason: input from
# outside the program, the engine's own state, a verification, the integrity
# of an artifact, or a random draw that can fail. All other code, the ops a
# step runs among it, trusts the config dataclasses and readers that checked
# its operands, and does not check them again
RAISERS = {
    "cli._coerce": "outside input: a config value of the wrong type",
    "cli.parse_config": "outside input: a config file's syntax and keys",
    "cli._require": "outside input: a path key left empty",
    "cli._missing_dirs": "outside input: an --out that is not a directory",
    "cli.cmd_gen_data": "artifact integrity: re-raised after its staging is removed",
    "cli._restore": "outside input: a checkpoint's stored config",
    "cli._Parser.error": "outside input: the command line",
    "layer.ScoffConfig.__post_init__": "outside input: layer settings",
    "tasks.DataConfig.__post_init__": "outside input: dataset settings",
    "training.TrainConfig.__post_init__": "outside input: training settings",
    "numerics.Tensor.__init__": "engine state: a value's extent and finiteness",
    "numerics.log": "engine state: log's domain",
    "numerics.backward": "engine state: the tape",
    "numerics.grad_check": "verification: analytic against numeric gradients",
    "rng.Rng.randint": "engine state: the draw's bound",
    "rng.Rng.spawn": "engine state: the child stream's index",
    "tasks.check_task": "outside input: a task name",
    "tasks._ball_tracks": "random failure: no overlap-free placement drawn",
    "tasks.write_dataset": "artifact integrity: an empty or ragged dataset",
    "tasks.read_exact": "outside input: a file cut short",
    "tasks.read_dataset": "outside input: a dataset file",
    "training._frame_bce": "engine state: non-finite rollout logits",
    "training.check_rollout_window": "outside input: an eval set against the config",
    "training.train_model": "engine state: a diverged run",
    "training.load_checkpoint": "outside input: a checkpoint's files",
    "training.restore_model": "outside input: a checkpoint's parameters",
}


def test_only_the_raisers_raise():
    """The top-level functions and methods holding a ``raise`` (a nested
    function counts for the one around it) are exactly ``RAISERS``. A check
    repeated where a config dataclass or a reader already checked fails
    this test, and so does a new check that names no reason."""
    functions = {}
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[f"{module}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                functions.update((f"{module}.{node.name}.{item.name}", item)
                                 for item in node.body if isinstance(item, ast.FunctionDef))
    raising = {name for name, node in functions.items()
               if any(isinstance(sub, ast.Raise) for sub in ast.walk(node))}
    unlisted, stale = sorted(raising - set(RAISERS)), sorted(set(RAISERS) - raising)
    assert not unlisted, f"functions not in RAISERS hold a raise: {unlisted}"
    assert not stale, f"functions in RAISERS hold no raise: {stale}"


def test_no_module_imports_threading():
    # the engine is single-threaded: one module-level tape stack serves
    # every pass
    importers = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "threading" for m in modules):
                importers.append(module)
    assert importers == []


def test_readme_lists_exactly_the_cli_commands():
    """The ``- `name` -`` items under the README's ``## CLI`` heading name
    the keys of ``cli._COMMANDS``, so no command is added or retired while
    the docs keep the old list."""
    with open(README, encoding="utf-8") as f:
        section = f.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([^`]+)` - ", section, re.MULTILINE)
    assert sorted(listed) == sorted(_COMMANDS)
