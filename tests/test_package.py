import ast
import os

import scoff

SRC = os.path.dirname(scoff.__file__)


# names no code in the package calls, each kept for a caller outside it
UNCALLED = {
    "cli._Parser.error": "argparse calls it",
    # the benchmark's tracer wraps each of these by name (ROADMAP item 2)
    "numerics.sigmoid": "perfbench/tracer.py COUNTED_OPS",
    "numerics.softmax": "perfbench/tracer.py COUNTED_OPS",
    "numerics.straight_through": "perfbench/tracer.py COUNTED_OPS",
    "rng.Rng.bernoulli": "perfbench/tracer.py TRACED",
}


def test_every_defined_name_is_used_by_the_package():
    """Every top-level function and class of the package, and every method
    that is not a dunder, is named by a Name, an Attribute or an import in
    the package, so no code in src is kept only for the tests. Names are
    matched bare, so one shared with a numpy attribute (``numerics.tanh``
    beside ``np.tanh``) counts as used."""
    defined, used = [], set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as f:
            tree = ast.parse(f.read())
        module = name[:-3]
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
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.split(".")[-1] for alias in node.names)
    unused = sorted(qual for qual, bare in defined if bare not in used)
    assert unused == sorted(UNCALLED)


def test_no_module_imports_threading():
    # the engine is single-threaded: one module-level tape stack serves
    # every pass
    importers = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] == "threading" for m in modules):
                    importers.append(name)
    assert importers == []
