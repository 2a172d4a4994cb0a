import ast
import os

import scoff

SRC = os.path.dirname(scoff.__file__)


def test_every_public_name_is_used_by_the_package():
    # a public name that only tests call is a second code path kept for them
    used = set()
    for name in os.listdir(SRC):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name)) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert sorted(set(scoff.__all__) - used) == []


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
