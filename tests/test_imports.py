"""Every module of the package uses every name it imports.

``__init__.py`` is exempt: its imports are the package's re-exports.
String annotations count as uses of the names they mention.

Also: ``Budget`` is the package's only dataclass, since generating a
dataclass's methods at import costs several times a NamedTuple's.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "adorn"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used.add(node.value)  # a forward reference such as -> "Budget"
    return used


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"cosets", "rewriting", "fpgroup"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in _imported(tree).items()
              if name not in _used(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


# imports the package and then each module named in argv, and prints every
# dataclass that a package module defines
_DATACLASSES = """
import dataclasses, importlib, inspect, sys
import adorn
for name in sys.argv[1:]:
    importlib.import_module(name)
print(sorted(f"{name}.{c.__qualname__}" for name, m in list(sys.modules.items())
             if name.split(".")[0] == "adorn" for c in vars(m).values()
             if inspect.isclass(c) and c.__module__ == name
             and dataclasses.is_dataclass(c)))
"""


def test_budget_is_the_only_dataclass():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    modules = [f"adorn.{p.stem}" for p in MODULES
               if p.stem != "__main__"]  # importing __main__ runs the CLI
    done = subprocess.run([sys.executable, "-c", _DATACLASSES, *modules],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "['adorn.fpgroup.Budget']\n"
