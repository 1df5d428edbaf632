"""Import hygiene: every module of the package uses every name it imports,
and each entry point imports only the modules it runs.

``__init__.py`` is left out of the first rule: it imports only
``importlib``, and resolves the names it re-exports on first use.  String
annotations count as uses of the names they mention.

The import-scope tests run fresh interpreters, since this process has
imported the whole package.  No module defines a dataclass: creating one
generates its methods with ``exec``, and ``dataclasses`` itself imports
``inspect`` and ``ast``, several times a ``__slots__`` class's import cost.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import adorn

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


def fresh(script: str, *argv: str) -> str:
    """Standard output of ``script`` run by a fresh interpreter that finds
    the package's sources first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


# imports each module named in argv, then prints the package modules loaded
_LOADED = """
import importlib, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "adorn")))
"""


@pytest.mark.parametrize("module,loaded", [
    ("adorn", "adorn"),
    ("adorn.zoo", "adorn adorn.fpgroup adorn.zoo"),
])
def test_import_loads_only_what_the_module_needs(module, loaded):
    assert fresh(_LOADED, module) == loaded + "\n"


# runs adorn.cli.main on argv, then prints the package modules loaded
_COMMAND = """
import contextlib, io, sys
from adorn.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "adorn")))
"""


@pytest.mark.parametrize("argv,loaded", [
    (["classify-seifert", "--genus", "0", "--cones", "2,3,5"], "cli fpgroup zoo"),
    (["zoo", "trefoil"], "cli fpgroup zoo"),
    (["series", "--zoo", "sl2z"], "abelian cli cosets derived fpgroup rewriting zoo"),
], ids=["classify-seifert", "zoo", "series"])
def test_each_command_imports_only_the_engine_it_runs(argv, loaded):
    want = " ".join(["adorn", *(f"adorn.{m}" for m in loaded.split())])
    assert fresh(_COMMAND, *argv) == want + "\n"


def test_every_export_is_its_defining_modules_object():
    names = set(dir(adorn))
    for name, module in adorn._MODULE.items():
        value = getattr(adorn, name)
        assert value is vars(importlib.import_module(f"adorn.{module}"))[name], name
        if hasattr(value, "__qualname__"):  # a class or function, not a constant
            assert value.__module__ == f"adorn.{module}", name
        assert name in names
    assert sorted(adorn.__all__) == sorted(adorn._MODULE)
    assert "derived_series" not in vars(adorn)  # looked up on each access
    with pytest.raises(AttributeError, match="no_such_name"):
        adorn.no_such_name


# imports every package module named in argv; prints whether that imported
# dataclasses, then every dataclass that a package module defines
_DATACLASSES = """
import importlib, inspect, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print("dataclasses" in sys.modules)
import dataclasses
print(sorted(f"{name}.{c.__qualname__}" for name, m in list(sys.modules.items())
             if name.split(".")[0] == "adorn" for c in vars(m).values()
             if inspect.isclass(c) and c.__module__ == name
             and dataclasses.is_dataclass(c)))
"""


def test_no_module_defines_a_dataclass():
    modules = ["adorn"] + [f"adorn.{p.stem}" for p in MODULES
                           if p.stem != "__main__"]  # importing __main__ runs the CLI
    assert fresh(_DATACLASSES, *modules) == "False\n[]\n"
