"""Cold start: the time a fresh interpreter takes at each entry point.

    python3 tools/cold_start.py                  # this checkout, 15 runs
    python3 tools/cold_start.py --runs 15 OLD NEW

Each ROOT is a checkout holding ``src/adorn``; the default is this one.
For every entry point below, the median over ``--runs`` fresh interpreters
is printed in milliseconds, without cached bytecode (the package compiles
from source, as under ``PYTHONDONTWRITEBYTECODE=1``) and with it (after a
warm-up run has written it).  The roots take turns within each round, the
first one alternating, so that a drift of the machine's speed is shared.

Each time is read inside the fresh interpreter, from just before the
import, or the run of ``adorn`` as ``python -m`` runs it, to its end.  The
interpreter's own start is left out: it is the same for every root, and
its ``site`` imports make it vary by tens of milliseconds from one process
to the next.

No checkout is written to: each root's ``src/adorn`` is copied, without
any ``__pycache__``, to a temporary directory, cached bytecode goes under
a temporary ``PYTHONPYCACHEPREFIX``, and every process runs in the
temporary directory, so the current directory shadows no package.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ENTRY_POINTS = (  # name, arguments of _CHILD
    ("import adorn", ["import", "adorn"]),
    ("import adorn.zoo", ["import", "adorn.zoo"]),
    ("import adorn.cli", ["import", "adorn.cli"]),
    ("python -m adorn series --zoo sl2z", ["run", "series", "--zoo", "sl2z"]),
    ("python -m adorn classify-seifert --genus 0 --cones 2,3,5",
     ["run", "classify-seifert", "--genus", "0", "--cones", "2,3,5"]),
)

# imports a module, or runs adorn's __main__ on the arguments as python -m
# does, with its output discarded; prints the seconds that took
_CHILD = """
import contextlib, io, runpy, sys, time
t0 = time.perf_counter()
if sys.argv[1] == "import":
    __import__(sys.argv[2])
else:
    sys.argv[1:] = sys.argv[2:]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("adorn", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            if exc.code:
                raise
print(time.perf_counter() - t0)
"""
MODES = ("source", "bytecode")  # without and with cached bytecode


def _env(src: Path, mode: str, prefix: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(src)
    if mode == "source":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = str(prefix)
    return env


def _seconds(argv: list[str], env: dict[str, str], cwd: str) -> float:
    done = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env, cwd=cwd,
                          check=True, timeout=60, capture_output=True, text=True)
    return float(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parent.parent])
    parser.add_argument("--runs", type=int, default=15)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        envs = {}  # (root index, mode) -> environment
        for k, root in enumerate(args.roots):
            src = Path(tmp) / f"root{k}"
            shutil.copytree(root / "src" / "adorn", src / "adorn",
                            ignore=shutil.ignore_patterns("__pycache__"))
            for mode in MODES:
                envs[k, mode] = _env(src, mode, Path(tmp) / f"pycache{k}")
        for (k, mode), env in envs.items():  # warm-up: writes the cached bytecode
            for _, argv in ENTRY_POINTS:
                _seconds(argv, env, tmp)
        times: dict[tuple, list[float]] = {}
        order = list(range(len(args.roots)))
        for _ in range(args.runs):
            for mode in MODES:
                for name, argv in ENTRY_POINTS:
                    for k in order:
                        times.setdefault((name, mode, k), []).append(
                            _seconds(argv, envs[k, mode], tmp))
            order.reverse()
    roots = [str(r) for r in args.roots]
    print(f"median ms of {args.runs} fresh interpreters; roots: " + ", ".join(roots))
    head = [f"{mode} {k}" for mode in MODES for k in range(len(roots))]
    print("| entry point | " + " | ".join(head) + " |")
    print("|---" * (1 + len(head)) + "|")
    for name, _ in ENTRY_POINTS:
        cells = [f"{1000 * statistics.median(times[name, mode, k]):.1f}"
                 for mode in MODES for k in range(len(roots))]
        print(f"| `{name}` | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
