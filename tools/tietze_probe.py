"""Tietze probe: the output hash and the time of ``tietze_simplify`` on
fixed input sets, for comparing checkouts.

    python3 tools/tietze_probe.py                  # this checkout, 3 rounds
    python3 tools/tietze_probe.py --rounds 3 OLD NEW

Each ROOT is a checkout holding ``src/adorn`` and ``perfbench``; the
default is this one.  The input sets are every ``tietze_simplify`` call of
one seed-0 pass of the ``series-deep``, ``cli-small`` and ``enumerate``
jobs, with the budget each call was given, and the raw Reidemeister-Schreier
rewrites of ``wide(10)`` to ``wide(13)`` (``< x0..x{n-1} | x_i^2 >``) and of
``fuchsian(0, [6] * 5)`` under the default budget.  Each input is replayed
under an unstarted copy of its budget, so the clock is read as in the run
but never runs out.

For every set and root the table gives the first 12 hex digits of the
sha256 of the outputs (``format_presentation`` and ``hit_caps`` of each
call, in call order) and the least time of one replay of the whole set, in
milliseconds.  Equal hashes mean byte-identical output.  Each round runs
one fresh process per root; the roots take turns within each round, the
first one alternating, so that a drift of the machine's speed is shared.

No checkout is written to: each root's ``src/adorn``, ``perfbench`` and
``corpus`` are copied, without any ``__pycache__``, to a temporary
directory, and every process runs there with bytecode writing off.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("series-deep", "cli-small", "enumerate")
RAW = ("wide(10)", "wide(11)", "wide(12)", "wide(13)", "fuchsian(0,[6]*5)")

# captures one input set (argv[1]: a workload name or a raw-rewrite
# expression), then replays it and prints its hash, call count and the
# least seconds of one replay
_CHILD = """
import hashlib, json, os, sys, tempfile, time
sys.path.insert(0, "perfbench")
from adorn import derived, fpgroup, rewriting, zoo
from adorn.cosets import commutator_coset_table
from adorn.fpgroup import BUDGET_LIMITS, Budget, GroupPresentation, Word

what = sys.argv[1]
calls = []
if what.startswith(("wide", "fuchsian")):
    def wide(n):
        return GroupPresentation([f"x{i}" for i in range(n)],
                                 [Word.gen(i) ** 2 for i in range(n)])
    def fuchsian(genus, cones):
        return zoo.make("fuchsian", (genus, tuple(cones)))
    p = eval(what, {"__builtins__": {}}, {"wide": wide, "fuchsian": fuchsian})
    calls.append((rewriting.rewrite_presentation(p, commutator_coset_table(p)),
                  fpgroup.DEFAULT_BUDGET))
else:
    import gen, workloads
    simplify = fpgroup.tietze_simplify
    def recorded(p, budget=fpgroup.DEFAULT_BUDGET):
        calls.append((p, budget))
        return simplify(p, budget)
    for module in (fpgroup, derived, rewriting):
        module.tietze_simplify = recorded
    with tempfile.TemporaryDirectory() as cache:
        os.environ["ADORN_CACHE_DIR"] = cache
        for job in gen.make_jobs(what, 0):
            workloads.run(job)
    for module in (fpgroup, derived, rewriting):
        module.tietze_simplify = simplify
calls = [(p, Budget(**{k: getattr(b, k) for k in BUDGET_LIMITS})) for p, b in calls]
digest = hashlib.sha256()
best, runs, spent = float("inf"), 0, 0.0
while runs < 3 or (runs < 30 and spent < 2.0):
    t0 = time.perf_counter()
    outs = [fpgroup.tietze_simplify(p, b) for p, b in calls]
    dt = time.perf_counter() - t0
    best, runs, spent = min(best, dt), runs + 1, spent + dt
for out in outs:
    digest.update(f"{fpgroup.format_presentation(out.presentation)} {out.hit_caps}\\n".encode())
print(json.dumps({"hash": digest.hexdigest()[:12], "calls": len(calls), "seconds": best}))
"""


def _run(where: Path, what: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", _CHILD, what], env=env, cwd=where,
                          check=True, timeout=600, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parent.parent])
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()
    sets = WORKLOADS + RAW
    results: dict[tuple, list[dict]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        copies = []
        for k, root in enumerate(args.roots):
            copy = Path(tmp) / f"root{k}"
            for part in ("src/adorn", "perfbench", "corpus"):
                shutil.copytree(root / part, copy / part,
                                ignore=shutil.ignore_patterns("__pycache__"))
            copies.append(copy)
        order = list(range(len(copies)))
        for _ in range(args.rounds):
            for what in sets:
                for k in order:
                    results.setdefault((what, k), []).append(_run(copies[k], what))
            order.reverse()
    roots = range(len(args.roots))
    print(f"least ms of one replay over {args.rounds} rounds; roots: "
          + ", ".join(map(str, args.roots)))
    print("| input set | calls | " + " | ".join(f"hash {k}" for k in roots) + " | "
          + " | ".join(f"ms {k}" for k in roots) + " |")
    print("|---" * (2 + 2 * len(roots)) + "|")
    for what in sets:
        runs = [results[what, k] for k in roots]
        hashes = [" ".join(sorted({r["hash"] for r in rs})) for rs in runs]
        times = [f"{1000 * min(r['seconds'] for r in rs):.1f}" for rs in runs]
        print(f"| `{what}` | {runs[0][0]['calls']} | " + " | ".join(hashes) + " | "
              + " | ".join(times) + " |")


if __name__ == "__main__":
    main()
