"""Benchmark of the adorn derived-series engine.

    python3 perfbench/run.py --workload series-deep --seed 0 --seconds 20 --trace 0

One process runs one workload: a seeded job list, executed one job after
another (a closed loop with a single caller, no threads), pass after pass
until ``--seconds`` have been measured.  Every output is checked against a
closed form, and at the default seed against the golden record in
``perfbench/golden``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the metrics are those
that ``BENCHMARK.json`` declares: end-to-end with ``--trace 0``, per layer
with ``--trace 1``.  End-to-end times are scaled to a reference machine
speed (``speed.py``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 31
MIN_SAMPLES = 100  # so that at least ten job samples lie above p90


def _git_commit() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_setup(workload: str, seed: int, corpus: str) -> tuple[float, float]:
    """One import of the program plus input generation, in a fresh
    interpreter so that neither this process's modules nor its peak memory
    are touched; seconds scaled to the reference speed, and raw."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_time.py"), workload, str(seed), corpus],
        capture_output=True, text=True, check=True, timeout=60)
    raw, scale = map(float, out.stdout.split())
    return raw * scale, raw


class Runner:
    """Runs passes over one job list and keeps the counts and samples."""

    def __init__(self, jobs, workloads, golden: dict | None):
        self.jobs = jobs
        self.workloads = workloads
        self.golden = golden
        self.shapes: dict[str, object] = {}
        self.samples_ms: list[float] = []  # scaled to the reference speed
        self.raw_ms: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.passes = 0

    def _fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")

    def run_pass(self, cache_dir: Path) -> tuple[float, float]:
        """One pass over the job list; returns the summed job time, scaled
        to the reference speed and raw."""
        os.environ["ADORN_CACHE_DIR"] = str(cache_dir)
        gc.collect()
        times, slices = [], [speed.slice_time()]
        try:
            for job in self.jobs:
                t0 = time.perf_counter()
                try:
                    out = self.workloads.run(job)
                    error = None
                except Exception:  # a job that raises counts as failed
                    out, error = None, traceback.format_exc(limit=3)
                times.append(time.perf_counter() - t0)
                slices.append(speed.slice_time())
                self.attempted += 1
                if error is not None:
                    self._fail(job.label, error)
                    continue
                self._check(job, out)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.passes += 1
        scale = speed.scale(slices)
        self.samples_ms += [1000 * dt * scale for dt in times]
        self.raw_ms += [1000 * dt for dt in times]
        return sum(times) * scale, sum(times)

    def _check(self, job, out) -> None:
        try:
            shape = json.loads(json.dumps(self.workloads.check(job, out)))
        except Exception as exc:  # wrong or malformed output
            self._fail(job.label, f"check: {exc!r}")
            return
        first = self.shapes.setdefault(job.label, shape)
        if shape != first:
            self._fail(job.label, "output differs from an earlier run of the same input")
        elif self.golden is not None and self.golden.get(job.label) != shape:
            self._fail(job.label, "output differs from the golden record")


def _quantiles(samples: list[float]) -> tuple[float, float, int]:
    deciles = statistics.quantiles(samples, n=10)
    p50, p90 = deciles[4], deciles[8]
    return p50, p90, sum(1 for s in samples if s > p90)


def layer_metrics(names: list[str], summary: dict, setup_summary: dict,
                  traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer values of one traced pass.  A name ``<span>.<key>`` reads
    the span's summed counter; the others are derived below."""

    def get(span: str, key: str) -> float:
        return float(summary.get(span, {}).get(key, 0.0))

    todd = summary.get("cosets.todd_coxeter", {})
    gets = get("cli.FileStepCache.get", "calls")
    special = {
        "cosets.todd_coxeter.cosets_per_s":
            todd["cosets"] / todd["total_s"] if todd.get("total_s") else 0.0,
        "alexander.alexander_polynomial.matrix_n":
            get("alexander.alexander_polynomial", "max_matrix_n"),
        "cli.cache_hit_ratio":
            get("cli.FileStepCache.get", "hits") / gets if gets else 0.0,
        "zoo.make.self_s": float(setup_summary.get("zoo.make", {}).get("self_s", 0.0)),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }

    return {name: special[name] if name in special else get(*name.rsplit(".", 1))
            for name in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adorn" / "__init__.py").is_file():
        print(f"error: no adorn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    corpus = str(ROOT / "corpus" / "paper.json")

    gen = importlib.import_module("gen")
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer")
    jobs = gen.make_jobs(args.workload, args.seed, corpus)

    golden_path = BENCH / "golden" / f"{args.workload}.json"
    golden = None
    if golden_path.is_file():
        record = json.loads(golden_path.read_text())
        if record["seed"] == args.seed:
            golden = record["shapes"]
    runner = Runner(jobs, workloads, golden)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    untraced: list[tuple[float, float]] = []  # (scaled, raw) pass times
    traced: list[tuple[float, float]] = []
    per_pass: list = []
    setup_times: list[tuple[float, float]] = []
    tr = tracer.Tracer()
    setup_summary = {}
    if args.trace:
        with tr:
            gen.make_jobs(args.workload, args.seed, corpus)
        setup_summary = tr.summary()
    rss_before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured = 0.0  # seconds spent in passes; set-up timing is not counted
    while True:
        cache_dir = OUT / f"cache-{tag}-{runner.passes}"
        t0 = time.perf_counter()
        # with --trace 1, untraced and traced passes alternate
        if args.trace and len(traced) < len(untraced):
            tr.clear()
            with tr:
                traced.append(runner.run_pass(cache_dir))
            per_pass.append(tr.summary())
        else:
            untraced.append(runner.run_pass(cache_dir))
        measured += time.perf_counter() - t0
        # set-up repetitions are spread over the run, so that setup_s sees
        # the same machine speed as the passes
        while not args.trace and len(setup_times) < SETUP_REPS * min(1.0, measured / args.seconds):
            setup_times.append(time_setup(args.workload, args.seed, corpus))
        if (measured >= args.seconds and len(runner.samples_ms) >= MIN_SAMPLES
                and len(traced) == args.trace * len(untraced)):
            break

    if args.trace:
        # per-layer values are raw seconds, like the tracer's self times
        untraced_wall = statistics.median(raw for _, raw in untraced)
        names = [m["name"] for m in declared["per_layer"]]
        values = [layer_metrics(names, s, setup_summary, raw, untraced_wall)
                  for s, (_, raw) in zip(per_pass, traced)]
        metrics = {m["name"]: {"value": statistics.median(v[m["name"]] for v in values),
                               "unit": m["unit"]} for m in declared["per_layer"]}
        tr.write(str(OUT / f"spans-{tag}.jsonl"))
    else:
        p50, p90, above = _quantiles(runner.samples_ms)
        raw_p50, raw_p90, _ = _quantiles(runner.raw_ms)
        raw = {"wall_s": statistics.median(raw for _, raw in untraced),
               "job_ms.p50": raw_p50, "job_ms.p90": raw_p90,
               "setup_s": statistics.median(raw for _, raw in setup_times)}
        e2e = {
            "wall_s": statistics.median(scaled for scaled, _ in untraced),
            "job_ms.p50": p50,
            "job_ms.p90": p90,
            "setup_s": statistics.median(scaled for scaled, _ in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in declared["end_to_end"]}

    failed = len(runner.failures)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": _git_commit(), "jobs_per_pass": len(jobs),
        "passes": runner.passes, "job_samples": len(runner.samples_ms),
        "fail_frac": failed / runner.attempted,
        "golden_checked": golden is not None,
        "rss_before_passes_mb": rss_before_mb,
    }
    if not args.trace:
        info["samples_above_p90"] = above
        info["raw"] = raw
        info["speed"] = statistics.median(scaled / raw for scaled, raw in untraced)
    for line in runner.failures[:20]:
        print(f"FAIL {line}")
    print("info " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"info": info, "result": result, "failures": runner.failures,
         "shapes": runner.shapes}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
