"""Tests of the benchmark's own code: input generation, closed forms,
output checks and the span tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import gen
import run
import tracer
import workloads
from adorn import abelian, cosets, derived, fpgroup, rewriting, zoo
from adorn.alexander import alexander_polynomial
from adorn.zoo import SeifertData, classify_seifert

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def fingerprint(jobs):
    """Text form of a job list's inputs."""
    out = []
    for job in jobs:
        parts = [job.kind, job.label]
        for a in job.args:
            parts.append(fpgroup.format_presentation(a)
                         if isinstance(a, fpgroup.GroupPresentation) else repr(a))
        out.append(" | ".join(parts))
    return out


def _z(m, n):
    return zoo.make("free_product", (zoo.make("cyclic", (m,)), zoo.make("cyclic", (n,))))


# --- inputs ---------------------------------------------------------------

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = fingerprint(gen.make_jobs(workload, 7))
    assert first == fingerprint(gen.make_jobs(workload, 7))
    assert first != fingerprint(gen.make_jobs(workload, 8))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_seed_keeps_the_strata(workload):
    def strata(seed):
        return sorted(job.kind + str(sorted(job.meta.get("cones", job.meta.get("product", ()))))
                      for job in gen.make_jobs(workload, seed))
    assert strata(1) == strata(2)


def test_relabel_keeps_the_group():
    p = zoo.make("triangle", (6, 9, 12))
    q = gen.relabel(p, gen.random.Random(3))
    assert fpgroup.format_presentation(q) != fpgroup.format_presentation(p)
    assert abelian.abelianization(q) == abelian.abelianization(p)


def test_cli_series_inputs_appear_exactly_twice():
    argvs = [tuple(job.args[0]) for job in gen.make_jobs("cli-small", 0)
             if job.args[0][0] == "series"]
    assert argvs and all(argvs.count(a) == 2 for a in argvs)


# --- closed forms -----------------------------------------------------------

def test_riemann_hurwitz_ranks():
    assert checks.commutator_rank((6, 6, 6, 6)) == 290
    assert checks.commutator_rank((10, 10, 10)) == 72
    assert checks.commutator_rank((6, 9, 12)) == 8
    assert checks.commutator_rank((3, 3, 3, 3, 3)) == 110


def test_free_product_rank_against_program():
    assert checks.free_product_rank(20, 20) == 361
    verdict = derived.derived_series(_z(20, 20)).verdict
    assert (verdict.kind, verdict.rank) == (derived.NON_ADORABLE, 361)


def test_orbifold_rank_against_program():
    verdict = derived.derived_series(zoo.make("triangle", (6, 9, 12))).verdict
    assert (verdict.kind, verdict.rank) == (derived.HALTED, checks.commutator_rank((6, 9, 12)))


def test_young_index_against_program():
    assert checks.young_index((1,) * 7) == 5040
    assert cosets.todd_coxeter(gen.coxeter_symmetric(7)).n_cosets == 5040
    blocks = (2, 1, 3)
    table = cosets.todd_coxeter(gen.coxeter_symmetric(6), gen._parabolic(blocks))
    assert table.n_cosets == checks.young_index(blocks) == 60


def test_torus_knot_alexander_against_program():
    delta = checks.torus_knot_alexander(3, 4)
    assert delta == {0: 1, 1: -1, 3: 1, 5: -1, 6: 1}
    assert max(delta) == 6
    knot = gen.braid_closure(3, gen._torus_braid(3, gen.random.Random(0)), "T(3,4)")
    assert checks.parse_laurent(str(alexander_polynomial(knot))) == delta


def test_parse_laurent():
    assert checks.parse_laurent("-2t^3 + t - 1") == {3: -2, 1: 1, 0: -1}
    assert checks.parse_laurent("1") == {0: 1}


def test_schreier_generator_count_against_program():
    p = zoo.make("triangle", (10, 10, 10))
    raw = rewriting.rewrite_presentation(p, cosets.commutator_coset_table(p))
    assert raw.n_generators == checks.schreier_generators(100, 2) == 101


def test_seifert_branches_against_program():
    for genus, cones, boundary in gen.SEIFERT_CASES:
        got = classify_seifert(SeifertData(genus, cones, boundary)).branch
        assert got == checks.seifert_branch(genus, cones, boundary), (genus, cones)


# --- output checks ----------------------------------------------------------

def test_checks_accept_right_and_reject_wrong_outputs():
    job = gen.Job("todd_coxeter", "S5", (gen.coxeter_symmetric(5), []), {"blocks": (1,) * 5})
    assert workloads.check(job, workloads.run(job)) == {"cosets": 120}
    with pytest.raises(workloads.CheckFailed):
        workloads.check(job, SimpleNamespace(complete=True, n_cosets=60))
    job = gen.Job("series", "Z5*Z7", (_z(5, 7),), {"product": (5, 7), "gens": 2})
    stages, verdict = workloads.run(job)
    workloads.check(job, (stages, verdict))
    wrong = derived.SeriesVerdict(derived.NON_ADORABLE, stage=1, rank=23)
    with pytest.raises(workloads.CheckFailed):
        workloads.check(job, (stages, wrong))


# --- tracer -----------------------------------------------------------------

def test_tracer_counts_spans_of_one_series_run():
    p = _z(12, 12)
    with tracer.Tracer() as tr:
        derived.derived_series(p)
    summary = tr.summary()
    calls = {name: int(row["calls"]) for name, row in summary.items()}
    assert calls == {
        "derived.derived_series": 1,
        "abelian.abelianization": 2,
        "abelian.abelianization_data": 3,  # two via abelianization, one for the coset table
        "abelian.smith_normal_form": 3,
        "cosets.commutator_coset_table": 1,
        "rewriting.rewrite_presentation": 1,
        "fpgroup.tietze_simplify": 1,
    }
    assert summary["rewriting.rewrite_presentation"]["raw_gens"] == 145
    assert summary["fpgroup.tietze_simplify"]["gens_removed"] == 145 - 121
    by_index = {i: s for i, s in enumerate(tr.spans)}
    for name, _, _, parent, _ in tr.spans:
        if name in ("fpgroup.tietze_simplify", "rewriting.rewrite_presentation",
                    "cosets.commutator_coset_table", "abelian.abelianization"):
            assert by_index[parent][0] == "derived.derived_series"


def test_tracer_patches_every_binding_and_restores_them():
    original = fpgroup.tietze_simplify
    with tracer.Tracer():
        wrapped = fpgroup.tietze_simplify
        assert wrapped is not original
        assert rewriting.tietze_simplify is wrapped
        assert derived.tietze_simplify is wrapped
        assert sys.modules["adorn"].tietze_simplify is wrapped
    for mod in (fpgroup, rewriting, derived, sys.modules["adorn"]):
        assert mod.tietze_simplify is original


def test_self_time_arithmetic():
    tr = tracer.Tracer()
    tr.spans.extend([
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, {"n": 2}],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 6.0, 0, {"n": 5}],
    ])
    s = tr.summary()
    assert s["a"]["self_s"] == 10 - 3 - 1
    assert s["b"]["self_s"] == (3 - 1) + 1 and s["b"]["calls"] == 2
    assert s["c"]["self_s"] == 1
    assert s["b"]["n"] == 7 and s["b"]["max_n"] == 5


def test_self_times_add_up_to_root_time():
    with tracer.Tracer() as tr:
        derived.derived_series(zoo.make("triangle", (6, 6, 6)))
    roots = sum(end - start for _, start, end, parent, _ in tr.spans if parent < 0)
    total_self = sum(row["self_s"] for row in tr.summary().values())
    assert total_self == pytest.approx(roots)


def test_every_declared_metric_has_a_source():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = {tracer.span_name(m, q) for m, q, _ in tracer.TARGETS}
    values = run.layer_metrics([m["name"] for m in declared["per_layer"]], {}, {}, 1.0, 1.0)
    for name in values:
        span, _, key = name.rpartition(".")
        assert span in spans or span in ("trace", "cli"), name
    assert [m["name"] for m in declared["workloads"]] == list(gen.WORKLOADS)


# --- the command --------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_result_line(trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli-small",
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in declared[kind]}
    if trace:
        assert result["metrics"]["cli.cache_hit_ratio"]["value"] == 0.5
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
