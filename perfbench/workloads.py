"""Job runners and output checks.

``run(job)`` is the only code inside the timed region: one call into the
program.  ``check(job, out)`` runs after the clock has stopped; it compares
the output with the closed-form answers in ``checks`` and returns the
job's shape record (verdict and stage shapes) for the golden record.
"""

from __future__ import annotations

import contextlib
import io
import json

import checks
from adorn import abelian, cli, cosets, derived, rewriting, zoo
from gen import Job


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue() + err.getvalue()


def run(job: Job):
    """Run one job; everything here is timed."""
    if job.kind == "series":
        return derived.derived_series(job.args[0])
    if job.kind == "h1raw":
        p = job.args[0]
        table = cosets.commutator_coset_table(p)
        raw = rewriting.rewrite_presentation(p, table)
        return table.n_cosets, raw, abelian.abelianization(raw)
    if job.kind == "todd_coxeter":
        return cosets.todd_coxeter(*job.args)
    if job.kind == "filtration":
        return derived.verify_filtration(*job.args)
    if job.kind == "free_product":
        return zoo.free_product_verdict(*job.args)
    if job.kind == "cli":
        return _run_cli(job.args[0])
    raise ValueError(f"unknown job kind {job.kind!r}")


def _expected_rank(meta: dict) -> int:
    if "cones" in meta:
        return checks.commutator_rank(meta["cones"])
    return checks.free_product_rank(*meta["product"])


def _expected_index(meta: dict) -> int:
    if "cones" in meta:
        return checks.orbifold_quotient(meta["cones"])[0]
    m, n = meta["product"]
    return m * n


def _check_series_verdict(meta: dict, kind: str, stage, rank) -> None:
    want = _expected_rank(meta)
    if "cones" in meta:
        _require(kind == derived.HALTED, f"verdict {kind}, want {derived.HALTED}")
    else:
        _require(kind == derived.NON_ADORABLE, f"verdict {kind}, want {derived.NON_ADORABLE}")
    _require(stage == 1 and rank == want, f"stage {stage} rank {rank}, want stage 1 rank {want}")


def _stage_shapes(stages) -> list:
    return [[s.n_generators, s.n_relators, s.total_length, str(s.invariants)]
            for s in stages]


def _check_series(job: Job, result) -> dict:
    stages, verdict = result
    _check_series_verdict(job.meta, verdict.kind, verdict.stage, verdict.rank)
    _require(stages[0].invariants.order() == _expected_index(job.meta),
             "stage-0 quotient order differs from the closed form")
    if "product" in job.meta:
        _require(stages[1].n_relators == 0 and stages[1].n_generators == verdict.rank,
                 "commutator subgroup of Z_m*Z_n not presented as free")
    return {"verdict": str(verdict), "stages": _stage_shapes(stages)}


def _check_h1raw(job: Job, result) -> dict:
    index, raw, inv = result
    _require(index == _expected_index(job.meta), f"index {index}")
    want_gens = checks.schreier_generators(index, job.meta["gens"])
    _require(raw.n_generators == want_gens,
             f"{raw.n_generators} Schreier generators, want {want_gens}")
    _require(inv.rank == _expected_rank(job.meta), f"raw H1 {inv}")
    if "product" in job.meta:
        _require(not inv.torsion, f"raw H1 {inv} has torsion")
    return {"index": index, "raw": [raw.n_generators, raw.n_relators,
                                    raw.total_relator_length, str(inv)]}


def _check_todd_coxeter(job: Job, table) -> dict:
    want = checks.young_index(job.meta["blocks"])
    _require(table.complete and table.n_cosets == want,
             f"{table.n_cosets} cosets, want {want}")
    return {"cosets": table.n_cosets}


def _check_filtration(job: Job, witness) -> dict:
    levels = tuple((lv.index_in_group, lv.quotient_order) for lv in witness.levels)
    _require(levels == job.meta["levels"], f"levels {levels}")
    _require(witness.terminal_trivial == job.meta["terminal_trivial"], "terminal level")
    return {"levels": [list(lv) + [str(w.quotient)]
                       for lv, w in zip(levels, witness.levels)]}


def _check_free_product(job: Job, verdict) -> dict:
    _require(verdict.kind == job.meta["kind"], f"verdict {verdict.kind}")
    return {"verdict": verdict.kind, "doa": verdict.doa}


def _check_cli(job: Job, result) -> dict:
    code, text = result
    meta = job.meta
    _require(code == 0, f"exit code {code}: {text[-200:]}")
    if meta["command"] == "verify-corpus":
        _require("FAIL" not in text, "corpus check failed")
        return {"checks": text.count("\n")}
    report = json.loads(text)
    verdict = report["verdict"]
    if meta["command"] == "series":
        detail = verdict["detail"]
        _check_series_verdict(meta, verdict["kind"], detail.get("stage"), detail.get("rank"))
        return {"verdict": verdict, "stages": report["stages"]}
    if meta["command"] == "abelianize":
        detail = verdict["detail"]
        _require(detail["rank"] == 0, f"rank {detail['rank']}")
        torsion = tuple(detail["torsion"])
        if "product" in meta:
            _require(torsion == checks.abelian_chain(*meta["product"]), f"torsion {torsion}")
        else:
            order = 1
            for t in torsion:
                order *= t
            _require(order == checks.orbifold_quotient(meta["cones"])[0], f"torsion {torsion}")
        _require(all(b % a == 0 for a, b in zip(torsion, torsion[1:])), "not a divisor chain")
        return {"invariants": detail["invariants"]}
    if meta["command"] == "classify-seifert":
        want = checks.seifert_branch(meta["genus"], meta["cones"], meta["boundary"])
        _require(verdict["kind"] == want, f"branch {verdict['kind']}, want {want}")
        return {"branch": verdict["kind"]}
    if meta["command"] == "alexander":
        got = checks.parse_laurent(verdict["detail"]["alexander"])
        p, q = meta["torus"]
        _require(got == checks.torus_knot_alexander(p, q), f"Delta {got}")
        _require(verdict["detail"]["degree"] == (p - 1) * (q - 1), "degree")
        return {"alexander": verdict["detail"]["alexander"]}
    raise ValueError(f"unknown command {meta['command']!r}")


_CHECKS = {
    "series": _check_series,
    "h1raw": _check_h1raw,
    "todd_coxeter": _check_todd_coxeter,
    "filtration": _check_filtration,
    "free_product": _check_free_product,
    "cli": _check_cli,
}


def check(job: Job, out) -> dict:
    """Check one output; raises CheckFailed, returns the shape record."""
    return _CHECKS[job.kind](job, out)
