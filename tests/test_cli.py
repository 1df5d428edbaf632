import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields

import pytest

from adorn.cli import _budget, build_parser, main
from adorn.fpgroup import DEFAULT_BUDGET, Budget
from adorn.zoo import FAMILIES

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus", "paper.json")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv", [["series"], ["verify-corpus", "corpus.json"]])
def test_every_budget_setting_has_a_flag(argv):
    # a limit that no flag sets is a limit no run can change
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    default = _budget(parser.parse_args(argv))
    flagged = set()
    for action in sub.choices[argv[0]]._actions:
        if action.type in (int, float):
            budget = _budget(parser.parse_args([*argv, action.option_strings[0], "7"]))
            changed = [f.name for f in fields(Budget) if f.init
                       and getattr(budget, f.name) != getattr(default, f.name)]
            assert len(changed) == 1 and getattr(budget, changed[0]) == 7, action
            flagged.update(changed)
    assert flagged == {f.name for f in fields(Budget) if f.init}


def test_every_budget_setting_is_a_json_limits_key(capsys):
    code, out, _ = run(capsys, ["series", "< a | a^2 >", "--json"])
    assert code == 0
    assert json.loads(out)["limits"] == {
        "timeout_seconds" if f.name == "wall_clock_seconds" else f.name:
        getattr(DEFAULT_BUDGET, f.name) for f in fields(Budget) if f.init}


def _outcome(capsys, argv):
    """Exit code, stdout without timings, and stderr of one call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    text = out.out
    if text.startswith("{"):
        report = json.loads(text)
        report.pop("timings_ms")
        text = json.dumps(report)
    return code, text, out.err


@pytest.mark.parametrize("calls", [
    [["series", "< a | a^50 >", "--max-cosets", "10", "--strict"],
     ["series", "< a | a^50 >", "--max-cosets", "10"]],
    [["series", "--zoo", "sl2z", "--json"], ["series", "--zoo", "sl2z"]],
    [["classify-seifert", "--genus", "0", "--cones", "2,3", "--boundary"],
     ["classify-seifert", "--genus", "0", "--cones", "2,3"]],
    [["series", "--no-such-flag"], ["abelianize", "--zoo", "sl2z"]],
], ids=["strict", "json", "boundary", "bad-argv"])
def test_reused_parser_answers_as_a_fresh_one(capsys, calls):
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(_outcome(capsys, argv))
    build_parser.cache_clear()
    assert [_outcome(capsys, argv) for argv in calls] == alone
    assert alone[0] != alone[1]  # the first call's flag changes its answer
    assert alone[-1][0] == 0


def test_abelianize_zoo(capsys):
    code, out, _ = run(capsys, ["abelianize", "--zoo", "sl2z"])
    assert code == 0
    assert out.strip() == "Z/12"


def test_abelianize_inline(capsys):
    code, out, _ = run(capsys, ["abelianize", "< a | >"])
    assert code == 0
    assert out.strip() == "Z"


def test_abelianize_zoo_params(capsys):
    code, out, _ = run(capsys, ["abelianize", "--zoo", "triangle",
                                "--params", "2,3,5"])
    assert code == 0
    assert out.strip() == "trivial"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, ["abelianize", "< a | b^2 >"])
    assert code == 2
    assert "undeclared generator" in err


def test_series_human_output(capsys):
    code, out, _ = run(capsys, ["series", "--zoo", "dihedral_inf"])
    assert code == 0
    assert "AdorableCertified(doa=2)" in out
    assert "stage 0" in out and "stage 1" in out


def test_series_json_schema(capsys):
    code, out, _ = run(capsys, ["series", "--zoo", "sl2z", "--json"])
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"input", "command", "limits", "stages", "verdict",
                           "timings_ms"}
    assert report["command"] == "series"
    assert report["verdict"]["kind"] == "NonAdorableCertified"
    assert report["stages"][0]["invariants"] == "Z/12"
    assert report["stages"][1]["flags"] == ["CertifiedFree"]
    b = DEFAULT_BUDGET
    assert report["limits"] == {
        "max_depth": b.max_depth, "max_cosets": b.max_cosets,
        "max_generators": b.max_generators,
        "max_total_relator_length": b.max_total_relator_length,
        "timeout_seconds": b.wall_clock_seconds}


def test_series_inline_psl2z(capsys):
    code, out, _ = run(capsys, ["series", "< a, b | a^2, b^3 >"])
    assert code == 0
    assert "NonAdorableCertified" in out


def test_series_strict_inconclusive_exit(capsys):
    code, out, _ = run(capsys, ["series", "< a | a^50 >", "--max-cosets", "10",
                                "--strict"])
    assert code == 3
    code, _, _ = run(capsys, ["series", "< a | a^50 >", "--max-cosets", "10"])
    assert code == 0


def test_series_trefoil_halted(capsys):
    code, out, _ = run(capsys, ["series", "--zoo", "trefoil"])
    assert code == 0
    assert "HaltedInfiniteAbelianization" in out


def test_alexander_cli(capsys):
    code, out, _ = run(capsys, ["alexander", "--zoo", "trefoil"])
    assert code == 0
    assert out.strip() == "Δ = t^2 - t + 1, NotAdorable"


def test_alexander_rejects_non_knot(capsys):
    code, _, err = run(capsys, ["alexander", "--zoo", "cyclic", "--params", "4"])
    assert code == 2
    assert "knot" in err


def test_classify_seifert_cli(capsys):
    code, out, _ = run(capsys, ["classify-seifert", "--genus", "0",
                                "--cones", "2,3,7"])
    assert code == 0
    assert out.startswith("Perfect")


@pytest.mark.parametrize("cones", ["2,x", "1,3"])
def test_classify_seifert_rejects_bad_cones(capsys, cones):
    code, out, err = run(capsys, ["classify-seifert", "--genus", "0", "--cones", cones])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_classify_seifert_json(capsys):
    code, out, _ = run(capsys, ["classify-seifert", "--genus", "2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["kind"] == "NonAdorable"


def test_zoo_listing_and_presentation(capsys):
    code, out, _ = run(capsys, ["zoo"])
    assert code == 0
    assert "sl2z" in out and "figure_eight" in out
    code, out, _ = run(capsys, ["zoo", "braid", "--params", "3"])
    assert code == 0
    assert out.strip() == "< s1, s2 | s1 s2 s1 s2^-1 s1^-1 s2^-1 >"


def test_zoo_nested_free_product(capsys):
    code, out, _ = run(capsys, ["series", "--zoo", "free_product",
                                "--params", "cyclic(2),cyclic(3)"])
    assert code == 0
    assert "NonAdorableCertified" in out


def test_json_reports_reparse(capsys):
    for argv in (["abelianize", "--zoo", "sl2z", "--json"],
                 ["alexander", "--zoo", "figure_eight", "--json"],
                 ["zoo", "trefoil", "--json"],
                 ["classify-seifert", "--genus", "1", "--json"]):
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"input", "command", "limits", "stages",
                               "verdict", "timings_ms"}


def test_verify_corpus_passes(capsys):
    code, out, _ = run(capsys, ["verify-corpus", CORPUS])
    assert code == 0
    assert "FAIL" not in out
    assert "pass sl2z" in out


def test_verify_corpus_detects_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([
        {"name": "wrong", "input": {"zoo": "sl2z"},
         "expect": {"abelianization": "Z/13"}}]))
    code, out, _ = run(capsys, [
        "verify-corpus", str(bad)])
    assert code == 1
    assert "FAIL" in out


def test_verify_corpus_prints_one_row_per_stopped_check(tmp_path, capsys):
    corpus = tmp_path / "c.json"
    corpus.write_text(json.dumps([
        {"name": "sl2z", "input": {"zoo": "sl2z"},
         "expect": {"abelianization": "Z/12", "verdict": "NonAdorableCertified"}},
        {"name": "trefoil", "input": "< a, b | a b a b^-1 a^-1 b^-1 >",
         "expect": {"abelianization": "Z", "alexander": "t^2 - t + 1"}}]))
    code, out, _ = run(capsys, ["verify-corpus", str(corpus)])
    assert (code, out.count("pass")) == (0, 4)
    code, out, _ = run(capsys, ["verify-corpus", str(corpus), "--timeout", "1e-9"])
    assert code == 1
    stopped = "'Inconclusive(wall_clock@smith_normal_form)'"
    assert out.splitlines() == [
        f"FAIL sl2z: abelianization expected 'Z/12' got {stopped}",
        f"FAIL sl2z: verdict expected 'NonAdorableCertified' got {stopped}",
        f"FAIL trefoil: abelianization expected 'Z' got {stopped}",
        f"FAIL trefoil: alexander expected 't^2 - t + 1' got {stopped}"]


def test_verify_corpus_names_a_limit_that_stopped_no_layer(tmp_path, capsys):
    corpus = tmp_path / "c.json"
    corpus.write_text(json.dumps([
        {"name": "s4", "input": "< a, b | a^2, b^3, (a b)^4 >",
         "expect": {"verdict": "AdorableCertified", "doa": 3}}]))
    code, out, _ = run(capsys, ["verify-corpus", str(corpus)])
    assert (code, out.count("pass")) == (0, 2)
    code, out, _ = run(capsys, ["verify-corpus", str(corpus), "--max-depth", "1"])
    assert code == 1
    assert out.splitlines() == [
        "FAIL s4: verdict expected 'AdorableCertified' got 'Inconclusive(max_depth)'",
        "FAIL s4: doa expected '3' got 'None'"]


def test_verify_corpus_rejects_unknown_keys(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([
        {"name": "odd", "input": "< a | >", "expect": {"order": 1}}]))
    code, _, err = run(capsys, ["verify-corpus", str(bad)])
    assert code == 2
    assert "unknown expectation keys" in err


def test_cache_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ADORN_CACHE_DIR", str(tmp_path / "cache"))
    code, out1, _ = run(capsys, ["series", "--zoo", "sl2z", "--json"])
    assert code == 0
    files = list((tmp_path / "cache").glob("*.json"))
    assert files  # the rewrite step was persisted
    code, out2, _ = run(capsys, ["series", "--zoo", "sl2z", "--json"])
    assert code == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["stages"] == r2["stages"]
    assert r1["verdict"] == r2["verdict"]


def test_cache_dir_malformed_entry_is_recomputed(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("ADORN_CACHE_DIR", str(cache))
    code, out1, _ = run(capsys, ["series", "--zoo", "sl2z", "--json"])
    assert code == 0
    (entry,) = cache.glob("*.json")
    good = json.loads(entry.read_text())
    entry.write_text(json.dumps({"hit_caps": False}))
    code, out2, err = run(capsys, ["series", "--zoo", "sl2z", "--json"])
    assert code == 0
    assert err == ""
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r2["verdict"]["kind"] == "NonAdorableCertified"
    assert (r1["stages"], r1["verdict"]) == (r2["stages"], r2["verdict"])
    assert json.loads(entry.read_text()) == good
    assert [p.name for p in cache.iterdir()] == [entry.name]  # no temp files left


def test_seed_never_affects_results(capsys):
    # determinism: repeated runs emit identical stage/verdict payloads
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["series", "--zoo", "sl2z", "--json"])
        assert code == 0
        report = json.loads(out)
        report.pop("timings_ms")
        outs.append(report)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", [["series", "< a | a^12 >"],
                                     ["verify-corpus", CORPUS]])
def test_nan_timeout_is_bad_input(capsys, command):
    # a NaN deadline would never expire
    code, _, err = run(capsys, command + ["--timeout", "nan"])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("entry", [{"zoo": "fuchsian", "params": [0]},
                                   {"zoo": "cyclic", "params": ["x"]},
                                   {"zoo": "cyclic", "params": [[2]]}])
def test_verify_corpus_rejects_malformed_zoo_entry(tmp_path, capsys, entry):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"name": "bad", "input": entry,
                                "expect": {"abelianization": "Z"}}]))
    code, out, err = run(capsys, ["verify-corpus", str(bad)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("entry", [{"seifert": {"genus": 0, "cones": ["x"]}},
                                   {"seifert": {"genus": "0", "cones": [2, 3, 5]}},
                                   {"seifert": {"genus": 0, "cones": [1]}},
                                   {"seifert": 5}])
def test_verify_corpus_rejects_malformed_seifert_entry(tmp_path, capsys, entry):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"name": "s", "input": entry,
                                "expect": {"seifert_branch": "Perfect"}}]))
    code, out, err = run(capsys, ["verify-corpus", str(bad)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


GOOD_ENTRY = {"name": "ok", "input": "< a | a^2 >", "expect": {"abelianization": "Z/2"}}


@pytest.mark.parametrize("entries,named", [
    ([1], "entry 0"),
    ([GOOD_ENTRY, "oops"], "entry 1"),
    ([{"name": "e", "input": "< a | >", "expect": ["abelianization"]}], "'e'"),
    ([GOOD_ENTRY, {"name": "f", "input": "< a | >", "expect": 5}], "'f'"),
], ids=["int-entry", "string-entry", "list-expect", "int-expect"])
def test_verify_corpus_rejects_malformed_entry(tmp_path, capsys, entries, named):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entries))
    code, out, err = run(capsys, ["verify-corpus", str(bad)])
    assert code == 2
    assert "FAIL" not in out
    assert err.startswith("error:")
    assert str(bad) in err and named in err


def test_zoo_params_decode_alike_on_cli_and_corpus(tmp_path, capsys):
    code, out, _ = run(capsys, ["abelianize", "--zoo", "fuchsian", "--params", "0,2,4,4"])
    assert (code, out.strip()) == (0, "Z/2 ⊕ Z/4")
    corpus = tmp_path / "c.json"
    corpus.write_text(json.dumps([
        {"name": "f", "input": {"zoo": "fuchsian", "params": [0, [2, 4, 4]]},
         "expect": {"abelianization": "Z/2 ⊕ Z/4"}}]))
    code, out, _ = run(capsys, ["verify-corpus", str(corpus)])
    assert (code, out.count("pass")) == (0, 1)


def test_cache_entry_shared_across_enumeration_and_clock_limits(tmp_path, capsys,
                                                               monkeypatch):
    # a step never enumerates and its result does not depend on the clock
    cache = tmp_path / "cache"
    monkeypatch.setenv("ADORN_CACHE_DIR", str(cache))
    for extra in ([], ["--max-cosets", "10000"], ["--timeout", "30"], ["--max-depth", "3"]):
        code, _, _ = run(capsys, ["series", "--zoo", "sl2z"] + extra)
        assert code == 0
        assert len(list(cache.glob("*.json"))) == 1
    code, _, _ = run(capsys, ["series", "--zoo", "sl2z", "--max-length", "1000"])
    assert code == 0
    assert len(list(cache.glob("*.json"))) == 2


def _corpus_zoo(family, params):
    return {"zoo": family, "params": params}


# family: (--params CSV, the same parameters in a corpus object)
ZOO_INPUTS = {
    "free": ("2", [2]),
    "cyclic": ("6", [6]),
    "dihedral_inf": ("", []),
    "free_product": ("cyclic(2), triangle(2,3,7)",
                     [_corpus_zoo("cyclic", [2]), "triangle(2,3,7)"]),
    "direct_product": ("cyclic(4),free_product(cyclic(2),cyclic(3))",
                       [_corpus_zoo("cyclic", [4]),
                        _corpus_zoo("free_product", [_corpus_zoo("cyclic", [2]),
                                                     _corpus_zoo("cyclic", [3])])]),
    "braid": ("4", [4]),
    "torus_knot": ("2,5", [2, 5]),
    "sl2z": ("", []),
    "triangle": ("2,4,6", [2, 4, 6]),
    "surface": ("2", [2]),
    "klein_bottle": ("", []),
    "fuchsian": ("1,2,4", [1, [2, 4]]),
    "baumslag_solitar": ("2,4", [2, 4]),
    "trefoil": ("", []),
    "figure_eight": ("", []),
    "sl3z": ("", []),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_decodes_alike_on_cli_and_corpus(tmp_path, capsys, family):
    csv, params = ZOO_INPUTS[family]
    code, out, _ = run(capsys, ["abelianize", "--zoo", family, "--params", csv, "--json"])
    assert code == 0
    invariants = json.loads(out)["verdict"]["detail"]["invariants"]
    corpus = tmp_path / "c.json"
    corpus.write_text(json.dumps([{"name": family, "input": _corpus_zoo(family, params),
                                   "expect": {"abelianization": invariants}}]))
    code, out, _ = run(capsys, ["verify-corpus", str(corpus)])
    assert (code, out.count("pass"), out.count("FAIL")) == (0, 1, 0)


@pytest.mark.parametrize("family,csv", [("cyclic", "2,3"), ("triangle", "2,3,7,9"),
                                        ("sl2z", "7")])
def test_zoo_params_reject_extra_values(capsys, family, csv):
    for argv in (["zoo", family, "--params", csv],
                 ["abelianize", "--zoo", family, "--params", csv]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "too many parameters" in err


@pytest.mark.parametrize("params", [[2.7], [True], ["5"], "12"])
def test_verify_corpus_rejects_a_zoo_parameter_that_is_not_an_int(tmp_path, capsys,
                                                                 params):
    # each used to be accepted: as Z/2, as the trivial group, as Z/5, and as
    # cyclic(1) read from the characters of "12"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"name": "c", "input": _corpus_zoo("cyclic", params),
                                "expect": {"abelianization": "Z/2"}}]))
    code, out, err = run(capsys, ["verify-corpus", str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_python_m_adorn_runs_the_cli(capsys):
    # the way a user runs the package, through adorn/__main__.py
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "adorn", "zoo", "--json"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    code, out, _ = run(capsys, ["zoo", "--json"])
    assert code == 0
    reports = [json.loads(done.stdout), json.loads(out)]
    for report in reports:
        report.pop("timings_ms")
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", [["zoo", "free", "--params", "-1"],
                                  ["abelianize", "--zoo", "free", "--params", "-30"]])
def test_zoo_rejects_a_negative_free_rank(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "free(n) needs n >= 0" in err


def test_import_loads_no_fractions_module():
    # the Seifert classifier compares 1/p + 1/q + 1/r with 1 in integers
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", "import sys, adorn; "
                           "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
