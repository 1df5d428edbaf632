import json
import os

import pytest

from adorn.cli import main

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus", "paper.json")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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
    assert report["limits"]["max_depth"] == 6


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
