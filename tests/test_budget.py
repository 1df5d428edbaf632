"""The one resource budget: construction, and the clock check in each layer.

The layer tests replace the clock ``Budget`` reads by one that passes the
deadline after a fixed number of reads, so where a run stops is
deterministic."""

import math

import pytest

from adorn import fpgroup
from adorn.abelian import IntMatrix, smith_normal_form
from adorn.cosets import CapExceeded, _Enumerator, commutator_coset_table, todd_coxeter
from adorn.derived import INCONCLUSIVE, derived_series, step_cache_key, verify_filtration
from adorn.fpgroup import DEFAULT_BUDGET, Budget, parse_presentation, tietze_simplify
from adorn.rewriting import rewrite_presentation
from adorn.zoo import (CannotCertifyFactorTriviality, certify_nontrivial,
                       free_product_verdict, make)

from oracles import wide

SETTINGS = ("max_depth", "max_cosets", "max_deductions", "max_generators",
            "max_total_relator_length", "max_passes", "wall_clock_seconds")


def expire_after(monkeypatch, k):
    """Make the first k clock reads return 0 and every later one infinity."""
    reads = 0

    def clock():
        nonlocal reads
        reads += 1
        return 0.0 if reads <= k else math.inf

    monkeypatch.setattr(fpgroup, "clock", clock)


def test_budget_is_keyword_only():
    with pytest.raises(TypeError):
        Budget(300, 10**6)
    assert Budget(max_cosets=300).max_cosets == 300


@pytest.mark.parametrize("name", SETTINGS)
@pytest.mark.parametrize("value", [0, -1, math.nan])
def test_budget_rejects_non_positive_and_nan(name, value):
    with pytest.raises(ValueError, match=name):
        Budget(**{name: value})


def test_deadline_is_set_by_start_only():
    with pytest.raises(TypeError):
        Budget(deadline=1.0)
    assert DEFAULT_BUDGET.deadline == math.inf
    DEFAULT_BUDGET.check("any")  # an unstarted budget never runs out of time
    started = Budget(wall_clock_seconds=5).start()
    assert started.deadline <= fpgroup.clock() + 5
    assert started == Budget(wall_clock_seconds=5)  # the deadline is not a setting


def test_start_never_extends_a_deadline(monkeypatch):
    expire_after(monkeypatch, 1)
    started = Budget(wall_clock_seconds=5).start()
    assert started.start() is started
    assert started.start().start().deadline == 5.0


def test_cap_exceeded_is_one_exception():
    import adorn
    from adorn import cosets
    assert adorn.CapExceeded is cosets.CapExceeded is fpgroup.CapExceeded
    with pytest.raises(CapExceeded, match="coset limit 50 reached") as info:
        todd_coxeter(make("free", (2,)), [], Budget(max_cosets=50))
    assert info.value.layer == "todd_coxeter"


def test_step_cache_key_covers_only_what_shapes_a_step():
    p = make("sl2z")
    key = step_cache_key(p, DEFAULT_BUDGET)
    assert step_cache_key(p, Budget(max_depth=2, max_cosets=10, max_deductions=7,
                                    wall_clock_seconds=0.5).start()) == key
    for name in ("max_generators", "max_total_relator_length", "max_passes"):
        assert step_cache_key(p, Budget(**{name: 1000})) != key, name


def test_smith_normal_form_checks_each_pivot(monkeypatch):
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    expire_after(monkeypatch, 3)  # start, then two pivot steps
    with pytest.raises(CapExceeded) as info:
        smith_normal_form(m, Budget().start())
    assert info.value.layer == "smith_normal_form"


def test_rewrite_checks_each_relator(monkeypatch):
    p = make("triangle", (2, 3, 4))
    table = commutator_coset_table(p)
    expire_after(monkeypatch, 2)  # start, then the first relator
    with pytest.raises(CapExceeded) as info:
        rewrite_presentation(p, table, Budget().start())
    assert info.value.layer == "rewrite_presentation"


def test_commutator_table_checks_each_block_after_the_first(monkeypatch):
    expire_after(monkeypatch, 11)  # start, ten SNF pivots; 1,024 cosets, one block
    assert commutator_coset_table(wide(10), Budget().start()).n_cosets == 1024
    expire_after(monkeypatch, 12)  # start, eleven SNF pivots, then coset 1,024
    with pytest.raises(CapExceeded) as info:
        commutator_coset_table(wide(11), Budget().start())
    assert info.value.layer == "commutator_coset_table"


def test_tietze_checks_each_elimination(monkeypatch):
    p = make("fuchsian", (0, (4, 4, 4, 4)))
    raw = rewrite_presentation(p, commutator_coset_table(p))
    expire_after(monkeypatch, 5)  # start, the first pass, three eliminations
    with pytest.raises(CapExceeded) as info:
        tietze_simplify(raw, Budget().start())
    assert info.value.layer == "tietze_simplify"


def test_tietze_checks_each_blocked_candidate(monkeypatch):
    # the raw rewrite starts at 386 letters after dropping duplicates, and
    # the cap blocks every one of its 386 candidates
    p = make("fuchsian", (0, (4, 4, 4, 4)))
    raw = rewrite_presentation(p, commutator_coset_table(p))
    expire_after(monkeypatch, 10)  # start, the first pass, eight candidates
    with pytest.raises(CapExceeded) as info:
        tietze_simplify(raw, Budget(max_total_relator_length=321).start())
    assert info.value.layer == "tietze_simplify"
    assert info.traceback[-2].name == "tietze_simplify"
    assert info.traceback[-2].locals["hit"]


def test_tietze_checks_each_pass(monkeypatch):
    # every generator occurs twice in each relator: passes, no eliminations
    p = parse_presentation("< a, b | a b a b^-1, a b a b^2 >")
    expire_after(monkeypatch, 4)  # start, the first pass, its two subword scans
    with pytest.raises(CapExceeded) as info:
        tietze_simplify(p, Budget().start())
    assert info.value.layer == "tietze_simplify"


@pytest.mark.parametrize("reads", [1, 2, 3, 4])
def test_tietze_checks_while_indexing_a_large_rewrite(monkeypatch, reads):
    # the raw rewrite of wide(10) has 10,240 relators, half of them
    # duplicates, on 9,217 generators: after the start, the index reads the
    # clock at relators 4,096 and 8,192, then at generators 4,096 and 8,192,
    # all before the first pass
    p = wide(10)
    raw = rewrite_presentation(p, commutator_coset_table(p))
    expire_after(monkeypatch, reads)
    with pytest.raises(CapExceeded) as info:
        tietze_simplify(raw, Budget().start())
    assert info.value.layer == "tietze_simplify"
    indexing = next(e for e in info.traceback if e.name == "tietze_simplify")
    assert "passes" not in indexing.locals  # the pass loop never began


def test_todd_coxeter_checks_every_4096_deductions(monkeypatch):
    s6 = parse_presentation(  # 720 cosets, 7200 deductions
        "< a, b, c, d, e | a^2, b^2, c^2, d^2, e^2, (a b)^3, (b c)^3, (c d)^3,"
        " (d e)^3, (a c)^2, (a d)^2, (a e)^2, (b d)^2, (b e)^2, (c e)^2 >")
    assert todd_coxeter(s6, (), Budget().start()).n_cosets == 720
    expire_after(monkeypatch, 1)  # the start
    e = _Enumerator(s6.n_generators, s6.relators, Budget().start())
    with pytest.raises(CapExceeded) as info:
        e.run(())
    assert info.value.layer == "todd_coxeter"
    assert e.deductions_done == 4097


def test_series_inconclusive_names_the_layer(monkeypatch):
    # stage 0 takes 13 checks (SNF twice, 5 relators rewritten), Tietze
    # then about 360
    p = make("fuchsian", (0, (6, 6, 6, 6)))
    expire_after(monkeypatch, 100)
    stages, verdict = derived_series(p)
    assert verdict.kind == INCONCLUSIVE
    assert verdict.reason == "tietze_simplify"
    assert verdict.limits_hit == ("wall_clock",)
    assert verdict.stage == 0 and len(stages) == 1
    assert str(verdict) == "Inconclusive(depth=0, limits=wall_clock@tietze_simplify)"
    assert verdict.to_dict()["detail"]["reason"] == "tietze_simplify"


def test_filtration_out_of_time_is_not_a_failed_witness(monkeypatch):
    # certifying Z/40 x Z/40 abelian reads the clock at start, one Tietze
    # pass and its three subword scans, two SNF pivots, then after 4096 of
    # its 6400 deductions
    p = parse_presentation("< a, b | a^40, b^40, a b a^-1 b^-1 >")
    assert verify_filtration(p, [[]]).terminal_trivial
    expire_after(monkeypatch, 7)
    with pytest.raises(CapExceeded) as info:
        verify_filtration(p, [[]])
    assert info.value.layer == "todd_coxeter"


FACTOR_CALLS = pytest.mark.parametrize("call", [
    lambda budget: free_product_verdict(make("sl3z"), make("cyclic", (2,)), budget),
    lambda budget: certify_nontrivial(make("sl3z"), budget),
], ids=["free_product_verdict", "certify_nontrivial"])


@FACTOR_CALLS
def test_factor_certification_is_bounded_by_the_clock(monkeypatch, call):
    # sl3z is perfect and infinite: only enumeration could certify it, and
    # the clock, started on entry, lets its abelianization finish and stops
    # the enumeration after 4096 deductions
    expire_after(monkeypatch, 7)  # the start and six SNF pivot steps
    with pytest.raises(CannotCertifyFactorTriviality) as info:
        call(Budget())
    cause = info.value.__cause__
    assert isinstance(cause, CapExceeded)
    assert cause.layer == "todd_coxeter"
    assert "wall clock" in str(cause)


@FACTOR_CALLS
def test_factor_abelianization_is_bounded_by_the_clock(monkeypatch, call):
    expire_after(monkeypatch, 1)  # the start; the first SNF pivot step is late
    with pytest.raises(CapExceeded) as info:
        call(Budget())
    assert info.value.layer == "smith_normal_form"
