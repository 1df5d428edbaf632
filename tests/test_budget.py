"""The one resource budget: construction, and the clock check in each layer.

The layer tests replace the clock ``Budget`` reads by one that passes the
deadline after a fixed number of reads, so where a run stops is
deterministic."""

import ast
import json
import math
import pathlib

import pytest

from adorn import abelian, cosets, fpgroup, rewriting
from adorn.abelian import IntMatrix, relator_matrix, smith_normal_form
from adorn.cli import main
from adorn.cosets import (CapExceeded, CosetTable, _Enumerator, commutator_coset_table,
                          todd_coxeter)
from adorn.derived import (INCONCLUSIVE, QuotientNotAbelian, derived_series,
                           step_cache_key, verify_filtration)
from adorn.fpgroup import (DEFAULT_BUDGET, INDEX_BLOCK, Budget, GroupPresentation, Word,
                           parse_presentation, tietze_simplify)
from adorn.rewriting import rewrite_presentation
from adorn.zoo import (CannotCertifyFactorTriviality, certify_nontrivial,
                       free_product_verdict, make)

from oracles import symmetric, wide

SETTINGS = ("max_depth", "max_cosets", "max_generators", "max_total_relator_length",
            "wall_clock_seconds")


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
    assert adorn.CapExceeded is cosets.CapExceeded is fpgroup.CapExceeded
    with pytest.raises(CapExceeded, match="coset limit 50 reached") as info:
        todd_coxeter(make("free", (2,)), [], Budget(max_cosets=50))
    assert info.value.layer == "todd_coxeter"
    assert info.value.limit == "max_cosets"


LIMITS = {"wall_clock", "max_cosets"}  # the spellings of ``limits_hit``
PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "adorn"


def _cap_exceeded_calls():
    """Each ``CapExceeded(...)`` call in the package, with its file."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "CapExceeded"):
                yield path.name, node


def test_every_cap_exceeded_names_its_limit():
    sites = []
    for name, call in _cap_exceeded_calls():
        args = dict(zip(("message", "layer", "limit"), call.args))
        args.update((k.arg, k.value) for k in call.keywords)
        where = f"{name}:{call.lineno}"
        assert "layer" in args, f"{where} raises CapExceeded without a layer"
        limit = args.get("limit")
        assert isinstance(limit, ast.Constant) and limit.value in LIMITS, (
            f"{where} raises CapExceeded without a literal limit in {sorted(LIMITS)}")
        sites.append(where)
    # Budget.check, the Todd-Coxeter coset cap, the commutator table's cap:
    # a new raise site must be looked at, and this count raised with it
    assert len(sites) == 3, sites


def _todd_coxeter_callers():
    """``module.function`` for each ``todd_coxeter(...)`` call in the
    package, once per function that encloses the call."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                            and node.func.id == "todd_coxeter"):
                        yield f"{path.stem}.{func.name}"


def test_order_proofs_share_one_enumeration_route():
    # every order bound goes through cosets.order_exceeds (its subgroup
    # probe, then the whole group); the filtration witness enumerates its
    # levels; the zoo neither enumerates nor narrows a budget itself
    assert sorted(_todd_coxeter_callers()) == [
        "cosets.order_exceeds", "cosets.order_exceeds", "derived.verify_filtration"]
    zoo_tree = ast.parse((PACKAGE / "zoo.py").read_text())
    imported = {alias.name for node in ast.walk(zoo_tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"replace", "todd_coxeter"}


def test_step_cache_key_covers_only_what_shapes_a_step():
    p = make("sl2z")
    key = step_cache_key(p, DEFAULT_BUDGET)
    assert step_cache_key(p, Budget(max_depth=2, max_cosets=10,
                                    wall_clock_seconds=0.5).start()) == key
    for name in ("max_generators", "max_total_relator_length"):
        assert step_cache_key(p, Budget(**{name: 1000})) != key, name


def test_smith_normal_form_checks_each_pivot(monkeypatch):
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    expire_after(monkeypatch, 3)  # start, then two pivot steps
    with pytest.raises(CapExceeded) as info:
        smith_normal_form(m, Budget().start())
    assert info.value.layer == "smith_normal_form"
    assert info.value.limit == "wall_clock"


def test_unit_prephase_checks_each_unit_pivot(monkeypatch):
    # the matrix of test_snf_skips_rows_that_died: each column's first unit
    # clears the other, so the pre-phase takes all c pivots and the pivot
    # loop runs no step
    c = 50
    m = IntMatrix(2 * c, c, tuple({i // 2: (-1) ** i} for i in range(2 * c)))
    expire_after(monkeypatch, 1 + c)  # start, then one read per unit pivot
    assert smith_normal_form(m, Budget().start(), transform=False) == ((1,) * c, None)
    expire_after(monkeypatch, c)  # the last unit pivot's read is late
    with pytest.raises(CapExceeded) as info:
        smith_normal_form(m, Budget().start(), transform=False)
    assert info.value.layer == "smith_normal_form"
    assert info.value.limit == "wall_clock"
    stopped = info.traceback[-2].locals
    assert stopped["units"] == c - 1 and "t" not in stopped  # in the pre-phase


def test_unit_prephase_sweeps_again_for_a_unit_it_passed(monkeypatch):
    # column 0 has no unit; the pivot in column 1 makes row 1 (1, 0)
    m = IntMatrix.from_rows([[2, 1], [3, 1]])
    expire_after(monkeypatch, 3)  # start, then both unit pivots
    assert smith_normal_form(m, Budget().start(), transform=False) == ((1, 1), None)
    expire_after(monkeypatch, 2)
    with pytest.raises(CapExceeded) as info:
        smith_normal_form(m, Budget().start(), transform=False)
    assert info.value.layer == "smith_normal_form"
    stopped = info.traceback[-2].locals
    assert stopped["units"] == 1 and "t" not in stopped


def test_schreier_labels_check_each_block_of_cosets(monkeypatch):
    # wide(10)'s commutator table has 1,024 cosets: with blocks of 256, the
    # search and the numbering each read the clock at cosets 256, 512, 768
    table = commutator_coset_table(wide(10))
    want = rewriting._schreier_labels(table)
    monkeypatch.setattr(rewriting, "INDEX_BLOCK", 256)
    expire_after(monkeypatch, 7)  # start, then three reads in each loop
    assert rewriting._schreier_labels(table, Budget().start()) == want
    for reads, numbering, coset in [(1, False, 256), (3, False, 768),
                                    (4, True, 256), (6, True, 768)]:
        expire_after(monkeypatch, reads)
        with pytest.raises(CapExceeded) as info:
            rewriting._schreier_labels(table, Budget().start())
        assert info.value.layer == "rewrite_presentation"
        assert info.value.limit == "wall_clock"
        stopped = info.traceback[-2].locals
        assert ("k" in stopped) == numbering
        assert stopped["start"] == coset


def test_rewrite_checks_each_relator(monkeypatch):
    p = make("triangle", (2, 3, 4))
    table = commutator_coset_table(p)
    expire_after(monkeypatch, 2)  # start, then the first relator
    with pytest.raises(CapExceeded) as info:
        rewrite_presentation(p, table, Budget().start())
    assert info.value.layer == "rewrite_presentation"
    assert info.value.limit == "wall_clock"


def test_rewrite_checks_each_block_of_orbits(monkeypatch):
    # over the trivial subgroup's table, the regular action of Z/5000, a^5000
    # is one orbit, but b a^-1 is primitive, so each of the 5,000 cosets
    # leads its own orbit
    p = parse_presentation("< a, b | a^5000, b = a >")
    n = 5000
    table = CosetTable(2, [[(c + 1) % n, (c - 1) % n] * 2 for c in range(n)])
    # start, coset 4,097 of the labelling's search and of its numbering,
    # both relators, then orbit 4,097
    expire_after(monkeypatch, 6)
    assert rewrite_presentation(p, table, Budget().start()).n_relators == 2 * n
    expire_after(monkeypatch, 5)
    with pytest.raises(CapExceeded) as info:
        rewrite_presentation(p, table, Budget().start())
    assert info.value.layer == "rewrite_presentation"
    assert info.value.limit == "wall_clock"
    assert info.traceback[-2].locals["walks"] == INDEX_BLOCK


def test_commutator_table_checks_before_each_generator(monkeypatch):
    expire_after(monkeypatch, 21)  # start, ten SNF pivots, one read per generator
    assert commutator_coset_table(wide(10), Budget().start()).n_cosets == 1024
    expire_after(monkeypatch, 20)  # the last generator's read passes the deadline
    with pytest.raises(CapExceeded) as info:
        commutator_coset_table(wide(10), Budget().start())
    assert info.value.layer == "commutator_coset_table"
    assert info.value.limit == "wall_clock"
    assert info.traceback[-2].locals["g"] == 9


def test_tietze_checks_each_elimination(monkeypatch):
    p = make("fuchsian", (0, (4, 4, 4, 4)))
    raw = rewrite_presentation(p, commutator_coset_table(p))
    expire_after(monkeypatch, 5)  # start, the first pass, three eliminations
    with pytest.raises(CapExceeded) as info:
        tietze_simplify(raw, Budget().start())
    assert info.value.layer == "tietze_simplify"
    assert info.value.limit == "wall_clock"


def test_tietze_checks_each_blocked_candidate(monkeypatch):
    # the raw rewrite starts at 386 letters after dropping duplicates, and
    # the cap blocks every one of its 386 candidates
    p = make("fuchsian", (0, (4, 4, 4, 4)))
    raw = rewrite_presentation(p, commutator_coset_table(p))
    expire_after(monkeypatch, 10)  # start, the first pass, eight candidates
    with pytest.raises(CapExceeded) as info:
        tietze_simplify(raw, Budget(max_total_relator_length=321).start())
    assert info.value.layer == "tietze_simplify"
    assert info.value.limit == "wall_clock"
    assert info.traceback[-2].name == "tietze_simplify"
    assert info.traceback[-2].locals["hit"]


def test_tietze_checks_each_pass(monkeypatch):
    # every generator occurs twice in each relator: passes, no eliminations
    p = parse_presentation("< a, b | a b a b^-1, a b a b^2 >")
    # start, the first pass, and its scan's one subword table match (the
    # 4-letter table of a b a b^-1 against a b a b^2); the second pass reads
    # the clock again
    expire_after(monkeypatch, 3)
    with pytest.raises(CapExceeded) as info:
        tietze_simplify(p, Budget().start())
    assert info.value.layer == "tietze_simplify"
    assert info.value.limit == "wall_clock"
    assert info.traceback[-2].name == "tietze_simplify"


@pytest.mark.parametrize("reads", [1, 2, 3, 4])
def test_tietze_checks_while_indexing_a_large_rewrite(monkeypatch, reads):
    # the raw rewrite of wide(10) has 10,240 relators, half of them
    # duplicates, on 9,217 generators: after the start, the occurrence sets
    # read the clock at generators 4,096 and 8,192, the index at relators
    # 4,096 and 8,192, then at generators 4,096 and 8,192, all before the
    # first pass
    p = wide(10)
    raw = rewrite_presentation(p, commutator_coset_table(p))
    expire_after(monkeypatch, reads)
    with pytest.raises(CapExceeded) as info:
        tietze_simplify(raw, Budget().start())
    assert info.value.layer == "tietze_simplify"
    assert info.value.limit == "wall_clock"
    indexing = next(e for e in info.traceback if e.name == "tietze_simplify")
    assert "removed" not in indexing.locals  # the pass loop never began


def most_built_between_reads(monkeypatch):
    """Count, in place of wall time, the relators canonicalised (calls of
    ``_least_rotation``, the step every canonicalisation ends in) and the
    words built (``Word.of`` calls) since the last clock read; the
    returned dict holds the most of each seen."""
    most = {"canonical": 0, "built": 0}
    since = dict(most)

    def clock():
        since.update(canonical=0, built=0)
        return 0.0

    def counted(kind, fn):
        def call(letters):
            since[kind] += 1
            most[kind] = max(most[kind], since[kind])
            return fn(letters)
        return call

    canonical = counted("canonical", fpgroup._least_rotation)
    monkeypatch.setattr(fpgroup, "clock", clock)
    monkeypatch.setattr(fpgroup, "_least_rotation", canonical)
    monkeypatch.setattr(rewriting, "_least_rotation", canonical)
    monkeypatch.setattr(Word, "of", staticmethod(counted("built", Word.of)))
    return most


def test_series_canonicalises_a_block_of_relators_per_clock_read(monkeypatch):
    # wide(10)'s raw rewrite has 10,240 relators in 5,120 orbits, each
    # canonicalised and built once; none is canonicalised again on its way
    # into the presentation, where no clock is read
    p = wide(10)
    most = most_built_between_reads(monkeypatch)
    _, verdict = derived_series(p)
    assert verdict.kind == "NonAdorableCertified"
    assert 0 < most["canonical"] <= INDEX_BLOCK
    assert 0 < most["built"] <= INDEX_BLOCK


def test_tietze_builds_its_output_a_block_per_clock_read(monkeypatch):
    # 300 relators x_i^2 that Tietze cannot shorten: with blocks of 64, the
    # index, the renumbering and the output words each read the clock at
    # relators 64, 128, 192 and 256
    n = 300
    p = GroupPresentation([f"x{i}" for i in range(n)], [Word.gen(i) ** 2 for i in range(n)])
    monkeypatch.setattr(fpgroup, "INDEX_BLOCK", 64)
    most = most_built_between_reads(monkeypatch)
    assert tietze_simplify(p, Budget().start()).presentation == p
    assert most["canonical"] == 0 and most["built"] == 64


def test_relator_matrix_checks_each_block_of_relators(monkeypatch):
    # ten distinct relators in blocks of four: reads at relators 4 and 8
    p = parse_presentation("< a, b | " + ", ".join(f"a^{k} b" for k in range(1, 11)) + " >")
    monkeypatch.setattr(fpgroup, "INDEX_BLOCK", 4)
    expire_after(monkeypatch, 3)  # start, then both block reads
    assert relator_matrix(p, Budget().start()).cols == 10
    expire_after(monkeypatch, 2)
    with pytest.raises(CapExceeded) as info:
        relator_matrix(p, Budget().start())
    assert info.value.layer == "relator_matrix"
    assert info.value.limit == "wall_clock"


def most_between_reads(monkeypatch):
    """Count work in place of wall time: ``count(kind, item)`` adds one
    item of ``kind`` done since the last clock read, unless that item was
    counted since then, and the returned dict holds the most of each kind
    seen between two reads."""
    most: dict[str, int] = {}
    since: dict[str, set] = {}

    def clock():
        since.clear()
        return 0.0

    def count(kind, item):
        done = since.setdefault(kind, set())
        done.add(item)
        most[kind] = max(most.get(kind, 0), len(done))

    monkeypatch.setattr(fpgroup, "clock", clock)
    return most, count


@pytest.mark.parametrize("transform", [True, False])
def test_snf_builds_its_working_state_a_block_per_clock_read(monkeypatch, transform):
    # 300 rows and 300 columns, two entries a row: the column index and
    # the row copies, counted here, are built 64 columns or rows a read, as
    # is the identity u
    n = 300
    dense = [[2 * (j == i) + (j == (i + 1) % n) for j in range(n)] for i in range(n)]
    want = smith_normal_form(IntMatrix.from_rows(dense), transform=transform)
    monkeypatch.setattr(fpgroup, "INDEX_BLOCK", 64)
    most, count = most_between_reads(monkeypatch)

    class Row(dict):  # dict(row) calls keys() when a subclass overrides __iter__
        def __iter__(self):
            count("rows", id(self))
            return super().__iter__()

        def keys(self):
            count("rows", id(self))
            return super().keys()

    class Set(set):
        def __init__(self, *args):
            count("sets", id(self))
            super().__init__(*args)

    rows = tuple(Row(row) for row in IntMatrix.from_rows(dense).sparse_rows)
    monkeypatch.setattr(abelian, "set", Set, raising=False)
    assert smith_normal_form(IntMatrix(n, n, rows), Budget().start(),
                             transform=transform) == want
    assert most == {"rows": 64, "sets": 64}


def test_tietze_sets_up_its_index_a_block_per_clock_read(monkeypatch):
    # 300 relators x_i^2 on 300 generators: the relators are read and the
    # generators' occurrence sets built 64 a read
    n = 300
    want = GroupPresentation([f"x{i}" for i in range(n)], [Word.gen(i) ** 2 for i in range(n)])
    monkeypatch.setattr(fpgroup, "INDEX_BLOCK", 64)
    most, count = most_between_reads(monkeypatch)

    class Relators(tuple):
        def __iter__(self):
            for w in super().__iter__():
                yield w
                count("relators", id(w))  # once the loop asks for the next

    class Set(set):
        def __init__(self, *args):
            count("sets", id(self))
            super().__init__(*args)

    p = GroupPresentation._trusted(want.generator_names, Relators(want.relators))
    monkeypatch.setattr(fpgroup, "set", Set, raising=False)
    assert tietze_simplify(p, Budget().start()).presentation == want
    assert most == {"relators": 64, "sets": 64}


def test_subword_scan_reads_the_clock_per_block_of_sources(monkeypatch):
    # 300 two-letter relators, each too short for any subword table: the
    # scan takes 64 sources a read
    monkeypatch.setattr(fpgroup, "INDEX_BLOCK", 64)
    most, count = most_between_reads(monkeypatch)

    class Relators(list):
        def __getitem__(self, i):
            count("sources", i)
            return super().__getitem__(i)

    rels = Relators((2 * i, 2 * i) for i in range(300))
    assert fpgroup._subword_replacement(rels, Budget().start()) is None
    assert most == {"sources": 64}


def test_todd_coxeter_checks_every_4096_deductions(monkeypatch):
    s7 = parse_presentation(  # 5040 cosets, 30240 deductions
        "< a, b, c, d, e, f | a^2, b^2, c^2, d^2, e^2, f^2, (a b)^3, (b c)^3,"
        " (c d)^3, (d e)^3, (e f)^3, (a c)^2, (a d)^2, (a e)^2, (a f)^2, (b d)^2,"
        " (b e)^2, (b f)^2, (c e)^2, (c f)^2, (d f)^2 >")
    assert todd_coxeter(s7, (), Budget().start()).n_cosets == 5040
    expire_after(monkeypatch, 1)  # the start
    e = _Enumerator(s7.n_generators, s7.relators, Budget().start())
    with pytest.raises(CapExceeded) as info:
        e.run(())
    assert info.value.layer == "todd_coxeter"
    assert info.value.limit == "wall_clock"
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
    # pass and its scan's 40 subword table matches (19 lengths of each power
    # against the other, and the commutator's one length against both), two
    # SNF pivots, then after 4096 of its 6400 deductions
    p = parse_presentation("< a, b | a^40, b^40, a b a^-1 b^-1 >")
    assert verify_filtration(p, [[]]).terminal_trivial
    expire_after(monkeypatch, 44)
    with pytest.raises(CapExceeded) as info:
        verify_filtration(p, [[]])
    assert info.value.layer == "todd_coxeter"
    assert info.value.limit == "wall_clock"


def test_filtration_over_the_coset_cap_is_a_failed_witness():
    # the clock twin above: Z/40 x Z/40 has 1,600 elements, so under a cap
    # of 100 cosets the terminal level cannot be certified abelian, and
    # that is a failed witness, not a stopped run
    p = parse_presentation("< a, b | a^40, b^40, a b a^-1 b^-1 >")
    with pytest.raises(QuotientNotAbelian):
        verify_filtration(p, [[]], Budget(max_cosets=100))


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
    assert cause.limit == "wall_clock"
    assert "wall clock" in str(cause)


def probe_budgets(monkeypatch):
    """Record (subgroup words, budget) of every enumeration an order proof runs."""
    calls = []
    real = cosets.todd_coxeter

    def recording(p, subgroup_gens, budget):
        calls.append((tuple(subgroup_gens), budget))
        return real(p, subgroup_gens, budget)

    monkeypatch.setattr(cosets, "todd_coxeter", recording)
    return calls


def test_order_probe_out_of_time_is_no_verdict(monkeypatch):
    # S12 with s6 written last: the probe keeps S6 x S6, of index 924, and
    # reads the clock after 4096 of its 7392 deductions.  The 23 reads
    # before it are the start and 22 SNF steps over both factors.
    # Out of time there is neither "not order two" nor a fallback.
    calls = probe_budgets(monkeypatch)
    expire_after(monkeypatch, 23)
    with pytest.raises(CannotCertifyFactorTriviality) as info:
        free_product_verdict(symmetric(12, last=6), make("cyclic", (2,)))
    cause = info.value.__cause__
    assert isinstance(cause, CapExceeded)
    assert cause.layer == "todd_coxeter"
    assert cause.limit == "wall_clock"
    assert [len(words) for words, _ in calls] == [10]  # the probe only


def test_order_probe_keeps_the_callers_deadline(monkeypatch):
    calls = probe_budgets(monkeypatch)
    budget = Budget(wall_clock_seconds=30, max_cosets=5000).start()
    assert free_product_verdict(symmetric(7), make("cyclic", (2,)), budget).kind == "NonAdorable"
    ((words, probe),) = calls
    assert len(words) == 5
    assert probe.deadline == budget.deadline
    # the coset cap is lowered and every other limit kept
    assert probe.max_cosets == min(budget.max_cosets, cosets._PROBE_COSETS)
    assert probe == Budget(wall_clock_seconds=30, max_cosets=probe.max_cosets)


@FACTOR_CALLS
def test_factor_abelianization_is_bounded_by_the_clock(monkeypatch, call):
    expire_after(monkeypatch, 1)  # the start; the first SNF pivot step is late
    with pytest.raises(CapExceeded) as info:
        call(Budget())
    assert info.value.layer == "smith_normal_form"
    assert info.value.limit == "wall_clock"


@pytest.mark.parametrize("expect", [{"abelianization": "Z"}, {"alexander": "t^2 - t + 1"}])
def test_verify_corpus_bounds_every_check_of_an_entry(tmp_path, capsys, monkeypatch,
                                                      expect):
    # the entry's budget starts before its first check, so the first SNF
    # pivot step, of the abelianization or of the Alexander polynomial,
    # reads a clock past the deadline and the check's row is Inconclusive,
    # naming the limit and the layer
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{"name": "trefoil", "input": {"zoo": "trefoil"},
                                   "expect": expect}]))
    expire_after(monkeypatch, 1)  # the entry's start
    assert main(["verify-corpus", str(corpus)]) == 1
    (key, want), = expect.items()
    assert capsys.readouterr().out == (
        f"FAIL trefoil: {key} expected {want!r} got "
        f"'Inconclusive(wall_clock@smith_normal_form)'\n")
