import hashlib

import pytest

from adorn.derived import (ADORABLE, HALTED, INCONCLUSIVE, NON_ADORABLE,
                           ChainNotNested, FLAG_FREE, FLAG_PARTIAL,
                           FLAG_TRIVIAL, NormalityFails, QuotientNotAbelian,
                           TerminalNotPerfect, derived_series,
                           step_cache_key, verify_filtration)
from adorn.fpgroup import Budget, Word, format_presentation, parse_presentation
from adorn.zoo import make

from oracles import derived_series_quotients, doa, perm_doa, quaternion_model, wide

A = Word.gen(0)
B = Word.gen(1)

S3 = parse_presentation("< a, b | a^2, b^2, (a b)^3 >")
S3_ROT = parse_presentation("< a, b | a^2, b^3, (a b)^2 >")
S5 = parse_presentation("< a, b | a^2, b^5, (a b)^4, (a b^-1 a b)^3 >")
Q8 = parse_presentation("< a, b | a^4, a^2 b^-2, b^-1 a b a >")


def test_dinf_series():
    stages, verdict = derived_series(make("dihedral_inf"))
    assert [str(s.invariants) for s in stages] == ["Z/2 ⊕ Z/2", "Z"]
    assert verdict.kind == ADORABLE and verdict.doa == 2
    assert stages[1].free_rank == 1


def test_s3_series():
    stages, verdict = derived_series(S3)
    assert [s.invariants.torsion for s in stages] == [(2,), (3,), ()]
    assert verdict.kind == ADORABLE and verdict.doa == 2
    assert FLAG_TRIVIAL in stages[-1].flags


def test_triangle_perfect():
    stages, verdict = derived_series(make("triangle", (2, 3, 5)))
    assert len(stages) == 1
    assert verdict.kind == ADORABLE and verdict.doa == 0


def test_psl2z_free_stage():
    stages, verdict = derived_series(parse_presentation("< a, b | a^2, b^3 >"))
    assert verdict.kind == NON_ADORABLE
    assert verdict.reason == "FreeRankAtLeast2"
    assert stages[1].free_rank == 2
    assert FLAG_FREE in stages[1].flags


def test_trefoil_halts():
    stages, verdict = derived_series(make("trefoil"))
    assert verdict.kind == HALTED
    assert verdict.stage == 0 and verdict.rank == 1


def test_genus_zero_orbifold_descends_to_large_stage():
    # the commutator subgroup has index 6^3 and H1 = Z^290 (Riemann-Hurwitz);
    # Tietze brings its 649-generator raw rewrite down to one relator
    stages, verdict = derived_series(make("fuchsian", (0, (6, 6, 6, 6))))
    assert [(s.n_generators, s.n_relators, s.total_length) for s in stages] \
        == [(4, 5, 28), (290, 1, 580)]
    assert str(verdict) == "HaltedInfiniteAbelianization(depth=1, rank=290)"
    assert verdict.kind == HALTED and verdict.stage == 1 and verdict.rank == 290


def test_tietze_over_the_cap_still_shortens_the_stage():
    # wide(10)'s raw stage 1 starts at 9,217 letters in 5,120 distinct
    # relators, over the cap of 8,192: the eliminations, which shorten it,
    # go ahead, down to the free group it is
    stages, verdict = derived_series(wide(10), Budget(max_total_relator_length=8192))
    assert [(s.n_generators, s.n_relators) for s in stages] == [(10, 10), (4097, 0)]
    assert str(verdict) == "NonAdorableCertified(FreeRankAtLeast2, stage=1)"


def test_stage_depths_consecutive():
    for p in (S3, Q8, make("sl2z")):
        stages, _ = derived_series(p)
        assert [s.depth for s in stages] == list(range(len(stages)))


@pytest.mark.parametrize("pres,want", [
    (parse_presentation("< | >"), 0),
    (make("triangle", (2, 3, 5)), 0),
    (parse_presentation("< a | >"), 1),
    (S5, 1),
    (S3, 2),
    (make("dihedral_inf"), 2),
    (Q8, 2),
])
def test_doa_table(pres, want):
    assert doa(pres) == want


def test_doa_unknown_for_halted():
    assert doa(make("trefoil")) is None


@pytest.mark.parametrize("pres,model", [
    (S3, [(1, 0, 2), (0, 2, 1)]),
    (S3_ROT, [(1, 0, 2), (1, 2, 0)]),
    (Q8, quaternion_model()[0]),
    (parse_presentation("< a, b | a^2, b^3, (a b)^3 >"), [(1, 0, 3, 2), (1, 2, 0, 3)]),
    (parse_presentation("< a, b | a^4, b^2, (a b)^2 >"), [(1, 2, 3, 0), (0, 3, 2, 1)]),
    (parse_presentation("< a | a^12 >"), [(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0)]),
    (S5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
])
def test_stage_invariants_match_permutation_oracle(pres, model):
    from oracles import check_model
    check_model(pres, model)
    stages, verdict = derived_series(pres)
    oracle = derived_series_quotients(model)
    assert verdict.kind == ADORABLE
    assert verdict.doa == perm_doa(model)
    got = [s.invariants.torsion for s in stages]
    assert got == [tuple(q) for q in oracle]
    assert all(s.invariants.rank == 0 for s in stages)


def test_inconclusive_max_depth():
    lim = Budget(max_depth=1)
    stages, verdict = derived_series(Q8, lim)
    assert verdict.kind == INCONCLUSIVE
    assert "max_depth" in verdict.limits_hit


def test_inconclusive_max_cosets():
    # a quotient bigger than the coset budget is reported on the spot
    lim = Budget(max_cosets=11)
    _, verdict = derived_series(parse_presentation("< a | a^12 >"), lim)
    assert verdict.kind == INCONCLUSIVE
    assert "max_cosets" in verdict.limits_hit
    # small caps leave small quotients unaffected (no enumeration involved)
    lim = Budget(max_cosets=5)
    _, verdict = derived_series(S3, lim)
    assert verdict.kind == ADORABLE and verdict.doa == 2


def test_inconclusive_wall_clock():
    lim = Budget(wall_clock_seconds=1e-9)
    _, verdict = derived_series(S3, lim)
    assert verdict.kind == INCONCLUSIVE
    assert "wall_clock" in verdict.limits_hit


def test_verdicts_sound_under_partial_simplification():
    # with crippling simplification caps the engine may stop, but it must
    # never certify freeness from a partially simplified stage
    lim = Budget(max_generators=1, max_total_relator_length=4)
    for p in (make("sl2z"), S3, Q8):
        stages, verdict = derived_series(p, lim)
        for s in stages:
            if FLAG_PARTIAL in s.flags:
                assert FLAG_FREE not in s.flags or s.n_relators == 0
        if verdict.kind == NON_ADORABLE:
            stage = stages[verdict.stage]
            assert stage.n_relators == 0


def test_degenerate_trivial_input():
    stages, verdict = derived_series(parse_presentation("< | >"))
    assert verdict.doa == 0
    assert FLAG_TRIVIAL in stages[0].flags


def test_trivially_presented_trivial_group():
    assert doa(parse_presentation("< a | a >")) == 0


# ---------------------------------------------------------------------------
# filtration witnesses


def test_filtration_empty_chain_perfect_group():
    w = verify_filtration(make("triangle", (2, 3, 5)), [])
    assert w.levels == () and not w.terminal_trivial


def test_filtration_empty_chain_rejects_nonperfect():
    with pytest.raises(TerminalNotPerfect):
        verify_filtration(S3, [])


def test_filtration_s3_single_level_rejected():
    with pytest.raises(TerminalNotPerfect):
        verify_filtration(S3_ROT, [[B]])


def test_filtration_s3_full_chain_accepted():
    w = verify_filtration(S3_ROT, [[B], []])
    assert w.terminal_trivial
    assert [lvl.index_in_group for lvl in w.levels] == [2, 0]
    assert str(w.levels[0].quotient) == "Z/2"


def test_filtration_dinf_chain():
    p = make("dihedral_inf")
    comm = A * B * A.inverse() * B.inverse()
    w = verify_filtration(p, [[comm], []])
    assert w.terminal_trivial
    assert w.levels[0].index_in_group == 4


def test_filtration_normality_failure():
    # in <a, b | a^2, b^2, (ab)^3> the subgroup <b> is not normal
    with pytest.raises(NormalityFails):
        verify_filtration(S3, [[B], []])


def test_filtration_not_nested():
    # a is not inside <b> = A3
    with pytest.raises(ChainNotNested):
        verify_filtration(S3_ROT, [[B], [A]])


def test_filtration_nonabelian_quotient():
    # S3 over the trivial terminal subgroup: S3 itself is not abelian
    with pytest.raises(QuotientNotAbelian):
        verify_filtration(S3, [[]])


def test_filtration_a4_chain():
    A4 = parse_presentation("< a, b | a^2, b^3, (a b)^3 >")
    # A4 > V4 > 1; one commutator only generates a Z2, which is not normal,
    # so the Klein group needs a conjugate pair of commutators
    comm = A * B * A.inverse() * B.inverse()
    with pytest.raises(NormalityFails):
        verify_filtration(A4, [[comm], []])
    v4 = [comm, B * comm * B.inverse()]
    w = verify_filtration(A4, [v4, []])
    assert w.terminal_trivial
    assert w.levels[0].index_in_group == 3
    assert str(w.levels[0].quotient) == "Z/3"


def test_filtration_first_level_quotient_not_abelian():
    # <a^2> is trivial in S3: the quotient by it is S3 itself, of order 6,
    # whose abelianization is Z/2
    with pytest.raises(QuotientNotAbelian) as info:
        verify_filtration(S3, [[A * A]])
    assert info.value.level == 1


S4 = parse_presentation("< s1, s2, s3 | s1^2, s2^2, s3^2, (s1 s2)^3, (s2 s3)^3, (s1 s3)^2 >")
T1, T2, T3 = (Word.gen(i) for i in range(3))  # the Coxeter generators of S4
A4_IN_S4 = [T1 * T2, T2 * T3]


def test_filtration_second_level_quotient_not_abelian():
    # level 2 is <s1^2>, trivial: A4 over it is A4, of order 12, whose
    # abelianization, read through the Schreier generators of A4, is Z/3
    with pytest.raises(QuotientNotAbelian) as info:
        verify_filtration(S4, [A4_IN_S4, [T1 ** 2]])
    assert info.value.level == 2


def test_filtration_s4_chain():
    v4 = [T1 * T3, T1 * T2 * T1 * T2 * T3 * T2]
    w = verify_filtration(S4, [A4_IN_S4, v4, []])
    assert w.terminal_trivial
    assert [(lvl.index_in_group, lvl.quotient_order, str(lvl.quotient))
            for lvl in w.levels] == [(2, 2, "Z/2"), (6, 3, "Z/3"), (0, 0, "Z/2 ⊕ Z/2")]


def test_filtration_infinite_abelian_group_is_not_certified():
    # Z^2 is abelian, but the trivial terminal level needs a finite order
    # that enumeration can match
    with pytest.raises(QuotientNotAbelian) as info:
        verify_filtration(parse_presentation("< a, b | a b a^-1 b^-1 >"), [[]])
    assert info.value.level == 1


def test_step_cache_roundtrip():
    calls = {}

    class Cache:
        def __init__(self):
            self.data = {}

        def get(self, key):
            calls["get"] = calls.get("get", 0) + 1
            return self.data.get(key)

        def put(self, key, value):
            self.data[key] = value

    cache = Cache()
    first = derived_series(S3, step_cache=cache)
    assert cache.data  # steps were persisted
    second = derived_series(S3, step_cache=cache)
    assert [s.invariants for s in second.stages] == [s.invariants for s in first.stages]
    assert second.verdict == first.verdict


class DictCache:
    def __init__(self):
        self.data = {}

    def get(self, key):
        return self.data.get(key)

    def put(self, key, value):
        self.data[key] = value


@pytest.mark.parametrize("entry", [
    {"hit_caps": False},
    {"next": "< x | >", "hit_caps": False},
    {"next": "< x, y | >", "hit_caps": "no", "index": 12},
    {"next": 7, "hit_caps": False, "index": 12},
    {"next": "< x, y | x^ >", "hit_caps": False, "index": 12},
    {"next": "< x | >", "hit_caps": False, "index": "12"},
    ["< x | >"],
    # well-formed, but the index is not the order of the quotient Z/12
    {"next": "< x | >", "hit_caps": False, "index": 11},
])
def test_step_cache_bad_entry_is_a_miss(entry):
    sl2z = make("sl2z")
    cold = derived_series(sl2z)
    assert cold.verdict.kind == NON_ADORABLE
    cache = DictCache()
    derived_series(sl2z, step_cache=cache)
    (key, good), = cache.data.items()
    assert good["index"] == 12
    cache.data[key] = entry
    warm = derived_series(sl2z, step_cache=cache)
    assert warm == cold
    assert cache.data[key] == good  # recomputed and overwritten


def test_step_cache_entry_under_the_old_tag_is_not_read():
    # a repeated relator now leaves the commutator coset numbering as it
    # is without the repeat, so an entry stored under step-v4 for such a
    # stage may hold a next stage this code does not compute
    sl2z = make("sl2z")
    p = sl2z.with_relators(sl2z.relators[:1])
    budget = Budget()
    old = hashlib.sha256("|".join(["step-v4", format_presentation(p), repr((
        budget.max_generators, budget.max_total_relator_length))]).encode()).hexdigest()
    cache = DictCache()
    # well-formed with the right index: read, it would end the run at Z
    cache.data[old] = {"next": "< x | >", "hit_caps": False, "index": 12}
    read = []
    cache.get = lambda key: read.append(key) or cache.data.get(key)
    warm, cold = derived_series(p, budget, step_cache=cache), derived_series(sl2z, budget)
    assert warm.stages[1:] == cold.stages[1:] and warm.verdict == cold.verdict
    assert warm.verdict.kind == NON_ADORABLE
    assert read == [step_cache_key(p, budget)] != [old]


def test_step_cache_entry_from_before_the_cap_rule_is_not_read():
    # wide(10)'s raw stage 1 starts over a cap of 8,192 letters; a step-v5
    # entry left it partial with an infinite abelianization, where this code
    # shortens it to the free group of rank 4,097
    p, budget = wide(10), Budget(max_total_relator_length=8192)
    old = hashlib.sha256("|".join(["step-v5", format_presentation(p), repr((
        budget.max_generators, budget.max_total_relator_length))]).encode()).hexdigest()
    cache = DictCache()
    # well-formed with the right index: read, it would halt the run at Z + Z/2
    cache.data[old] = {"next": "< x, y | x^2 >", "hit_caps": True, "index": 1024}
    read = []
    cache.get = lambda key: read.append(key) or cache.data.get(key)
    warm = derived_series(p, budget, step_cache=cache)
    assert str(warm.verdict) == "NonAdorableCertified(FreeRankAtLeast2, stage=1)"
    assert read == [step_cache_key(p, budget)] != [old]


@pytest.mark.parametrize("word", [Word.gen(2), Word.of((-2,)), A * Word.of((-1,))])
def test_filtration_rejects_a_word_outside_the_generators(word):
    # an undeclared generator, or a negative code, which Word.of accepts;
    # a negative code used to be read as the last generator
    with pytest.raises(ValueError, match="unknown generator"):
        verify_filtration(S3, [[word], []])
