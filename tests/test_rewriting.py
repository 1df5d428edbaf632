import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adorn.abelian import abelianization
from adorn.cosets import CapExceeded, CosetTable, commutator_coset_table, todd_coxeter
from adorn.fpgroup import (Budget, GroupPresentation, Word, free_reduce, parse_presentation,
                           tietze_simplify)
from adorn.rewriting import (_rewrite, _schreier_labels, reidemeister_schreier,
                             rewrite_presentation, subgroup_words)
from adorn.zoo import make

from oracles import (derived_series_quotients, pinv, quaternion_model,
                     rewrite_presentation_reference, schreier_transversal, wide)

A = Word.gen(0)
B = Word.gen(1)


def test_transversal_single_coset():
    t = commutator_coset_table(make("triangle", (2, 3, 5)))
    assert schreier_transversal(t) == (Word(),)


def test_transversal_dinf():
    p = make("dihedral_inf")
    t = todd_coxeter(p, [A * B])
    assert schreier_transversal(t) == (Word(), A)


def test_transversal_s3():
    p = parse_presentation("< a, b | a^2, b^2, (a b)^3 >")
    t = todd_coxeter(p, [A])
    assert schreier_transversal(t) == (Word(), B, B * A)


def test_transversal_prefix_closed():
    p = make("sl2z")
    t = commutator_coset_table(p)
    words = schreier_transversal(t)
    reps = set(words)
    for w in words:
        for k in range(len(w)):
            assert Word(list(w)[:k]) in reps


def test_schreier_generator_count():
    for p, sub in [
        (parse_presentation("< a, b | a^2, b^2, (a b)^3 >"), [A]),
        (make("sl2z"), None),
        (make("dihedral_inf"), None),
    ]:
        t = todd_coxeter(p, sub) if sub else commutator_coset_table(p)
        raw = rewrite_presentation(p, t)
        assert raw.n_generators == t.n_cosets * p.n_generators - (t.n_cosets - 1)


def test_dinf_commutator_subgroup_is_z():
    p = make("dihedral_inf")
    out, hit = reidemeister_schreier(p, commutator_coset_table(p))
    assert not hit
    assert out.n_generators == 1 and out.relators == ()


def test_sl2z_commutator_subgroup_free_rank_2():
    p = make("sl2z")
    t = commutator_coset_table(p)
    assert t.n_cosets == 12
    out, hit = reidemeister_schreier(p, t)
    assert not hit
    assert out.n_generators == 2 and out.relators == ()


def test_q8_commutator_subgroup_is_z2():
    p = parse_presentation("< a, b | a^4, a^2 b^-2, b^-1 a b a >")
    out, hit = reidemeister_schreier(p, commutator_coset_table(p))
    assert not hit
    assert out.n_generators == 1
    assert [len(r) for r in out.relators] == [2]


def random_subgroup_table(rng, n_gens, degree) -> CosetTable | None:
    """Coset table of the stabilizer of 0 under a random homomorphism of the
    free group into permutations of the given degree (orbit of 0)."""
    images = [tuple(rng.sample(range(degree), degree)) for _ in range(n_gens)]
    inverses = [pinv(g) for g in images]
    # BFS orbit of 0, relabeling points to definition order
    order = {0: 0}
    queue = [0]
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for g in range(n_gens):
            for img in (images[g], inverses[g]):
                if img[x] not in order:
                    order[img[x]] = len(order)
                    queue.append(img[x])
    rows = []
    for x in queue:
        row = []
        for g in range(n_gens):
            row.append(order[images[g][x]])
            row.append(order[inverses[g][x]])
        rows.append(row)
    return CosetTable(n_gens, rows)


def test_nielsen_schreier_rank_formula():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.choice((2, 3))
        free = parse_presentation("< a, b | >" if n == 2 else "< a, b, c | >")
        t = random_subgroup_table(rng, n, rng.randrange(2, 13))
        index = t.n_cosets
        out, hit = reidemeister_schreier(free, t)
        assert not hit
        assert out.relators == ()
        assert out.n_generators == index * (n - 1) + 1


def coxeter_symmetric(n):
    """S_n on the adjacent transpositions s_1 .. s_{n-1}."""
    s = [Word.gen(i) for i in range(n - 1)]
    rels = [x ** 2 for x in s]
    rels += [(s[i] * s[i + 1]) ** 3 for i in range(n - 2)]
    rels += [(s[i] * s[j]) ** 2 for i in range(n - 1) for j in range(i + 2, n - 1)]
    return GroupPresentation([f"s{i + 1}" for i in range(n - 1)], rels)


@st.composite
def symmetric_group_subgroups(draw):
    n = draw(st.integers(3, 4))
    letters = st.tuples(st.integers(0, n - 2), st.sampled_from((1, -1)))
    words = draw(st.lists(st.lists(letters, min_size=1, max_size=6), max_size=3))
    return coxeter_symmetric(n), [Word(w) for w in words]


@settings(max_examples=60, deadline=None)
@given(symmetric_group_subgroups())
def test_schreier_counts_on_enumerated_tables(case):
    p, sub = case
    t = todd_coxeter(p, sub)
    raw = rewrite_presentation(p, t)
    assert raw.n_generators == t.n_cosets * (p.n_generators - 1) + 1
    assert raw.n_relators <= t.n_cosets * p.n_relators


# finite groups whose relators are proper powers; a quotient of one stays
# finite, so Todd-Coxeter closes over any subgroup of it
FINITE_BASES = [
    coxeter_symmetric(3),
    coxeter_symmetric(4),
    parse_presentation("< a, b | a^2, b^3, (a b)^4 >"),
    parse_presentation("< a, b | a^2, b^3, (a b)^5 >"),
    parse_presentation("< a, b | a^2, b^2, (a b)^6 >"),
    parse_presentation("< a | a^12 >"),
]


@st.composite
def power_quotients(draw):
    """A finite base group with extra relators w^k, w a random word (not
    always cyclically reduced), and a subgroup on random words: trivial,
    non-normal or normal."""
    base = draw(st.sampled_from(FINITE_BASES))
    n = base.n_generators
    word = st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))),
                    min_size=1, max_size=4).map(Word)
    powers = draw(st.lists(st.tuples(word, st.integers(1, 5)), max_size=3))
    rels = list(base.relators) + [w ** k for w, k in powers]
    order = draw(st.permutations(range(len(rels))))
    p = GroupPresentation(base.generator_names, [rels[i] for i in order])
    return p, draw(st.lists(word, max_size=2))


def assert_matches_reference(p, t):
    got = rewrite_presentation(p, t)
    ref = rewrite_presentation_reference(p, t)
    assert got.generator_names == ref.generator_names
    assert got.relators == ref.relators


@settings(max_examples=150, deadline=None)
@given(power_quotients())
def test_rewrite_matches_every_coset_reference(case):
    p, sub = case
    assert_matches_reference(p, todd_coxeter(p, sub))


@pytest.mark.parametrize("p,sub", [
    (make("triangle", (12, 12, 12)), None),
    (make("fuchsian", (0, (4, 4, 4, 4))), None),
    (wide(10), None),
    (coxeter_symmetric(5), [A, B]),  # the parabolic S3 = <s1, s2>, index 20
], ids=["triangle-12-12-12", "fuchsian-0-4444", "wide-10", "s5-parabolic"])
def test_rewrite_matches_reference_on_pinned_tables(p, sub):
    t = todd_coxeter(p, sub) if sub else commutator_coset_table(p)
    assert_matches_reference(p, t)


@st.composite
def closing_enumerations(draw):
    """Todd-Coxeter inputs in the style of the enumeration tests: 1-3
    generators of finite order, up to three more random relators, some
    powers or repeated, and up to one subgroup word; kept when the
    enumeration closes within 1,000 cosets."""
    n = draw(st.integers(1, 3))
    letters = st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1)))
    rels = [Word.gen(g) ** draw(st.integers(2, 5)) for g in range(n)]
    for w in draw(st.lists(st.lists(letters, min_size=1, max_size=8).map(Word), max_size=3)):
        shape = draw(st.sampled_from(("plain", "plain", "power", "repeat")))
        if shape == "power":
            w = w ** draw(st.integers(2, 4))
        rels += [w, w] if shape == "repeat" else [w]
    p = GroupPresentation([f"x{i}" for i in range(n)], draw(st.permutations(rels)))
    sub = draw(st.lists(st.lists(letters, min_size=1, max_size=4).map(Word), max_size=1))
    try:
        todd_coxeter(p, sub, Budget(max_cosets=1000))
    except CapExceeded:
        assume(False)
    return p, sub


def assert_as_constructed(p):
    """``p`` equals the public constructor's presentation on its fields."""
    q = GroupPresentation(p.generator_names, p.relators, p.name)
    assert p.generator_names == q.generator_names
    assert [r.letters for r in p.relators] == [r.letters for r in q.relators]
    assert p.name == q.name


@settings(max_examples=150, deadline=None)
@given(st.one_of(closing_enumerations(), power_quotients()))
@example((wide(6), None))
@example((make("fuchsian", (0, (4, 4, 4, 4))), None))
def test_trusted_presentations_equal_the_constructors(case):
    # the raw rewrite and Tietze build through GroupPresentation._trusted,
    # which checks nothing: their relators must be what the constructor
    # would make of them, canonical, non-empty and in range, in order
    p, sub = case
    t = commutator_coset_table(p) if sub is None else todd_coxeter(p, sub)
    raw = rewrite_presentation(p, t)
    assert_as_constructed(raw)
    assert_as_constructed(tietze_simplify(raw).presentation)


S3_ROT = parse_presentation("< a, b | a^2, b^3, (a b)^2 >")
Q8 = parse_presentation("< a, b | a^4, a^2 b^-2, b^-1 a b a >")


@pytest.mark.parametrize("pres,model", [
    (parse_presentation("< a, b | a^2, b^2, (a b)^3 >"), [(1, 0, 2), (0, 2, 1)]),
    (Q8, quaternion_model()[0]),
    (parse_presentation("< a, b | a^2, b^3, (a b)^3 >"), [(1, 0, 3, 2), (1, 2, 0, 3)]),
    (parse_presentation("< a, b | a^4, b^2, (a b)^2 >"), [(1, 2, 3, 0), (0, 3, 2, 1)]),
])
def test_second_derived_quotient_matches_permutation_oracle(pres, model):
    # abelianization of the rewritten commutator subgroup == G1/G2
    table = commutator_coset_table(pres)
    sub, hit = reidemeister_schreier(pres, table)
    assert not hit
    got = abelianization(sub)
    oracle = derived_series_quotients(model)
    expected = oracle[1] if len(oracle) > 1 else ()
    assert got.rank == 0
    assert got.torsion == tuple(expected)


def test_subgroup_word_rewriting():
    p = S3_ROT
    t = todd_coxeter(p, [B])
    [w] = subgroup_words(t, [B])
    # b lies in the subgroup; its rewriting is a word in Schreier generators
    sub = rewrite_presentation(p, t)
    assert w.max_generator() < sub.n_generators
    with pytest.raises(ValueError):
        subgroup_words(t, [B, A])  # a is not in <b>


def labelled_tables():
    """(words, table) pairs: random permutation tables of free groups with
    random words, and Coxeter tables of S3 and S4 with their relators."""
    rng = random.Random(12)
    cases = []
    for _ in range(25):
        n = rng.choice((2, 3))
        t = random_subgroup_table(rng, n, rng.randrange(1, 13))
        words = [Word.of(rng.randrange(2 * n) for _ in range(rng.randrange(8)))
                 for _ in range(4)]
        cases.append((words, t))
    for n, sub in [(3, []), (3, [A]), (4, []), (4, [A]), (4, [A, Word.gen(2)])]:
        p = coxeter_symmetric(n)
        cases.append((list(p.relators), todd_coxeter(p, sub)))
    return cases


def schreier_images(t, reps):
    """Schreier generator k as the word rep(a) x rep(b)^-1 of the k-th edge
    (a, x) to b, x a generator column, in (a, x) order, that is not an edge
    of the tree of ``reps``."""
    images = []
    for a in range(t.n_cosets):
        for x in range(0, 2 * t.n_generators, 2):
            b = t.rows[a][x]
            edge = Word.of((x,))
            if reps[b] != reps[a] * edge and reps[a] != reps[b] * edge.inverse():
                images.append(reps[a] * edge * reps[b].inverse())
    return images


def substitute(w, images):
    out = Word()
    for x in w.letters:
        out = out * (images[x >> 1].inverse() if x & 1 else images[x >> 1])
    return free_reduce(out)


def test_labelling_follows_the_shortlex_tree():
    for _, t in labelled_tables():
        labels, _ = _schreier_labels(t)
        for c, rep in enumerate(schreier_transversal(t)):
            assert t.word_act(0, rep) == c
            assert _rewrite(t, labels, rep, 0) == Word()


def test_rewrite_is_conjugation_by_the_transversal():
    # the rewrite of w from coset a, read back through rep(a) x rep(b)^-1,
    # is rep(a) w rep(a.w)^-1: for a relator, rep(a) r rep(a)^-1
    for words, t in labelled_tables():
        reps = schreier_transversal(t)
        images = schreier_images(t, reps)
        labels, n_schreier = _schreier_labels(t)
        assert n_schreier == len(images) == t.n_cosets * (t.n_generators - 1) + 1
        in_subgroup = []
        for w in words:
            for a in range(t.n_cosets):
                conj = reps[a] * w * reps[t.word_act(a, w)].inverse()
                assert substitute(_rewrite(t, labels, w, a), images) == free_reduce(conj)
                in_subgroup.append(conj)
        got = subgroup_words(t, in_subgroup)
        assert [substitute(u, images) for u in got] == [free_reduce(w) for w in in_subgroup]
        if t.n_cosets > 1:
            with pytest.raises(ValueError):
                subgroup_words(t, in_subgroup + [reps[1]])


def test_rewritten_relators_land_in_subgroup():
    p = make("sl2z")
    t = commutator_coset_table(p)
    raw = rewrite_presentation(p, t)
    # every raw relator is a consequence: its abelianized image vanishes
    inv = abelianization(raw)
    assert inv == abelianization(reidemeister_schreier(p, t).presentation)
