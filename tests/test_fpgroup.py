import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adorn.abelian import abelianization
from adorn.cosets import CapExceeded, commutator_coset_table, todd_coxeter
from adorn.fpgroup import (DEFAULT_BUDGET, Budget, GroupPresentation,
                           PresentationSyntaxError, Word,
                           _subword_replacement, canonical_relator, cyclically_reduce,
                           format_presentation, free_reduce,
                           parse_presentation, tietze_simplify)
from adorn.rewriting import rewrite_presentation
from adorn.zoo import make

from oracles import canonical_relator_pairs, tietze_simplify_reference, wide


def W(*letters):
    return Word(letters)


def test_parse_basic():
    p = parse_presentation("< a, b | a^2, b^3, (a b)^5 >")
    assert p.generator_names == ("a", "b")
    assert p.relators == (W((0, 1), (0, 1)),
                          W((1, 1), (1, 1), (1, 1)),
                          W(*([(0, 1), (1, 1)] * 5)))


def test_parse_free_group():
    p = parse_presentation("< a | >")
    assert p.generator_names == ("a",)
    assert p.relators == ()


def test_parse_trivial_group():
    p = parse_presentation("< | >")
    assert p.n_generators == 0
    assert p.relators == ()


def test_parse_undeclared_generator():
    with pytest.raises(PresentationSyntaxError, match="undeclared generator 'b'"):
        parse_presentation("< a | b^2 >")


def test_parse_relators_without_generators():
    with pytest.raises(PresentationSyntaxError, match="empty generator list"):
        parse_presentation("< | x >")


def test_parse_error_position():
    try:
        parse_presentation("< a, | a^2 >")
    except PresentationSyntaxError as exc:
        assert exc.position == 5
    else:
        pytest.fail("expected a syntax error")


def test_parse_equation_sugar():
    p = parse_presentation("< a, b | a b = b a >")
    q = parse_presentation("< a, b | a b a^-1 b^-1 >")
    assert p.relators == q.relators


def test_parse_negative_and_nested_exponents():
    p = parse_presentation("< a, b | (a b^-1)^-2 >")
    w = p.relators[0]
    assert len(w) == 4
    assert parse_presentation(str(p)) == p


def test_parse_print_fixed_point():
    texts = [
        "< a, b | a^2, b^3, (a b)^5 >",
        "< a | >",
        "< | >",
        "< x, y | x^7 y^-3 >",
        "< a, b, c | a b c, c^4 >",
    ]
    for text in texts:
        p = parse_presentation(text)
        assert parse_presentation(format_presentation(p)) == p


def test_free_reduce_examples():
    assert free_reduce(W((0, 1), (0, -1))) == W()
    assert free_reduce(W((0, 1), (1, 1), (1, -1), (0, 1))) == W((0, 1), (0, 1))
    w = W((0, 1), (1, -1), (0, 1))
    assert free_reduce(w) == w


def test_cyclic_reduce_examples():
    assert cyclically_reduce(W((0, -1), (1, 1), (0, 1))) == W((1, 1))
    assert cyclically_reduce(W((1, 1), (0, 1), (1, -1))) == W((0, 1))
    assert cyclically_reduce(W()) == W()


def random_word(rng, n_gens, length):
    return Word((rng.randrange(n_gens), rng.choice((1, -1)))
                for _ in range(length))


def test_reduction_idempotent_and_monotone():
    rng = random.Random(7)
    for _ in range(300):
        w = random_word(rng, 3, rng.randrange(0, 14))
        fr = free_reduce(w)
        assert free_reduce(fr) == fr
        assert len(fr) <= len(w)
        cr = cyclically_reduce(w)
        assert cyclically_reduce(cr) == cr
        assert len(cr) <= len(fr)
        if len(cr) >= 2:
            g1, s1 = list(cr)[0]
            g2, s2 = list(cr)[-1]
            assert not (g1 == g2 and s1 == -s2)


def test_canonical_relator_identifies_rotations_and_inverses():
    rng = random.Random(11)
    for _ in range(200):
        w = cyclically_reduce(random_word(rng, 3, rng.randrange(1, 10)))
        if not len(w):
            continue
        k = rng.randrange(len(w))
        rotated = Word(list(w)[k:] + list(w)[:k])
        assert canonical_relator(rotated) == canonical_relator(w)
        assert canonical_relator(w.inverse()) == canonical_relator(w)


def test_presentation_validates_names():
    with pytest.raises(ValueError, match="distinct"):
        GroupPresentation(("a", "a"), ())
    with pytest.raises(ValueError, match="invalid generator name"):
        GroupPresentation(("a", "2b"), ())


def test_presentation_drops_empty_relators():
    p = GroupPresentation(("a",), (W((0, 1), (0, -1)),))
    assert p.relators == ()


def test_tietze_drops_redundant_generator():
    p = parse_presentation("< a, b | b >")
    out, hit = tietze_simplify(p)
    assert not hit
    assert out == parse_presentation("< a | >")


def test_tietze_cascade():
    p = parse_presentation("< a, b | a b a^-1 b^-1, b >")
    out, hit = tietze_simplify(p)
    assert not hit
    assert out == parse_presentation("< a | >")


def test_tietze_deduplicates_rotations_and_inverses():
    p = parse_presentation("< a, b | a b, b a, b^-1 a^-1 >")
    out, _ = tietze_simplify(p)
    # a b = 1 eliminates one generator entirely
    assert out.n_generators == 1
    assert out.relators == ()


def test_tietze_keeps_free_factors():
    # generators that appear in no relator are free factors, not junk
    p = parse_presentation("< a, b, c | a^2 >")
    out, _ = tietze_simplify(p)
    assert out.n_generators == 3
    assert out.n_relators == 1


def test_tietze_single_occurrence_elimination_always_runs():
    # a generator occurring once in exactly one relator disappears even
    # under tight caps (the move shrinks the presentation)
    p = parse_presentation("< a, b, c | c a^2 b^3, a^7 >")
    out, _ = tietze_simplify(p, Budget(max_generators=64,
                                       max_total_relator_length=12, max_passes=32))
    assert "c" not in out.generator_names


def test_tietze_caps_flag():
    caps = Budget(max_generators=1, max_total_relator_length=65536,
                  max_passes=32)
    p = parse_presentation("< a, b | a^2 b^2 a^2 b^-2 >")
    out, hit = tietze_simplify(p, caps)
    assert hit  # cannot get below two generators
    assert out.n_generators == 2


def test_tietze_deterministic():
    p = parse_presentation("< a, b, c | a b c, c^4, b^6 >")
    first = tietze_simplify(p)
    for _ in range(3):
        assert tietze_simplify(p) == first


def test_word_str_collapses_runs():
    p = parse_presentation("< a, b | a^3 b^-2 a >")
    assert p.word_str(p.relators[0]) in ("a^3 b^-2 a", "a^4 b^-2")
    # canonical rotation may rotate the run together; reparse must agree
    assert parse_presentation(str(p)) == p


def pair_words(n_gens=4, min_size=0, max_size=12):
    return st.lists(st.tuples(st.integers(0, n_gens - 1), st.sampled_from((1, -1))),
                    min_size=min_size, max_size=max_size)


@given(pair_words())
def test_word_pairs_roundtrip(pairs):
    assert list(Word(pairs)) == pairs


@given(pair_words())
def test_canonical_relator_matches_pair_reference(pairs):
    # the int letter order must be the (g, 0|1) pair order, or canonical
    # relators (and so every stage shape) would change
    assert tuple(canonical_relator(Word(pairs))) == canonical_relator_pairs(pairs)


@given(pair_words(min_size=1), st.integers(min_value=0))
def test_canonical_relator_invariant_under_rotation_and_inversion(pairs, k):
    k %= len(pairs)
    w = Word(pairs)
    assert canonical_relator(Word(pairs[k:] + pairs[:k])) == canonical_relator(w)
    assert canonical_relator(w.inverse()) == canonical_relator(w)


def test_subword_pass_replaces_shared_subword():
    # every generator occurs at least twice in each relator, so no
    # elimination applies; "a b a" is 3 > 4/2 letters of a b a b^-1, and
    # equals b there, so a b a b^2 becomes b^3
    p = parse_presentation("< a, b | a b a b^-1, a b a b^2 >")
    assert _subword_replacement(list(p.relators), DEFAULT_BUDGET) == (1, Word.gen(1) ** 3)
    one, hit = tietze_simplify(p, Budget(max_passes=1))
    assert hit  # the last allowed pass replaced a subword
    assert one.generator_names == p.generator_names
    out, hit = tietze_simplify(p)
    assert not hit
    assert out.total_relator_length < p.total_relator_length
    assert abelianization(out) == abelianization(p)
    assert todd_coxeter(out).n_cosets == todd_coxeter(p).n_cosets == 6


@st.composite
def small_presentations(draw):
    n = draw(st.integers(1, 3))
    rels = draw(st.lists(pair_words(n, 1, 8), max_size=3))
    return GroupPresentation("abc"[:n], [Word(r) for r in rels])


@settings(max_examples=150, deadline=None)
@given(small_presentations())
def test_tietze_preserves_h1_and_order(p):
    out, _ = tietze_simplify(p)
    assert abelianization(out) == abelianization(p)
    caps = Budget(max_cosets=300)
    try:
        order = todd_coxeter(p, (), caps).n_cosets
        simplified_order = todd_coxeter(out, (), caps).n_cosets
    except CapExceeded:
        return
    assert simplified_order == order


def _simplified_bytes(result):
    out, hit = result
    return out.generator_names, [r.letters for r in out.relators], hit


# the tight caps block eliminations (12) and stop after one, two or three
# passes
TIETZE_CAPS = (DEFAULT_BUDGET,
               Budget(max_generators=64, max_total_relator_length=12, max_passes=32),
               Budget(max_generators=64, max_total_relator_length=25, max_passes=2),
               Budget(max_passes=1),
               Budget(max_passes=3))


@st.composite
def tietze_presentations(draw):
    n = draw(st.integers(1, 5))
    rels = draw(st.lists(pair_words(n, 1, 10), max_size=6))
    return GroupPresentation([f"g{i}" for i in range(n)], [Word(r) for r in rels])


@settings(max_examples=300, deadline=None)
@given(tietze_presentations())
# a rewritten relator equals a later one, which must be the one dropped
@example(parse_presentation("< a, b, c | b c^2, a c^-1 a c^-1 b^2 c^-1 b, a c^-2,"
                            " a c^2 a^-1 b, c^2, a b^-1 >"))
# the cap blocks a generator's best candidate but not its next one
@example(parse_presentation("< a, b | a b, a^2 b a^-1 b^-1 a b^-1, a b^2 a^-1 b,"
                            " a^2 b^-1 a b^-1, a b^-1 >"))
# the cap blocks a candidate that fits after the next elimination
@example(parse_presentation("< a, b, c | a^2, a c, b c, b^8 c >"))
# the last allowed pass turns g0^10 (g0^6 after the first) into a copy of g0^2
@example(parse_presentation("< g0 | g0^2, g0^4, g0^10 >"))
# one pass eliminates c and finds no subword: a fixed point, not a cap
@example(parse_presentation("< a, b, c | c a^2 b^3, a^7 >"))
# a subword complement brings in a generator the replaced relator lacks
@example(parse_presentation("< a, b, c | a b a c^-1, a b a b^2, a^3 b^-2, c >"))
# the cap blocks a candidate that fits after a subword replacement
@example(parse_presentation("< a, b, c, d | c, a^3 c, a b^2 d^-2 c^-1, a b^2 d b^-1 >"))
# ... and that candidate was the last key tried before the replacement
@example(parse_presentation("< a, b, c | a^2 c^2, a c^-1 b^-2 c^-1, a^2 b^-1, b^3 c^-1 >"))
def test_tietze_matches_full_rescan_reference(p):
    for caps in TIETZE_CAPS:
        result = tietze_simplify(p, caps)
        assert _simplified_bytes(result) == _simplified_bytes(tietze_simplify_reference(p, caps))
        assert len(set(result.presentation.relators)) == result.presentation.n_relators


@pytest.mark.parametrize("group", [
    make("free_product", (make("cyclic", (6,)), make("cyclic", (8,)))),
    make("fuchsian", (0, (4, 4, 4, 4))),
    wide(6),  # 321 generators: many tied keys on the heap
])
@pytest.mark.parametrize("caps", [DEFAULT_BUDGET,
                                  Budget(max_total_relator_length=400)])
def test_tietze_matches_reference_on_raw_rewrite(group, caps):
    raw = rewrite_presentation(group, commutator_coset_table(group))
    assert (_simplified_bytes(tietze_simplify(raw, caps))
            == _simplified_bytes(tietze_simplify_reference(raw, caps)))
