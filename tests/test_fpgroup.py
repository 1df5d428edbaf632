import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adorn import fpgroup
from adorn.abelian import abelianization, abelianization_data
from adorn.cosets import CapExceeded, commutator_coset_table, todd_coxeter
from adorn.fpgroup import (DEFAULT_BUDGET, Budget, GroupPresentation,
                           PresentationSyntaxError, Word,
                           _subword_replacement, canonical_relator,
                           format_presentation, format_word, free_reduce,
                           parse_presentation, period, tietze_simplify)
from adorn.rewriting import rewrite_presentation
from adorn.zoo import make

from oracles import (canonical_relator_pairs, canonical_relator_reference,
                     cyclically_reduce, tietze_simplify_reference, wide)


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


@pytest.mark.parametrize("text, message, position", [
    ("< a | a % >", "unexpected character '%'", 8),
    ("a | >", "expected '<', found 'a'", 0),
    ("< a >", "expected '|', found '>'", 4),
    ("< a, b", "expected '|', found 'end of input'", 6),
    ("< a | a", "expected '>', found 'end of input'", 7),
    ("< a | a -1 >", "expected '>', found '-1'", 8),
    ("< a | (a >", "expected ')', found '>'", 9),
    ("< a | > b", "trailing input 'b'", 8),
    ("< a, | a^2 >", "expected generator name, found '|'", 5),
    ("< a,", "expected generator name, found ''", 4),
    ("< a, b, a | >", "duplicate generator name 'a'", 8),
    ("< | x >", "empty generator list with non-empty relator", 4),
    ("< | , >", "empty generator list with non-empty relator", 4),
    ("< a | a, >", "expected a word, found '>'", 9),
    ("< a | = a >", "expected a word, found '='", 6),
    ("< a | a =", "expected a word, found 'end of input'", 9),
    ("< a | b^2 >", "undeclared generator 'b'", 6),
    ("< a | a^b >", "expected integer exponent, found 'b'", 8),
    # an unexpected character is reported before any earlier syntax error
    ("< a | b $ >", "unexpected character '$'", 8),
    ("< a | a^ >", "expected integer exponent, found '>'", 9),
    ("< a | a^", "expected integer exponent, found ''", 8),
    ("< a | () >", "expected a word, found ')'", 7),
    ("< a | (a)^() >", "expected integer exponent, found '('", 10),
])
def test_parse_error_contract(text, message, position):
    with pytest.raises(PresentationSyntaxError) as info:
        parse_presentation(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


@pytest.mark.parametrize("text, expected", [
    ("< x | x^0 >", "< x | >"),
    ("< a | (a a^-1) >", "< a | >"),
    ("< a, b | a^0 b, (a a^-1)^3 b^2, a^-0 = b >", "< a, b | b, b^2, b >"),
])
def test_parse_zero_letter_terms(text, expected):
    assert format_presentation(parse_presentation(text)) == expected


def test_parse_long_generator_list_in_linear_time():
    # duplicate names are found by a dict lookup, so the parse is linear in
    # the number of names; the bound is about twenty times the expected time
    names = tuple(f"x{i}" for i in range(50000))
    text = f"< {', '.join(names)} | x49999^2 >"
    start = time.perf_counter()
    p = parse_presentation(text)
    assert time.perf_counter() - start < 2.0
    assert p.generator_names == names
    assert p.relators == (Word.gen(49999) ** 2,)


names_strategy = st.lists(st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,3}", fullmatch=True),
                          min_size=1, max_size=4, unique=True)


@st.composite
def coded_presentations(draw):
    # relators are runs of letter codes: empty words, long runs and runs
    # of inverse letters all occur
    names = draw(names_strategy)
    runs = st.lists(st.tuples(st.integers(0, 2 * len(names) - 1), st.integers(1, 40)),
                    max_size=6)
    words = draw(st.lists(runs, max_size=5))
    return GroupPresentation(names, [Word.of([x for x, k in w for _ in range(k)])
                                     for w in words])


@given(coded_presentations())
@example(GroupPresentation(("a",), [Word.of([1] * 300)]))
@example(GroupPresentation(("a", "b"), [Word.of(()), Word.of([0, 1, 2, 2, 3])]))
def test_parse_format_roundtrip(p):
    text = format_presentation(p)
    q = parse_presentation(text)
    assert q == p
    assert format_presentation(q) == text


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
    out, _ = tietze_simplify(p, Budget(max_generators=64, max_total_relator_length=12))
    assert "c" not in out.generator_names


def test_tietze_caps_flag():
    caps = Budget(max_generators=1, max_total_relator_length=65536)
    p = parse_presentation("< a, b | a^2 b^2 a^2 b^-2 >")
    out, hit = tietze_simplify(p, caps)
    assert hit  # cannot get below two generators
    assert out.n_generators == 2


def test_tietze_deterministic():
    p = parse_presentation("< a, b, c | a b c, c^4, b^6 >")
    first = tietze_simplify(p)
    for _ in range(3):
        assert tietze_simplify(p) == first


def test_presentation_canonicalises_each_distinct_word_once(monkeypatch):
    # equal words repeat both as one object and as distinct objects: the
    # memo is keyed by the letters, not by the object
    words = [W((0, 1), (1, 1), (0, -1))] * 50 + [W((1, -1), (0, -1))] * 30
    words += [W((0, 1), (0, -1))] * 20 + [W((1, 1), (0, 1))]
    words += [W((0, 1), (1, 1), (0, -1)) for _ in range(10)]
    words += [W((1, 1), (0, 1)) for _ in range(10)]
    expected = tuple(c for c in map(canonical_relator, words) if len(c))
    calls = []

    def counted(w):
        calls.append(w)
        return canonical_relator(w)

    monkeypatch.setattr(fpgroup, "canonical_relator", counted)
    assert GroupPresentation(("a", "b"), words).relators == expected
    assert len({id(w) for w in words}) == 24
    assert len(calls) == len(set(words)) == 4


def test_presentation_rejects_a_repeated_out_of_range_word():
    with pytest.raises(ValueError, match="generator index 1"):
        GroupPresentation(("a",), [W((0, 1))] + [W((1, 1), (0, 1))] * 3)


def test_word_str_collapses_runs():
    p = parse_presentation("< a, b | a^3 b^-2 a >")
    assert p.word_str(p.relators[0]) in ("a^3 b^-2 a", "a^4 b^-2")
    # canonical rotation may rotate the run together; reparse must agree
    assert parse_presentation(str(p)) == p
    assert format_word(Word(), p.generator_names) == "1"  # the empty word


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


@given(pair_words(min_size=1), st.integers(1, 6), st.integers(min_value=0))
@example([(0, 1)], 6, 0)
@example([(0, 1), (1, -1), (0, 1), (1, 1)], 3, 5)
def test_canonical_relator_matches_every_rotation_reference(pairs, k, shift):
    # a power s^k, rotated, has its canonical form among the rotations
    # within its first period
    letters = (Word(pairs) ** k).letters
    shift %= len(letters)
    w = Word.of(letters[shift:] + letters[:shift])
    assert canonical_relator(w) == canonical_relator_reference(w)
    assert canonical_relator(w.inverse()) == canonical_relator_reference(w.inverse())


@given(pair_words(n_gens=2, min_size=1, max_size=6), st.integers(1, 8))
def test_period_is_the_length_of_the_primitive_root(pairs, k):
    letters = (Word(pairs) ** k).letters
    n = len(letters)
    assert period(letters) == next(p for p in range(1, n + 1)
                                   if not n % p and letters[:n - p] == letters[p:])


def test_parse_long_power():
    # b^15001 is its own canonical form: each of its 15,001 rotations
    # starts at the least letter, and only the one within its period is
    # compared
    p = parse_presentation("< a, b | a^2, b^15001, (a b)^2 >")
    assert p.relators[1] == Word.gen(1) ** 15001


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
    rels = [r.letters for r in p.relators]
    assert _subword_replacement(rels, DEFAULT_BUDGET) == (1, (2, 2, 2))
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


@st.composite
def random_presentations(draw):
    n = draw(st.integers(1, 5))
    rels = draw(st.lists(pair_words(n, 1, 10), max_size=6))
    return GroupPresentation([f"g{i}" for i in range(n)], [Word(r) for r in rels])


@st.composite
def shaped_presentations(draw):
    """A letter x, a power y^k, and x y^j or y^j, with up to two random
    relators, in random order: the smallest shape on which broken copies of
    the Tietze loop were seen to differ from the reference.  A replacement
    shortens y^k, and then an elimination of x that the cap blocked fits."""
    n = draw(st.integers(2, 3))
    x, y = draw(st.permutations(range(n)))[:2]
    sign = st.sampled_from((1, -1))
    head = [(x, draw(sign))] if draw(st.booleans()) else []
    core = [[(x, draw(sign))], [(y, draw(sign))] * draw(st.integers(3, 7)),
            head + [(y, draw(sign))] * draw(st.integers(1, 7))]
    rels = draw(st.permutations(core + draw(st.lists(pair_words(n, 1, 6), max_size=2))))
    return GroupPresentation([f"g{i}" for i in range(n)], [Word(r) for r in rels])


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_presentations(), shaped_presentations()))
# a rewritten relator equals a later one, which must be the one dropped
@example(parse_presentation("< a, b, c | b c^2, a c^-1 a c^-1 b^2 c^-1 b, a c^-2,"
                            " a c^2 a^-1 b, c^2, a b^-1 >"))
# the cap blocks a generator's best candidate but not its next one
@example(parse_presentation("< a, b | a b, a^2 b a^-1 b^-1 a b^-1, a b^2 a^-1 b,"
                            " a^2 b^-1 a b^-1, a b^-1 >"))
# the cap blocks a candidate that fits after the next elimination
@example(parse_presentation("< a, b, c | a^2, a c, b c, b^8 c >"))
# a subword replacement turns g0^10 (g0^6 after the first) into a copy of g0^2
@example(parse_presentation("< g0 | g0^2, g0^4, g0^10 >"))
# a subword complement brings in a generator the replaced relator lacks
@example(parse_presentation("< a, b, c | a b a c^-1, a b a b^2, a^3 b^-2, c >"))
# the cap blocks a candidate that fits after a subword replacement
@example(parse_presentation("< a, b, c, d | c, a^3 c, a b^2 d^-2 c^-1, a b^2 d b^-1 >"))
# ... and that candidate was the last key tried before the replacement
@example(parse_presentation("< a, b, c | a^2 c^2, a c^-1 b^-2 c^-1, a^2 b^-1, b^3 c^-1 >"))
@example(parse_presentation("< g0, g1 | g1, g0^6, g0^4 >"))
# "a^3" occurs twice in the cyclic word a^4 b^-1, with different
# complements: the first occurrence's replaces it
@example(parse_presentation("< a, b | a^4 b^-1, a^3 b a^-1 b^2, b^2 >"))
# 49 subword replacements in a row reach the fixed point < a, b | a^4 >
@example(parse_presentation("< a, b | a^4, a^100 b a^100 b^-1 >"))
# the substitution's branches, each reached by its example: b = 1 leaves
# a a^-1 side by side
@example(parse_presentation("< a, b, c | b, a b a^-1 c^3 >"))
# a cancellation at the left join
@example(parse_presentation("< a, b, c | a c b a, c b c >"))
# ... at the right join
@example(parse_presentation("< a, b, c | a b c^-1, c a b >"))
# ... across the wrap of the relator substituted into
@example(parse_presentation("< a, b, c | a c b^-1, c^-1 b a^-1 b^2 >"))
# a = b empties the commutator
@example(parse_presentation("< a, b, c | a b^-1, a b a^-1 b^-1, c^3 >"))
# the eliminated generator occurs twice in the relator substituted into
@example(parse_presentation("< a, b, c | a b c^-1, c^2 a^2 b^-3 >"))
# the elimination through c a^-1 rewrites one b^2 relator into a copy of
# the other: of a later one, which goes, and of an earlier one, which stays
@example(parse_presentation("< a, b, c | c a^-1, b^2 a, b^2 c >"))
@example(parse_presentation("< a, b, c | c a^-1, b^2 c, b^2 a >"))
def test_tietze_matches_full_rescan_reference(p):
    # caps from a quarter of the input's length up to all of it, where
    # eliminations are blocked and then fit again after a replacement, and
    # above it, where only an elimination that grows the total is blocked
    total = p.total_relator_length
    caps = sorted({*range(max(1, total // 4), total + 1, max(1, total // 24)),
                   total + 1, total + total // 4, 2 * total} - {0})
    for budget in (DEFAULT_BUDGET, *(Budget(max_total_relator_length=c) for c in caps)):
        result = tietze_simplify(p, budget)
        assert (_simplified_bytes(result)
                == _simplified_bytes(tietze_simplify_reference(p, budget)))
        assert len(set(result.presentation.relators)) == result.presentation.n_relators


def test_tietze_runs_long_subword_chains_to_their_fixed_point():
    p = parse_presentation("< a, b | a^4, a^100 b a^100 b^-1 >")
    assert tietze_simplify(p) == (parse_presentation("< a, b | a^4 >"), False)


@pytest.mark.parametrize("group", [
    make("free_product", (make("cyclic", (6,)), make("cyclic", (8,)))),
    make("fuchsian", (0, (4, 4, 4, 4))),
    wide(6),  # 321 generators: many tied keys on the heap
    # the heaviest seed-0 series-deep strata: relators of up to 220
    # letters reach the subword scan
    make("triangle", (12, 12, 12)),
    make("fuchsian", (0, (3, 6, 3, 6))),
])
@pytest.mark.parametrize("caps", [DEFAULT_BUDGET,
                                  Budget(max_total_relator_length=400)])
def test_tietze_matches_reference_on_raw_rewrite(group, caps):
    raw = rewrite_presentation(group, commutator_coset_table(group))
    assert (_simplified_bytes(tietze_simplify(raw, caps))
            == _simplified_bytes(tietze_simplify_reference(raw, caps)))


@pytest.mark.parametrize("pairs", [[(0, 0)], [(0, 2)], [(1, -2)], [(-1, 1)],
                                   [(0, 1), (-3, -1)]])
def test_word_rejects_a_bad_letter(pairs):
    # each used to be read as some other letter: (0, 0) as a, (-1, 1) as b
    # in a two-generator group; (-3, -1) broke printing with an IndexError
    with pytest.raises(ValueError):
        Word(pairs)
    with pytest.raises(ValueError):
        Word.gen(*pairs[-1])


@pytest.mark.parametrize("codes", [(-2,), (0, -5), (-1, 2)])
def test_presentation_rejects_a_negative_letter_code(codes):
    with pytest.raises(ValueError, match="generator index -"):
        GroupPresentation(("a", "b"), [Word.of(codes)])
    with pytest.raises(ValueError, match="unknown generator"):
        todd_coxeter(make("triangle", (2, 3, 5)), [Word.of(codes)])


@settings(max_examples=150, deadline=None)
@given(st.one_of(coded_presentations(), small_presentations(), random_presentations(),
                 shaped_presentations()))
def test_abelianization_without_transform_matches_abelianization_data(p):
    assert abelianization(p) == abelianization_data(p).invariants
