import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adorn.abelian import AbelianInvariants, abelianization, abelianization_data
from adorn.alexander import (AlexanderError, DeficiencyMismatch, LaurentPoly,
                             NotKnotLike, _divide_by_geometric_sum,
                             alexander_polynomial, fox_derivative,
                             knot_adorability_report)
from adorn.fpgroup import (GroupPresentation, Word, free_reduce, parse_presentation,
                           tietze_simplify)
from adorn.zoo import make

from oracles import (GroupRingElement, alexander_polynomial_reference,
                     fox_derivative_reference, laurent_gcd)

A = Word.gen(0)
B = Word.gen(1)


def poly(d):
    return LaurentPoly(d)


def left_mul(w: Word, elem: GroupRingElement) -> GroupRingElement:
    return GroupRingElement({free_reduce(w * k): c for k, c in elem.terms.items()})


def test_fox_axioms():
    assert fox_derivative_reference(A, 0) == GroupRingElement({Word(): 1})
    assert fox_derivative_reference(B, 0) == GroupRingElement({})
    assert fox_derivative_reference(A.inverse(), 0) == \
        GroupRingElement({A.inverse(): -1})


def test_fox_product_rule_random():
    rng = random.Random(31)
    for _ in range(150):
        u = Word((rng.randrange(3), rng.choice((1, -1)))
                 for _ in range(rng.randrange(0, 7)))
        v = Word((rng.randrange(3), rng.choice((1, -1)))
                 for _ in range(rng.randrange(0, 7)))
        g = rng.randrange(3)
        assert fox_derivative_reference(u * v, g) == \
            fox_derivative_reference(u, g) + \
            left_mul(u, fox_derivative_reference(v, g))


def test_fox_trefoil_example():
    w = make("trefoil").relators[0]  # a b a b^-1 a^-1 b^-1
    d = fox_derivative_reference(w, 0)
    expected = GroupRingElement({
        Word(): 1,
        A * B: 1,
        A * B * A * B.inverse() * A.inverse(): -1,
    })
    assert d == expected


words = st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))),
                 max_size=12).map(Word)
images = st.tuples(*[st.integers(-3, 3)] * 3)


@settings(max_examples=300, deadline=None)
@given(words, st.integers(0, 2), images)
def test_fox_derivative_equals_group_ring_reference(w, g, e):
    assert fox_derivative(w, g, e) == fox_derivative_reference(w, g).to_laurent(e)


@settings(max_examples=300, deadline=None)
@given(words, images)
def test_fox_fundamental_formula(w, e):
    # sum_g dw/dg (g - 1) = w - 1 in Z[F], pushed through g -> t^e(g)
    total = LaurentPoly.zero()
    for g in range(3):
        total = total + fox_derivative(w, g, e) * (poly({e[g]: 1}) + poly({0: -1}))
    assert total == poly({sum(s * e[g] for g, s in w): 1}) + poly({0: -1})


def test_laurent_normalization_and_format():
    p = poly({-1: -2, 1: 3, 0: -1})
    n = p.normalized()
    assert n.min_exp() == 0
    assert n.coeffs[n.max_exp()] > 0
    assert str(poly({2: 1, 1: -1, 0: 1})) == "t^2 - t + 1"
    assert str(poly({0: 1})) == "1"
    assert str(poly({2: 1, 1: -3, 0: 1})) == "t^2 - 3t + 1"


def test_laurent_gcd():
    # (1+t^3) and (1+t^2+t^4) share exactly t^2-t+1
    f = poly({0: 1, 3: 1})
    g = poly({0: 1, 2: 1, 4: 1})
    assert laurent_gcd(f, g) == poly({2: 1, 1: -1, 0: 1})
    # gcd with zero and with units
    assert laurent_gcd(poly({}), f) == f.normalized()
    assert laurent_gcd(poly({5: 1}), f) == poly({0: 1})
    # content is respected
    assert laurent_gcd(poly({0: 6}), poly({0: 4})) == poly({0: 2})


def test_unknot():
    assert alexander_polynomial(parse_presentation("< a | >")) == LaurentPoly.one()


def test_trefoil_polynomial():
    assert alexander_polynomial(make("trefoil")) == poly({2: 1, 1: -1, 0: 1})


def test_figure_eight_polynomial():
    assert alexander_polynomial(make("figure_eight")) == poly({2: 1, 1: -3, 0: 1})


def test_torus_knot_without_unit_image():
    # x and y of < x, y | x^2 y^-3 > map to t^3 and t^2: the minor without
    # y's column, divided by 1 + t, is the trefoil polynomial
    assert alexander_polynomial(make("torus_knot", (2, 3))) == poly({2: 1, 1: -1, 0: 1})


def test_torus_knot_25():
    # (2,5) torus knot: t^4 - t^3 + t^2 - t + 1
    got = alexander_polynomial(make("torus_knot", (2, 5)))
    assert got == poly({4: 1, 3: -1, 2: 1, 1: -1, 0: 1})


def _images(p):
    return tuple(row[0] for row in abelianization_data(p).free_images)


def test_orientation_pinned_by_a_non_symmetric_polynomial():
    # both images are negative, so t is flipped to 1/t before any minor
    p = parse_presentation("< a, b | a^3 b^-1 a b^-2 >")
    assert _images(p) == (-3, -4)
    delta = alexander_polynomial(p)
    assert delta == poly({3: 1, 1: -1, 0: 1})  # t^3 - t + 1
    assert not delta.is_symmetric()
    assert delta == alexander_polynomial_reference(p)


def test_zero_image_column_is_never_deleted():
    # z maps to t^0, whose minor is 0; y (image of least |e|) is deleted
    p = parse_presentation("< x, y, z | x^2 y^-3, z y^3 x^-2 >")
    assert sorted(map(abs, _images(p))) == [0, 2, 3]
    assert alexander_polynomial(p) == poly({2: 1, 1: -1, 0: 1})
    assert alexander_polynomial_reference(p) == poly({2: 1, 1: -1, 0: 1})


def test_division_by_geometric_sum():
    # (t^3 - 1)/(t - 1) = t^2 + t + 1 divides t^-1 (t^3 - 1) exactly, and
    # leaves a remainder on t^2 + 1
    assert _divide_by_geometric_sum(poly({2: 1, -1: -1}), 3) == poly({0: 1, -1: -1})
    assert _divide_by_geometric_sum(poly({4: 2, 0: -2}), 1) == poly({4: 2, 0: -2})
    assert _divide_by_geometric_sum(poly({}), 5) == poly({})
    with pytest.raises(AlexanderError, match="not divisible"):
        _divide_by_geometric_sum(poly({2: 1, 0: 1}), 3)


EXPONENTS = (-3, -2, -1, 1, 2, 3)


def _power_word(codes) -> Word:
    """The product of the powers g^k over codes 6g + i, k = EXPONENTS[i]."""
    letters = []
    for c in codes:
        g, i = divmod(c, 6)
        letters += [(g, 1 if EXPONENTS[i] > 0 else -1)] * abs(EXPONENTS[i])
    return Word(letters)


POWER_WORDS = {n: st.lists(st.integers(0, 6 * n - 1), max_size=6).map(_power_word)
               for n in range(1, 5)}


@st.composite
def knot_like_presentations(draw):
    """Deficiency-one presentations on 1-4 generators whose relators are
    products of generator powers.  On 3 or more generators, the last
    relator may be z u r^s u^-1 [v, w], with z the last generator and r the
    first relator, which then avoids z: z maps to t^0."""
    n = draw(st.integers(1, 4))
    words = POWER_WORDS[n]
    zero = n >= 3 and draw(st.booleans())
    rels = [draw(POWER_WORDS[n - 1] if zero and i == 0 else words)
            for i in range(n - 1)]
    if zero:
        u, v, w = draw(words), draw(words), draw(words)
        r = rels[0] ** draw(st.sampled_from((1, -1)))
        rels[-1] = (Word.gen(n - 1) * u * r * u.inverse()
                    * v * w * v.inverse() * w.inverse())
    return GroupPresentation(("a", "b", "c", "d")[:n], rels)


@settings(max_examples=300, deadline=None)
@given(knot_like_presentations())
@example(parse_presentation("< a, b | a^3 b^-1 a b^-2 >"))  # all negative, no unit
@example(parse_presentation("< x, y, z | x^2 y^-3, z y^3 x^-2 >"))  # a zero image
@example(make("torus_knot", (3, 4)))  # no unit image
def test_one_minor_equals_gcd_of_all_minors(p):
    assume(p.n_relators == p.n_generators - 1)
    assume(abelianization(p) == AbelianInvariants(1, ()))
    try:
        want = alexander_polynomial_reference(p)
    except AlexanderError as exc:
        with pytest.raises(type(exc)):
            alexander_polynomial(p)
    else:
        assert alexander_polynomial(p) == want


def test_not_knot_like():
    with pytest.raises(NotKnotLike):
        alexander_polynomial(make("cyclic", (5,)))
    with pytest.raises(NotKnotLike):
        alexander_polynomial(make("surface", (1,)))
    with pytest.raises(NotKnotLike):
        alexander_polynomial(make("klein_bottle"))  # Z + Z/2


def test_deficiency_mismatch():
    rel = make("trefoil").relators[0]
    p = parse_presentation("< a, b | a b a b^-1 a^-1 b^-1, b a b a^-1 b^-1 a^-1 >")
    with pytest.raises(DeficiencyMismatch):
        alexander_polynomial(p)


def corpus():
    return [
        parse_presentation("< a | >"),
        make("trefoil"),
        make("figure_eight"),
        make("torus_knot", (2, 3)),
        make("torus_knot", (2, 5)),
        make("torus_knot", (3, 4)),
    ]


def test_corpus_determinant_one_at_unity():
    for p in corpus():
        delta = alexander_polynomial(p)
        assert abs(delta.value_at_one()) == 1


def test_corpus_symmetry():
    for p in corpus():
        assert alexander_polynomial(p).is_symmetric()


def test_corpus_even_degree():
    for p in corpus():
        assert alexander_polynomial(p).degree_span() % 2 == 0


def test_invariance_under_tietze():
    for p in corpus():
        if p.n_generators < 2:
            continue
        delta = alexander_polynomial(p)
        # pad with a redundant generator c = a b and simplify back
        names = p.generator_names + ("zz",)
        extra = Word.gen(p.n_generators) * (A * B).inverse()
        from adorn.fpgroup import GroupPresentation
        padded = GroupPresentation(names, p.relators + (extra,))
        assert alexander_polynomial(padded) == delta  # still deficiency one
        simplified, _ = tietze_simplify(padded)
        assert alexander_polynomial(simplified) == delta


def test_knot_report_trefoil():
    rep = knot_adorability_report(make("trefoil"))
    assert rep.verdict == "NotAdorable"
    assert rep.degree == 2
    assert rep.derived_quotient_rank == 2
    assert rep.rank_provenance == "cited"
    assert not rep.adorable


def test_knot_report_unknot():
    rep = knot_adorability_report(parse_presentation("< a | >"))
    assert rep.adorable
    assert rep.polynomial == LaurentPoly.one()


def test_knot_report_torus_knot_not_adorable():
    rep = knot_adorability_report(make("torus_knot", (2, 3)))
    assert rep.verdict == "NotAdorable"


def test_knot_report_rank_note_for_degree_three_plus():
    # (3,4) torus knot has degree-6 polynomial: the rank >= 3 note appears
    rep = knot_adorability_report(make("torus_knot", (3, 4)))
    assert rep.degree == 6
    assert any("rank >= 3" in n for n in rep.notes)
