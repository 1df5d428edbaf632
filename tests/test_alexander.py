import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adorn.abelian import AbelianInvariants, abelianization, abelianization_data
from adorn.alexander import (AlexanderError, DeficiencyMismatch, LaurentPoly,
                             NotKnotLike, _divide_by_geometric_sum,
                             _kronecker_det, alexander_polynomial,
                             fox_derivative, knot_adorability_report)
from adorn.fpgroup import (GroupPresentation, Word, free_reduce, parse_presentation,
                           tietze_simplify)
from adorn.zoo import make

from oracles import (GroupRingElement, _laurent_det, alexander_polynomial_reference,
                     fox_derivative_reference, laurent_add, laurent_gcd, laurent_mul)

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
        g_minus_one = laurent_add(poly({e[g]: 1}), poly({0: -1}))
        total = laurent_add(total, laurent_mul(fox_derivative(w, g, e), g_minus_one))
    assert total == laurent_add(poly({sum(s * e[g] for g, s in w): 1}), poly({0: -1}))


def test_laurent_normalization_and_format():
    p = poly({-1: -2, 1: 3, 0: -1})
    n = p.normalized()
    assert n.min_exp() == 0
    assert n.coeffs[n.max_exp()] > 0
    assert str(poly({2: 1, 1: -1, 0: 1})) == "t^2 - t + 1"
    assert str(poly({0: 1})) == "1"
    assert str(LaurentPoly()) == "0"
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
    row = abelianization_data(p).free_rows[0]
    return tuple(row.get(g, 0) for g in range(p.n_generators))


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


HADAMARD_4 = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
HADAMARD_8 = [row + row for row in HADAMARD_4] + [row + [-x for x in row]
                                                  for row in HADAMARD_4]


def test_hadamard_examples_meet_the_bound():
    # the constant +-1 Hadamard matrix of order n has |det| = n^(n/2), which
    # is B = sqrt(prod_i sum_j 1): the Kronecker width leaves no slack
    for h, d in ((HADAMARD_4, 16), (HADAMARD_8, 4096)):
        assert abs(_laurent_det([[poly({0: x}) for x in row] for row in h])
                   .coeffs[0]) == d == math.isqrt(len(h) ** len(h))


laurent_entries = st.dictionaries(st.integers(-6, 6), st.integers(-10**6, 10**6),
                                  max_size=3).map(LaurentPoly)


@st.composite
def laurent_matrices(draw):
    """Square matrices of order 0-6 over Z[t, 1/t], with zero entries and,
    sometimes, a zero row."""
    n = draw(st.integers(0, 6))
    rows = [[draw(laurent_entries) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [LaurentPoly.zero()] * n
    return rows


@settings(max_examples=300, deadline=None)
@given(laurent_matrices())
@example([[poly({-2: 10**6, 3: -10**6})]])
@example([[poly({0: 1}), poly({1: 1})], [poly({-1: 1}), poly({0: 1})]])  # det 0
@example([[poly({}), poly({1: -3})], [poly({-4: 5}), poly({})]])  # zero pivot
# Hadamard's bound is tight on these: |det| = B exactly
@example([[poly({0: x}) for x in row] for row in HADAMARD_4])  # det 16
@example([[poly({0: -x}) for x in row] if i == 2 else [poly({0: x}) for x in row]
          for i, row in enumerate(HADAMARD_4)])  # det -16
@example([[poly({0: x}) for x in row] for row in HADAMARD_8])  # det 4096
@example([[poly({-3: 1}), poly({-3: 1})], [poly({2: 1}), poly({2: -1})]])  # -2t^-1
@example([[poly({5: -10**6})]])
def test_kronecker_determinant_equals_cofactor_expansion(m):
    assert _kronecker_det(m) == _laurent_det(m)


def _exact_quotient(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials (coefficient lists, constant first)
    by long division from the top; asserts a zero remainder."""
    num, out = list(num), [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        out[i], rem = divmod(num[i + len(den) - 1], den[-1])
        assert rem == 0
        for j, c in enumerate(den):
            num[i + j] -= out[i] * c
    assert not any(num)
    return out


def _torus_braid_closure(p: int) -> GroupPresentation:
    """Knot group of the closure of (sigma_1 ... sigma_{p-1})^(p+1), from
    the Artin action: x_k = beta(x_k) for every strand but the last."""
    x = [Word.gen(k) for k in range(p)]
    img = list(x)
    for i in list(range(p - 1)) * (p + 1):
        a, b = img[i], img[i + 1]
        img[i], img[i + 1] = free_reduce(a * b * a.inverse()), a
    return GroupPresentation(tuple(f"x{k}" for k in range(p)),
                             [img[k] * x[k].inverse() for k in range(p - 1)])


@pytest.mark.parametrize("p", range(3, 13))
def test_torus_knot_polynomial(p):
    # Delta(T(p, q)) = (t^pq - 1)(t - 1)/((t^p - 1)(t^q - 1)), q = p + 1,
    # which is (1 + t^q + ... + t^(p-1)q)/(1 + t + ... + t^(p-1)); from the
    # zoo's one relator, from three relators on four generators, and from
    # the braid closure, whose minor is (p-1) x (p-1)
    q = p + 1
    num = [int(i % q == 0) for i in range(q * (p - 1) + 1)]
    want = poly(dict(enumerate(_exact_quotient(num, [1] * p))))
    x, y, u, v = (Word.gen(i) for i in range(4))
    four = GroupPresentation(("x", "y", "u", "v"),
                             (u * x ** -p, v * y ** -q, u * v.inverse()))
    assert alexander_polynomial(make("torus_knot", (p, q))) == want
    assert alexander_polynomial(four) == want
    assert alexander_polynomial(_torus_braid_closure(p)) == want


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


ENTRY_BOUND = 3  # largest |entry| of the unimodular matrix


@st.composite
def _unimodular(draw, n: int) -> list[list[int]]:
    """An n x n integer matrix of determinant +-1: the identity after a few
    row additions row_i += k row_j that keep every entry within
    ENTRY_BOUND, then a row permutation."""
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = draw(st.sampled_from((-2, -1, 1, 2)))
        row = [a + k * b for a, b in zip(v[i], v[j])]
        if i != j and max(map(abs, row)) <= ENTRY_BOUND:
            v[i] = row
    return draw(st.permutations(v))


@st.composite
def _relator(draw, exponents: list[int]) -> Word:
    """A shuffled product of generator powers with the given exponent sums
    (each sum split in two pieces, so a generator of sum 0 may still occur),
    times a commutator [v, w]."""
    pieces = []
    for g, e in enumerate(exponents):
        a = draw(st.integers(-2, 2))
        pieces += [(g, k) for k in (a, e - a) if k]
    body = Word()
    for g, k in draw(st.permutations(pieces)):
        body = body * Word.gen(g) ** k
    v, w = draw(POWER_WORDS[len(exponents)]), draw(POWER_WORDS[len(exponents)])
    return body * v * w * v.inverse() * w.inverse()


@st.composite
def knot_like_presentations(draw):
    """Deficiency-one presentations with H1 = Z on 1-4 generators, built
    directly.  The relators' exponent sums are rows 1..n-1 of a unimodular
    V, so they span the kernel of x -> (x V^-1)[0], a map onto Z: generator
    g maps to t^e with e = (V^-1)[g][0].  An image may be 0, and no image
    need be a unit."""
    n = draw(st.integers(1, 4))
    v = draw(_unimodular(n))
    rels = [draw(_relator(row)) for row in v[1:]]
    return GroupPresentation(("a", "b", "c", "d")[:n], rels)


@settings(max_examples=300, deadline=None)
@given(knot_like_presentations())
@example(parse_presentation("< a, b | a^3 b^-1 a b^-2 >"))  # all negative, no unit
@example(parse_presentation("< x, y, z | x^2 y^-3, z y^3 x^-2 >"))  # a zero image
@example(make("torus_knot", (3, 4)))  # no unit image
def test_one_minor_equals_gcd_of_all_minors(p):
    assert p.n_relators == p.n_generators - 1
    assert abelianization(p) == AbelianInvariants(1, ())
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


def test_knot_report_diagnoses_a_polynomial_no_knot_has():
    # BS(1, 2) = < a, t | a^2 t a^-1 t^-1 > has deficiency one and H1 = Z,
    # like a knot group, but its Alexander polynomial t - 2 is neither
    # symmetric nor of even degree
    rep = knot_adorability_report(make("baumslag_solitar", (1, 2)))
    assert str(rep.polynomial) == "t - 2" and rep.degree == 1
    assert rep.notes == (
        "diagnostic: polynomial is not symmetric under t -> 1/t",
        "diagnostic: odd degree; Alexander polynomials of knots have even degree")
    assert rep.verdict == "NotAdorable" and not rep.adorable


def test_knot_report_rank_note_for_degree_three_plus():
    # (3,4) torus knot has degree-6 polynomial: the rank >= 3 note appears
    rep = knot_adorability_report(make("torus_knot", (3, 4)))
    assert rep.degree == 6
    assert any("rank >= 3" in n for n in rep.notes)
