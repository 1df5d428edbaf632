import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adorn import abelian, cosets
from adorn.abelian import AbelianInvariants, abelianization
from adorn.cosets import CapExceeded, order_exceeds, todd_coxeter
from adorn.derived import NON_ADORABLE, derived_series
from adorn.fpgroup import Budget, GroupPresentation, Word, parse_presentation
from adorn.zoo import (CannotCertifyFactorTriviality, SeifertData,
                       SplittingDecl, UnknownSolvabilityStep,
                       UnsupportedOrbifold, certify_nontrivial,
                       FAMILIES, _pairwise_coprime, classify_seifert,
                       free_product_verdict, make, splitting_verdict)

from oracles import is_perfect, minor_gcd_diagonal, symmetric


def test_family_order():
    # `adorn zoo` lists the families in this order
    assert FAMILIES == (
        "free", "cyclic", "dihedral_inf", "free_product", "direct_product",
        "braid", "torus_knot", "sl2z", "triangle", "surface", "klein_bottle",
        "fuchsian", "baumslag_solitar", "trefoil", "figure_eight", "sl3z")


PARAMETERLESS = {"dihedral_inf", "sl2z", "klein_bottle", "trefoil", "figure_eight", "sl3z"}


@pytest.mark.parametrize("family", FAMILIES)
def test_make_without_parameters(family):
    try:
        p = make(family, ())
    except ValueError as exc:
        assert family not in PARAMETERLESS
        assert str(exc) == f"family {family!r}: missing parameters"
    else:
        assert family in PARAMETERLESS
        assert isinstance(p, GroupPresentation)


def test_braid3_presentation():
    p = make("braid", (3,))
    assert p == parse_presentation("< s1, s2 | s1 s2 s1 s2^-1 s1^-1 s2^-1 >")


def test_dihedral_inf_presentation():
    assert make("dihedral_inf") == parse_presentation("< a, b | a^2, b^2 >")


def test_fuchsian_presentation_sphere():
    p = make("fuchsian", (0, (2, 3, 7)))
    assert p == parse_presentation("< x1, x2, x3 | x1^2, x2^3, x3^7, x1 x2 x3 >")


def test_fuchsian_presentation_genus():
    p = make("fuchsian", (1, (2,)))
    q = parse_presentation("< a1, b1, x1 | x1^2, a1 b1 a1^-1 b1^-1 x1 >")
    assert p == q


def test_torus_knot_presentation():
    assert make("torus_knot", (2, 3)) == parse_presentation("< x, y | x^2 y^-3 >")


def test_unknown_family():
    with pytest.raises(ValueError, match=r"unknown family 'mystery' \(known: free, "):
        make("mystery")
    with pytest.raises(ValueError, match="missing parameters"):
        make("triangle", (2,))


def test_free_product_renames_clashing_generators():
    p = make("free_product", (make("cyclic", (2,)), make("cyclic", (3,))))
    assert p.generator_names == ("a", "a1")
    assert abelianization(p) == AbelianInvariants(0, (6,))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_braid_abelianization_is_z(n):
    assert abelianization(make("braid", (n,))) == AbelianInvariants(1, ())


@pytest.mark.parametrize("g", [1, 2, 3])
def test_surface_abelianization(g):
    assert abelianization(make("surface", (g,))) == AbelianInvariants(2 * g, ())


@pytest.mark.parametrize("pqr", [(2, 3, 5), (2, 3, 6), (2, 4, 4), (3, 3, 3),
                                 (2, 3, 7), (4, 6, 10), (2, 2, 2)])
def test_triangle_abelianization_matches_minor_oracle(pqr):
    p, q, r = pqr
    inv = abelianization(make("triangle", pqr))
    oracle = [d for d in minor_gcd_diagonal([[p, 0], [0, q], [r, r]]) if d > 1]
    assert inv.rank == 0
    assert list(inv.torsion) == oracle


def test_klein_bottle_abelianization():
    assert str(abelianization(make("klein_bottle"))) == "Z ⊕ Z/2"


def test_direct_product_abelianization():
    # Z/4 x Z/6 is Z/2 x Z/12 in invariant factors
    p = make("direct_product", (make("cyclic", (4,)), make("cyclic", (6,))))
    assert str(abelianization(p)) == "Z/2 ⊕ Z/12"


def test_sl3z_perfect():
    assert is_perfect(make("sl3z"))


def test_baumslag_solitar_abelianization():
    # BS(2, 4): t-exponent free, a-exponent kills (2-4)
    assert abelianization(make("baumslag_solitar", (2, 4))) == AbelianInvariants(1, (2,))


# ---------------------------------------------------------------------------
# free products


def test_free_product_verdict_dinfty():
    v = free_product_verdict(make("cyclic", (2,)), make("cyclic", (2,)))
    assert v.kind == "Dinfty" and v.doa == 2


def test_free_product_verdict_nonadorable():
    v = free_product_verdict(make("cyclic", (2,)), make("cyclic", (3,)))
    assert v.kind == "NonAdorable" and v.doa is None
    assert "rank >= 2" in v.note
    # cross-check: the engine finds a free stage of rank >= 2
    p = make("free_product", (make("cyclic", (2,)), make("cyclic", (3,))))
    _, verdict = derived_series(p)
    assert verdict.kind == NON_ADORABLE


def test_free_product_verdict_perfect():
    v = free_product_verdict(make("triangle", (2, 3, 5)),
                             make("triangle", (2, 3, 7)))
    assert v.kind == "PerfectProduct" and v.doa == 0


@pytest.mark.parametrize("factors", [
    (("cyclic", (2,)), ("cyclic", (2,))),
    (("triangle", (2, 3, 5)), ("triangle", (2, 3, 7))),
], ids=["Z2*Z2", "triangle235*triangle237"])
def test_free_product_abelianizes_each_factor_once(monkeypatch, factors):
    pa, pb = (make(*f) for f in factors)
    budgets = []
    real = abelian.abelianization_data

    def counting(p, budget, **kwargs):
        budgets.append(budget)
        return real(p, budget, **kwargs)

    monkeypatch.setattr(abelian, "abelianization_data", counting)
    free_product_verdict(pa, pb, Budget(wall_clock_seconds=30))
    assert len(budgets) == 2
    # each under the caller's budget, with its clock started
    assert all(b == Budget(wall_clock_seconds=30) and b.deadline < math.inf
               for b in budgets)


def enumerations(monkeypatch):
    """Record (factor, subgroup words) of every enumeration an order proof runs."""
    calls = []
    real = cosets.todd_coxeter

    def counting(p, subgroup_gens, budget):
        calls.append((p, tuple(subgroup_gens)))
        return real(p, subgroup_gens, budget)

    monkeypatch.setattr(cosets, "todd_coxeter", counting)
    return calls


S5 = parse_presentation("< a, b, c, d | a^2, b^2, c^2, d^2, (a b)^3, (b c)^3, (c d)^3,"
                        " (a c)^2, (a d)^2, (b d)^2 >")


@pytest.mark.parametrize("pa,pb", [(S5, make("cyclic", (3,))), (make("cyclic", (3,)), S5)],
                         ids=["S5*Z3", "Z3*S5"])
def test_free_product_enumerates_no_factor_that_z3_rules_out(monkeypatch, pa, pb):
    # S5 abelianizes to Z2, so only its order, by enumeration, could tell
    # it from Z2; Z3's invariants already rule Dinfty out
    calls = enumerations(monkeypatch)
    v = free_product_verdict(pa, pb)
    assert v.kind == "NonAdorable" and v.doa is None
    assert calls == []


Z2 = make("cyclic", (2,))


@pytest.mark.parametrize("n,z2_first", [(7, False), (7, True), (6, True), (6, False)],
                         ids=["S7*Z2", "Z2*S7", "Z2*S6", "S6*Z2"])
def test_free_product_bounds_symmetric_order_by_a_subgroup_index(monkeypatch, n, z2_first):
    # S_n abelianizes to Z2; <s1 .. s{n-2}> = S_{n-1} has index n > 2,
    # which proves S_n is not Z2 without enumerating its n! elements
    sn = symmetric(n)
    calls = enumerations(monkeypatch)
    v = free_product_verdict(*((Z2, sn) if z2_first else (sn, Z2)))
    assert v.kind == "NonAdorable" and v.doa is None
    keep = tuple(Word.gen(i) for i in range(n - 2))
    assert [c for c in calls if c[0] is sn] == [(sn, keep)]
    # Z2, tested first, is enumerated whole: its one generator leaves no probe
    assert [c for c in calls if c[0] is Z2] == ([(Z2, ())] if z2_first else [])


@pytest.mark.parametrize("text,kind", [
    ("< b, a | a^2, b^3, (a b)^2 >", "NonAdorable"),  # S3: <b> has index 2
    ("< a, b | a^2, b a^-1 >", "Dinfty"),  # Z2: <a> has index 1
])
def test_free_product_falls_back_when_the_subgroup_index_is_at_most_two(monkeypatch,
                                                                         text, kind):
    q = parse_presentation(text)
    calls = enumerations(monkeypatch)
    assert free_product_verdict(q, Z2).kind == kind
    assert [c for c in calls if c[0] is q] == [(q, (Word.gen(0),)), (q, ())]


def test_free_product_recognizes_a_sphere_orbifold_without_enumeration(monkeypatch):
    # fuchsian(0, [2, 3, 5, 7]) is perfect; its x_1 x_2 x_3 x_4 shape has
    # four cone points, so it is non-trivial
    calls = enumerations(monkeypatch)
    v = free_product_verdict(make("fuchsian", (0, [2, 3, 5, 7])), Z2)
    assert v.kind == "NonAdorable" and v.doa is None
    assert calls == []


def test_free_product_decides_a_factor_over_the_coset_cap():
    # S8 has 40,320 elements, over the default cap of 20,000 cosets; the
    # subgroup S7 has index 8
    s8 = symmetric(8)
    with pytest.raises(CapExceeded):
        todd_coxeter(s8, ())
    v = free_product_verdict(s8, Z2)
    assert v.kind == "NonAdorable" and v.doa is None


def _relabelled(draw, p: GroupPresentation) -> GroupPresentation:
    # generators permuted and some inverted (an automorphism of the free
    # group), relators shuffled
    n = p.n_generators
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    rels = [Word((perm[g], s * signs[g]) for g, s in r) for r in p.relators]
    return GroupPresentation([f"g{i}" for i in range(n)], draw(st.permutations(rels)))


@st.composite
def small_orders(draw):
    """A relabelled presentation of a small finite group, and its order:
    S3 to S5 on Coxeter generators, an odd dihedral group, triangle(2,3,5),
    or Z2 or the trivial group with redundant generators."""
    kind = draw(st.sampled_from(["symmetric", "dihedral", "triangle", "redundant"]))
    if kind == "symmetric":
        n = draw(st.integers(3, 5))
        p, order = symmetric(n), math.factorial(n)
    elif kind == "dihedral":
        n = draw(st.sampled_from((3, 5, 7, 9, 15, 21)))
        p, order = parse_presentation(f"< a, b | a^2, b^{n}, (a b)^2 >"), 2 * n
    elif kind == "triangle":
        p, order = make("triangle", (2, 3, 5)), 60
    else:
        # a of order 1 or 2, and each further generator a word in the ones
        # before it
        order = draw(st.sampled_from((1, 2)))
        rels = [Word.gen(0) ** order]
        for g in range(1, draw(st.integers(2, 4))):
            letters = st.tuples(st.integers(0, g - 1), st.sampled_from((1, -1)))
            w = Word(draw(st.lists(letters, max_size=4)))
            rels.append(Word.gen(g).inverse() * w)
        p = GroupPresentation([f"x{i}" for i in range(len(rels))], rels)
    return _relabelled(draw, p), order


@settings(max_examples=150, deadline=None)
@given(case=small_orders(), k=st.sampled_from((1, 2)),
       max_cosets=st.sampled_from((2, 5, 12, 40, 150, 20000)))
def test_order_exceeds_agrees_with_full_enumeration(case, k, max_cosets):
    p, order = case
    caps = Budget(max_cosets=max_cosets)
    try:
        full = todd_coxeter(p, (), caps).n_cosets > k
    except CapExceeded:
        full = None
    try:
        fast = order_exceeds(p, k, caps)
    except CapExceeded as exc:
        assert full is None  # raises only where the full route raises too
        assert exc.limit == "max_cosets"
    else:
        assert fast == (order > k)
        assert full in (None, fast)


def test_free_product_rejects_trivial_factor():
    with pytest.raises(ValueError, match="trivial"):
        free_product_verdict(parse_presentation("< a | a >"), make("cyclic", (2,)))
    # a = b has order 2 and 3: two generators, but not of triangle shape
    with pytest.raises(ValueError, match="trivial"):
        free_product_verdict(parse_presentation("< a, b | a^2, b^3, a b^-1 >"),
                             make("cyclic", (2,)))


def test_free_product_cannot_certify():
    # sl3z is perfect and infinite, and is not of sphere-orbifold shape, so
    # tiny caps leave non-triviality uncertified
    with pytest.raises(CannotCertifyFactorTriviality) as info:
        free_product_verdict(make("sl3z"), make("cyclic", (2,)),
                             budget=Budget(max_cosets=30))
    assert isinstance(info.value.__cause__, CapExceeded)
    assert info.value.__cause__.limit == "max_cosets"


def test_certify_nontrivial_routes():
    assert certify_nontrivial(make("cyclic", (5,)))          # abelianization
    assert certify_nontrivial(make("triangle", (2, 3, 7)))   # structure
    assert certify_nontrivial(make("triangle", (2, 3, 5)))   # structure
    # A5 off the triangle shape: <a> has index 30
    assert certify_nontrivial(parse_presentation("< a, b | a^2, b^3, (b a)^5 >"))
    # A5 with c = a b: <a, b> has index 1, so the whole group is enumerated
    assert certify_nontrivial(parse_presentation("< a, b, c | a^2, b^3, (b a)^5, c^-1 a b >"))
    # one generator leaves no subgroup to try: the whole group is enumerated
    assert not certify_nontrivial(parse_presentation("< a | a >"))
    assert not certify_nontrivial(parse_presentation("< | >"))


# ---------------------------------------------------------------------------
# splittings


def test_splitting_hnn():
    v = splitting_verdict(SplittingDecl("hnn", 1))
    assert v.possibilities == ("NonAdorable",)
    assert "rank >= 2" in v.notes[0]


def test_splitting_amalgam_trichotomy():
    v = splitting_verdict(SplittingDecl("amalgam", 3))
    assert v.possibilities == ("AdorableDegree(3)", "DerivedStageIsDinfty(3)",
                               "NonAdorable")


def test_splitting_free_product_special_case():
    v = splitting_verdict(SplittingDecl("amalgam", 0))
    assert v.possibilities[0] == "AdorableDegree(0)"


def test_splitting_requires_step():
    with pytest.raises(UnknownSolvabilityStep):
        splitting_verdict(SplittingDecl("amalgam", None))


# ---------------------------------------------------------------------------
# Seifert classifier


SEIFERT_TABLE = [
    (SeifertData(0, (2, 3, 5)), "FiniteDerived"),
    (SeifertData(0, (2, 3, 7)), "Perfect"),
    (SeifertData(0, (2, 3, 6)), "Solvable"),
    (SeifertData(0, (3, 5, 7)), "Perfect"),
    (SeifertData(1, ()), "Solvable"),
    (SeifertData(2, ()), "NonAdorable"),
    (SeifertData(0, (2, 2, 2, 2, 2, 2)), "NonAdorable"),
    (SeifertData(0, (), has_boundary=True), "Solvable"),
    (SeifertData(0, (2, 2), has_boundary=True), "Solvable"),
    (SeifertData(0, (2, 3), has_boundary=True), "NonAdorable"),
    (SeifertData(1, (), has_boundary=True), "NonAdorable"),
    (SeifertData(0, (2, 2, 3, 5, 7)), "ReaderCase"),
    (SeifertData(0, (2, 3, 5, 7, 11, 13)), "Perfect"),
    (SeifertData(0, (5,), has_boundary=True), "Solvable"),
]


@pytest.mark.parametrize("data,branch", SEIFERT_TABLE)
def test_seifert_decision_table(data, branch):
    result = classify_seifert(data)
    assert result.branch == branch
    assert result.trace


def test_seifert_more_branches():
    assert classify_seifert(SeifertData(0, ())).branch == "FiniteDerived"
    assert classify_seifert(SeifertData(0, (4,))).branch == "FiniteDerived"
    assert classify_seifert(SeifertData(0, (4, 6))).branch == "FiniteDerived"
    assert classify_seifert(SeifertData(0, (3, 3, 3))).branch == "Solvable"
    assert classify_seifert(SeifertData(0, (2, 4, 4))).branch == "Solvable"
    assert classify_seifert(SeifertData(0, (3, 3, 7))).branch == "NonAdorable"
    assert classify_seifert(SeifertData(0, (2, 2, 2, 2))).branch == "Solvable"
    assert classify_seifert(SeifertData(0, (2, 3, 5, 7))).branch == "Perfect"
    assert classify_seifert(SeifertData(0, (2, 2, 3, 5))).branch == "NonAdorable"
    assert classify_seifert(SeifertData(0, (2, 3, 3, 5, 7))).branch == "NonAdorable"
    assert classify_seifert(SeifertData(0, (2, 3, 5, 7, 11))).branch == "ReaderCase"
    assert classify_seifert(SeifertData(1, (2,))).branch == "NonAdorable"
    assert classify_seifert(SeifertData(3, (2, 2))).branch == "NonAdorable"


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(2, 30), max_size=7))
def test_genus_zero_orbifold_perfect_iff_pairwise_coprime(cones):
    # H1 of the genus-0 orbifold group has order prod(p_i) / lcm(p_i), which
    # is what lets classify_seifert decide perfectness without an SNF
    assert _pairwise_coprime(cones) == is_perfect(make("fuchsian", (0, cones)))


def test_seifert_rejects_nonorientable():
    with pytest.raises(UnsupportedOrbifold):
        SeifertData(1, (), orientable_base=False)
    with pytest.raises(UnsupportedOrbifold):
        SeifertData(0, (1, 2))


def test_seifert_perfect_branch_agrees_with_is_perfect():
    # every classified tuple with max index <= 12: Perfect branch iff the
    # orbifold presentation is perfect (for branches that decide perfectness)
    import itertools
    for n in (3, 4):
        for cones in itertools.combinations_with_replacement(range(2, 13), n):
            branch = classify_seifert(SeifertData(0, cones)).branch
            perfect = is_perfect(make("fuchsian", (0, cones)))
            if branch == "Perfect":
                assert perfect, cones
            # converse holds once the finite (spherical) and deferred cases
            # are set aside: an infinite perfect base is the Perfect branch
            if perfect and branch not in ("ReaderCase", "FiniteDerived"):
                assert branch == "Perfect", cones


def test_remark_small_sphere_orbifold_groups_have_order_at_least_3():
    # indices <= 8 where enumeration completes: the 3-cone sphere orbifold
    # group is never smaller than Z/3 or S3-like groups of order >= 3
    import itertools
    caps = Budget(max_cosets=1500)
    completed = 0
    for cones in itertools.combinations_with_replacement(range(2, 9), 3):
        p = make("fuchsian", (0, cones))
        try:
            n = todd_coxeter(p, (), caps).n_cosets
        except CapExceeded:
            continue
        completed += 1
        assert n >= 3, cones
    assert completed >= 10  # spherical triples really did complete


@pytest.mark.parametrize("family,params", [
    ("cyclic", (2, 3)), ("triangle", (2, 3, 7, 9)), ("sl2z", (7,)),
    ("cyclic", (2.7,)), ("cyclic", (True,)), ("cyclic", ("5",)), ("cyclic", "12"),
    ("fuchsian", (0, (2, "3"))), ("fuchsian", (0, 2)),
    ("free_product", (2, 3)), ("free_product", (make("sl2z"),) * 3),
])
def test_make_rejects_a_wrong_count_or_kind_of_parameters(family, params):
    with pytest.raises(ValueError, match=f"family '{family}': "):
        make(family, params)


@pytest.mark.parametrize("g", range(6))
def test_surface_is_the_fuchsian_group_without_cones(g):
    p = make("surface", (g,))
    assert p == make("fuchsian", (g, ()))
    assert p.generator_names == make("fuchsian", (g, ())).generator_names
    assert p.name == f"surface({g})"


def test_surface_rejects_a_negative_genus():
    with pytest.raises(ValueError, match="genus must be >= 0"):
        make("surface", (-1,))


@pytest.mark.parametrize("n", [-1, -26, -30])
def test_free_rejects_a_negative_rank(n):
    with pytest.raises(ValueError, match=r"free\(n\) needs n >= 0"):
        make("free", (n,))


def test_free_of_rank_zero_is_the_trivial_group():
    p = make("free", (0,))
    assert (p.n_generators, p.relators) == (0, ())
    assert abelianization(p).is_trivial()


def test_seifert_triples_match_the_fraction_sum():
    # the branch follows 1/p + 1/q + 1/r against 1, computed here with
    # exact fractions
    for cones in itertools.product(range(2, 13), repeat=3):
        s3 = sum(Fraction(1, c) for c in cones)
        result = classify_seifert(SeifertData(0, cones))
        if s3 > 1:
            assert result.branch == "FiniteDerived", cones
            assert result.trace[0].startswith(f"spherical triple {cones}: ")
        elif s3 == 1:
            assert result.branch == "Solvable", cones
            assert result.trace[0].startswith(f"Euclidean triple {cones}: ")
        else:
            want = "Perfect" if _pairwise_coprime(cones) else "NonAdorable"
            assert result.branch == want, cones
            assert result.trace[0].startswith(f"hyperbolic triple {cones}")
