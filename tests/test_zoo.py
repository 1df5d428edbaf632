import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adorn import abelian, zoo
from adorn.abelian import AbelianInvariants, abelianization
from adorn.cosets import CapExceeded, todd_coxeter
from adorn.derived import ADORABLE, NON_ADORABLE, derived_series
from adorn.fpgroup import Budget, GroupPresentation, parse_presentation
from adorn.zoo import (CannotCertifyFactorTriviality, SeifertData,
                       SplittingDecl, UnknownSolvabilityStep,
                       UnsupportedOrbifold, certify_nontrivial,
                       FAMILIES, _pairwise_coprime, classify_seifert,
                       free_product_verdict, make, splitting_verdict)

from oracles import is_perfect, minor_gcd_diagonal


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
    assert v.series_verdict.kind == ADORABLE


def test_free_product_verdict_nonadorable():
    v = free_product_verdict(make("cyclic", (2,)), make("cyclic", (3,)))
    assert v.kind == "NonAdorable"
    assert "rank >= 2" in v.note
    assert v.series_verdict.kind == NON_ADORABLE
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

    def counting(p, budget):
        budgets.append(budget)
        return real(p, budget)

    monkeypatch.setattr(abelian, "abelianization_data", counting)
    free_product_verdict(pa, pb, Budget(wall_clock_seconds=30))
    assert len(budgets) == 2
    # each under the caller's budget, with its clock started
    assert all(b == Budget(wall_clock_seconds=30) and b.deadline < math.inf
               for b in budgets)


S5 = parse_presentation("< a, b, c, d | a^2, b^2, c^2, d^2, (a b)^3, (b c)^3, (c d)^3,"
                        " (a c)^2, (a d)^2, (b d)^2 >")


@pytest.mark.parametrize("pa,pb", [(S5, make("cyclic", (3,))), (make("cyclic", (3,)), S5)],
                         ids=["S5*Z3", "Z3*S5"])
def test_free_product_enumerates_no_factor_that_z3_rules_out(monkeypatch, pa, pb):
    # S5 abelianizes to Z2, so only its order, by enumeration, could tell
    # it from Z2; Z3's invariants already rule Dinfty out
    calls = []
    real = zoo.todd_coxeter

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(zoo, "todd_coxeter", counting)
    v = free_product_verdict(pa, pb)
    assert v.kind == "NonAdorable" and v.doa is None
    assert calls == []


def test_free_product_rejects_trivial_factor():
    with pytest.raises(ValueError, match="trivial"):
        free_product_verdict(parse_presentation("< a | a >"), make("cyclic", (2,)))


def test_free_product_cannot_certify():
    # sl3z is perfect and infinite, and is not of sphere-orbifold shape, so
    # tiny caps leave non-triviality uncertified
    with pytest.raises(CannotCertifyFactorTriviality):
        free_product_verdict(make("sl3z"), make("cyclic", (2,)),
                             budget=Budget(max_cosets=30))


def test_certify_nontrivial_routes():
    assert certify_nontrivial(make("cyclic", (5,)))          # abelianization
    assert certify_nontrivial(make("triangle", (2, 3, 7)))   # structure
    assert certify_nontrivial(make("triangle", (2, 3, 5)))   # structure or enumeration
    assert not certify_nontrivial(parse_presentation("< a | a >"))  # enumeration
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
