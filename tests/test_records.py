"""The package's immutable records: equality, hashing, immutability,
construction as the call sites use it, validation messages and reprs."""

import pytest

from adorn.abelian import AbelianInvariants, AbelianizationData, IntMatrix
from adorn.alexander import KnotReport, LaurentPoly
from adorn.derived import (ADORABLE, INCONCLUSIVE, AdorabilityWitness,
                           LevelCertificate, SeriesVerdict, StageReport)
from adorn.fpgroup import GroupPresentation, Word
from adorn.zoo import (FreeProductVerdict, SeifertClassification, SeifertData,
                       SplittingDecl, SplittingVerdict, UnsupportedOrbifold)

INV = AbelianInvariants(1, (2, 4))
LEVEL = LevelCertificate(1, 2, 2, AbelianInvariants(0, (2,)))

# name -> (a record, an equal record built afresh, a record that differs in
# one field, the record's field names)
RECORDS = {
    "IntMatrix": (
        lambda: IntMatrix(2, 2, ({0: 1}, {1: 3})),
        lambda: IntMatrix.from_rows([[1, 0], [0, 3]]),
        lambda: IntMatrix(2, 2, ({0: 1}, {1: 4})),
        ("rows", "cols", "sparse_rows")),
    "AbelianInvariants": (
        lambda: AbelianInvariants(1, (2, 4)),
        lambda: AbelianInvariants(rank=1, torsion=(2, 4)),
        lambda: AbelianInvariants(2, (2, 4)),
        ("rank", "torsion")),
    "AbelianizationData": (
        lambda: AbelianizationData(INV, ({0: 1},), ({1: 1}, {2: 3})),
        lambda: AbelianizationData(AbelianInvariants(1, (2, 4)), ({0: 1},),
                                   ({1: 1}, {2: 3})),
        lambda: AbelianizationData(INV, None, None),
        ("invariants", "free_rows", "torsion_rows")),
    "KnotReport": (
        lambda: KnotReport(LaurentPoly.one(), 0, True, "Adorable", 0, "cited", ()),
        lambda: KnotReport(polynomial=LaurentPoly({0: 1}), degree=0, adorable=True,
                           verdict="Adorable", derived_quotient_rank=0,
                           rank_provenance="cited", notes=()),
        lambda: KnotReport(LaurentPoly.one(), 0, True, "Adorable", 0, "cited", ("n",)),
        ("polynomial", "degree", "adorable", "verdict", "derived_quotient_rank",
         "rank_provenance", "notes")),
    "StageReport": (
        lambda: StageReport(1, 2, 0, 0, INV, frozenset({"CertifiedFree"}), 2),
        lambda: StageReport(1, 2, 0, 0, AbelianInvariants(1, (2, 4)),
                            frozenset({"CertifiedFree"}), free_rank=2),
        lambda: StageReport(1, 2, 0, 0, INV, frozenset({"CertifiedFree"})),
        ("depth", "n_generators", "n_relators", "total_length", "invariants",
         "flags", "free_rank")),
    "SeriesVerdict": (
        lambda: SeriesVerdict(INCONCLUSIVE, stage=1, reason="tietze_simplify",
                              limits_hit=("wall_clock",)),
        lambda: SeriesVerdict(INCONCLUSIVE, None, "tietze_simplify", 1, None,
                              ("wall_clock",)),
        lambda: SeriesVerdict(INCONCLUSIVE, stage=1, limits_hit=("wall_clock",)),
        ("kind", "doa", "reason", "stage", "rank", "limits_hit")),
    "LevelCertificate": (
        lambda: LevelCertificate(1, 2, 2, AbelianInvariants(0, (2,))),
        lambda: LevelCertificate(level=1, index_in_group=2, quotient_order=2,
                                 quotient=AbelianInvariants(0, (2,))),
        lambda: LevelCertificate(1, 4, 2, AbelianInvariants(0, (2,))),
        ("level", "index_in_group", "quotient_order", "quotient")),
    "AdorabilityWitness": (
        lambda: AdorabilityWitness((LEVEL,), terminal_trivial=True),
        lambda: AdorabilityWitness((LevelCertificate(1, 2, 2, AbelianInvariants(0, (2,))),),
                                   True),
        lambda: AdorabilityWitness((LEVEL,), terminal_trivial=False),
        ("levels", "terminal_trivial")),
    "GroupPresentation": (
        lambda: GroupPresentation(("a", "b"), (Word.of((0, 0)),), name="z2"),
        lambda: GroupPresentation(generator_names=["a", "b"],
                                  relators=[Word.of((0, 0))]),
        lambda: GroupPresentation(("a", "b"), (Word.of((0, 0, 0)),)),
        ("generator_names", "relators", "name")),
    "FreeProductVerdict": (
        lambda: FreeProductVerdict("Dinfty", 2, "note"),
        lambda: FreeProductVerdict(kind="Dinfty", doa=2, note="note"),
        lambda: FreeProductVerdict("Dinfty", 3, "note"),
        ("kind", "doa", "note")),
    "SplittingDecl": (
        lambda: SplittingDecl("amalgam", solvability_step=2),
        lambda: SplittingDecl(kind="amalgam", solvability_step=2),
        lambda: SplittingDecl("amalgam"),
        ("kind", "solvability_step")),
    "SplittingVerdict": (
        lambda: SplittingVerdict(("NonAdorable",), ("note",)),
        lambda: SplittingVerdict(possibilities=("NonAdorable",), notes=("note",)),
        lambda: SplittingVerdict(("NonAdorable",), ()),
        ("possibilities", "notes")),
    "SeifertData": (
        lambda: SeifertData(base_genus=0, cone_indices=(2, 3, 7)),
        lambda: SeifertData(0, (2, 3, 7), False, True),
        lambda: SeifertData(0, (2, 3, 7), has_boundary=True),
        ("base_genus", "cone_indices", "has_boundary", "orientable_base")),
    "SeifertClassification": (
        lambda: SeifertClassification("Perfect", ("trace",)),
        lambda: SeifertClassification(branch="Perfect", trace=("trace",)),
        lambda: SeifertClassification("Solvable", ("trace",)),
        ("branch", "trace")),
}
# their fields hold dicts or a LaurentPoly, which are unhashable
UNHASHABLE = {"IntMatrix", "AbelianizationData", "KnotReport"}


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_by_value(name):
    make, same, other, _ = RECORDS[name]
    a, b, c = make(), same(), other()
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != object()


@pytest.mark.parametrize("name", sorted(set(RECORDS) - UNHASHABLE))
def test_equal_records_hash_equal(name):
    make, same, other, _ = RECORDS[name]
    assert hash(make()) == hash(same())
    assert len({make(), same(), other()}) == 2


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    make, _, _, fields = RECORDS[name]
    record = make()
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_group_presentation_equality_and_hash_ignore_the_name():
    a = GroupPresentation(("a",), (Word.of((0, 0)),), name="Z2")
    b = GroupPresentation(("a",), (Word.of((0, 0)),), name="cyclic(2)")
    assert a == b and hash(a) == hash(b)
    assert (a.name, b.name) == ("Z2", "cyclic(2)")
    assert {a, b} == {a}
    assert a.with_relators(()).name == "Z2"
    assert a.with_relators((), name="other").name == "other"


def test_records_take_keywords_as_the_call_sites_pass_them():
    assert SeriesVerdict(ADORABLE, doa=0).doa == 0
    v = SeriesVerdict(INCONCLUSIVE, stage=2, reason="rewrite_presentation",
                      limits_hit=("max_cosets",))
    assert (v.kind, v.doa, v.reason, v.stage, v.rank, v.limits_hit) == (
        INCONCLUSIVE, None, "rewrite_presentation", 2, None, ("max_cosets",))
    s = SeifertData(base_genus=1, cone_indices=(2,), has_boundary=True)
    assert (s.base_genus, s.cone_indices, s.has_boundary, s.orientable_base) == (
        1, (2,), True, True)
    assert SeifertData(2).cone_indices == ()
    assert SplittingDecl("hnn").solvability_step is None
    assert StageReport(0, 1, 1, 2, INV, frozenset()).free_rank is None
    assert AdorabilityWitness((), terminal_trivial=False).levels == ()
    p = GroupPresentation(["a"])
    assert (p.generator_names, p.relators, p.name) == (("a",), (), "")


def _message(exc_type, build) -> str:
    with pytest.raises(exc_type) as info:
        build()
    assert type(info.value) is exc_type
    return str(info.value)


@pytest.mark.parametrize("exc_type, build, message", [
    (ValueError, lambda: IntMatrix(2, 1, ({0: 1},)),
     "row count does not match dimensions"),
    (ValueError, lambda: AbelianInvariants(0, (2, 3)),
     "torsion (2, 3) is not a divisor chain"),
    (ValueError, lambda: AbelianInvariants(0, (1, 2)),
     "torsion entries must be >= 2"),
    (ValueError, lambda: SplittingDecl("free"),
     "kind must be 'amalgam' or 'hnn'"),
    (UnsupportedOrbifold, lambda: SeifertData(0, (2, 3), orientable_base=False),
     "non-orientable bases are not modeled"),
    (ValueError, lambda: SeifertData(-1), "genus must be >= 0"),
    (UnsupportedOrbifold, lambda: SeifertData(0, (2, 1)),
     "cone indices must be >= 2"),
    (ValueError, lambda: GroupPresentation(("a", "a")),
     "generator names not pairwise distinct: ('a', 'a')"),
    (ValueError, lambda: GroupPresentation(("1a",)),
     "invalid generator name: '1a'"),
    (ValueError, lambda: GroupPresentation(("a",), (Word.of((2,)),)),
     "relator uses generator index 1 but presentation has 1 generators"),
])
def test_validation_messages(exc_type, build, message):
    assert _message(exc_type, build) == message


def test_abelian_invariants_reject_a_negative_rank():
    assert _message(ValueError, lambda: AbelianInvariants(-1, ())) == "rank must be >= 0"
    assert _message(ValueError, lambda: AbelianInvariants(-2, (2,))) == "rank must be >= 0"
    assert AbelianInvariants(0, ()).is_trivial()


def test_seifert_data_stores_its_cones_as_a_tuple():
    s = SeifertData(0, [2, 3])
    assert s.cone_indices == (2, 3) and type(s.cone_indices) is tuple
    assert s == SeifertData(0, (2, 3)) and hash(s) == hash(SeifertData(0, (2, 3)))
    assert SeifertData(base_genus=0, cone_indices=iter([5, 7])).cone_indices == (5, 7)


def test_reprs_are_unchanged():
    assert repr(StageReport(1, 2, 0, 0, AbelianInvariants(2, ()),
                            frozenset({"CertifiedFree"}), 2)) == (
        "StageReport(depth=1, n_generators=2, n_relators=0, total_length=0, "
        "invariants=AbelianInvariants(rank=2, torsion=()), "
        "flags=frozenset({'CertifiedFree'}), free_rank=2)")
    assert repr(SeriesVerdict(ADORABLE, doa=0)) == (
        "SeriesVerdict(kind='AdorableCertified', doa=0, reason=None, stage=None, "
        "rank=None, limits_hit=())")
    assert repr(SeriesVerdict(INCONCLUSIVE, stage=0, reason="smith_normal_form",
                              limits_hit=("wall_clock",))) == (
        "SeriesVerdict(kind='Inconclusive', doa=None, reason='smith_normal_form', "
        "stage=0, rank=None, limits_hit=('wall_clock',))")
    assert repr(GroupPresentation(("a",), (Word.of((0, 0)),), name="Z2")) == (
        f"GroupPresentation(generator_names=('a',), relators=({Word.of((0, 0))!r},), "
        f"name='Z2')")
    assert repr(SeifertData(0, (2, 3, 7))) == (
        "SeifertData(base_genus=0, cone_indices=(2, 3, 7), has_boundary=False, "
        "orientable_base=True)")


def test_strs_are_unchanged():
    assert str(SeriesVerdict(ADORABLE, doa=0)) == "AdorableCertified(doa=0)"
    assert str(AbelianInvariants(1, (2, 4))) == "Z ⊕ Z/2 ⊕ Z/4"
    assert f"{AbelianInvariants(0, ())}" == "trivial"
    assert str(SplittingVerdict(("a", "b"), ())) == "a | b"
    assert str(SeifertClassification("Perfect", ("x", "y"))) == "Perfect: x; y"
    assert str(FreeProductVerdict("Dinfty", 2, "note")) == "Dinfty: note"
