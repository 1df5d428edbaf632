"""Constructors for the standard group families, plus structural verdicts:
free products, amalgam/HNN splittings, and the Seifert base-orbifold
classifier.

The families, :func:`make` and the Seifert classifier need only
:mod:`adorn.fpgroup`.  The verdicts that run the engine
(:func:`certify_nontrivial`, :func:`free_product_verdict`) import it when
they are called, so building a group imports no engine module."""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .fpgroup import DEFAULT_BUDGET, Budget, CapExceeded, GroupPresentation, Word

if TYPE_CHECKING:  # the engine is imported by the verdicts that run it
    from .abelian import AbelianInvariants
    from .derived import SeriesVerdict


class UnsupportedOrbifold(ValueError):
    """Non-orientable base or non-cone singularities are not modeled."""


class UnknownSolvabilityStep(ValueError):
    """Splitting verdicts need the caller to assert the solvability step."""


class CannotCertifyFactorTriviality(RuntimeError):
    """Neither abelianization nor structure decided the factor, and no
    enumeration bounded its order within caps: the subgroup on all but the
    last generator did not close at an index large enough, and the whole
    group did not close over the trivial subgroup.  The ``CapExceeded``
    that stopped an enumeration is the ``__cause__``; after the clock stops
    one, no other runs."""


def _letters(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple("abcdefghijklmnopqrstuvwxyz"[:n])
    return tuple(f"x{i}" for i in range(n))


def _comm(x: Word, y: Word) -> Word:
    return x * y * x.inverse() * y.inverse()


def _free(n: int) -> GroupPresentation:
    if n < 0:
        raise ValueError("free(n) needs n >= 0")
    return GroupPresentation(_letters(n), (), name=f"free({n})")


def _cyclic(n: int) -> GroupPresentation:
    if n < 1:
        raise ValueError("cyclic(n) needs n >= 1")
    return GroupPresentation(("a",), (Word.gen(0) ** n,), name=f"cyclic({n})")


def _dihedral_inf() -> GroupPresentation:
    return GroupPresentation(("a", "b"), (Word.gen(0) ** 2, Word.gen(1) ** 2),
                             name="dihedral_inf")


def _rename_apart(base: tuple[str, ...], other: tuple[str, ...]) -> tuple[str, ...]:
    used = set(base)
    out = []
    for nm in other:
        cand = nm
        k = 1
        while cand in used:
            cand = f"{nm}{k}"
            k += 1
        used.add(cand)
        out.append(cand)
    return tuple(out)


def _free_product(a: GroupPresentation, b: GroupPresentation) -> GroupPresentation:
    names = a.generator_names + _rename_apart(a.generator_names, b.generator_names)
    shift = a.n_generators
    rels = list(a.relators)
    rels += [Word.of([x + 2 * shift for x in r.letters]) for r in b.relators]
    return GroupPresentation(names, rels,
                             name=f"({a.name or 'A'}) * ({b.name or 'B'})")


def _direct_product(a: GroupPresentation, b: GroupPresentation) -> GroupPresentation:
    p = _free_product(a, b)
    shift = a.n_generators
    comms = [_comm(Word.gen(i), Word.gen(shift + j))
             for i in range(a.n_generators) for j in range(b.n_generators)]
    return GroupPresentation(p.generator_names, p.relators + tuple(comms),
                             name=f"({a.name or 'A'}) x ({b.name or 'B'})")


def _braid(n: int) -> GroupPresentation:
    if n < 2:
        raise ValueError("braid(n) needs n >= 2")
    names = tuple(f"s{i}" for i in range(1, n))
    rels = []
    for i in range(n - 2):
        si, sj = Word.gen(i), Word.gen(i + 1)
        rels.append(si * sj * si * sj.inverse() * si.inverse() * sj.inverse())
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            rels.append(_comm(Word.gen(i), Word.gen(j)))
    return GroupPresentation(names, rels, name=f"braid({n})")


def _torus_knot(p: int, q: int) -> GroupPresentation:
    if p < 2 or q < 2:
        raise ValueError("torus_knot(p, q) needs p, q >= 2")
    return GroupPresentation(("x", "y"), (Word.gen(0) ** p * Word.gen(1) ** (-q),),
                             name=f"torus_knot({p},{q})")


def _sl2z() -> GroupPresentation:
    a, b = Word.gen(0), Word.gen(1)
    return GroupPresentation(("a", "b"), (a ** 4, a ** 2 * b ** -3), name="sl2z")


def _triangle(p: int, q: int, r: int) -> GroupPresentation:
    if min(p, q, r) < 2:
        raise ValueError("triangle indices must be >= 2")
    a, b = Word.gen(0), Word.gen(1)
    return GroupPresentation(("a", "b"), (a ** p, b ** q, (a * b) ** r),
                             name=f"triangle({p},{q},{r})")


def _klein_bottle() -> GroupPresentation:
    a, b = Word.gen(0), Word.gen(1)
    return GroupPresentation(("a", "b"), (a * b * a * b.inverse(),),
                             name="klein_bottle")


def _fuchsian(g: int, cones: Sequence[int], *, name: str = "") -> GroupPresentation:
    """Orbifold group of a closed orientable genus-g surface with cone
    points: hyperbolic generators a_i, b_i and one x_j of order p_j per
    cone, with long relator (prod [a_i, b_i]) x_1 ... x_n.  ``name``
    replaces the default ``fuchsian(g,[p_1, ...])``."""
    cones = tuple(cones)
    if any(p < 2 for p in cones):
        raise ValueError("cone indices must be >= 2")
    if g < 0:
        raise ValueError("genus must be >= 0")
    names = tuple(x for i in range(1, g + 1) for x in (f"a{i}", f"b{i}"))
    names += tuple(f"x{j}" for j in range(1, len(cones) + 1))
    rels = []
    for j, p in enumerate(cones):
        rels.append(Word.gen(2 * g + j) ** p)
    long = Word()
    for i in range(g):
        long = long * _comm(Word.gen(2 * i), Word.gen(2 * i + 1))
    for j in range(len(cones)):
        long = long * Word.gen(2 * g + j)
    if len(long):
        rels.append(long)
    return GroupPresentation(names, rels,
                             name=name or f"fuchsian({g},{list(cones)})")


def _baumslag_solitar(m: int, n: int) -> GroupPresentation:
    if m == 0 or n == 0:
        raise ValueError("baumslag_solitar needs non-zero exponents")
    a, t = Word.gen(0), Word.gen(1)
    return GroupPresentation(("a", "t"), (t * a ** m * t.inverse() * a ** (-n),),
                             name=f"baumslag_solitar({m},{n})")


def _trefoil() -> GroupPresentation:
    a, b = Word.gen(0), Word.gen(1)
    return GroupPresentation(("a", "b"),
                             (a * b * a * b.inverse() * a.inverse() * b.inverse(),),
                             name="trefoil")


def _figure_eight() -> GroupPresentation:
    # two-bridge form: a w = w b with w = b a^-1 b^-1 a
    a, b = Word.gen(0), Word.gen(1)
    w = b * a.inverse() * b.inverse() * a
    return GroupPresentation(("a", "b"), (a * w * b.inverse() * w.inverse(),),
                             name="figure_eight")


def _sl3z() -> GroupPresentation:
    """Steinberg presentation of SL(3, Z) on the six elementary matrices."""
    idx = {(i, j): k for k, (i, j) in enumerate(
        [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)])}
    names = tuple(f"e{i}{j}" for (i, j) in idx)
    e = {ij: Word.gen(k) for ij, k in idx.items()}
    rels = []
    pairs = list(idx)
    for x in range(len(pairs)):
        for y in range(x + 1, len(pairs)):
            (i, j), (k, l) = pairs[x], pairs[y]
            if j != k and l != i:
                rels.append(_comm(e[(i, j)], e[(k, l)]))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                if len({i, j, k}) == 3:
                    rels.append(_comm(e[(i, j)], e[(j, k)]) * e[(i, k)].inverse())
    w = e[(1, 2)] * e[(2, 1)].inverse() * e[(1, 2)]
    rels.append(w ** 4)
    return GroupPresentation(names, rels, name="sl3z")


# the kind of each family parameter, as make's errors name it
_INT, _INTS, _GROUP = "an int", "a list of ints", "a presentation"

_FAMILY_TABLE = {  # family: (constructor, the kinds of its parameters)
    "free": (_free, (_INT,)),
    "cyclic": (_cyclic, (_INT,)),
    "dihedral_inf": (_dihedral_inf, ()),
    "free_product": (_free_product, (_GROUP, _GROUP)),
    "direct_product": (_direct_product, (_GROUP, _GROUP)),
    "braid": (_braid, (_INT,)),
    "torus_knot": (_torus_knot, (_INT, _INT)),
    "sl2z": (_sl2z, ()),
    "triangle": (_triangle, (_INT, _INT, _INT)),
    "surface": (lambda g: _fuchsian(g, (), name=f"surface({g})"), (_INT,)),
    "klein_bottle": (_klein_bottle, ()),
    "fuchsian": (_fuchsian, (_INT, _INTS)),
    "baumslag_solitar": (_baumslag_solitar, (_INT, _INT)),
    "trefoil": (_trefoil, ()),
    "figure_eight": (_figure_eight, ()),
    "sl3z": (_sl3z, ()),
}
FAMILIES = tuple(_FAMILY_TABLE)


def _is_a(kind: str, x) -> bool:
    if kind == _GROUP:
        return isinstance(x, GroupPresentation)
    if kind == _INTS:
        return isinstance(x, (list, tuple)) and all(type(c) is int for c in x)
    return type(x) is int  # not a bool, a float or a string


def make(family: str, params: Sequence = ()) -> GroupPresentation:
    """Standard presentation of a named family; see :data:`FAMILIES`.

    ``params`` holds exactly the family's parameters, in order: an integer
    parameter is an ``int`` (a ``bool``, a float or a string is not),
    fuchsian's cones are a list or tuple of them, and a product's two
    factors are presentations.  A wrong count or kind raises ``ValueError``,
    as does a value out of the family's range.
    """
    if family not in _FAMILY_TABLE:
        raise ValueError(f"unknown family {family!r} (known: {', '.join(FAMILIES)})")
    build, kinds = _FAMILY_TABLE[family]
    params = tuple(params)
    if len(params) < len(kinds):
        raise ValueError(f"family {family!r}: missing parameters")
    if len(params) > len(kinds):
        raise ValueError(f"family {family!r}: too many parameters "
                         f"({len(params)} given, {len(kinds)} taken)")
    for i, (kind, x) in enumerate(zip(kinds, params), start=1):
        if not _is_a(kind, x):
            raise ValueError(f"family {family!r}: parameter {i} must be {kind}, "
                             f"got {x!r}")
    return build(*params)


# ---------------------------------------------------------------------------
# free products


def _sphere_orbifold_cones(p: GroupPresentation) -> tuple[int, ...] | None:
    """Recognize sphere-orbifold group shapes with >= 3 cone points, whose
    order is always >= 3: either <x_1..x_n | x_i^{p_i}, x_1...x_n> or the
    two-generator triangle form <a, b | a^p, b^q, (ab)^r>."""
    n = p.n_generators
    powers: dict[int, int] = {}
    others: list[Word] = []
    for r in p.relators:  # non-empty: a presentation drops empty relators
        x = r.letters[0]
        if not x & 1 and x >> 1 not in powers and r.letters.count(x) == len(r):
            powers[x >> 1] = len(r)
        else:
            others.append(r)
    if len(others) != 1:
        return None
    other = others[0].letters
    if n >= 3 and len(powers) == n and all(k >= 2 for k in powers.values()):
        if sorted(other) == list(range(0, 2 * n, 2)):
            return tuple(powers[g] for g in range(n))
    if n == 2 and len(powers) == 2 and all(k >= 2 for k in powers.values()):
        m = len(other)
        if m >= 4 and m % 2 == 0 and other == (0, 2) * (m // 2):
            return (powers[0], powers[1], m // 2)
    return None


def certify_nontrivial(p: GroupPresentation,
                       budget: Budget = DEFAULT_BUDGET) -> bool:
    """True/False when (non-)triviality is certified; raises
    CannotCertifyFactorTriviality when no route works within caps.  The
    routes, in order: a non-trivial abelianization; a sphere-orbifold shape
    with >= 3 cone points; a subgroup on all but the last generator whose
    enumeration closes at index >= 2; the enumeration of the whole group.
    The budget's clock starts here unless it has started already."""
    from .abelian import abelianization

    budget = budget.start()
    return _certified_nontrivial(p, abelianization(p, budget), budget)


def _certified_nontrivial(p: GroupPresentation, inv: AbelianInvariants,
                          budget: Budget) -> bool:
    if not inv.is_trivial():
        return True
    if p.n_generators == 0:
        return False
    cones = _sphere_orbifold_cones(p)
    if cones is not None and len(cones) >= 3:
        return True  # sphere orbifold group with >= 3 cone points has order >= 3
    return _order_exceeds(p, 1, budget)


def _order_exceeds(p: GroupPresentation, k: int, budget: Budget) -> bool:
    """:func:`adorn.cosets.order_exceeds`, with the limit that stops it
    raised as CannotCertifyFactorTriviality."""
    from .cosets import order_exceeds

    try:
        return order_exceeds(p, k, budget)
    except CapExceeded as exc:
        raise CannotCertifyFactorTriviality(
            f"cannot certify order of {p.name or p}: {exc}") from exc


RANK_NOTE = "every derived quotient from stage 1 on has rank >= 2"


class FreeProductVerdict(NamedTuple):
    kind: str  # PerfectProduct | Dinfty | NonAdorable
    doa: int | None
    note: str
    series_verdict: SeriesVerdict

    def __str__(self) -> str:
        return f"{self.kind}: {self.note}"


def free_product_verdict(pa: GroupPresentation, pb: GroupPresentation,
                         budget: Budget = DEFAULT_BUDGET) -> FreeProductVerdict:
    """Adorability of A * B for non-trivial factors: perfect when both
    factors are perfect; the infinite dihedral group when both factors are
    Z2; otherwise not adorable.  The budget's clock starts here."""
    from .abelian import abelianization
    from .derived import ADORABLE, NON_ADORABLE, SeriesVerdict

    budget = budget.start()
    factors = []
    for q in (pa, pb):
        inv = abelianization(q, budget)  # once per factor, for every test below
        if not _certified_nontrivial(q, inv, budget):
            raise ValueError(f"free product factor {q.name or q} is trivial")
        factors.append((q, inv))
    if all(inv.is_trivial() for _, inv in factors):
        return FreeProductVerdict(
            "PerfectProduct", 0,
            "free product of perfect groups is perfect (doa 0)",
            SeriesVerdict(ADORABLE, doa=0))
    # Z2 abelianizes to Z2: every factor's invariants are tested before
    # any factor is enumerated, so one that rules Z2 out spares the others.
    # A factor that abelianizes to Z2 has order >= 2, so it is Z2 unless its
    # order exceeds 2: shown by a subgroup of index > 2, or failing that by
    # enumerating the whole factor
    if (all(inv.rank == 0 and inv.torsion == (2,) for _, inv in factors)
            and not any(_order_exceeds(q, 2, budget) for q, _ in factors)):
        return FreeProductVerdict(
            "Dinfty", 2,
            "Z2 * Z2 is the infinite dihedral group (solvable, doa 2)",
            SeriesVerdict(ADORABLE, doa=2))
    return FreeProductVerdict(
        "NonAdorable", None,
        f"free product with a non-perfect factor, not Z2 * Z2; {RANK_NOTE}",
        SeriesVerdict(NON_ADORABLE, reason="StructuralPredicate:free_product"))


# ---------------------------------------------------------------------------
# amalgam / HNN splittings


class _SplittingDecl(NamedTuple):
    kind: str  # "amalgam" | "hnn"
    solvability_step: int | None = None


class SplittingDecl(_SplittingDecl):
    """A declared splitting over a subgroup H: an amalgamated free product
    or an HNN extension, with the asserted n for 'H is n-step solvable
    inside G' (G^n meets H trivially, G^{n-1} does not)."""

    __slots__ = ()

    def __new__(cls, kind: str, solvability_step: int | None = None):
        if kind not in ("amalgam", "hnn"):
            raise ValueError("kind must be 'amalgam' or 'hnn'")
        return super().__new__(cls, kind, solvability_step)


class SplittingVerdict(NamedTuple):
    possibilities: tuple[str, ...]
    notes: tuple[str, ...]

    def __str__(self) -> str:
        return " | ".join(self.possibilities)


def splitting_verdict(decl: SplittingDecl) -> SplittingVerdict:
    """Predicate-level trichotomy for splittings with an n-step subgroup-
    solvable edge group: the amalgam case is adorable of degree n (and not
    solvable), has n-th derived subgroup the infinite dihedral group, or is
    not adorable; the HNN case is never adorable."""
    if decl.solvability_step is None:
        raise UnknownSolvabilityStep(
            "splitting verdicts require the solvability step to be asserted")
    n = decl.solvability_step
    if decl.kind == "hnn":
        return SplittingVerdict(("NonAdorable",),
                                (f"HNN extension over a G-solvable subgroup; {RANK_NOTE}",))
    return SplittingVerdict(
        (f"AdorableDegree({n})", f"DerivedStageIsDinfty({n})", "NonAdorable"),
        ("amalgam branch AdorableDegree excludes solvability",
         f"in the NonAdorable branch, {RANK_NOTE}"))


# ---------------------------------------------------------------------------
# Seifert classifier


class _SeifertData(NamedTuple):
    base_genus: int
    cone_indices: tuple[int, ...] = ()
    has_boundary: bool = False
    orientable_base: bool = True


class SeifertData(_SeifertData):
    """Base-orbifold data of a compact Seifert fibered space: orientable
    base of the given genus, cone singularities only.  The cone indices
    are stored as a tuple, whatever iterable they are given as."""

    __slots__ = ()

    def __new__(cls, base_genus: int, cone_indices: Iterable[int] = (),
                has_boundary: bool = False, orientable_base: bool = True):
        if not orientable_base:
            raise UnsupportedOrbifold("non-orientable bases are not modeled")
        if base_genus < 0:
            raise ValueError("genus must be >= 0")
        cone_indices = tuple(cone_indices)
        if any(p < 2 for p in cone_indices):
            raise UnsupportedOrbifold("cone indices must be >= 2")
        return super().__new__(cls, base_genus, cone_indices, has_boundary,
                               orientable_base)


class SeifertClassification(NamedTuple):
    branch: str  # FiniteDerived | Solvable | NonAdorable | Perfect | ReaderCase
    trace: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.branch}: " + "; ".join(self.trace)


def _classify_boundary(g: int, cones: tuple[int, ...]) -> SeifertClassification:
    factors = ["Z"] * (2 * g) + [f"Z/{p}" for p in cones]
    desc = " * ".join(factors) if factors else "no factors (trivial group)"
    trace = [f"boundary: orbifold group is the free product {desc}"]
    if len(factors) == 0:
        trace.append("trivial orbifold group: fiber circle generates")
        return SeifertClassification("Solvable", tuple(trace))
    if len(factors) == 1:
        trace.append("cyclic orbifold group: central extension is abelian")
        return SeifertClassification("Solvable", tuple(trace))
    if factors == ["Z/2", "Z/2"]:
        trace.append("Z2 * Z2 is infinite dihedral: solvable")
        return SeifertClassification("Solvable", tuple(trace))
    trace.append("free product of >= 2 cyclic factors, not Z2 * Z2: "
                 "a cyclic factor is never perfect, so not adorable")
    return SeifertClassification("NonAdorable", tuple(trace))


def _pairwise_coprime(cones: Sequence[int]) -> bool:
    return all(gcd(a, b) == 1
               for i, a in enumerate(cones) for b in cones[i + 1:])


def classify_seifert(s: SeifertData) -> SeifertClassification:
    """Adorability branch for the fundamental group of a compact Seifert
    fibered space, decided from its base-orbifold data.

    With boundary, the orbifold group is a free product of cyclic groups
    (one Z per handle of the base, assuming one boundary component; extra
    boundary only adds Z factors and cannot change the branch) and the free
    product trichotomy decides.  Closed with positive genus is solvable only
    for the torus without cones.  Closed genus 0 splits on the number of
    cone points and the Euclidean/spherical/hyperbolic trichotomy.
    """
    g, cones = s.base_genus, s.cone_indices
    if s.has_boundary:
        return _classify_boundary(g, cones)

    if g >= 1:
        if g == 1 and not cones:
            return SeifertClassification(
                "Solvable", ("closed torus base, no cones: circle bundle over "
                             "the torus has solvable fundamental group",))
        return SeifertClassification(
            "NonAdorable",
            (f"closed base of genus {g} with {len(cones)} cones: killing one "
             f"handle generator maps onto a free product with a Z factor",))

    n = len(cones)
    if n <= 2:
        return SeifertClassification(
            "FiniteDerived",
            (f"sphere base with {n} cone point(s): finite (cyclic) orbifold "
             f"group; second derived subgroup of the fiber extension is finite",))
    if n == 3:
        # 1/p + 1/q + 1/r against 1, times pqr
        p, q, r = cones
        s3, one = q * r + p * r + p * q, p * q * r
        if s3 > one:
            return SeifertClassification(
                "FiniteDerived",
                (f"spherical triple {cones}: 1/{cones[0]}+1/{cones[1]}+1/{cones[2]} > 1, "
                 f"finite orbifold group",))
        if s3 == one:
            return SeifertClassification(
                "Solvable",
                (f"Euclidean triple {cones}: plane crystallographic orbifold "
                 f"group, virtually Z^2, never perfect",))
        if _pairwise_coprime(cones):
            return SeifertClassification(
                "Perfect",
                (f"hyperbolic triple {cones} with pairwise coprime indices: "
                 f"perfect orbifold group, integral homology sphere",))
        return SeifertClassification(
            "NonAdorable",
            (f"hyperbolic triple {cones}, not pairwise coprime: infinite, "
             f"not perfect, and with no Z^2 subgroup, hence not adorable",))

    # n >= 4 cone points on the sphere: H1 has order prod(p_i) / lcm(p_i), so
    # the orbifold group is perfect exactly for pairwise coprime cones
    if n != 5 and _pairwise_coprime(cones):
        return SeifertClassification(
            "Perfect", (f"{n} cone points {cones}, pairwise coprime: perfect "
                        f"orbifold group",))
    if n == 4:
        if cones == (2, 2, 2, 2):
            return SeifertClassification(
                "Solvable", ("pillowcase (2,2,2,2): Euclidean orbifold group, "
                             "virtually Z^2",))
        return SeifertClassification(
            "NonAdorable",
            (f"4 cone points {cones}: hyperbolic base, orbifold group not "
             f"perfect, hence not adorable",))
    pair = next(((i, j) for i in range(n) for j in range(i + 1, n)
                 if gcd(cones[i], cones[j]) >= (3 if n == 5 else 2)), None)
    if n == 5 and pair is None:
        return SeifertClassification(
            "ReaderCase",
            (f"5 cone points {cones} with no pair of gcd >= 3: "
             f"deliberately left undecided",))
    i, j = pair
    if n == 5:
        head = (cones[i], cones[j])
        rest = tuple(c for k, c in enumerate(cones) if k not in (i, j))
        factor = f"Z/{gcd(*head)}"
    else:
        k = next(k for k in range(n) if k not in (i, j))
        head = (cones[i], cones[j], cones[k])
        rest = tuple(c for m, c in enumerate(cones) if m not in (i, j, k))
        factor = f"sphere orbifold group on cones {head}"
    return SeifertClassification(
        "NonAdorable",
        (f"split the cone set as {head} + {rest}: the quotient is a free "
         f"product of {factor} (not perfect) with a group of order >= 3, "
         f"hence not adorable, and neither is the group itself",))
