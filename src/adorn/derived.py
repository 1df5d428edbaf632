"""The derived-series engine.

Iterates abelianize -> commutator coset table -> rewrite -> simplify,
producing one report per stage and a verdict:

* ``AdorableCertified(doa)`` — some stage has trivial abelianization (the
  derived series reaches a perfect group); ``doa`` is the first depth whose
  quotient is trivial.  A stage that is manifestly free of rank 1 counts as
  adorable one step later (Z has trivial commutator subgroup).
* ``NonAdorableCertified`` — a stage is manifestly free of rank >= 2: the
  derived series of a nonabelian free group never terminates.
* ``HaltedInfiniteAbelianization`` — a stage has positive first-Betti rank,
  so its commutator subgroup has infinite index and the iteration cannot
  continue by coset enumeration.
* ``Inconclusive`` — a resource limit was hit first.  When a layer raised
  :class:`CapExceeded`, ``limits_hit`` names the limit the exception carries
  and ``reason`` the layer that stopped (``relator_matrix``,
  ``smith_normal_form``, ``commutator_coset_table``, ``rewrite_presentation``,
  ``tietze_simplify``).

Soundness rule: "manifestly free" and "manifestly trivial" mean zero
relators / zero generators, which are cap-independent facts, so capped
(partially simplified) stages can never be mistaken for free ones.
"""

from __future__ import annotations

from typing import NamedTuple, Protocol, Sequence

from .abelian import AbelianInvariants, abelianization
from .cosets import CosetTable, commutator_coset_table, order_exceeds, todd_coxeter
from .fpgroup import (DEFAULT_BUDGET, Budget, CapExceeded, GroupPresentation,
                      Simplified, Word, format_presentation, parse_presentation,
                      tietze_simplify)
from .rewriting import reidemeister_schreier, rewrite_presentation, subgroup_words

ADORABLE = "AdorableCertified"
NON_ADORABLE = "NonAdorableCertified"
HALTED = "HaltedInfiniteAbelianization"
INCONCLUSIVE = "Inconclusive"

FLAG_PARTIAL = "PartiallySimplified"
FLAG_FREE = "CertifiedFree"
FLAG_TRIVIAL = "CertifiedTrivial"


class StageReport(NamedTuple):
    """Statistics for one term of the derived series."""

    depth: int
    n_generators: int
    n_relators: int
    total_length: int
    invariants: AbelianInvariants
    flags: frozenset[str]
    free_rank: int | None = None

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "invariants": str(self.invariants),
            "stats": {
                "generators": self.n_generators,
                "relators": self.n_relators,
                "total_length": self.total_length,
            },
            "flags": sorted(self.flags),
        }


class SeriesVerdict(NamedTuple):
    """Outcome of a derived-series run; ``kind`` is one of the module
    constants ADORABLE, NON_ADORABLE, HALTED, INCONCLUSIVE."""

    kind: str
    doa: int | None = None
    reason: str | None = None
    stage: int | None = None
    rank: int | None = None
    limits_hit: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        detail = {key: value for key, value in (
            ("doa", self.doa), ("reason", self.reason), ("stage", self.stage),
            ("rank", self.rank)) if value is not None}
        if self.limits_hit:
            detail["limits_hit"] = list(self.limits_hit)
        return {"kind": self.kind, "detail": detail}

    def __str__(self) -> str:
        if self.kind == ADORABLE:
            return f"{self.kind}(doa={self.doa})"
        if self.kind == NON_ADORABLE:
            return f"{self.kind}({self.reason}, stage={self.stage})"
        if self.kind == HALTED:
            return f"{self.kind}(depth={self.stage}, rank={self.rank})"
        layer = f"@{self.reason}" if self.reason else ""
        return f"{self.kind}(depth={self.stage}, limits={','.join(self.limits_hit)}{layer})"


class SeriesResult(NamedTuple):
    stages: tuple[StageReport, ...]
    verdict: SeriesVerdict


class StepCache(Protocol):
    """Persistence hook for the expensive rewrite step of a series run."""

    def get(self, key: str) -> dict | None: ...

    def put(self, key: str, value: dict) -> None: ...


def step_cache_key(p: GroupPresentation, budget: Budget) -> str:
    """A step (coset table, rewrite, Tietze) never enumerates, so of the
    budget only the Tietze caps shape it.  The tag names the meaning of an
    entry: under ``step-v5`` the commutator cosets of a stage with a
    repeated relator are numbered from the relator matrix without the
    repeats, so a ``step-v4`` entry for such a stage is not read.  Under
    ``step-v6`` Tietze blocks an elimination only when it grows the total
    past both the cap and the stage's own length, so a stage that starts
    over the cap is shortened where a ``step-v5`` entry left it partial."""
    import hashlib

    text = "|".join(["step-v6", format_presentation(p), repr((
        budget.max_generators, budget.max_total_relator_length))])
    return hashlib.sha256(text.encode()).hexdigest()


def _cached_step(entry: object, order: int) -> Simplified | None:
    """The next stage stored in a step-cache entry, or None (a miss) when the
    entry is malformed or its index is not the current quotient order."""
    if not isinstance(entry, dict):
        return None
    text, hit, index = entry.get("next"), entry.get("hit_caps"), entry.get("index")
    if not (isinstance(text, str) and isinstance(hit, bool)
            and isinstance(index, int) and index == order):
        return None
    try:
        return Simplified(parse_presentation(text), hit)
    except ValueError:  # includes PresentationSyntaxError
        return None


def _stage_report(depth: int, p: GroupPresentation, inv: AbelianInvariants,
                  partially: bool) -> StageReport:
    flags = set()
    free_rank = None
    if partially:
        flags.add(FLAG_PARTIAL)
    if p.n_generators == 0:
        flags.add(FLAG_TRIVIAL)
    elif p.n_relators == 0:
        flags.add(FLAG_FREE)
        free_rank = p.n_generators
    return StageReport(depth, p.n_generators, p.n_relators,
                       p.total_relator_length, inv, frozenset(flags),
                       free_rank)


def _stage_verdict(report: StageReport, budget: Budget) -> SeriesVerdict | None:
    """The verdict a stage settles, or None when the series descends from it."""
    depth, inv = report.depth, report.invariants
    if inv.is_trivial():
        return SeriesVerdict(ADORABLE, doa=depth)
    if report.free_rank == 1:  # Z: one further step kills everything
        return SeriesVerdict(ADORABLE, doa=depth + 1)
    if report.free_rank is not None:
        return SeriesVerdict(NON_ADORABLE, reason="FreeRankAtLeast2", stage=depth,
                             rank=report.free_rank)
    if inv.rank > 0:
        return SeriesVerdict(HALTED, stage=depth, rank=inv.rank)
    # finite non-trivial quotient: descend one stage, if the budget allows
    limits_hit = tuple(name for name, over in (
        ("max_depth", depth + 1 > budget.max_depth),
        ("max_cosets", inv.order() > budget.max_cosets)) if over)
    return (SeriesVerdict(INCONCLUSIVE, stage=depth, limits_hit=limits_hit)
            if limits_hit else None)


def derived_series(p: GroupPresentation,
                   budget: Budget = DEFAULT_BUDGET,
                   step_cache: StepCache | None = None) -> SeriesResult:
    """Iterate the derived series of a finitely presented group.

    Stage 0 is the input presentation itself; stage i+1 is built only when
    stage i's abelianization is finite and non-trivial.  The budget's clock
    starts here; a layer that finds it expired ends the run Inconclusive.
    """
    budget = budget.start()
    stages: list[StageReport] = []
    pres, partially, depth = p, False, 0
    try:
        while True:
            stages.append(_stage_report(depth, pres, abelianization(pres, budget), partially))
            verdict = _stage_verdict(stages[-1], budget)
            if verdict is not None:
                return SeriesResult(tuple(stages), verdict)
            key = step_cache_key(pres, budget) if step_cache is not None else None
            order = stages[-1].invariants.order()
            step = _cached_step(step_cache.get(key), order) if step_cache is not None else None
            if step is not None:
                pres, partially = step
            else:
                table = commutator_coset_table(pres, budget)
                pres, partially = reidemeister_schreier(pres, table, budget)
                if step_cache is not None:
                    step_cache.put(key, {"next": format_presentation(pres),
                                         "hit_caps": partially,
                                         "index": table.n_cosets})
            depth += 1
    except CapExceeded as exc:
        return SeriesResult(tuple(stages), SeriesVerdict(
            INCONCLUSIVE, stage=depth, reason=exc.layer, limits_hit=(exc.limit,)))


# ---------------------------------------------------------------------------
# filtration witnesses


class FiltrationError(Exception):
    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


class ChainNotNested(FiltrationError):
    pass


class NormalityFails(FiltrationError):
    pass


class QuotientNotAbelian(FiltrationError):
    pass


class TerminalNotPerfect(FiltrationError):
    def __init__(self, message: str):
        super().__init__(message, level=None)


class LevelCertificate(NamedTuple):
    level: int
    index_in_group: int
    quotient_order: int
    quotient: AbelianInvariants


class AdorabilityWitness(NamedTuple):
    """Certified filtration G = G_0 > G_1 > ... > G_n with every G_{i+1}
    normal in G_i, abelian quotients, and perfect G_n — hence G is adorable."""

    levels: tuple[LevelCertificate, ...]
    terminal_trivial: bool


def _certified_abelian(pres: GroupPresentation,
                       budget: Budget) -> AbelianInvariants | None:
    """The invariants of ``pres`` when it is certified abelian, else None:
    cyclic after Tietze, or of finite abelianization whose order no
    enumeration exceeds.  Tietze keeps the group, so the invariants are
    those of ``pres``.  The clock re-raises; the coset cap is no
    certificate."""
    simplified, _ = tietze_simplify(pres, budget)
    inv = abelianization(simplified, budget)
    order = inv.order()
    try:
        if simplified.n_generators <= 1 or (
                order and not order_exceeds(simplified, order, budget)):
            return inv  # cyclic, or no larger than its abelianization
    except CapExceeded as exc:
        if exc.limit != "max_cosets":
            raise  # out of time is no answer either way
    return None


def verify_filtration(p: GroupPresentation,
                      chain: Sequence[Sequence[Word]],
                      budget: Budget = DEFAULT_BUDGET) -> AdorabilityWitness:
    """Check an abelian-quotient filtration ending in a perfect subgroup.

    ``chain[k]`` lists generator words (over the full group's generators)
    for level k+1; level 0 is the whole group, whose coset table has one
    coset.  A terminal empty list denotes the trivial subgroup, which needs
    no enumeration but requires the penultimate level to be certified
    abelian.

    Raises ChainNotNested / NormalityFails / QuotientNotAbelian /
    TerminalNotPerfect / CapExceeded when the witness fails; the budget's
    clock starts here.
    """
    budget = budget.start()
    levels: list[LevelCertificate] = []
    n = p.n_generators
    prev_pres = p  # raw presentation of the previous level
    prev_table = CosetTable(n, [[0] * (2 * n)])
    prev_gens: list[Word] = [Word.gen(i) for i in range(n)]

    for k, raw_words in enumerate(chain, start=1):
        words = list(raw_words)
        if not words:
            if k != len(chain):
                raise FiltrationError(
                    "empty generator list (trivial subgroup) is only supported "
                    "as the terminal level", level=k)
            inv = _certified_abelian(prev_pres, budget)
            if inv is None:
                raise QuotientNotAbelian(
                    f"cannot certify that level {k - 1} is abelian over the "
                    f"trivial terminal subgroup", level=k)
            levels.append(LevelCertificate(k, 0, 0, inv))
            return AdorabilityWitness(tuple(levels), terminal_trivial=True)

        table = todd_coxeter(p, words, budget)

        for w in words:
            if prev_table.word_act(0, w) != 0:
                raise ChainNotNested(
                    f"level {k} generator does not lie in level {k - 1}",
                    level=k)

        for u in prev_gens:
            for w in words:
                for conj in (u * w * u.inverse(), u.inverse() * w * u):
                    if table.word_act(0, conj) != 0:
                        raise NormalityFails(
                            f"conjugate of a level-{k} generator leaves the "
                            f"subgroup", level=k)

        # nested, so [G : H_k] = [G : H_{k-1}] [H_{k-1} : H_k] (Lagrange)
        ratio = table.n_cosets // prev_table.n_cosets
        quotient = prev_pres.with_relators(subgroup_words(prev_table, words, budget))
        inv = abelianization(quotient, budget)
        if inv.order() != ratio:
            raise QuotientNotAbelian(
                f"level {k - 1} / level {k} is not abelian of order {ratio} "
                f"(abelianization {inv})", level=k)
        levels.append(LevelCertificate(k, table.n_cosets, ratio, inv))

        prev_pres = rewrite_presentation(p, table, budget)
        prev_table = table
        prev_gens = words

    terminal = abelianization(prev_pres, budget)
    if not terminal.is_trivial():
        raise TerminalNotPerfect(f"terminal subgroup has abelianization {terminal}")
    return AdorabilityWitness(tuple(levels), terminal_trivial=False)
