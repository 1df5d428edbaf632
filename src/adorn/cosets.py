"""Coset tables for finite-index subgroups.

``todd_coxeter`` is a deduction-stack (Felsch-style) enumerator with full
coincidence handling; a deduction scans each distinct relator rotation that
starts with its column once (``(s t)^3`` has two, a repeated relator adds
none), and on a self-inverse column also each such rotation's reflection.
``commutator_coset_table`` builds the table of the commutator subgroup
directly from a finite abelianization, without enumeration: each column is
a translation of the abelian quotient, built a coordinate at a time.
``order_exceeds`` is the one order proof by enumeration: a subgroup's
index first, then the whole group.

Columns are the int letter codes of :class:`adorn.fpgroup.Word`: column
``2*g`` is the action of generator ``g`` and column ``x ^ 1`` is the inverse
of column ``x``, so a word acts by indexing ``rows[c][x]`` with its
``letters`` directly.  Coset 0 is always the subgroup itself and numbering
follows first definition, so tables are reproducible.

Inside the enumerator an involution, a generator ``g`` whose ``g^2`` is a
relator, has one self-inverse column in place of the two ``CosetTable``
columns ``2*g`` and ``2*g + 1``: its ``g^2`` then holds by construction and
is never scanned.  An edge ``a -g- b`` of that column is pushed once, as
``(a, g)``.  The scan of a rotation ``g w`` at ``b`` walks the same cycle
as the scan of its reflection ``g w^-1`` at ``a``, only backwards, so the
column's scan list holds the reflections of its rotations as well; a
Coxeter relator ``(g h)^m`` is its own reflection.  Subgroup words are
scanned on the ``CosetTable`` columns, and the involutions are folded after
their deductions are drained, when both columns of each are already equal.

The enumerator stores its table by column: ``cols[c][coset]``, one list per
column, each grown by one entry per coset defined.  A relator rotation's
scan entry in ``edp`` holds the column lists it reads, bound when the
layout is set, so a scan step is one subscript ``column[coset]``.  The fold
re-binds the surviving column lists and copies no rows.  ``run`` builds the
``CosetTable`` rows from the columns at the end, writing an involution's
column out twice, so rows are the same as without folding.

Both producers fill every entry, so a :class:`CosetTable` is complete by
construction: each entry is a coset and each generator column is a
permutation of the cosets.  Nothing downstream handles a missing entry.
"""

from __future__ import annotations

from typing import Sequence

from .abelian import abelianization_data
from .fpgroup import (DEFAULT_BUDGET, INDEX_BLOCK, Budget, CapExceeded, GroupPresentation,
                      Word, period)


class InfiniteIndex(ValueError):
    """The requested subgroup has infinite index (positive abelianization rank)."""


class CosetTable:
    """Permutation action of the generators on the cosets of a subgroup.

    ``rows[c][x]`` is the coset that column ``x`` takes coset ``c`` to.
    Every entry is a coset: the table is complete by construction, so
    ``complete`` is the constant True.  The constructor checks the row
    width only; it does not validate entries.
    """

    __slots__ = ("n_cosets", "n_generators", "rows")

    complete = True

    def __init__(self, n_generators: int, rows: Sequence[Sequence[int]]):
        self.n_generators = n_generators
        self.rows = tuple(tuple(r) for r in rows)
        self.n_cosets = len(self.rows)
        for r in self.rows:
            if len(r) != 2 * n_generators:
                raise ValueError("row width does not match generator count")

    def word_act(self, coset: int, w: Word) -> int:
        for x in w.letters:
            coset = self.rows[coset][x]
        return coset


def _is_square(r: Word) -> bool:
    """Whether ``r`` is ``g^2`` or ``g^-2``: then ``g`` is an involution."""
    return len(r) == 2 and r.letters[0] == r.letters[1]


class _Enumerator:
    def __init__(self, n_gens: int, relators: Sequence[Word], budget: Budget):
        self.n_gens = n_gens
        self.relators = relators
        self.involutions = {r.letters[0] >> 1 for r in relators if _is_square(r)}
        self.budget = budget
        self.n = 1  # cosets defined; coset 0 is the subgroup
        self.p = [0]  # union-find over cosets; rep is the least member
        self.deductions: list[tuple[int, int]] = []
        self.deductions_done = 0
        self.check_at = INDEX_BLOCK

    def set_columns(self, fold: bool, by_letter: list[list[int | None]]) -> None:
        # with ``fold`` each involution gets one self-inverse column, and
        # any other generator a column and its inverse: phys[x] is the
        # column of letter x, inv[c] the inverse of column c, and cols[c]
        # its entries, the list of the first letter mapped onto it
        phys: list[int] = []
        inv: list[int] = []
        for g in range(self.n_gens):
            c = len(inv)
            if fold and g in self.involutions:
                phys += (c, c)
                inv.append(c)
            else:
                phys += (c, c + 1)
                inv += (c + 1, c)
        cols = [by_letter[phys.index(c)] for c in range(len(inv))]
        self.phys, self.inv, self.cols, self.ncols = phys, inv, cols, len(inv)
        # scans indexed by leading column: (rotation, its column lists for
        # the forward scan, the inverse column list of each of its columns
        # for the backward scan, last index), each distinct rotation of the
        # relators once, in first-occurrence order, then on a self-inverse
        # column each reflection that is not already there.  The rotations
        # of a column word s^k are those of s, the first period(w) ones.  A
        # self-inverse column satisfies its g^2 by construction, so that
        # relator has no scan.
        self.edp: list[list[tuple[tuple[int, ...], tuple[list, ...], tuple[list, ...], int]]] = [
            [] for _ in range(self.ncols)]
        words = [tuple(map(phys.__getitem__, r.letters)) for r in dict.fromkeys(self.relators)
                 if not (fold and _is_square(r))]
        rots = list(dict.fromkeys(w[i:] + w[:i] for w in words for i in range(period(w))))
        rots += [(rot[0],) + tuple(inv[x] for x in reversed(rot[1:]))
                 for rot in rots if inv[rot[0]] == rot[0]]
        for rot in dict.fromkeys(rots):
            self.edp[rot[0]].append((rot, tuple(map(cols.__getitem__, rot)),
                                     tuple(cols[inv[c]] for c in rot), len(rot) - 1))

    def rep(self, c: int) -> int:
        p = self.p
        root = c
        while p[root] != root:
            root = p[root]
        while p[c] != root:
            p[c], c = root, p[c]
        return root

    def define(self, alpha: int, col: int) -> None:
        if self.n >= self.budget.max_cosets:
            raise CapExceeded(f"coset limit {self.budget.max_cosets} reached",
                              "todd_coxeter", "max_cosets")
        beta = self.n
        self.n += 1
        for column in self.cols:
            column.append(None)
        self.p.append(beta)
        self.set_edge(alpha, col, beta)

    def set_edge(self, a: int, col: int, b: int) -> None:
        # push a filled slot only when a rotation starts at its column, and
        # an edge of a self-inverse column from a alone: its scan list holds
        # the reflections that b's scans would walk (set_columns)
        cols, edp, deductions = self.cols, self.edp, self.deductions
        cols[col][a] = b
        if edp[col]:
            deductions.append((a, col))
        icol = self.inv[col]
        cols[icol][b] = a
        if icol != col and edp[icol]:
            deductions.append((b, icol))

    def merge(self, a: int, b: int, queue: list[int]) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.p[b] = a
        queue.append(b)

    def coincidence(self, a: int, b: int) -> None:
        cols, inv = self.cols, self.inv
        queue: list[int] = []
        self.merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            dead = queue[qi]
            qi += 1
            for col in range(self.ncols):
                column = cols[col]
                delta = column[dead]
                if delta is None:
                    continue
                # detach the mirror edge before re-rooting
                back_column = cols[inv[col]]
                if back_column[delta] == dead:
                    back_column[delta] = None
                column[dead] = None
                mu, nu = self.rep(dead), self.rep(delta)
                target = column[mu]
                back = back_column[nu]
                if target is not None:
                    self.merge(nu, target, queue)
                elif back is not None:
                    self.merge(mu, back, queue)
                else:
                    self.set_edge(mu, col, nu)

    def scan_and_fill(self, alpha: int, word: tuple[int, ...]) -> None:
        # runs with the deductions drained, so every table entry is live
        cols, inv = self.cols, self.inv
        f = alpha
        i, j = 0, len(word) - 1
        b = alpha
        while True:
            while i <= j:
                d = cols[word[i]][f]
                if d is None:
                    break
                f = d
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                d = cols[inv[word[j]]][b]
                if d is None:
                    break
                b = d
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.set_edge(f, word[i], b)
                return
            self.define(f, word[i])

    def process_deductions(self) -> None:
        p, cols, edp, deductions = self.p, self.cols, self.edp, self.deductions
        rep, coincidence, set_edge = self.rep, self.coincidence, self.set_edge
        check_at = self.check_at
        while deductions:
            self.deductions_done += 1
            if self.deductions_done > check_at:
                self.budget.check("todd_coxeter")
                check_at = self.check_at = check_at + INDEX_BLOCK
            a, col = deductions.pop()
            if p[a] != a:
                a = rep(a)
            column = cols[col]
            if column[a] is None:
                continue  # edge removed by a coincidence
            for rot, fw, bw, last in edp[col]:
                # scan the rotation at a: forward from the left, back from
                # the right.  Entries are live cosets: every edge is stored
                # with its mirror and coincidence() clears both for a dead
                # coset.
                f, i = a, 0
                for c in fw:
                    d = c[f]
                    if d is None:
                        break
                    f = d
                    i += 1
                else:
                    if f == a:
                        continue  # the rotation closes at a
                # closed at f != a, with i past the end, or scan back
                b, j = a, last
                while j >= i:
                    d = bw[j][b]
                    if d is None:
                        break
                    b = d
                    j -= 1
                if j < i:
                    coincidence(f, b)
                    # only a coincidence moves a or clears its slot
                    if p[a] != a:
                        a = rep(a)
                    if column[a] is None:
                        break
                elif j == i:
                    set_edge(f, rot[i], b)
                # gap of length >= 2: no information

    def run(self, subgroup_gens: Sequence[Word]) -> CosetTable:
        # A word's scan drains only at its end, and until then an
        # involution's two columns can differ.  Scanned on the CosetTable
        # columns, a word defines the same cosets as without folding, so
        # max_cosets stops the enumeration at the same point.
        self.set_columns(not subgroup_gens, [[None] for _ in range(2 * self.n_gens)])
        for w in subgroup_gens:
            self.scan_and_fill(0, w.letters)
            self.process_deductions()
        if subgroup_gens and self.involutions:
            # drained: both columns of an involution are equal, since the
            # drain scanned its g^2 at every edge, so keep the first.  The
            # unfolded columns are indexed by letter.
            self.set_columns(True, self.cols)
        p, cols = self.p, self.cols
        alpha = 0
        while alpha < self.n:
            if p[alpha] == alpha:
                col = 0
                while col < self.ncols and p[alpha] == alpha:
                    if cols[col][alpha] is None:
                        self.define(alpha, col)
                        self.process_deductions()
                    col += 1
            alpha += 1
        live = [c for c in range(self.n) if p[c] == c]
        index = [0] * self.n  # new numbers, read only for live cosets
        for i, c in enumerate(live):
            index[c] = i
        renumbered = []
        for column in cols:
            entries = [column[c] for c in live]
            assert None not in entries  # and every entry is live
            renumbered.append([index[d] for d in entries])
        # an involution's column fills both of its CosetTable columns.  With
        # no generator the one coset has an empty row, which transposing no
        # columns would lose.
        columns = [renumbered[x] for x in self.phys]
        return CosetTable(self.n_gens, zip(*columns) if columns else [()] * len(live))


def todd_coxeter(p: GroupPresentation, subgroup_gens: Sequence[Word] = (),
                 budget: Budget = DEFAULT_BUDGET) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by the given words.

    After each definition the deduction stack is drained, which leaves the
    deduction closure of the definitions made so far.  Repeating a scan of
    the same rotation adds nothing to that closure, so scanning each
    distinct rotation once makes the same definitions, numbering and rows.
    Nor does scanning a cycle from the other end: an edge of a
    self-inverse column is pushed from one end, whose scans include the
    reflections that walk the other end's cycles.

    The table is stored by column (see the module docstring): a scan reads
    the column lists bound in its rotation's ``edp`` entry, and the fold
    after the subgroup words re-binds column lists without copying rows.

    Raises :class:`CapExceeded` when the enumeration does not close within
    ``max_cosets`` (infinite index, or the cap too small), or when its
    clock, checked every ``INDEX_BLOCK`` deductions, runs out.  The coset
    cap bounds the deductions too.  At most one is pushed per empty slot of
    a live coset filled, none when no rotation starts at the slot's
    column, and one for both slots of an edge of a self-inverse column.
    A coset is defined with one empty slot in each column of the
    enumerator, ``ncols`` of them: ``2 * gens`` while subgroup words are
    scanned, one fewer per involution after.  A live slot empties again
    only as the mirror of one of the slots a dying coset clears.  So the
    deductions are at most twice the slots of the cosets defined,
    ``2 * ncols`` a coset, and never more than ``4 * gens * max_cosets``.
    """
    for w in subgroup_gens:
        if w.max_generator() >= p.n_generators or min(w.letters, default=0) < 0:
            raise ValueError("subgroup generator uses an unknown generator")
    return _Enumerator(p.n_generators, p.relators, budget).run(tuple(subgroup_gens))


_PROBE_COSETS = 1000  # coset cap of the subgroup probe in order_exceeds


def order_exceeds(p: GroupPresentation, k: int, budget: Budget) -> bool:
    """Whether ``|p| > k``, proved by enumeration.  A subgroup's index is a
    lower bound on the order, so the subgroup on all but the last generator
    is enumerated first, under a budget that :meth:`Budget.with_max_cosets`
    copies from the caller's: at most ``_PROBE_COSETS`` cosets, every other
    limit and the deadline kept.  Only a closed enumeration of index over k
    is proof.
    Otherwise, or when the probe fills its cap, the whole group is
    enumerated over the trivial subgroup.

    Raises :class:`CapExceeded` when the whole group does not close within
    ``max_cosets``, or when the clock stops either enumeration: out of time
    is no answer either way.
    """
    if p.n_generators >= 2:
        probe = budget.with_max_cosets(min(budget.max_cosets, _PROBE_COSETS))
        keep = [Word.gen(i) for i in range(p.n_generators - 1)]
        try:
            if todd_coxeter(p, keep, probe).n_cosets > k:
                return True
        except CapExceeded as exc:
            if exc.limit != "max_cosets":
                raise
    return todd_coxeter(p, (), budget).n_cosets > k


def commutator_coset_table(p: GroupPresentation,
                           budget: Budget = DEFAULT_BUDGET) -> CosetTable:
    """Coset table of the commutator subgroup, built from G/[G,G].

    Requires the abelianization to be finite (rank 0).  Cosets are the
    elements of the abelian quotient, numbered in mixed-radix order over
    the torsion coordinates (last coordinate fastest); generator g acts by
    adding its image, read from the torsion rows of ``u``
    (``AbelianizationData.torsion_rows``).  Those rows come from the
    relator matrix with one column per distinct relator, so a repeated
    relator leaves the numbering as it is without the repeat; it differs
    from a one-column-per-occurrence numbering only for a presentation
    with a repeated relator.

    Each column is built whole, as the translation by g's image (column
    ``2g``) or by its negation (column ``2g+1``).  A translation acts on
    each coordinate separately, so the column is built a coordinate at a
    time, last coordinate first: the column over the later coordinates is
    repeated once per value ``a`` of the next coordinate (modulus ``m``,
    place value ``w``), shifted by ``((a + x) % m) * w``.  Every entry is
    read through one list of the coset numbers, so the table holds one int
    object per coset, and the rows are the columns zipped.  The budget's
    clock is read once before each generator's pair of columns, so at most
    ``2 * max_cosets`` entries are built between two reads.

    Raises :class:`CapExceeded` before building anything when the quotient
    has more than ``max_cosets`` elements.
    """
    data = abelianization_data(p, budget)
    inv = data.invariants
    if inv.rank > 0:
        raise InfiniteIndex(
            f"abelianization has rank {inv.rank}; commutator subgroup has infinite index")
    if inv.order() > budget.max_cosets:
        raise CapExceeded(f"coset limit {budget.max_cosets} reached",
                          "commutator_coset_table", "max_cosets")
    coordinates = []  # (modulus, place value), last coordinate first
    place = 1
    for m in reversed(inv.torsion):
        coordinates.append((m, place))
        place *= m
    ids = list(range(inv.order()))
    columns = []
    for g in range(p.n_generators):
        budget.check("commutator_coset_table")
        image = [row.get(g, 0) for row in data.torsion_rows][::-1]
        for sign in (1, -1):
            column = [0]
            for (m, w), x in zip(coordinates, image):
                steps = [((a + sign * x) % m) * w for a in range(m)]
                column = [s + c for s in steps for c in column]
            columns.append([ids[f] for f in column])
    rows = zip(*columns) if columns else [()]  # no generators: one coset
    return CosetTable(p.n_generators, rows)
