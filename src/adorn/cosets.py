"""Coset tables for finite-index subgroups.

``todd_coxeter`` is a deduction-stack (Felsch-style) enumerator with full
coincidence handling; a deduction scans each distinct relator rotation that
starts with its column once (``(s t)^3`` has two, a repeated relator adds
none).  ``commutator_coset_table`` builds the table of the commutator
subgroup directly from a finite abelianization, without enumeration.

Columns are the int letter codes of :class:`adorn.fpgroup.Word`: column
``2*g`` is the action of generator ``g`` and column ``x ^ 1`` is the inverse
of column ``x``, so a word acts by indexing ``rows[c][x]`` with its
``letters`` directly.  Coset 0 is always the subgroup itself and numbering
follows first definition, so tables are reproducible.

Inside the enumerator an involution, a generator ``g`` whose ``g^2`` is a
relator, has one self-inverse column in place of the two ``CosetTable``
columns ``2*g`` and ``2*g + 1``: its ``g^2`` then holds by construction and
is never scanned, and an edge is written once.  Subgroup words are scanned
on the ``CosetTable`` columns, and the involutions are folded after their
deductions are drained, when both columns of each are already equal.

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

from itertools import product
from typing import Sequence

from .abelian import abelianization_data
from .fpgroup import DEFAULT_BUDGET, Budget, CapExceeded, GroupPresentation, Word


class InfiniteIndex(ValueError):
    """The requested subgroup has infinite index (positive abelianization rank)."""


CHECK_EVERY = 4096  # deductions between two reads of the budget's clock


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
        self.check_at = CHECK_EVERY

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
        # relators once, in first-occurrence order.  A self-inverse column
        # satisfies its g^2 by construction, so that relator has no scan.
        self.edp: list[list[tuple[tuple[int, ...], tuple[list, ...], tuple[list, ...], int]]] = [
            [] for _ in range(self.ncols)]
        words = [tuple(map(phys.__getitem__, r.letters)) for r in dict.fromkeys(self.relators)
                 if not (fold and _is_square(r))]
        rots = dict.fromkeys(w[i:] + w[:i] for w in words for i in range(len(w)))
        for rot in rots:
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
                              "todd_coxeter")
        beta = self.n
        self.n += 1
        for column in self.cols:
            column.append(None)
        self.p.append(beta)
        self.set_edge(alpha, col, beta)

    def set_edge(self, a: int, col: int, b: int) -> None:
        # push a filled slot only when a rotation starts at its column; a
        # fixed point of a self-inverse column is one slot, pushed once
        cols, edp, deductions = self.cols, self.edp, self.deductions
        cols[col][a] = b
        if edp[col]:
            deductions.append((a, col))
        icol = self.inv[col]
        if a != b or icol != col:
            cols[icol][b] = a
            if edp[icol]:
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
                check_at = self.check_at = check_at + CHECK_EVERY
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

    The table is stored by column (see the module docstring): a scan reads
    the column lists bound in its rotation's ``edp`` entry, and the fold
    after the subgroup words re-binds column lists without copying rows.

    Raises :class:`CapExceeded` when the enumeration does not close within
    ``max_cosets`` (infinite index, or the cap too small), or when its
    clock, checked every ``CHECK_EVERY`` deductions, runs out.  The coset
    cap bounds the deductions too.  At most one is pushed per empty slot of
    a live coset filled, and none when no rotation starts at the slot's
    column.  A coset is defined with one empty slot in each column of the
    enumerator, ``ncols`` of them: ``2 * gens`` while subgroup words are
    scanned, one fewer per involution after.  A live slot empties again
    only as the mirror of one of the slots a dying coset clears.  So the
    deductions are at most twice the slots of the cosets defined,
    ``2 * ncols`` a coset, and never more than ``4 * gens * max_cosets``.
    """
    for w in subgroup_gens:
        if w.max_generator() >= p.n_generators:
            raise ValueError("subgroup generator uses an unknown generator")
    return _Enumerator(p.n_generators, p.relators, budget).run(tuple(subgroup_gens))


def commutator_coset_table(p: GroupPresentation,
                           budget: Budget = DEFAULT_BUDGET) -> CosetTable:
    """Coset table of the commutator subgroup, built from G/[G,G].

    Requires the abelianization to be finite (rank 0).  Cosets are the
    elements of the abelian quotient, numbered in mixed-radix order over
    the torsion coordinates (last coordinate fastest); generator g acts by
    adding its image, read from the torsion rows of ``u``
    (``AbelianizationData.torsion_rows``).  Only the forward column is
    computed: ``rows[c][2g] = f`` is filled from c's coordinates, and the
    inverse column as its mirror edge, ``rows[f][2g+1] = c``; adding an
    image is a bijection, so every inverse entry is set exactly once.  The
    budget's clock is read once per block of 1,024 cosets after the first.

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
                          "commutator_coset_table")
    moduli = inv.torsion
    weights = [1] * len(moduli)
    for i in range(len(moduli) - 2, -1, -1):
        weights[i] = weights[i + 1] * moduli[i + 1]
    images = [tuple(row.get(g, 0) for row in data.torsion_rows)
              for g in range(p.n_generators)]

    rows: list[list[int]] = [[0] * (2 * p.n_generators) for _ in range(inv.order())]
    for c, coords in enumerate(product(*(range(m) for m in moduli))):
        if c and not c % 1024:
            budget.check("commutator_coset_table")
        row = rows[c]
        for g, img in enumerate(images):
            f = sum(((a + x) % m) * w for a, x, m, w in zip(coords, img, moduli, weights))
            row[2 * g] = f
            rows[f][2 * g + 1] = c
    return CosetTable(p.n_generators, rows)
