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
``run`` writes the folded column out twice, so rows are the same as
without folding.

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
        self.p = [0]  # union-find over cosets; rep is the least member
        self.deductions: list[tuple[int, int]] = []
        self.deductions_done = 0
        self.check_at = CHECK_EVERY

    def set_columns(self, fold: bool) -> None:
        # with ``fold`` each involution gets one self-inverse column, and
        # any other generator a column and its inverse: phys[x] is the
        # column of letter x and inv[c] the inverse of column c
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
        self.phys, self.inv, self.ncols = phys, inv, len(inv)
        # scans indexed by leading column: (rotation, inverse of each of its
        # columns, last index), each distinct rotation of the relators once,
        # in first-occurrence order.  A self-inverse column satisfies its
        # g^2 by construction, so that relator has no scan.
        self.edp: list[list[tuple[tuple[int, ...], tuple[int, ...], int]]] = [
            [] for _ in range(self.ncols)]
        words = [tuple(map(phys.__getitem__, r.letters)) for r in dict.fromkeys(self.relators)
                 if not (fold and _is_square(r))]
        rots = dict.fromkeys(w[i:] + w[:i] for w in words for i in range(len(w)))
        for rot in rots:
            self.edp[rot[0]].append((rot, tuple(map(inv.__getitem__, rot)), len(rot) - 1))

    def rep(self, c: int) -> int:
        p = self.p
        root = c
        while p[root] != root:
            root = p[root]
        while p[c] != root:
            p[c], c = root, p[c]
        return root

    def define(self, alpha: int, col: int) -> None:
        if len(self.table) >= self.budget.max_cosets:
            raise CapExceeded(f"coset limit {self.budget.max_cosets} reached",
                              "todd_coxeter")
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.set_edge(alpha, col, beta)

    def set_edge(self, a: int, col: int, b: int) -> None:
        # push a filled slot only when a rotation starts at its column; a
        # fixed point of a self-inverse column is one slot, pushed once
        table, edp, deductions = self.table, self.edp, self.deductions
        table[a][col] = b
        if edp[col]:
            deductions.append((a, col))
        icol = self.inv[col]
        if a != b or icol != col:
            table[b][icol] = a
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
        queue: list[int] = []
        self.merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            dead = queue[qi]
            qi += 1
            row = self.table[dead]
            for col in range(self.ncols):
                delta = row[col]
                if delta is None:
                    continue
                # detach the mirror edge before re-rooting
                icol = self.inv[col]
                if self.table[delta][icol] == dead:
                    self.table[delta][icol] = None
                row[col] = None
                mu, nu = self.rep(dead), self.rep(delta)
                target = self.table[mu][col]
                back = self.table[nu][icol]
                if target is not None:
                    self.merge(nu, target, queue)
                elif back is not None:
                    self.merge(mu, back, queue)
                else:
                    self.set_edge(mu, col, nu)

    def scan_and_fill(self, alpha: int, cols: tuple[int, ...]) -> None:
        # runs with the deductions drained, so every table entry is live
        inv = self.inv
        f = alpha
        i, j = 0, len(cols) - 1
        b = alpha
        while True:
            while i <= j:
                d = self.table[f][cols[i]]
                if d is None:
                    break
                f = d
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                d = self.table[b][inv[cols[j]]]
                if d is None:
                    break
                b = d
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.set_edge(f, cols[i], b)
                return
            self.define(f, cols[i])

    def process_deductions(self) -> None:
        table, p, edp, deductions = self.table, self.p, self.edp, self.deductions
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
            if table[a][col] is None:
                continue  # edge removed by a coincidence
            for cols, back, last in edp[col]:
                # scan cols at a: forward from the left, back from the right.
                # Table entries are live cosets: every edge is stored with its
                # mirror and coincidence() clears both for a dead coset.
                f = b = a
                i, j = 0, last
                while i <= j:
                    d = table[f][cols[i]]
                    if d is None:
                        break
                    f = d
                    i += 1
                if i > j:
                    if f != b:
                        coincidence(f, b)
                else:
                    while j >= i:
                        d = table[b][back[j]]
                        if d is None:
                            break
                        b = d
                        j -= 1
                    if j < i:
                        coincidence(f, b)
                    elif j == i:
                        set_edge(f, cols[i], b)
                    # gap of length >= 2: no information
                if p[a] != a:
                    a = rep(a)
                if table[a][col] is None:
                    break

    def run(self, subgroup_gens: Sequence[Word]) -> CosetTable:
        # A word's scan drains only at its end, and until then an
        # involution's two columns can differ.  Scanned on the CosetTable
        # columns, a word defines the same cosets as without folding, so
        # max_cosets stops the enumeration at the same point.
        self.set_columns(not subgroup_gens)
        self.table: list[list[int | None]] = [[None] * self.ncols]
        for w in subgroup_gens:
            self.scan_and_fill(0, w.letters)
            self.process_deductions()
        if subgroup_gens and self.involutions:
            # drained: both columns of an involution are equal, since the
            # drain scanned its g^2 at every edge, so keep the first
            self.set_columns(True)
            keep = [self.phys.index(c) for c in range(self.ncols)]
            self.table = [[row[x] for x in keep] for row in self.table]
        alpha = 0
        while alpha < len(self.table):
            if self.p[alpha] == alpha:
                col = 0
                while col < self.ncols and self.p[alpha] == alpha:
                    if self.table[alpha][col] is None:
                        self.define(alpha, col)
                        self.process_deductions()
                    col += 1
            alpha += 1
        live = [c for c in range(len(self.table)) if self.p[c] == c]
        index = {c: i for i, c in enumerate(live)}
        rows = []
        for c in live:
            row = self.table[c]
            assert None not in row
            # entries are live; an involution's column fills both of its
            # CosetTable columns
            rows.append(tuple([index[row[x]] for x in self.phys]))
        return CosetTable(self.n_gens, rows)


def todd_coxeter(p: GroupPresentation, subgroup_gens: Sequence[Word] = (),
                 budget: Budget = DEFAULT_BUDGET) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by the given words.

    After each definition the deduction stack is drained, which leaves the
    deduction closure of the definitions made so far.  Repeating a scan of
    the same rotation adds nothing to that closure, so scanning each
    distinct rotation once makes the same definitions, numbering and rows.

    Raises :class:`CapExceeded` when the enumeration does not close within
    ``max_cosets`` (infinite index, or the cap too small), or when its
    clock, checked every ``CHECK_EVERY`` deductions, runs out.  The coset
    cap bounds the deductions too.  At most one is pushed per empty slot of
    a live coset filled, and none when no rotation starts at the slot's
    column.  A coset is defined with one empty slot per column of the
    enumerator, ``ncols``: ``2 * gens`` while subgroup words are scanned,
    one fewer per involution after.  A live slot empties again only as the
    mirror of one of the slots a dying coset clears.  So the deductions are
    at most twice the slots of the cosets defined, ``2 * ncols`` a coset,
    and never more than ``4 * gens * max_cosets``.
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
