"""Exact integer linear algebra over relator exponent matrices.

Everything runs on Python bignums: Smith normal form pivots blow up well
past machine precision even for small presentations.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import NamedTuple, Sequence

from .fpgroup import DEFAULT_BUDGET, Budget, GroupPresentation, _in_blocks


class _IntMatrix(NamedTuple):
    rows: int
    cols: int
    sparse_rows: tuple[dict[int, int], ...]


class IntMatrix(_IntMatrix):
    """Sparse integer matrix: the argument of :func:`smith_normal_form`.

    ``sparse_rows[i]`` maps each column j with a non-zero entry in row i to
    that entry; zero entries are never stored, and the dicts are not to be
    mutated.  Relator exponent matrices are almost all zeros, so this is
    the only storage: :func:`relator_matrix` builds it from the relator
    words, one column per distinct relator, and ``from_rows``/``to_rows``
    convert from and to dense lists of rows.
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, sparse_rows: tuple[dict[int, int], ...]):
        if len(sparse_rows) != rows:
            raise ValueError("row count does not match dimensions")
        return super().__new__(cls, rows, cols, sparse_rows)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return IntMatrix(r, c, tuple({j: x for j, x in enumerate(row) if x}
                                     for row in rows))

    def to_rows(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for dense, row in zip(out, self.sparse_rows):
            for j, x in row.items():
                dense[j] = x
        return out


class _AbelianInvariants(NamedTuple):
    rank: int
    torsion: tuple[int, ...]


class AbelianInvariants(_AbelianInvariants):
    """Finitely generated abelian group: free rank plus torsion divisor chain.

    ``rank`` is >= 0; ``torsion`` entries are >= 2 and each divides the
    next; the group is finite exactly when ``rank`` is zero.
    """

    __slots__ = ()

    def __new__(cls, rank: int, torsion: tuple[int, ...]):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {torsion} is not a divisor chain")
        if any(t < 2 for t in torsion):
            raise ValueError("torsion entries must be >= 2")
        return super().__new__(cls, rank, torsion)

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " ⊕ ".join(parts) if parts else "trivial"


def smith_normal_form(m: IntMatrix, budget: Budget = DEFAULT_BUDGET, *,
                      transform: bool = True,
                      ) -> tuple[tuple[int, ...], list[dict[int, int]] | None]:
    """Diagonalize ``m`` over Z: returns (d, u) where u * m * v is diagonal
    for some unimodular v, which is not computed.

    ``d`` holds the min(rows, cols) diagonal entries, non-negative and
    forming a divisor chain; ``u`` is the unimodular row transform, as a
    list of sparse rows (``u[i]`` maps column j to the non-zero u[i][j]).
    With ``transform=False`` no ``u`` is built and None is returned in its
    place, and only ``d`` is the contract: the divisor-chain diagonal is
    unique, so any unimodular elimination may reach it, and the unit
    pre-phase below does.  Only readers of the rows of ``u`` need the exact
    pivot order: the commutator coset table and the Alexander polynomial,
    through :func:`abelianization_data`.

    Representation: the working matrix ``a`` and ``u`` are lists of sparse
    rows like ``IntMatrix.sparse_rows``, with zeros deleted as soon as they
    appear, and ``col[j]`` is the set of rows with a non-zero in column j
    of ``a``.  Row operations walk the source row's non-zeros; column
    additions, column clearing and column swaps walk ``col``.  So each
    operation costs the non-zeros it reads, not the width of the matrix.

    Pivot rule: at step t the pivot is the first entry of least non-zero
    absolute value in row-major order over the submatrix a[t:, t:], that
    is, the least (|x|, i, j).  Rows t and up are zero left of column t, so
    the search reads each row's non-zeros: the row's least |x|, then the
    least column holding it.  The pivot is moved to (t, t) and made
    positive; the rest of its column and row are reduced by floor
    division.  If a remainder is left, the pivot is chosen again.
    Otherwise, if the pivot does not divide some entry of a[t+1:, t+1:],
    the first row holding such an entry is added to row t and the pivot is
    chosen again; else t advances.

    ``u`` is part of the contract, not just ``d``: the commutator coset
    table numbers its cosets by the torsion rows of ``u``
    (``AbelianizationData.torsion_rows``), and the stage shapes every
    later step reports follow from that numbering.  So the output must
    depend on the pivot rule alone: the pivots, the operations and (d, u)
    are those of the plain dense elimination (``smith_normal_form_reference``
    in the tests).  The contract holds for the matrix it is given: from a
    presentation, :func:`relator_matrix` gives one column per distinct
    relator, so ``u`` is that of the matrix without repeated columns, and
    it differs from the one-column-per-occurrence ``u`` only when a
    relator repeats.  Two early exits remain, and both skip only work whose
    result is fixed in advance: the pivot search stops after the first row
    holding an entry of absolute value 1, which no later entry can beat
    under the strict comparison; and a pivot of 1 divides everything, so
    its divisor-chain scan is skipped.  The budget's clock is checked once
    per pivot step, and while the working state is built (``u``, the column
    index and the row copies), once per block of ``INDEX_BLOCK`` rows or
    columns after the first.

    Both row scans, the pivot search below row t and the divisor-chain
    scan, skip the rows they have found empty, through ``nxt``, a
    path-compressed "next row not known to be empty" array.  A row whose
    index is above t never fills again once empty: row additions write
    only into rows holding an entry in column t, or into row t; column
    operations touch only rows holding an entry in the columns they move;
    and ``swap_rows(t, i)`` can empty row i but fills no row above t.  As
    t only grows, a row known empty stays skipped; row t itself is always
    read.  An empty row offers no pivot and no stray entry, so the scans
    see the same rows in the same order, and the pivots, the operations
    and (d, u) are unchanged.

    Unit pre-phase, ``transform=False`` only (Havas, Holt and Rees, *Linear
    Algebra Appl.* 192 (1993)): before the pivot loop, the columns are swept
    in order, and in each column holding an entry of absolute value 1 that
    entry is taken from the shortest row, ties to the lowest row index.
    Row additions clear the rest of its column; the pivot's row and column
    are then emptied in place, with no column operation, as clearing its
    row by column additions would change no other row.  Each such step
    splits off a summand 1, ``m = 1 ⊕ m'`` up to unimodular row and column
    operations, and reads the budget's clock once.  A row addition can make
    a unit in a column the sweep has passed, so the sweep is repeated until
    one takes no pivot.  The pivot loop then runs on the rest for
    ``min(rows, cols) - units`` steps, and ``d`` is ``units`` ones followed
    by its diagonal.

    A matrix with no non-zero entry, such as that of a stage with no
    relator, returns at once: ``d`` is all zeros and ``u`` the identity,
    as the pivot loop would leave them, with no working state built.
    """
    nr, nc = m.rows, m.cols
    u = ([{i: 1} for block in _in_blocks(range(nr), budget, "smith_normal_form")
          for i in block] if transform else None)
    if not any(m.sparse_rows):
        return (0,) * min(nr, nc), u
    col: list[set[int]] = [set() for block in _in_blocks(range(nc), budget, "smith_normal_form")
                           for _ in block]
    a: list[dict[int, int]] = []
    for block in _in_blocks(m.sparse_rows, budget, "smith_normal_form"):
        for i, row in enumerate(block, len(a)):
            for j in row:
                col[j].add(i)
        a += map(dict, block)
    # nxt[i] > i: rows i .. nxt[i] - 1 are known empty; nxt[i] == i: unknown
    nxt = list(range(nr + 1))

    def swap_rows(i, k):
        ai, ak = a[i], a[k]
        for j in ai.keys() - ak.keys():
            rows = col[j]
            rows.remove(i)
            rows.add(k)
        for j in ak.keys() - ai.keys():
            rows = col[j]
            rows.remove(k)
            rows.add(i)
        a[i], a[k] = ak, ai
        if u is not None:
            u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for i in col[j] | col[k]:
            row = a[i]
            x = row.pop(j, 0)
            y = row.pop(k, 0)
            if y:
                row[j] = y
            if x:
                row[k] = x
        col[j], col[k] = col[k], col[j]

    def add_row(src, dst, k):
        # row[dst] += k * row[src]; k != 0, as no |entry| is below the pivot's
        row = a[dst]
        for j, x in a[src].items():
            y = row.get(j)
            if y is None:
                row[j] = k * x
                col[j].add(dst)
            else:
                y += k * x
                if y:
                    row[j] = y
                else:
                    del row[j]
                    col[j].remove(dst)
        if u is None:
            return
        row = u[dst]
        for j, x in u[src].items():
            y = row.get(j, 0) + k * x
            if y:
                row[j] = y
            else:
                del row[j]

    def add_col(src, dst, k):
        rows = col[dst]
        for i in col[src]:
            row = a[i]
            y = row.get(dst)
            if y is None:
                row[dst] = k * row[src]
                rows.add(i)
            else:
                y += k * row[src]
                if y:
                    row[dst] = y
                else:
                    del row[dst]
                    rows.remove(i)

    def negate_row(i):
        a[i] = {j: -x for j, x in a[i].items()}
        if u is not None:
            u[i] = {j: -x for j, x in u[i].items()}

    def live_rows(start):
        # the non-empty rows from start on, in order; start > t, so an
        # empty row met here stays empty and is skipped from then on
        i = start
        while i < nr:
            k = nxt[i]
            if k != i:
                while nxt[k] != k:  # path halving
                    nxt[k] = nxt[nxt[k]]
                    k = nxt[k]
                nxt[i] = k
                i = k
            elif a[i]:
                yield i
                i += 1
            else:
                nxt[i] = i + 1
                i += 1

    def find_pivot(t):
        # row t is read first, and outside live_rows: a row that is empty
        # at index t can still be refilled by swap_rows(t, i)
        best = None
        best_abs = 0
        row = a[t]
        if row:
            best_abs = min(map(abs, row.values()))
            best = (t, min(j for j, x in row.items() if abs(x) == best_abs))
            if best_abs == 1:
                return best
        for i in live_rows(t + 1):
            row = a[i]
            ax = min(map(abs, row.values()))
            if best is None or ax < best_abs:
                best_abs = ax
                best = (i, min(j for j, x in row.items() if abs(x) == ax))
                if ax == 1:
                    break
        return best

    units = 0
    found = u is None
    while found:  # unit pre-phase, for invariants only
        found = False
        for j, rows in enumerate(col):
            i = -1
            for k in rows:
                x = a[k][j]
                if x == 1 or x == -1:
                    n = len(a[k])
                    if i < 0 or n < best or (n == best and k < i):
                        i, best = k, n
            if i < 0:
                continue
            budget.check("smith_normal_form")
            found = True
            units += 1
            s = a[i][j]
            for k in [k for k in rows if k != i]:
                add_row(i, k, -a[k][j] * s)
            for c in a[i]:
                col[c].remove(i)
            a[i] = {}

    t = 0
    while t < min(nr, nc) - units:
        budget.check("smith_normal_form")
        pos = find_pivot(t)
        if pos is None:
            break
        if pos[0] != t:
            swap_rows(t, pos[0])
        if pos[1] != t:
            swap_cols(t, pos[1])
        if a[t][t] < 0:
            negate_row(t)

        p = a[t][t]
        clean = True
        for i in [i for i in col[t] if i != t]:
            add_row(t, i, -(a[i][t] // p))
            if t in a[i]:
                clean = False
        pivot_row = a[t]
        for j in [j for j in pivot_row if j != t]:
            add_col(t, j, -(pivot_row[j] // p))
            if j in pivot_row:
                clean = False
        if not clean:
            continue  # smaller remainders appeared; re-pick the pivot

        # enforce the divisor chain: pivot must divide the whole submatrix
        stray = None
        if p != 1:
            for i in live_rows(t + 1):
                if any(x % p for x in a[i].values()):
                    stray = i
                    break
        if stray is not None:
            add_row(stray, t, 1)
            continue
        t += 1

    return (1,) * units + tuple(a[i].get(i, 0) for i in range(min(nr, nc) - units)), u


def relator_matrix(p: GroupPresentation, budget: Budget = DEFAULT_BUDGET) -> IntMatrix:
    """Exponent-sum matrix, one row per generator and one column per
    distinct relator, in first-occurrence order: entry (g, r) is the
    exponent sum of generator g in the r-th distinct relator.  Built from
    the relator words' letters, without a dense pass; relators are told
    apart by their letter tuples, with no ``Word.__hash__`` call.  The
    budget's clock is read once per block of ``INDEX_BLOCK`` distinct
    relators after the first, as layer ``relator_matrix``;
    :func:`abelianization_data` passes its budget on.

    A repeated relator is a repeated column, which spans no new relation,
    so dropping it leaves the relation lattice, and with it every
    invariant, unchanged (Havas, Holt and Rees, *Linear Algebra Appl.* 192
    (1993)).  Relators are stored canonically, so a rotation or inverse of
    a relator is the same word and is dropped too.  A raw
    Reidemeister-Schreier rewrite gives every coset of an orbit its
    leader's word, so most of its relators are repeats.  For a presentation
    whose relators are pairwise distinct the matrix is the one-column-per-
    relator matrix, column for column."""
    distinct = list(dict.fromkeys(map(attrgetter("letters"), p.relators)))
    rows: list[dict[int, int]] = [{} for _ in range(p.n_generators)]
    blocks = _in_blocks(distinct, budget, "relator_matrix")
    for r, letters in enumerate(chain.from_iterable(blocks)):
        for x in letters:
            row = rows[x >> 1]
            e = row.get(r, 0) + (-1 if x & 1 else 1)
            if e:
                row[r] = e
            else:
                del row[r]
    return IntMatrix(p.n_generators, len(distinct), tuple(rows))


class AbelianizationData(NamedTuple):
    """Invariants of G/[G,G] together with the rows of ``u`` that map the
    generators onto them.

    ``free_rows[k]`` and ``torsion_rows[k]`` are sparse rows, in the form
    :func:`smith_normal_form` returns: each maps generator g to its
    coordinate in the k-th Z summand, or in the k-th Z/d_k summand
    (d_k = ``invariants.torsion[k]``), and a generator that is absent has
    coordinate 0.  Torsion coordinates are reduced into [1, d_k), zero
    residues dropped.  Generator g's image is read off by
    ``row.get(g, 0)``; no per-generator table is built, since a wide stage
    of infinite H1 has as many free rows as generators.  Both are None when
    the data was built without ``u`` (``transform=False``).
    """

    invariants: AbelianInvariants
    free_rows: tuple[dict[int, int], ...] | None
    torsion_rows: tuple[dict[int, int], ...] | None


def abelianization_data(p: GroupPresentation, budget: Budget = DEFAULT_BUDGET,
                        *, transform: bool = True) -> AbelianizationData:
    """H1 of ``p`` and the rows of ``u`` from the Smith normal form of
    :func:`relator_matrix`, which has one column per distinct relator.
    The output is that of the relators with every repeat dropped, in
    first-occurrence order, so appending a repeat of a relator changes
    nothing, and for pairwise distinct relators nothing is dropped.

    ``transform`` is passed to :func:`smith_normal_form`.  When it is off,
    no ``u`` is built, and ``free_rows`` and ``torsion_rows`` are None; only
    ``invariants`` is read, and they come from the faster unit pre-phase
    elimination, which reaches the same unique diagonal by other pivots.
    The callers that read the rows, which must follow the exact pivot order,
    :func:`~adorn.cosets.commutator_coset_table` and
    :func:`~adorn.alexander.alexander_polynomial`, keep the default."""
    d, u = smith_normal_form(relator_matrix(p, budget), budget, transform=transform)
    diag = list(d) + [0] * (p.n_generators - len(d))
    inv = AbelianInvariants(diag.count(0), tuple(x for x in diag if x >= 2))
    if u is None:
        return AbelianizationData(inv, None, None)
    free_rows = tuple(row for row, x in zip(u, diag) if x == 0)
    torsion_rows = tuple({g: y for g, c in row.items() if (y := c % x)}
                         for row, x in zip(u, diag) if x >= 2)
    return AbelianizationData(inv, free_rows, torsion_rows)


def abelianization(p: GroupPresentation,
                   budget: Budget = DEFAULT_BUDGET) -> AbelianInvariants:
    """Invariants of the cokernel of the relator exponent matrix, from
    :func:`abelianization_data` without the row transform: the same
    diagonal, reached through the unit pre-phase of
    :func:`smith_normal_form`, with no ``u`` built or kept."""
    return abelianization_data(p, budget, transform=False).invariants
