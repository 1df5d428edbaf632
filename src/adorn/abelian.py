"""Exact integer linear algebra over relator exponent matrices.

Everything runs on Python bignums: Smith normal form pivots blow up well
past machine precision even for small presentations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fpgroup import DEFAULT_BUDGET, Budget, GroupPresentation


@dataclass(frozen=True)
class IntMatrix:
    """Sparse integer matrix: the argument of :func:`smith_normal_form`.

    ``sparse_rows[i]`` maps each column j with a non-zero entry in row i to
    that entry; zero entries are never stored, and the dicts are not to be
    mutated.  Relator exponent matrices are almost all zeros, so this is
    the only storage: :func:`relator_matrix` builds it from the relator
    words, and ``from_rows``/``to_rows`` convert from and to dense lists
    of rows.
    """

    rows: int
    cols: int
    sparse_rows: tuple[dict[int, int], ...]

    def __post_init__(self):
        if len(self.sparse_rows) != self.rows:
            raise ValueError("row count does not match dimensions")

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


@dataclass(frozen=True)
class AbelianInvariants:
    """Finitely generated abelian group: free rank plus torsion divisor chain.

    ``torsion`` entries are >= 2 and each divides the next; the group is
    finite exactly when ``rank`` is zero.
    """

    rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} is not a divisor chain")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion entries must be >= 2")

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


def smith_normal_form(m: IntMatrix, budget: Budget = DEFAULT_BUDGET,
                      ) -> tuple[tuple[int, ...], list[dict[int, int]]]:
    """Diagonalize ``m`` over Z: returns (d, u) where u * m * v is diagonal
    for some unimodular v, which is not computed.

    ``d`` holds the min(rows, cols) diagonal entries, non-negative and
    forming a divisor chain; ``u`` is the unimodular row transform, as a
    list of sparse rows (``u[i]`` maps column j to the non-zero u[i][j]).

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
    (``AbelianizationData.torsion_images``), and the stage shapes every
    later step reports follow from that numbering.  So the output must
    depend on the pivot rule alone: the pivots, the operations and (d, u)
    are those of the plain dense elimination (``smith_normal_form_reference``
    in the tests).  Two early exits remain, and both skip only work whose
    result is fixed in advance: the pivot search stops after the first row
    holding an entry of absolute value 1, which no later entry can beat
    under the strict comparison; and a pivot of 1 divides everything, so
    its divisor-chain scan is skipped.  The budget's clock is checked once
    per pivot step.
    """
    nr, nc = m.rows, m.cols
    a = [dict(row) for row in m.sparse_rows]
    u = [{i: 1} for i in range(nr)]
    col: list[set[int]] = [set() for _ in range(nc)]
    for i, row in enumerate(a):
        for j in row:
            col[j].add(i)

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
        u[i] = {j: -x for j, x in u[i].items()}

    def find_pivot(t):
        best = None
        best_abs = 0
        for i in range(t, nr):
            row = a[i]
            if row:
                ax = min(map(abs, row.values()))
                if best is None or ax < best_abs:
                    best_abs = ax
                    best = (i, min(j for j, x in row.items() if abs(x) == ax))
                    if ax == 1:
                        break
        return best

    t = 0
    while t < min(nr, nc):
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
            for i in range(t + 1, nr):
                if any(x % p for x in a[i].values()):
                    stray = i
                    break
        if stray is not None:
            add_row(stray, t, 1)
            continue
        t += 1

    return tuple(a[i].get(i, 0) for i in range(min(nr, nc))), u


def relator_matrix(p: GroupPresentation) -> IntMatrix:
    """Exponent-sum matrix, one row per generator and one column per
    relator: entry (g, r) is the exponent sum of generator g in relator r.
    Built from the relator words' letters, without a dense pass."""
    rows: list[dict[int, int]] = [{} for _ in range(p.n_generators)]
    for r, rel in enumerate(p.relators):
        for x in rel.letters:
            row = rows[x >> 1]
            e = row.get(r, 0) + (-1 if x & 1 else 1)
            if e:
                row[r] = e
            else:
                del row[r]
    return IntMatrix(p.n_generators, p.n_relators, tuple(rows))


@dataclass(frozen=True)
class AbelianizationData:
    """Invariants of G/[G,G] together with the generator images.

    ``free_images[j]`` are the coordinates of generator j in the Z^rank part;
    ``torsion_images[j]`` the residues in the Z/t_i coordinates (same order
    as ``invariants.torsion``).
    """

    invariants: AbelianInvariants
    free_images: tuple[tuple[int, ...], ...]
    torsion_images: tuple[tuple[int, ...], ...]


def abelianization_data(p: GroupPresentation,
                        budget: Budget = DEFAULT_BUDGET) -> AbelianizationData:
    n = p.n_generators
    d, u = smith_normal_form(relator_matrix(p), budget)
    diag = list(d) + [0] * (n - len(d))
    free_rows = [i for i in range(n) if diag[i] == 0]
    torsion_rows = [i for i in range(n) if diag[i] >= 2]
    invariants = AbelianInvariants(len(free_rows),
                                   tuple(diag[i] for i in torsion_rows))
    # generator j's image is column j of the kept rows of u
    free_images = [[0] * len(free_rows) for _ in range(n)]
    for k, i in enumerate(free_rows):
        for j, x in u[i].items():
            free_images[j][k] = x
    torsion_images = [[0] * len(torsion_rows) for _ in range(n)]
    for k, i in enumerate(torsion_rows):
        for j, x in u[i].items():
            torsion_images[j][k] = x % diag[i]
    for images in (free_images, torsion_images):
        for j, image in enumerate(images):
            images[j] = tuple(image)  # in place: the lists go as the tuples come
    return AbelianizationData(invariants, tuple(free_images),
                              tuple(torsion_images))


def abelianization(p: GroupPresentation,
                   budget: Budget = DEFAULT_BUDGET) -> AbelianInvariants:
    """Invariants of the cokernel of the relator exponent matrix."""
    return abelianization_data(p, budget).invariants
