"""Exact integer linear algebra over relator exponent matrices.

Everything runs on Python bignums: Smith normal form pivots blow up well
past machine precision even for small presentations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .fpgroup import DEFAULT_BUDGET, Budget, GroupPresentation


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, entries row-major: the argument of
    :func:`smith_normal_form`."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return IntMatrix(r, c, tuple(chain.from_iterable(rows)))

    def to_rows(self) -> list[list[int]]:
        e, c = self.entries, self.cols
        return [list(e[i * c:(i + 1) * c]) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        e, c = self.entries, self.cols
        return IntMatrix(c, self.rows,
                         tuple(chain.from_iterable(e[j::c] for j in range(c))))


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
                      ) -> tuple[tuple[int, ...], list[list[int]]]:
    """Diagonalize ``m`` over Z: returns (d, u) where u * m * v is diagonal
    for some unimodular v, which is not computed.

    ``d`` holds the min(rows, cols) diagonal entries, non-negative and
    forming a divisor chain; ``u`` is the unimodular row transform, as a
    list of its rows.

    Pivot rule: at step t the pivot is the first entry of least non-zero
    absolute value in row-major order over the submatrix a[t:, t:].  It is
    moved to (t, t) and made positive; the rest of its column and row are
    reduced by floor division.  If a remainder is left, the pivot is chosen
    again.  Otherwise, if the pivot does not divide some entry of a[t+1:,
    t+1:], the first row holding such an entry is added to row t and the
    pivot is chosen again; else t advances.

    ``u`` is part of the contract, not just ``d``: the commutator coset table
    numbers its cosets by rows of ``u``, so the output must depend on the
    pivot rule alone.  The early exits below skip only work whose result is
    fixed in advance: the pivot search stops at the first entry of absolute
    value 1, which no later entry can beat under the strict comparison; a
    pivot of 1 divides everything, so its divisor-chain scan is skipped; and
    a row or column operation skips source entries equal to 0.  Pivots,
    operations and (d, u) are those of the full computation.  The budget's
    clock is checked once per pivot step.
    """
    a = m.to_rows()
    nr, nc = m.rows, m.cols
    u = [[0] * nr for _ in range(nr)]
    for i, row in enumerate(u):
        row[i] = 1

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row[dst] += k * row[src]
        for dst_row, src_row in ((a[dst], a[src]), (u[dst], u[src])):
            for j, x in enumerate(src_row):
                if x:
                    dst_row[j] += k * x

    def add_col(src, dst, k):
        for row in a:
            x = row[src]
            if x:
                row[dst] += k * x

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t):
        best = None
        best_abs = 0
        for i in range(t, nr):
            for j, x in enumerate(a[i][t:], t):
                if x:
                    ax = abs(x)
                    if ax == 1:
                        return i, j
                    if best is None or ax < best_abs:
                        best, best_abs = (i, j), ax
        return best

    t = 0
    while t < min(nr, nc):
        budget.check("smith_normal_form")
        pos = find_pivot(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        if a[t][t] < 0:
            negate_row(t)

        clean = True
        for i in range(t + 1, nr):
            if a[i][t]:
                add_row(t, i, -(a[i][t] // a[t][t]))
                if a[i][t]:
                    clean = False
        for j in range(t + 1, nc):
            if a[t][j]:
                add_col(t, j, -(a[t][j] // a[t][t]))
                if a[t][j]:
                    clean = False
        if not clean:
            continue  # smaller remainders appeared; re-pick the pivot

        # enforce the divisor chain: pivot must divide the whole submatrix
        p = a[t][t]
        stray = None
        if p != 1:
            for i in range(t + 1, nr):
                if any(x % p for x in a[i][t + 1:]):
                    stray = i
                    break
        if stray is not None:
            add_row(stray, t, 1)
            continue
        t += 1

    return tuple(a[i][i] for i in range(min(nr, nc))), u


def relator_matrix(p: GroupPresentation) -> IntMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    rows = []
    for r in p.relators:
        row = [0] * p.n_generators
        for g, s in r:
            row[g] += s
        rows.append(row)
    if not rows:
        return IntMatrix(0, p.n_generators, ())
    return IntMatrix.from_rows(rows)


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
    mat = relator_matrix(p).transpose()  # generators x relators
    d, u = smith_normal_form(mat, budget)
    diag = list(d) + [0] * (n - len(d))
    free_rows = [i for i in range(n) if diag[i] == 0]
    torsion_rows = [i for i in range(n) if diag[i] >= 2]
    invariants = AbelianInvariants(len(free_rows),
                                   tuple(diag[i] for i in torsion_rows))
    free_images = _columns([u[i] for i in free_rows], n)
    torsion_images = _columns([[x % diag[i] for x in u[i]]
                               for i in torsion_rows], n)
    return AbelianizationData(invariants, free_images, torsion_images)


def _columns(rows: list[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """The n columns of ``rows`` (each of length n) as tuples."""
    return tuple(zip(*rows)) if rows else ((),) * n


def abelianization(p: GroupPresentation,
                   budget: Budget = DEFAULT_BUDGET) -> AbelianInvariants:
    """Invariants of the cokernel of the relator exponent matrix."""
    return abelianization_data(p, budget).invariants


def is_perfect(p: GroupPresentation) -> bool:
    """True when the abelianization is trivial (the group equals its
    commutator subgroup)."""
    return abelianization(p).is_trivial()
