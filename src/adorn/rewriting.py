"""Presentations of finite-index subgroups from coset tables.

Given a complete coset table for a subgroup H, the Schreier generators are
one per non-tree edge of the coset graph (the tree being the BFS transversal
tree), and relators are obtained by rewriting every relator of the ambient
group once per coset.  The raw presentation has exactly
``n_cosets * n_generators - (n_cosets - 1)`` generators; it is then passed
through Tietze simplification.

Words, coset-table columns and Schreier letters all use the int letter
codes of :class:`adorn.fpgroup.Word` (``2*g`` for a generator, ``x ^ 1`` for
the inverse of ``x``), so rewriting is a walk over ``w.letters`` that reads
one table row and one label row per letter.
"""

from __future__ import annotations

from typing import NamedTuple

from .cosets import CosetTable, IncompleteTable
from .fpgroup import (DEFAULT_BUDGET, Budget, GroupPresentation, Simplified,
                      Word, free_reduce, tietze_simplify)


class _Transversal(NamedTuple):
    words: tuple[Word, ...]
    # labels[c][x]: Schreier letter read when leaving coset c by column x,
    # None on a tree edge
    labels: list[list[int | None]]
    n_schreier: int


def _bfs_transversal(t: CosetTable) -> _Transversal:
    """BFS transversal plus the Schreier generator numbering: generator k is
    the k-th non-tree edge (coset a, column 2g) in (a, g) order, and crossing
    it backwards reads its inverse."""
    if not t.complete:
        raise IncompleteTable("transversal requires a complete coset table")
    rows = t.rows
    ncols = 2 * t.n_generators
    reps: list[Word | None] = [None] * t.n_cosets
    reps[0] = Word()
    tree: set[tuple[int, int]] = set()  # (coset, column), both directions
    queue = [0]
    qi = 0
    while qi < len(queue):
        a = queue[qi]
        qi += 1
        for x in range(ncols):
            b = rows[a][x]
            if reps[b] is None:
                reps[b] = reps[a] * Word.of((x,))
                tree.add((a, x))
                tree.add((b, x ^ 1))
                queue.append(b)
    labels: list[list[int | None]] = [[None] * ncols for _ in range(t.n_cosets)]
    k = 0
    for a in range(t.n_cosets):
        for x in range(0, ncols, 2):
            if (a, x) not in tree:
                labels[a][x] = 2 * k
                labels[rows[a][x]][x ^ 1] = 2 * k + 1
                k += 1
    return _Transversal(tuple(reps), labels, k)


def schreier_transversal(t: CosetTable) -> tuple[Word, ...]:
    """Breadth-first shortest-lex coset representatives; prefix-closed,
    with the empty word representing coset 0 (the subgroup)."""
    return _bfs_transversal(t).words


def _rewrite(t: CosetTable, labels: list[list[int | None]], w: Word,
             start: int) -> Word:
    """Rewrite (transversal[start]) w (transversal[end])^-1 over Schreier
    generators; tree edges contribute nothing."""
    rows = t.rows
    c = start
    out = []
    for x in w.letters:
        y = labels[c][x]
        if y is not None:
            out.append(y)
        c = rows[c][x]
    return Word.of(out)


def rewrite_presentation(p: GroupPresentation, t: CosetTable,
                         budget: Budget = DEFAULT_BUDGET) -> GroupPresentation:
    """Raw subgroup presentation on Schreier generators, before
    simplification; the budget is checked once per ambient relator."""
    _, labels, n_schreier = _bfs_transversal(t)
    relators = []
    for r in p.relators:
        budget.check("rewrite_presentation")
        relators.extend(_rewrite(t, labels, r, a) for a in range(t.n_cosets))
    return GroupPresentation(tuple(f"x{i}" for i in range(n_schreier)), relators,
                             name=f"[{p.name or 'G'} : index {t.n_cosets}]")


def subgroup_word(p: GroupPresentation, t: CosetTable, w: Word) -> Word:
    """Express a word lying in the subgroup in terms of its Schreier
    generators (matching :func:`rewrite_presentation` numbering)."""
    labels = _bfs_transversal(t).labels
    if t.word_act(0, w) != 0:
        raise ValueError("word does not lie in the subgroup of coset 0")
    return free_reduce(_rewrite(t, labels, w, 0))


def reidemeister_schreier(p: GroupPresentation, t: CosetTable,
                          budget: Budget = DEFAULT_BUDGET) -> Simplified:
    """Subgroup presentation from a complete coset table, simplified.

    The ``hit_caps`` flag marks a partially simplified result.
    """
    return tietze_simplify(rewrite_presentation(p, t, budget), budget)
