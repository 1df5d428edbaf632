"""Presentations of finite-index subgroups from coset tables.

Given a complete coset table for a subgroup H, a breadth-first spanning
tree of the coset graph leaves one Schreier generator per non-tree edge.
The rewrite reads nothing but the edge labelling ``labels[c][x]``: the
Schreier letter read when leaving coset c by column x, -1 on a tree edge.
A word rewritten from a coset is the letters read along its walk.  The raw
presentation holds the rewrite of every ambient relator from each coset,
but a relator ``r = s^k`` with primitive root ``s`` is walked only once per
⟨s⟩-orbit of cosets: the walk of ``r`` from ``a·s^j`` is the walk from
``a`` started at letter ``j·len(s)``, so its rewrite is a rotation of the
rewrite from ``a`` and has the same canonical relator (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, §2.5).  So each orbit's
word is canonicalised once, inside the walk loop, and every coset of the
orbit is handed that one canonical word; the presentation is built through
the trusted constructor, which canonicalises nothing again.  The raw
presentation has exactly ``n_cosets * n_generators - (n_cosets - 1)``
generators; it is then passed through Tietze simplification.

Words, coset-table columns and Schreier letters all use the int letter
codes of :class:`adorn.fpgroup.Word` (``2*g`` for a generator, ``x ^ 1`` for
the inverse of ``x``), so rewriting is a walk over ``w.letters`` that reads
one table row and one label row per letter.
"""

from __future__ import annotations

from typing import Iterable

from .cosets import CosetTable
from .fpgroup import (DEFAULT_BUDGET, Budget, GroupPresentation, Simplified, Word,
                      _least_rotation, free_reduce, period, tietze_simplify)


def _schreier_labels(t: CosetTable, budget: Budget = DEFAULT_BUDGET,
                     ) -> tuple[list[list[int]], int]:
    """The edge labelling and the number of Schreier generators: generator
    k is the k-th non-tree edge (coset a, column 2g) in (a, g) order, and
    crossing it backwards reads its inverse.  The budget is checked once
    per block of ``INDEX_BLOCK`` cosets after the first, in the
    breadth-first search and in the numbering."""
    rows = t.rows
    ncols = 2 * t.n_generators
    cosets = range(t.n_cosets)
    labels = [[None] * ncols for _ in cosets]
    seen = [False] * t.n_cosets
    seen[0] = True
    # the cosets in breadth-first order: a coset table is connected, so
    # every coset joins the queue, and queue[i] is there when it is read
    queue = [0]
    for block in budget.blocks(cosets, "rewrite_presentation"):
        for i in block:
            a = queue[i]
            for x, b in enumerate(rows[a]):
                if not seen[b]:
                    seen[b] = True
                    labels[a][x] = labels[b][x ^ 1] = -1
                    queue.append(b)
    k = 0
    for block in budget.blocks(cosets, "rewrite_presentation"):
        for a in block:
            row = labels[a]
            for x in range(0, ncols, 2):
                if row[x] is None:
                    row[x] = 2 * k
                    labels[rows[a][x]][x ^ 1] = 2 * k + 1
                    k += 1
    return labels, k


def _rewrite(t: CosetTable, labels: list[list[int]], w: Word, start: int) -> Word:
    """The Schreier letters read along the walk of ``w`` from ``start``."""
    rows = t.rows
    c = start
    out = []
    for x in w.letters:
        y = labels[c][x]
        if y >= 0:
            out.append(y)
        c = rows[c][x]
    return Word.of(out)


def rewrite_presentation(p: GroupPresentation, t: CosetTable,
                         budget: Budget = DEFAULT_BUDGET) -> GroupPresentation:
    """Raw subgroup presentation on Schreier generators, before
    simplification: relator by relator, the canonical rewrite from each
    coset in coset order.  Each relator is walked from the least coset of
    every orbit of its primitive root, and that rewrite, canonicalised
    once, stands for the whole orbit: every coset of the orbit holds the
    same :class:`Word`.

    The letters read need no reduction, only their least rotation.  A
    relator is cyclically reduced, so its walk is a closed walk in the
    coset graph that never turns back along the edge it came by.  No such
    walk lies in the spanning tree, so the walk reads a letter; and an edge
    read, a path in the tree, then the same edge backwards would turn back,
    so no two neighbouring letters read cancel, cyclically either.  The
    relators are thus canonical, non-empty and on the Schreier generators,
    and the result is built by ``GroupPresentation._trusted``.  The budget
    is checked while the edges are labelled, once per ambient relator, and
    once per block of ``INDEX_BLOCK`` cosets after the first within it, so
    at most ``INDEX_BLOCK`` orbits are walked between two reads."""
    labels, n_schreier = _schreier_labels(t, budget)
    rows = t.rows
    relators = []
    for r in p.relators:
        budget.check("rewrite_presentation")
        root = r.letters[:period(r.letters)]
        powers = range(len(r) // len(root))
        out = [None] * t.n_cosets
        for block in budget.blocks(range(t.n_cosets), "rewrite_presentation"):
            for a in block:
                if out[a] is not None:
                    continue
                c = a
                orbit = []
                read = []
                for _ in powers:
                    orbit.append(c)
                    for x in root:
                        y = labels[c][x]
                        if y >= 0:
                            read.append(y)
                        c = rows[c][x]
                w = Word.of(_least_rotation(tuple(read)))
                for b in orbit:
                    out[b] = w
        relators.extend(out)
    return GroupPresentation._trusted(tuple(f"x{i}" for i in range(n_schreier)),
                                      tuple(relators),
                                      f"[{p.name or 'G'} : index {t.n_cosets}]")


def subgroup_words(t: CosetTable, words: Iterable[Word],
                   budget: Budget = DEFAULT_BUDGET) -> list[Word]:
    """Express words lying in the subgroup of coset 0 in terms of its
    Schreier generators (matching :func:`rewrite_presentation` numbering),
    freely reduced; one labelling, under the budget, serves every word."""
    labels, _ = _schreier_labels(t, budget)
    out = []
    for w in words:
        if t.word_act(0, w) != 0:
            raise ValueError("word does not lie in the subgroup of coset 0")
        out.append(free_reduce(_rewrite(t, labels, w, 0)))
    return out


def reidemeister_schreier(p: GroupPresentation, t: CosetTable,
                          budget: Budget = DEFAULT_BUDGET) -> Simplified:
    """Subgroup presentation from a complete coset table, simplified.

    The ``hit_caps`` flag marks a partially simplified result.
    """
    return tietze_simplify(rewrite_presentation(p, t, budget), budget)
