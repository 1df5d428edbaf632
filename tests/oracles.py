"""Independent brute-force oracles used to freeze expected values.

Nothing here imports the library's linear algebra or series engine: the
permutation-group machinery is raw closure computation, and the Smith
normal form oracle is the gcd-of-minors characterization.  The reference
Smith normal form below is the library's elimination as it was before its
early exits, kept on plain lists of rows so that the fast one can be
compared with it entry for entry.  Likewise the reference Tietze
simplification is the library's elimination loop as it was before the
occurrence index: it recounts every relator before each elimination and
re-canonicalises every relator after it, and its subword pass is the
library's as it was before one index served the whole call: it scans
every pair of relators and copies the list.  The reference Todd–Coxeter
enumerator is the library's as it was before it dropped repeated relator
rotations: every rotation of every relator is scanned after each deduction.
The reference Fox derivative is the library's as it was before it went
straight to Z[t, 1/t]: an element of the free group ring Z[F], keyed by
freely reduced prefix words, that ``to_laurent`` pushes through g -> t^e(g).
The reference Alexander polynomial is the library's as it was before it
took a single minor: the gcd of all n maximal minors of the Alexander
matrix, folded by the primitive Euclidean algorithm in Z[t, 1/t].  Its
minors, and the reference for the library's Kronecker-substitution
determinant, come from the cofactor expansion the library used before:
a Laplace expansion along the rows, memoised over column subsets.
The reference relator matrix is the library's as it was before it dropped
repeated relators: one column per relator occurrence.
The reference commutator coset table is the library's as it was before it
read the torsion rows of ``u``: a dense table of generator images taken
from the reference Smith normal form of the reference relator matrix, and
both columns of every row computed from the coset's coordinates.
The Schreier transversal is found without the library's labelling: level
by level, each new coset takes the shortlex-least one-letter extension of
the representatives found so far.
The reference raw Reidemeister–Schreier rewrite is the library's as it was
before it walked one coset per orbit of a periodic relator: every ambient
relator is walked from every coset.
The drain check ``open_relator_scans`` scans every rotation of every
relator at every live coset of the enumerator's table, whatever scan lists
the enumerator queues from.  ``scan_entries_reference`` is the
enumerator's scan-list build as it was before it took only the first
period of rotations of a periodic relator: every rotation of every
relator, deduplicated.
The reference canonical relator is the library's as it was before it took
only the rotations within the first period of a power: every rotation of
the word and of its inverse that starts at the least letter.

The last section holds helpers that only the tests use, moved out of the
package: ``doa``, ``cyclically_reduce``, and ``laurent_add`` and
``laurent_mul`` for the sum and product of Laurent polynomials.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd
from typing import Sequence

from adorn.abelian import IntMatrix, abelianization, abelianization_data
from adorn.alexander import (AlexanderError, DeficiencyMismatch, LaurentPoly,
                             NotKnotLike, fox_derivative)
from adorn.cosets import CapExceeded
from adorn.derived import ADORABLE, derived_series
from adorn.fpgroup import (DEFAULT_BUDGET, Budget, GroupPresentation,
                           Simplified, Word, _cyclically_reduced, free_reduce)
from adorn.rewriting import _rewrite, _schreier_labels

Perm = tuple[int, ...]


def pidentity(n: int) -> Perm:
    return tuple(range(n))


def pmul(p: Perm, q: Perm) -> Perm:
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def pinv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def ppow(p: Perm, n: int) -> Perm:
    if n < 0:
        return ppow(pinv(p), -n)
    result = pidentity(len(p))
    base = p
    while n:
        if n & 1:
            result = pmul(base, result)
        base = pmul(base, base)
        n >>= 1
    return result


def pcomm(p: Perm, q: Perm) -> Perm:
    return pmul(pmul(p, q), pmul(pinv(p), pinv(q)))


def closure(gens) -> frozenset[Perm]:
    gens = [g for g in gens]
    if not gens:
        raise ValueError("need at least one permutation for the degree")
    elems = {pidentity(len(gens[0]))}
    frontier = list(elems)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = pmul(g, x)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return frozenset(elems)


def normal_closure(seed, conj_gens) -> frozenset[Perm]:
    """Smallest subgroup containing seed and closed under conjugation by the
    given generators (hence normal in the group they generate)."""
    degree = len(next(iter(conj_gens))) if conj_gens else len(next(iter(seed)))
    gens = set(seed) or {pidentity(degree)}
    while True:
        sub = closure(gens or [pidentity(degree)])
        extra = set()
        for g in conj_gens:
            gi = pinv(g)
            for s in sub:
                c = pmul(pmul(g, s), gi)
                if c not in sub:
                    extra.add(c)
        if not extra:
            return sub
        gens = set(sub) | extra


def word_to_perm(word, images: list[Perm]) -> Perm:
    out = pidentity(len(images[0]))
    for g, s in word:
        out = pmul(out, images[g] if s > 0 else pinv(images[g]))
    return out


def check_model(presentation, images: list[Perm]) -> None:
    """Assert the permutations satisfy the presentation's relators."""
    assert len(images) == presentation.n_generators
    n = len(images[0])
    for r in presentation.relators:
        assert word_to_perm(r, images) == pidentity(n), \
            f"model violates relator {presentation.word_str(r)}"


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def abelian_invariants(elems, mul, identity) -> tuple[int, ...]:
    """Torsion divisor chain of a finite abelian group given by a
    multiplication oracle, via order-counting prime by prime."""
    n = len(elems)
    if n == 1:
        return ()

    def power(x, k):
        out = identity
        base = x
        while k:
            if k & 1:
                out = mul(base, out)
            base = mul(base, base)
            k >>= 1
        return out

    per_prime: dict[int, list[int]] = {}
    for p in _prime_factors(n):
        logs = [0]
        k = 1
        while True:
            c = sum(1 for x in elems if power(x, p ** k) == identity)
            lg = 0
            while c > 1:
                c //= p
                lg += 1
            logs.append(lg)
            if logs[-1] == logs[-2]:
                logs.pop()
                break
            k += 1
        s = [logs[i] - logs[i - 1] for i in range(1, len(logs))]
        s.append(0)
        factors = []
        for k in range(1, len(s)):
            for _ in range(s[k - 1] - s[k]):
                factors.append(p ** k)
        per_prime[p] = sorted(factors)

    length = max(len(v) for v in per_prime.values())
    chain = []
    for i in range(length):
        d = 1
        for p, lst in per_prime.items():
            padded = [1] * (length - len(lst)) + lst
            d *= padded[i]
        chain.append(d)
    return tuple(x for x in chain if x > 1)


def quotient_invariants(group: frozenset[Perm], normal: frozenset[Perm]) -> tuple[int, ...]:
    """Abelian invariants of group/normal (the quotient must be abelian)."""
    hs = sorted(normal)
    rep: dict[Perm, Perm] = {}
    for x in sorted(group):
        if x in rep:
            continue
        coset = [pmul(x, h) for h in hs]
        r = min(coset)
        for y in coset:
            rep[y] = r
    elems = sorted(set(rep.values()))
    identity = rep[pidentity(len(hs[0]))]

    def mul(x, y):
        return rep[pmul(x, y)]

    return abelian_invariants(elems, mul, identity)


def derived_series_quotients(gens, max_steps: int = 12) -> list[tuple[int, ...]]:
    """Abelian invariants of G_i / G_{i+1} along the derived series, ending
    with the first trivial quotient (perfect or trivial term reached)."""
    out = []
    cur_gens = list(gens)
    current = closure(cur_gens)
    for _ in range(max_steps):
        comms = {pcomm(x, y) for x in cur_gens for y in cur_gens}
        derived = normal_closure(comms, cur_gens)
        inv = quotient_invariants(current, derived)
        out.append(inv)
        if not inv:
            return out
        current = derived
        cur_gens = sorted(derived)
    raise RuntimeError("derived series did not stabilize")


def perm_doa(gens) -> int:
    """Degree of adorability of a finite permutation group (first index with
    trivial derived quotient)."""
    return len(derived_series_quotients(gens)) - 1


def verify_table(table, p, subgroup_gens=()) -> None:
    """Assert the structural invariants of a complete coset table: each
    generator permutes the cosets, the action is transitive, every relator
    fixes every coset and every subgroup generator fixes coset 0."""
    n = table.n_cosets
    for g in range(table.n_generators):
        fwd = tuple(row[2 * g] for row in table.rows)
        bwd = tuple(row[2 * g + 1] for row in table.rows)
        assert sorted(fwd) == list(range(n)), f"generator {g} is not a permutation"
        assert all(bwd[fwd[i]] == i for i in range(n)), f"generator {g} inverse mismatch"
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for c in frontier:
            for x in table.rows[c]:
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    assert len(seen) == n, "action is not transitive"
    for r in p.relators:
        for c in range(n):
            assert table.word_act(c, r) == c, "relator does not act trivially"
    for w in subgroup_gens:
        assert table.word_act(0, w) == 0, "subgroup generator moves coset 0"


def schreier_transversal(table) -> tuple[Word, ...]:
    """Shortlex-least word taking coset 0 to each coset, with the empty word
    for coset 0.  The least word of length n + 1 to a new coset extends the
    least word of its length-n prefix's coset, so each level only extends
    the one before; the result is prefix-closed."""
    reps: dict[int, tuple[int, ...]] = {0: ()}
    level = [0]
    while level:
        found: dict[int, tuple[int, ...]] = {}
        for c in level:
            for x, b in enumerate(table.rows[c]):
                if b not in reps:
                    w = reps[c] + (x,)
                    if b not in found or w < found[b]:
                        found[b] = w
        reps.update(found)
        level = list(found)
    return tuple(Word.of(reps[c]) for c in range(table.n_cosets))


def rewrite_presentation_reference(p, table) -> GroupPresentation:
    """Raw subgroup presentation on Schreier generators: the rewrite of each
    ambient relator from each coset, in coset order."""
    labels, n_schreier = _schreier_labels(table)
    relators = []
    for r in p.relators:
        relators.extend(_rewrite(table, labels, r, a) for a in range(table.n_cosets))
    return GroupPresentation(tuple(f"x{i}" for i in range(n_schreier)), relators,
                             name=f"[{p.name or 'G'} : index {table.n_cosets}]")


def relator_matrix_reference(p) -> IntMatrix:
    """Exponent-sum matrix with one row per generator and one column per
    relator occurrence, a repeated relator included."""
    rows = [[0] * p.n_relators for _ in range(p.n_generators)]
    for r, rel in enumerate(p.relators):
        for g, s in rel:
            rows[g][r] += s
    return IntMatrix(p.n_generators, p.n_relators,
                     tuple({j: x for j, x in enumerate(row) if x} for row in rows))


def commutator_coset_table_reference(p) -> tuple[tuple[int, ...], ...]:
    """Rows of the coset table of the commutator subgroup, cosets numbered
    in ``itertools.product`` order over the torsion coordinates, from the
    one-column-per-occurrence relator matrix.  Requires a finite
    abelianization."""
    a, u, _ = smith_normal_form_reference(relator_matrix_reference(p))
    n = p.n_generators
    diag = [a[i][i] if i < p.n_relators else 0 for i in range(n)]
    assert 0 not in diag, "abelianization is infinite"
    kept = [i for i in range(n) if diag[i] >= 2]
    moduli = [diag[i] for i in kept]
    images = [[u[i][g] % diag[i] for i in kept] for g in range(n)]
    elements = list(product(*(range(m) for m in moduli)))
    index = {c: k for k, c in enumerate(elements)}
    rows = []
    for coords in elements:
        row = []
        for img in images:
            row.append(index[tuple((c + x) % m for c, x, m in zip(coords, img, moduli))])
            row.append(index[tuple((c - x) % m for c, x, m in zip(coords, img, moduli))])
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Todd-Coxeter scanning every rotation of every relator


class _ReferenceEnumerator:
    def __init__(self, n_gens: int, relators: Sequence[Word], caps: Budget):
        self.ncols = 2 * n_gens
        self.caps = caps
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.p = [0]  # union-find over cosets; rep is the least member
        self.defined = 1
        self.deductions: list[tuple[int, int]] = []
        self.deductions_done = 0
        # scans indexed by leading column: every rotation of every relator
        self.edp: list[list[tuple[int, ...]]] = [[] for _ in range(self.ncols)]
        for r in relators:
            cols = r.letters
            for i in range(len(cols)):
                rot = cols[i:] + cols[:i]
                self.edp[rot[0]].append(rot)

    def rep(self, c: int) -> int:
        p = self.p
        root = c
        while p[root] != root:
            root = p[root]
        while p[c] != root:
            p[c], c = root, p[c]
        return root

    def define(self, alpha: int, col: int) -> None:
        if self.defined >= self.caps.max_cosets:
            raise CapExceeded(f"coset limit {self.caps.max_cosets} reached",
                              "todd_coxeter", "max_cosets")
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.defined += 1
        self.set_edge(alpha, col, beta)

    def set_edge(self, a: int, col: int, b: int) -> None:
        self.table[a][col] = b
        self.table[b][col ^ 1] = a
        self.deductions.append((a, col))
        self.deductions.append((b, col ^ 1))

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
                if self.table[delta][col ^ 1] == dead:
                    self.table[delta][col ^ 1] = None
                row[col] = None
                mu, nu = self.rep(dead), self.rep(delta)
                target = self.table[mu][col]
                back = self.table[nu][col ^ 1]
                if target is not None:
                    self.merge(nu, target, queue)
                elif back is not None:
                    self.merge(mu, back, queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][col ^ 1] = mu
                    self.deductions.append((mu, col))
                    self.deductions.append((nu, col ^ 1))

    def scan(self, alpha: int, cols: tuple[int, ...]) -> None:
        f = alpha
        i, j = 0, len(cols) - 1
        b = alpha
        while i <= j:
            d = self.table[f][cols[i]]
            if d is None:
                break
            f = self.rep(d)
            i += 1
        if i > j:
            if f != b:
                self.coincidence(f, b)
            return
        while j >= i:
            d = self.table[b][cols[j] ^ 1]
            if d is None:
                break
            b = self.rep(d)
            j -= 1
        if j < i:
            self.coincidence(f, b)
        elif j == i:
            self.set_edge(f, cols[i], b)
        # gap of length >= 2: no information

    def scan_and_fill(self, alpha: int, cols: tuple[int, ...]) -> None:
        if not cols:
            return
        f = alpha
        i, j = 0, len(cols) - 1
        b = alpha
        while True:
            while i <= j:
                d = self.table[f][cols[i]]
                if d is None:
                    break
                f = self.rep(d)
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                d = self.table[b][cols[j] ^ 1]
                if d is None:
                    break
                b = self.rep(d)
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.set_edge(f, cols[i], b)
                return
            self.define(f, cols[i])

    def process_deductions(self) -> None:
        while self.deductions:
            self.deductions_done += 1
            a, col = self.deductions.pop()
            a = self.rep(a)
            if self.table[a][col] is None:
                continue  # edge removed by a coincidence
            for rot in self.edp[col]:
                self.scan(a, rot)
                a = self.rep(a)
                if self.table[a][col] is None:
                    break

    def run(self, subgroup_gens: Sequence[Word]) -> tuple[tuple[int, ...], ...]:
        for w in subgroup_gens:
            self.scan_and_fill(0, w.letters)
            self.process_deductions()
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
            assert all(x is not None for x in row)
            rows.append([index[self.rep(x)] for x in row])
        return tuple(tuple(r) for r in rows)


def open_relator_scans(e) -> list[tuple[int, tuple[int, ...]]]:
    """The relator scans a drained Felsch enumeration has left open.

    Reads the table of an ``adorn.cosets._Enumerator`` between its
    drains, and none of the scan lists it queues from.  Every rotation of
    every relator, in the enumerator's columns, is scanned at every live
    coset, forward from the left and back from the right.  A scan that
    reads at least one entry and leaves a gap of one letter is a deduction
    not made; one that closes on two different cosets is a coincidence not
    found.  Returns each such ``(coset, rotation)``."""
    cols, inv = e.cols, e.inv
    words = dict.fromkeys(tuple(e.phys[x] for x in r.letters) for r in e.relators)
    rots = dict.fromkeys(w[i:] + w[:i] for w in words for i in range(len(w)))
    found = []
    for alpha in range(e.n):
        if e.p[alpha] != alpha:
            continue
        for w in rots:
            f, i = alpha, 0
            while i < len(w) and cols[w[i]][f] is not None:
                f, i = cols[w[i]][f], i + 1
            b, j = alpha, len(w)  # w[i:j] is unread
            while j > i and cols[inv[w[j - 1]]][b] is not None:
                b, j = cols[inv[w[j - 1]]][b], j - 1
            if (j == i and f != b) or (j == i + 1 and (i > 0 or j < len(w))):
                found.append((alpha, w))
    return found


def scan_entries_reference(e, fold: bool) -> list[list[tuple]]:
    """The scan lists of an ``adorn.cosets._Enumerator`` whose columns are
    set with ``fold``, built from every rotation of every relator, a folded
    involution's square left out: per leading column,
    ``(rotation, forward column lists, backward column lists, last index)``
    for each distinct rotation in first-occurrence order, then on a
    self-inverse column each reflection not already there.  A column list
    is given by its ``id``, so the entries compare by identity."""
    cols, inv = e.cols, e.inv
    words = [tuple(e.phys[x] for x in r.letters) for r in dict.fromkeys(e.relators)
             if not (fold and len(r) == 2 and r.letters[0] == r.letters[1])]
    rots = list(dict.fromkeys(w[i:] + w[:i] for w in words for i in range(len(w))))
    rots += [(rot[0],) + tuple(inv[x] for x in reversed(rot[1:]))
             for rot in rots if inv[rot[0]] == rot[0]]
    edp = [[] for _ in range(e.ncols)]
    for rot in dict.fromkeys(rots):
        edp[rot[0]].append((rot, tuple(id(cols[c]) for c in rot),
                            tuple(id(cols[inv[c]]) for c in rot), len(rot) - 1))
    return edp


def todd_coxeter_reference(p, subgroup_gens, caps):
    """``(rows, deductions_done)`` of the Felsch enumeration that scans every
    rotation of every relator after each deduction, a periodic relator's
    repeated rotations and a repeated relator's included.  Raises
    :class:`CapExceeded` like ``todd_coxeter``."""
    e = _ReferenceEnumerator(p.n_generators, p.relators, caps)
    rows = e.run(tuple(subgroup_gens))
    return rows, e.deductions_done


# ---------------------------------------------------------------------------
# relator canonical form on (g, s) letter pairs


def canonical_relator_pairs(pairs) -> tuple[tuple[int, int], ...]:
    """Least rotation of the cyclic reduction of a word or its inverse,
    comparing letters by the key ``(g, 0 if s > 0 else 1)``.  This is the
    pair-based form the library's int letter codes must reproduce."""
    out: list[tuple[int, int]] = []
    for g, s in pairs:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    while len(out) >= 2 and out[0] == (out[-1][0], -out[-1][1]):
        out = out[1:-1]
    if not out:
        return ()

    def key(letters):
        return tuple((g, 0 if s > 0 else 1) for g, s in letters)

    inverse = [(g, -s) for g, s in reversed(out)]
    best = None
    for base in (out, inverse):
        for i in range(len(out)):
            cand = tuple(base[i:] + base[:i])
            if best is None or key(cand) < key(best):
                best = cand
    return best


# ---------------------------------------------------------------------------
# Tietze simplification by full rescans


def canonical_relator_reference(w):
    """Least of the rotations of the cyclic reduction of ``w`` and ``w^-1``
    that start at the least letter code, every one of them compared."""
    a = cyclically_reduce(w).letters
    if not a:
        return Word()
    b = tuple(x ^ 1 for x in reversed(a))
    m = min(min(a), min(b))
    return Word.of(min(base[i:] + base[:i] for base in (a, b)
                       for i, x in enumerate(base) if x == m))


def canonical_relator_all_rotations(w):
    """Least of all rotations of the cyclic reduction of ``w`` and ``w^-1``,
    on int letter codes."""
    a = cyclically_reduce(w).letters
    b = tuple(x ^ 1 for x in reversed(a))
    return Word.of(min((base[i:] + base[:i] for base in (a, b) for i in range(len(a))),
                       default=()))


def _substitute(w: Word, x: int, repl: Word) -> Word:
    """Replace letter ``x`` by ``repl`` and its inverse ``x ^ 1`` by ``repl^-1``."""
    out: list[int] = []
    fwd, inv = repl.letters, repl.inverse().letters
    for y in w.letters:
        if y == x:
            out.extend(fwd)
        elif y == x ^ 1:
            out.extend(inv)
        else:
            out.append(y)
    return Word.of(out)


def _cyclic_subword_sources(s: Word, length: int) -> dict[tuple[int, ...], Word]:
    """Subwords of the given length of the cyclic words ``s`` and ``s^-1``,
    mapped to the inverse of their cyclic complement (a shorter equivalent)."""
    out: dict[tuple[int, ...], Word] = {}
    n = len(s)
    for base in (s.letters, s.inverse().letters):
        doubled = base + base
        for i in range(n):
            u = doubled[i:i + length]
            if u not in out:
                out[u] = Word.of(doubled[i + length:i + n]).inverse()
    return out


def _elimination_candidates(rels, n_gens: int):
    """All (cost, relator-length, gen, relator-index) for generators occurring
    exactly once in some relator; lowest key applied first."""
    occ = [0] * n_gens
    for r in rels:
        for x in r.letters:
            occ[x >> 1] += 1
    cands = []
    for ri, r in enumerate(rels):
        counts: dict[int, int] = {}
        for x in r.letters:
            counts[x >> 1] = counts.get(x >> 1, 0) + 1
        for g, c in counts.items():
            if c == 1:
                elsewhere = occ[g] - 1
                cost = elsewhere * (len(r) - 2) - len(r)
                cands.append((cost, len(r), g, ri))
    cands.sort()
    return cands


def _eliminate(rels, gen: int, ri: int):
    r = rels[ri].letters
    k = next(i for i, x in enumerate(r) if x >> 1 == gen)
    rot = r[k:] + r[:k]
    # rot[0] * rest = 1, so rot[0] = rest^-1
    repl = Word.of(rot[1:]).inverse()
    out = []
    for i, s in enumerate(rels):
        if i == ri:
            continue
        s2 = canonical_relator_all_rotations(_substitute(s, rot[0], repl))
        if len(s2):
            out.append(s2)
    return out


def _subword_pass(rels):
    """Replace the first long shared subword (length >= 3, and more than
    half of the source relator) by the shorter complement, on a copy of the
    list; a relator that becomes empty is deleted."""
    for ri in range(len(rels)):
        r = rels[ri].letters
        for sj in range(len(rels)):
            s = rels[sj]
            if sj == ri or len(s) > len(r) or len(s) < 4:
                continue
            low = max(3, len(s) // 2 + 1)
            for length in range(min(len(s) - 1, len(r)), low - 1, -1):
                sources = _cyclic_subword_sources(s, length)
                for i in range(len(r) - length + 1):
                    u = r[i:i + length]
                    if u in sources:
                        new = canonical_relator_all_rotations(
                            Word.of(r[:i] + sources[u].letters + r[i + length:]))
                        out = list(rels)
                        if len(new):
                            out[ri] = new
                        else:
                            del out[ri]
                        return out, True
    return rels, False


def tietze_simplify_reference(p, caps=DEFAULT_BUDGET):
    """``tietze_simplify`` as a loop that recomputes every elimination
    candidate and re-canonicalises every relator after each elimination.
    A pass whose subword pass replaces nothing ends the loop."""
    alive = list(range(p.n_generators))
    rels = list(dict.fromkeys(p.relators))  # the first occurrence wins
    hit = False

    while True:
        while True:
            applied = False
            for cost, _, g, ri in _elimination_candidates(rels, p.n_generators):
                new_rels = _eliminate(rels, g, ri)
                if (sum(len(r) for r in new_rels)
                        > max(caps.max_total_relator_length, sum(len(r) for r in rels))):
                    hit = True  # a legal elimination was blocked by the cap
                    continue
                rels = list(dict.fromkeys(new_rels))
                alive.remove(g)
                applied = True
                break
            if not applied:
                break

        rels, subbed = _subword_pass(rels)
        if not subbed:
            break
        rels = list(dict.fromkeys(rels))

    remap = {g: i for i, g in enumerate(alive)}
    final = [Word.of(2 * remap[x >> 1] + (x & 1) for x in r.letters) for r in rels]
    final.sort(key=lambda w: (len(w), w.letters))
    out = GroupPresentation(tuple(p.generator_names[g] for g in alive), final,
                            name=p.name)
    if out.n_generators > caps.max_generators:
        hit = True
    if out.total_relator_length > caps.max_total_relator_length:
        hit = True
    return Simplified(out, hit)


# ---------------------------------------------------------------------------
# Smith normal form oracle


def minor_gcd_diagonal(rows: list[list[int]]) -> list[int]:
    """Divisor chain via d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    r, c = len(rows), len(rows[0]) if rows else 0

    def det(idx_r, idx_c):
        k = len(idx_r)
        if k == 0:
            return 1
        if k == 1:
            return rows[idx_r[0]][idx_c[0]]
        total = 0
        for t, j in enumerate(idx_c):
            sub = det(idx_r[1:], idx_c[:t] + idx_c[t + 1:])
            term = rows[idx_r[0]][j] * sub
            total += term if t % 2 == 0 else -term
        return total

    diag = []
    prev = 1
    for k in range(1, min(r, c) + 1):
        g = 0
        for idx_r in combinations(range(r), k):
            for idx_c in combinations(range(c), k):
                g = gcd(g, det(idx_r, idx_c))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    while len(diag) < min(r, c):
        diag.append(0)
    return diag


def mat_mul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    """Product of matrices given as lists of rows (x is r x k, y is k x c)."""
    c = len(y[0]) if y else 0
    return [[sum(xi[k] * y[k][j] for k in range(len(y))) for j in range(c)]
            for xi in x]


def det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form_reference(m):
    """(d, u, v) as lists of rows, with d = u * m * v, for a matrix with
    ``rows``, ``cols`` and ``to_rows()``.

    The full elimination: every pivot search scans the whole submatrix,
    every divisor-chain check runs, and row and column operations touch
    every entry.  Pivots are chosen by minimal non-zero absolute value,
    ties broken by lowest row then lowest column.
    """
    a = m.to_rows()
    nr, nc = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row[dst] += k * row[src]
        arow, asrc = a[dst], a[src]
        for j in range(nc):
            arow[j] += k * asrc[j]
        urow, usrc = u[dst], u[src]
        for j in range(nr):
            urow[j] += k * usrc[j]

    def add_col(src, dst, k):
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(nr, nc):
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
        stray = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t]:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            add_row(stray, t, 1)
            continue
        t += 1

    return a, u, v


# ---------------------------------------------------------------------------
# Fox calculus over the free group ring


class GroupRingElement:
    """Finite Z-linear combination of freely reduced words."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, int] | None = None):
        self.terms = {}
        for w, c in (terms or {}).items():
            if not c:
                continue
            w = free_reduce(w)
            self.terms[w] = self.terms.get(w, 0) + c
        self.terms = {w: c for w, c in self.terms.items() if c}

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElement(out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"GroupRingElement({self.terms!r})"

    def to_laurent(self, exponent_images: tuple[int, ...]) -> LaurentPoly:
        """Push through the abelianization map g -> t^e(g)."""
        out: dict[int, int] = {}
        for w, c in self.terms.items():
            e = sum(s * exponent_images[g] for g, s in w)
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)


def fox_derivative_reference(w: Word, gen: int) -> GroupRingElement:
    """Free differential: d(g)/dg = 1, d(g^-1)/dg = -g^-1, product rule
    d(uv)/dg = du/dg + u dv/dg."""
    terms: dict[Word, int] = {}
    for i, (g, s) in enumerate(w):
        if g == gen:
            # the prefix before g, or the prefix through g^-1
            key = free_reduce(Word.of(w.letters[:i] if s > 0 else w.letters[:i + 1]))
            terms[key] = terms.get(key, 0) + s
    return GroupRingElement(terms)


# ---------------------------------------------------------------------------
# Alexander polynomial as the gcd of all maximal minors


def _laurent_det(matrix: list[list[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant by cofactor expansion (small matrices only)."""
    n = len(matrix)
    if n == 0:
        return LaurentPoly.one()
    memo: dict[tuple[int, ...], LaurentPoly] = {}

    def minor(row: int, cols: tuple[int, ...]) -> LaurentPoly:
        if not cols:
            return LaurentPoly.one()
        if cols in memo:
            return memo[cols]
        total = LaurentPoly.zero()
        for k, j in enumerate(cols):
            entry = matrix[row][j]
            if entry.is_zero():
                continue
            sub = minor(row + 1, cols[:k] + cols[k + 1:])
            term = laurent_mul(entry, sub)
            total = laurent_add(total, term if k % 2 == 0 else -term)
        memo[cols] = total
        return total

    return minor(0, tuple(range(n)))


def _content(f: LaurentPoly) -> int:
    g = 0
    for c in f.coeffs.values():
        g = gcd(g, c)
    return g


def _primitive(f: LaurentPoly) -> LaurentPoly:
    c = _content(f)
    if c in (0, 1):
        return f
    return LaurentPoly({e: k // c for e, k in f.coeffs.items()})


def _pseudo_rem(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Euclidean remainder up to an integer unit: cancel leading terms of f
    against g (both with lowest exponent 0) until deg f < deg g."""
    while not f.is_zero() and f.max_exp() >= g.max_exp():
        lf, lg = f.max_exp(), g.max_exp()
        cf, cg = f.coeffs[lf], g.coeffs[lg]
        d = gcd(cf, cg)
        f = laurent_add(laurent_mul(f, LaurentPoly({0: cg // d})),
                        laurent_mul(g, LaurentPoly({lf - lg: -(cf // d)})))
    return f


def laurent_gcd(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Gcd in Z[t, 1/t] (a UFD; units are +-t^k), in normalized form.

    Shift both arguments to honest polynomials, split off integer content,
    and run the primitive Euclidean algorithm.
    """
    f, g = f.normalized(), g.normalized()
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    content = gcd(_content(f), _content(g))
    f, g = _primitive(f), _primitive(g)
    while not g.is_zero():
        f, g = g, _primitive(_pseudo_rem(f, g).normalized())
    return laurent_mul(f, LaurentPoly({0: content})).normalized()


def alexander_polynomial_reference(p: GroupPresentation) -> LaurentPoly:
    """Normalized gcd of every maximal minor of the Alexander matrix, with
    the library's checks and orientation (exponent images negated when none
    is positive); raises the library's AlexanderError subclasses."""
    data = abelianization_data(p)
    inv = data.invariants
    if inv.rank != 1 or inv.torsion:
        raise NotKnotLike(f"abelianization is {inv}, expected Z")
    n = p.n_generators
    if p.n_relators != n - 1:
        raise DeficiencyMismatch(f"{n} generators, {p.n_relators} relators")
    images = tuple(data.free_rows[0].get(g, 0) for g in range(n))
    if all(e <= 0 for e in images):
        images = tuple(-e for e in images)
    matrix = [[fox_derivative(r, g, images) for g in range(n)] for r in p.relators]
    delta = LaurentPoly.zero()
    for j in range(n):
        delta = laurent_gcd(delta, _laurent_det(
            [[row[k] for k in range(n) if k != j] for row in matrix]))
    delta = delta.normalized()
    if abs(delta.value_at_one()) != 1:
        raise AlexanderError(f"polynomial evaluates to {delta.value_at_one()} at t=1")
    return delta


# ---------------------------------------------------------------------------
# abelianization helpers


def is_perfect(p) -> bool:
    """True when the abelianization is trivial (the group equals its
    commutator subgroup)."""
    return abelianization(p).is_trivial()


def exterior_square_rank(r: int) -> int:
    """Rank of the exterior square of a free abelian group of rank r."""
    return r * (r - 1) // 2


def word_exponent_images(p, data, word) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Image of a word in the abelianization, as (free coords, torsion coords)."""
    free = [0] * data.invariants.rank
    tors = [0] * len(data.invariants.torsion)
    for g, s in word:
        for k, row in enumerate(data.free_rows):
            free[k] += s * row.get(g, 0)
        for k, row in enumerate(data.torsion_rows):
            tors[k] += s * row.get(g, 0)
    moduli = data.invariants.torsion
    return tuple(free), tuple(t % m for t, m in zip(tors, moduli))


# ---------------------------------------------------------------------------
# groups


def wide(n: int) -> GroupPresentation:
    """``< x0..x{n-1} | x_i^2 >``, the free product of n copies of Z/2: 2^n
    cosets of the commutator subgroup, and n SNF pivot steps."""
    return GroupPresentation([f"x{i}" for i in range(n)],
                             [Word.gen(i) ** 2 for i in range(n)])


def symmetric(n: int, last: int | None = None) -> GroupPresentation:
    """S_n on its adjacent transpositions s1 .. s{n-1}, in that order but
    with ``s{last}`` moved to the end when ``last`` is given."""
    order = [i for i in range(1, n) if i != last] + ([last] if last else [])
    s = {i: Word.gen(k) for k, i in enumerate(order)}
    rels = [s[i] ** 2 for i in range(1, n)]
    rels += [(s[i] * s[i + 1]) ** 3 for i in range(1, n - 1)]
    rels += [(s[i] * s[j]) ** 2 for i in range(1, n) for j in range(i + 2, n)]
    return GroupPresentation([f"s{i}" for i in order], rels, name=f"S{n}")


def quaternion_model() -> tuple[list[Perm], "object"]:
    """Q8 in its regular representation, with generators i and j."""
    # elements 0..7 = +1, -1, +i, -i, +j, -j, +k, -k
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def neg(x):
        return x ^ 1

    table = {}
    base = {("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
            ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
            ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
            ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
            ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j"}

    def mul_names(a, b):
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        res = base[(a, b)]
        if res.startswith("-"):
            sign, res = -sign, res[1:]
        return res if sign > 0 else f"-{res}"

    idx = {nm: i for i, nm in enumerate(names)}
    for a in names:
        for b in names:
            table[(idx[a], idx[b])] = idx[mul_names(a, b)]
    # left multiplication permutations for i and j
    gi = tuple(table[(idx["i"], x)] for x in range(8))
    gj = tuple(table[(idx["j"], x)] for x in range(8))
    return [gi, gj], table


# ---------------------------------------------------------------------------
# test-only helpers, moved out of the package


def doa(p: GroupPresentation, budget: Budget = DEFAULT_BUDGET) -> int | None:
    """Degree of adorability, or None when the verdict is not a
    certification of adorability."""
    verdict = derived_series(p, budget).verdict
    return verdict.doa if verdict.kind == ADORABLE else None


def cyclically_reduce(w: Word) -> Word:
    """Freely reduce, then strip cancelling first/last letters.

    The result is conjugate to the input and both freely and cyclically
    reduced.
    """
    return Word.of(_cyclically_reduced(w.letters))


def laurent_add(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    out = dict(f.coeffs)
    for e, c in g.coeffs.items():
        out[e] = out.get(e, 0) + c
    return LaurentPoly(out)


def laurent_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    out: dict[int, int] = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return LaurentPoly(out)
