"""Words and presentations of finitely presented groups.

A word is a sequence of letters ``(g, s)`` where ``g`` is a generator index
and ``s`` is +1 or -1.  :class:`Word` stores each letter as the int code
``2*g + (s < 0)``, the one letter encoding every layer shares: ``x ^ 1`` is
the inverse letter and ``x`` is the letter's coset-table column.  Pairs go
in through ``Word(pairs)`` and come out by iteration; everything else,
here and in :mod:`adorn.cosets` and :mod:`adorn.rewriting`, works on the
codes.  Presentations store their relators freely and cyclically reduced,
rotated to a canonical least rotation (comparing a word against its inverse
as well), so equal relators compare equal as ``Word`` values.

The ASCII grammar accepted by :func:`parse_presentation`::

    presentation := "<" gens "|" relators ">"
    gens         := [ name ("," name)* ]
    relators     := [ relator ("," relator)* ]
    relator      := word | word "=" word        (u = v is stored as u v^-1)
    word         := term+
    term         := name ["^" integer] | "(" word ")" ["^" integer]

Whitespace is insignificant; integers may be negative.
"""

from __future__ import annotations

import heapq
import math
import re
import time
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Iterator, NamedTuple, Sequence


class PresentationSyntaxError(ValueError):
    """Raised on malformed presentation text; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


Letter = tuple[int, int]


class Word:
    """Immutable word in the free group on indexed generators.

    ``letters`` is a flat tuple of int codes: the letter ``(g, s)`` is stored
    as ``2*g + (s < 0)``, so ``x ^ 1`` is the inverse of ``x`` and ``x`` is
    also the letter's column in a coset table.  Coset enumeration, the
    Reidemeister--Schreier rewrite and Tietze simplification all walk these
    codes directly; construction from and iteration over ``(g, s)`` pairs is
    the public interface and the only place where the two forms meet.  The
    int order matches the order of the pairs ``(g, 0 if s > 0 else 1)``.

    Multiplication concatenates without reducing; use :func:`free_reduce`
    when a reduced representative is needed.
    """

    __slots__ = ("letters",)

    def __init__(self, pairs: Iterable[Letter] = ()):
        self.letters = tuple(2 * g + (s < 0) for g, s in pairs)

    @staticmethod
    def of(codes: Iterable[int]) -> "Word":
        """Word from int letter codes (see the class docstring)."""
        w = Word.__new__(Word)
        w.letters = tuple(codes)
        return w

    @staticmethod
    def gen(index: int, sign: int = 1) -> "Word":
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return Word(((index, sign),))

    def inverse(self) -> "Word":
        return Word.of(x ^ 1 for x in reversed(self.letters))

    def __mul__(self, other: "Word") -> "Word":
        return Word.of(self.letters + other.letters)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word.of(self.letters * n)

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max(self.letters, default=-1) >> 1

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return ((x >> 1, -1 if x & 1 else 1) for x in self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Word({list(self)!r})"


EMPTY_WORD = Word()


def free_reduce(w: Word) -> Word:
    """Cancel all adjacent ``g g^-1`` pairs.  Idempotent, length-non-increasing."""
    out: list[int] = []
    for x in w.letters:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return Word.of(out)


def cyclically_reduce(w: Word) -> Word:
    """Freely reduce, then strip cancelling first/last letters.

    The result is conjugate to the input and both freely and cyclically
    reduced.
    """
    letters = free_reduce(w).letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == letters[j - 1] ^ 1:
        i += 1
        j -= 1
    return Word.of(letters[i:j])


def period(letters: Sequence[int]) -> int:
    """Length of the primitive root ``s`` of a non-empty word ``s^k``: the
    rotations of ``s^k`` are exactly the first ``period`` ones.  Each letter
    occurs k times as often in ``s^k`` as in ``s``, so k divides both the
    length and the count of the first letter.  k is the greatest divisor of
    their gcd for which the word is a power; most words have a gcd of 1."""
    n = len(letters)
    g = math.gcd(n, letters.count(letters[0]))
    for k in range(g, 1, -1):
        if not g % k and letters[:n - n // k] == letters[n // k:]:
            return n // k
    return n


def canonical_relator(w: Word) -> Word:
    """Cyclically reduce and rotate to the least rotation of ``w`` or ``w^-1``.

    Relators are only defined up to cyclic rotation and inversion, so this
    canonical representative makes duplicate detection a plain equality test.
    The least rotation begins with the least letter code of ``w`` and
    ``w^-1``, so only the rotations starting there are compared, and of a
    power ``s^k`` (or its inverse, of the same period) only those within
    the first period.
    """
    a = cyclically_reduce(w).letters
    if not a:
        return EMPTY_WORD
    b = tuple(x ^ 1 for x in reversed(a))
    m = min(min(a), min(b))
    p = period(a)
    return Word.of(min(base[i:] + base[:i] for base in (a, b)
                       for i in range(p) if base[i] == m))


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


@dataclass(frozen=True)
class GroupPresentation:
    """A finite presentation: generator names plus relator words.

    Relators are stored freely and cyclically reduced in canonical rotation;
    words that reduce to the identity are dropped at construction.  Each
    distinct input word is range-checked and canonicalised once, however
    often it repeats.
    """

    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]
    name: str = field(default="", compare=False)

    def __init__(self, generator_names: Iterable[str], relators: Iterable[Word] = (),
                 name: str = ""):
        names = tuple(generator_names)
        if len(set(names)) != len(names):
            raise ValueError(f"generator names not pairwise distinct: {names}")
        for nm in names:
            if not _NAME_RE.match(nm):
                raise ValueError(f"invalid generator name: {nm!r}")
        canonical: dict[Word, Word] = {}
        rels = []
        for r in relators:
            c = canonical.get(r)
            if c is None:
                if r.max_generator() >= len(names):
                    raise ValueError(
                        f"relator uses generator index {r.max_generator()} "
                        f"but presentation has {len(names)} generators")
                c = canonical[r] = canonical_relator(r)
            if len(c):
                rels.append(c)
        object.__setattr__(self, "generator_names", names)
        object.__setattr__(self, "relators", tuple(rels))
        object.__setattr__(self, "name", name)

    @property
    def n_generators(self) -> int:
        return len(self.generator_names)

    @property
    def n_relators(self) -> int:
        return len(self.relators)

    @property
    def total_relator_length(self) -> int:
        return sum(len(r) for r in self.relators)

    def word_str(self, w: Word) -> str:
        return format_word(w, self.generator_names)

    def __str__(self) -> str:
        return format_presentation(self)

    def with_relators(self, extra: Iterable[Word], name: str | None = None) -> "GroupPresentation":
        """Quotient presentation: same generators, added relators."""
        return GroupPresentation(self.generator_names,
                                 self.relators + tuple(extra),
                                 name=self.name if name is None else name)


class CapExceeded(RuntimeError):
    """A :class:`Budget` limit was reached: ``layer`` names where, ``limit``
    which, spelled as in ``limits_hit`` (``wall_clock`` or ``max_cosets``)."""

    def __init__(self, message: str, layer: str, limit: str):
        super().__init__(message)
        self.layer = layer
        self.limit = limit


clock = time.monotonic  # every deadline is read from this clock


@dataclass(frozen=True, kw_only=True)
class Budget:
    """Every resource limit of a run, each strictly positive.  ``deadline``
    is infinite until :meth:`start` returns a copy that expires
    ``wall_clock_seconds`` from now; starting a started budget returns it
    unchanged, so a deadline is never extended.  Every layer calls
    :meth:`check` at its own steps."""

    max_depth: int = 6
    max_cosets: int = 20000
    max_generators: int = 64
    max_total_relator_length: int = 65536
    wall_clock_seconds: float = 60.0
    deadline: float = field(default=math.inf, init=False, compare=False)

    def __post_init__(self):
        for f in fields(self):
            if f.init and not getattr(self, f.name) > 0:  # rejects NaN too
                raise ValueError(f"{f.name} must be strictly positive")

    def start(self) -> "Budget":
        if self.deadline < math.inf:
            return self
        started = replace(self)
        object.__setattr__(started, "deadline", clock() + self.wall_clock_seconds)
        return started

    def check(self, layer: str) -> None:
        if clock() > self.deadline:
            raise CapExceeded(f"wall clock limit {self.wall_clock_seconds}s reached",
                              layer, "wall_clock")


DEFAULT_BUDGET = Budget()


class Simplified(NamedTuple):
    presentation: GroupPresentation
    hit_caps: bool


# ---------------------------------------------------------------------------
# parsing / printing


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>-?\d+)|(?P<sym>[<>,|^()=])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PresentationSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.gen_index: dict[str, int] = {}

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str) -> None:
        kind, val, pos = self.next()
        if kind != "sym" or val != sym:
            raise PresentationSyntaxError(f"expected {sym!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> GroupPresentation:
        self.expect_sym("<")
        names = self.parse_gen_list()
        self.gen_index = {nm: i for i, nm in enumerate(names)}
        self.expect_sym("|")
        relators = self.parse_relator_list(names)
        self.expect_sym(">")
        kind, val, pos = self.peek()
        if kind != "end":
            raise PresentationSyntaxError(f"trailing input {val!r}", pos)
        return GroupPresentation(names, relators, name=self.text.strip())

    def parse_gen_list(self) -> tuple[str, ...]:
        names: list[str] = []
        kind, val, pos = self.peek()
        if kind == "sym" and val == "|":
            return ()
        while True:
            kind, val, pos = self.next()
            if kind != "name":
                raise PresentationSyntaxError(f"expected generator name, found {val!r}", pos)
            if val in names:
                raise PresentationSyntaxError(f"duplicate generator name {val!r}", pos)
            names.append(val)
            kind, val, pos = self.peek()
            if kind == "sym" and val == ",":
                self.next()
                continue
            return tuple(names)

    def parse_relator_list(self, names: tuple[str, ...]) -> list[Word]:
        kind, val, pos = self.peek()
        if kind == "sym" and val == ">":
            return []
        if not names:
            raise PresentationSyntaxError(
                "empty generator list with non-empty relator", pos)
        relators = []
        while True:
            relators.append(self.parse_relator())
            kind, val, pos = self.peek()
            if kind == "sym" and val == ",":
                self.next()
                continue
            return relators

    def parse_relator(self) -> Word:
        left = self.parse_word()
        kind, val, _ = self.peek()
        if kind == "sym" and val == "=":
            self.next()
            right = self.parse_word()
            return left * right.inverse()
        return left

    def parse_word(self) -> Word:
        letters: list[int] = []
        first = True
        while True:
            kind, val, pos = self.peek()
            if kind == "name" or (kind == "sym" and val == "("):
                letters.extend(self.parse_term().letters)
                first = False
            elif first:
                raise PresentationSyntaxError(f"expected a word, found {val or 'end of input'!r}", pos)
            else:
                return Word.of(letters)

    def parse_term(self) -> Word:
        kind, val, pos = self.next()
        if kind == "name":
            if val not in self.gen_index:
                raise PresentationSyntaxError(f"undeclared generator {val!r}", pos)
            base = Word.gen(self.gen_index[val])
        elif kind == "sym" and val == "(":
            base = self.parse_word()
            self.expect_sym(")")
        else:
            raise PresentationSyntaxError(f"expected generator or '(', found {val!r}", pos)
        kind, val, pos = self.peek()
        if kind == "sym" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "int":
                raise PresentationSyntaxError(f"expected integer exponent, found {val!r}", pos)
            return base ** int(val)
        return base


def parse_presentation(text: str) -> GroupPresentation:
    """Parse ``< a, b | a^2, (a b)^3 >`` style presentation text."""
    return _Parser(text).parse()


def format_word(w: Word, names: Iterable[str]) -> str:
    """Render a word with exponent-collapsed runs, e.g. ``a^2 b^-1``."""
    names = tuple(names)
    if not len(w):
        return "1"
    parts = []
    (run_gen, run_exp), *rest = w
    for g, s in rest:
        if g == run_gen and (run_exp > 0) == (s > 0):
            run_exp += s
        else:
            parts.append((run_gen, run_exp))
            run_gen, run_exp = g, s
    parts.append((run_gen, run_exp))
    return " ".join(
        names[g] if e == 1 else f"{names[g]}^{e}" for g, e in parts)


def format_presentation(p: GroupPresentation) -> str:
    left = ", ".join(p.generator_names)
    right = ", ".join(p.word_str(r) for r in p.relators)
    if left and right:
        return f"< {left} | {right} >"
    if left:
        return f"< {left} | >"
    return "< | >"


# ---------------------------------------------------------------------------
# Tietze simplification


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


INDEX_BLOCK = 4096  # relators or generators indexed between two clock reads


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


def _subword_replacement(rels: list[Word | None],
                         budget: Budget) -> tuple[int, Word] | None:
    """The first replacement, scanning the live ids of ``rels`` in the order
    ``(relator, source, length, position)``, of a subword of relator ``ri``
    (length >= 3, and more than half of a source relator no longer than
    ``ri``) by the shorter complement.  Returns ``ri`` and its new canonical
    word, possibly empty, or ``None``.  Each (source, length) table is
    built once, alone in memory, and matched only against the relators
    before the best found so far; the clock is read once per such match."""
    live = [i for i, r in enumerate(rels) if r is not None]
    best: tuple[int, Word] | None = None
    for sj in live:
        n = len(rels[sj])
        for length in range(n - 1, max(3, n // 2 + 1) - 1, -1):
            subs = None
            for ri in live:
                r = rels[ri].letters
                if best and ri >= best[0]:
                    break
                if n > len(r) or sj == ri:
                    continue
                budget.check("tietze_simplify")
                subs = subs or _cyclic_subword_sources(rels[sj], length)
                i = next((i for i in range(len(r) - length + 1) if r[i:i + length] in subs), -1)
                if i >= 0:
                    best = ri, canonical_relator(
                        Word.of(r[:i] + subs[r[i:i + length]].letters + r[i + length:]))
    return best


def tietze_simplify(p: GroupPresentation,
                    budget: Budget = DEFAULT_BUDGET) -> Simplified:
    """Deterministic presentation simplification within a budget.

    Duplicate relators (up to rotation and inversion) are dropped, the first
    occurrence kept.  Each pass eliminates generators occurring exactly once
    in some relator (cheapest substitution first, skipped if it would push
    the total relator length over the cap) until none is left, then makes
    the first replacement :func:`_subword_replacement` finds.  A pass that
    finds none is a fixed point and ends the loop.  The result is flagged
    ``hit_caps`` when the cap blocked an elimination, or when it is over the
    generator or length cap.  The clock is checked once per block of the
    occurrence index build, once per pass, once per elimination tried and
    once per relator the subword scan matches against a table.  The loop
    ends with no pass cap: a subword replacement puts n - L < L letters for
    L, so it shortens the total length, and each of the at most one
    elimination per generator leaves it at or below ``max(start, cap)``.

    The occurrence index is built once: per relator, its letter counts, and
    per generator, its total count and the relators it occurs in.  Relator
    ids are input positions; a rewritten relator keeps its id, and one equal
    to another keeps the lower id, so the first occurrence wins.
    Eliminations are applied in the order of the key ``(cost, len, gen,
    id)``, ``cost = (occurrences elsewhere) * (len - 2) - len``, popped least
    first from one heap: a key is skipped when its relator is gone, its
    generator no longer occurs once there, the key changed since it was
    pushed, or it repeats the key just tried.  A key depends only on its
    relator's length and its generator's total count, so a change pushes the
    keys of the generators whose count moved and of the relators added, then
    pushes back the keys the cap blocked.
    """
    n_gens = p.n_generators
    rels: list[Word | None] = list(p.relators)
    size = [0] * len(rels)
    counts: list[dict[int, int] | None] = [None] * len(rels)
    occ = [0] * n_gens
    where: list[set[int]] = [set() for _ in range(n_gens)]
    ids: dict[Word, int] = {}
    total = 0
    moved: dict[int, int] = {}  # the change of each total count in one replace

    def add(i: int, r: Word) -> None:
        nonlocal total
        c: dict[int, int] = {}
        for x in r.letters:
            c[x >> 1] = c.get(x >> 1, 0) + 1
        for g, k in c.items():
            occ[g] += k
            where[g].add(i)
        rels[i], size[i], counts[i], ids[r] = r, len(r), c, i
        total += size[i]

    def drop(i: int) -> None:
        nonlocal total
        for g, k in counts[i].items():
            occ[g] -= k
            moved[g] = moved.get(g, 0) - k
            where[g].discard(i)
        del ids[rels[i]]
        total -= size[i]
        rels[i] = counts[i] = None

    def key(g: int, i: int) -> tuple[int, int, int, int]:
        return (occ[g] - 1) * (size[i] - 2) - size[i], size[i], g, i

    heap: list[tuple[int, int, int, int]] = []
    tried: list[tuple[int, int, int, int]] = []
    last = None

    def push(g: int, among: Iterable[int]) -> None:
        for i in among:
            if counts[i][g] == 1:
                heapq.heappush(heap, key(g, i))

    def rewrite(g: int, ri: int) -> tuple[dict[int, Word], int]:
        """Relators other than ``ri`` that contain ``g``, with ``g`` solved
        from relator ``ri`` and substituted; and the total length after."""
        r = rels[ri].letters
        k = next(i for i, x in enumerate(r) if x >> 1 == g)
        # r[k] * rest = 1, so r[k] = rest^-1
        repl = Word.of(r[k + 1:] + r[:k]).inverse()
        new = {i: canonical_relator(_substitute(rels[i], r[k], repl))
               for i in sorted(where[g]) if i != ri}
        return new, total - size[ri] + sum(len(s) - size[i] for i, s in new.items())

    def replace(new: dict[int, Word]) -> None:
        """Drop the relators with the ids of ``new``, then add its non-empty
        words in id order; a word equal to a live relator keeps the lower
        id.  Push every key of a generator whose total count moved (one a
        subword complement brings in too) and of a relator added, push back
        the keys the cap blocked, and forget the last key tried."""
        nonlocal last
        moved.clear()
        for i in new:
            drop(i)
        added = []
        for i in sorted(new):
            s = new[i]
            if not s.letters:
                continue
            j = ids.get(s)
            if j is not None:
                if j < i:
                    continue
                drop(j)
            add(i, s)
            added.append(i)
            for g, k in counts[i].items():
                moved[g] = moved.get(g, 0) + k
        for g, d in moved.items():
            if d:
                push(g, where[g])
        for i in added:
            for g in counts[i]:
                if not moved[g]:
                    push(g, (i,))
        for t in tried:
            heapq.heappush(heap, t)
        tried.clear()
        last = None

    for i, r in enumerate(rels):
        if i and not i % INDEX_BLOCK:
            budget.check("tietze_simplify")
        if r in ids:
            rels[i] = None
        else:
            add(i, r)
    for g in range(n_gens):
        if g and not g % INDEX_BLOCK:
            budget.check("tietze_simplify")
        push(g, where[g])

    cap = budget.max_total_relator_length
    removed: list[int] = []
    hit = False
    while True:
        budget.check("tietze_simplify")
        while heap:
            k = heapq.heappop(heap)
            _, _, g, ri = k
            stale = counts[ri] is None or counts[ri].get(g) != 1 or k != key(g, ri)
            if stale or k == last:  # a key can be pushed again unchanged
                continue
            last = k
            budget.check("tietze_simplify")
            new, length = rewrite(g, ri)
            if length > cap:
                tried.append(k)
                hit = True  # a legal elimination was blocked by the cap
                continue
            new[ri] = EMPTY_WORD
            replace(new)
            removed.append(g)
        found = _subword_replacement(rels, budget)
        if found is None:
            break
        replace(dict([found]))

    del size, counts, occ, where, ids, heap  # free the index before the output
    gone = set(removed)
    alive = [g for g in range(n_gens) if g not in gone]
    remap = {g: i for i, g in enumerate(alive)}
    final = [Word.of(2 * remap[x >> 1] + (x & 1) for x in r.letters)
             for r in rels if r is not None]
    final.sort(key=lambda w: (len(w), w.letters))
    out = GroupPresentation(tuple(p.generator_names[g] for g in alive), final,
                            name=p.name)
    if out.n_generators > budget.max_generators:
        hit = True
    if out.total_relator_length > budget.max_total_relator_length:
        hit = True
    return Simplified(out, hit)
