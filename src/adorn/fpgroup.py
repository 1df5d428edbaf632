"""Words and presentations of finitely presented groups.

A word is a sequence of letters ``(g, s)`` where ``g`` is a generator index
and ``s`` is +1 or -1.  :class:`Word` stores each letter as the int code
``2*g + (s < 0)``, the one letter encoding every layer shares: ``x ^ 1`` is
the inverse letter and ``x`` is the letter's coset-table column.  The parser
builds relators as lists of codes and the printer reads runs of equal codes;
Tietze simplification here, coset enumeration (:mod:`adorn.cosets`), the
Reidemeister--Schreier rewrite (:mod:`adorn.rewriting`), Fox calculus
(:mod:`adorn.alexander`) and the standard families (:mod:`adorn.zoo`) all
work on the codes too.  The ``(g, s)`` pairs are only the public interface:
``Word(pairs)`` takes them and iteration gives them back.  Presentations
store their relators freely and cyclically reduced, rotated to a canonical
least rotation (comparing a word against its inverse as well), so equal
relators compare equal as ``Word`` values.

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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


class PresentationSyntaxError(ValueError):
    """Raised on malformed presentation text; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


Letter = tuple[int, int]
_SIGN_BIT = {1: 0, -1: 1}  # a letter's sign to the low bit of its code


class Word:
    """Immutable word in the free group on indexed generators.

    ``letters`` is a flat tuple of int codes: the letter ``(g, s)`` is stored
    as ``2*g + (s < 0)``, so ``x ^ 1`` is the inverse of ``x`` and ``x`` is
    also the letter's column in a coset table.  Every layer of the package,
    from the parser to the printer, reads and builds these codes directly
    (:meth:`of` wraps a code sequence), and Tietze holds its relators as bare
    letter tuples, making a ``Word`` only for its output.  Construction from
    ``(g, s)`` pairs, iteration and ``repr`` are the public pair interface
    and the only code that converts between the two forms; construction
    rejects a negative ``g`` and an ``s`` other than +1 or -1.  The int order
    matches the order of the pairs ``(g, 0 if s > 0 else 1)``.

    Multiplication concatenates without reducing; use :func:`free_reduce`
    when a reduced representative is needed.
    """

    __slots__ = ("letters",)

    def __init__(self, pairs: Iterable[Letter] = ()):
        try:
            self.letters = tuple(2 * g + _SIGN_BIT[s] for g, s in pairs)
        except KeyError:
            raise ValueError("sign must be +1 or -1") from None
        if self.letters and min(self.letters) < 0:
            raise ValueError("generator index must be >= 0")

    @staticmethod
    def of(codes: Iterable[int]) -> "Word":
        """Word from int letter codes (see the class docstring)."""
        w = Word.__new__(Word)
        w.letters = tuple(codes)
        return w

    @staticmethod
    def gen(index: int, sign: int = 1) -> "Word":
        return Word(((index, sign),))

    def inverse(self) -> "Word":
        return Word.of(_inverse(self.letters))

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


def _freely_reduced(letters: Iterable[int]) -> list[int]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return out


def _cyclically_reduced(letters: Iterable[int]) -> tuple[int, ...]:
    out = _freely_reduced(letters)
    i, j = 0, len(out)
    while j - i >= 2 and out[i] == out[j - 1] ^ 1:
        i += 1
        j -= 1
    return tuple(out[i:j])


def free_reduce(w: Word) -> Word:
    """Cancel all adjacent ``g g^-1`` pairs.  Idempotent, length-non-increasing."""
    return Word.of(_freely_reduced(w.letters))


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


def _inverse(letters: Sequence[int]) -> tuple[int, ...]:
    """Letter codes of the inverse word."""
    return tuple([x ^ 1 for x in reversed(letters)])


def _canonical(letters: Iterable[int]) -> tuple[int, ...]:
    """The canonical relator of a word given by its letter codes, as codes:
    freely reduced, cyclically reduced and rotated to the least rotation of
    the word or its inverse, in one pass over the letters and with no
    intermediate :class:`Word`.
    """
    return _least_rotation(_cyclically_reduced(letters))


def _least_rotation(a: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of ``a`` or its inverse, for letter codes ``a``
    already cyclically reduced: the last step of :func:`_canonical`.

    The least rotation begins with ``m``, the least letter code of the word
    and its inverse: a code ``x`` and its inverse ``x ^ 1`` are both at
    least ``x & -2``, so ``m`` is the word's least code with the low bit
    cleared.  Only the rotations starting at an ``m`` are compared: those
    of the inverse only when the word holds ``m ^ 1`` (the inverse holds
    ``m`` only then), and of a power ``s^k`` (or its inverse, of the same
    period) only those within the first period.
    """
    if not a:
        return a
    m = min(a) & -2
    p = period(a)
    best = None
    for base in (a, _inverse(a)) if m ^ 1 in a else (a,):
        k = -1
        for _ in range(base.count(m) * p // len(a)):  # the m's of the first period
            k = base.index(m, k + 1)
            rot = base[k:] + base[:k]
            if best is None or rot < best:
                best = rot
    return best


def canonical_relator(w: Word) -> Word:
    """Cyclically reduce and rotate to the least rotation of ``w`` or ``w^-1``.

    Relators are only defined up to cyclic rotation and inversion, so this
    canonical representative makes duplicate detection a plain equality
    test.  The work is done on the letter codes by :func:`_canonical`, the
    one kernel the parser, the step-cache reader and Tietze share.
    """
    return Word.of(_canonical(w.letters))


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class GroupPresentation:
    """A finite presentation: generator names plus relator words.

    Relators are stored freely and cyclically reduced in canonical rotation;
    words that reduce to the identity are dropped at construction.  Each
    distinct input word is range-checked and canonicalised once, however
    often it repeats: the memo is keyed by the letter tuple, so equal words
    share an entry whatever object carries them.  Immutable; ``name`` is a
    label that equality and hashing ignore.

    The constructor, and so the parser and :meth:`with_relators`, checks
    everything.  :meth:`_trusted` checks nothing and sets the fields as
    given.  Only the package's two producers of canonical relators call it,
    the raw rewrite (:func:`adorn.rewriting.rewrite_presentation`) and
    :func:`tietze_simplify`, and each promises what the constructor would
    establish: valid, pairwise distinct names, and a tuple of relators that
    are canonical (as :func:`canonical_relator` leaves them), non-empty and
    on those generators.  So the result equals the constructor's.
    """

    __slots__ = ("generator_names", "relators", "name")

    def __init__(self, generator_names: Iterable[str], relators: Iterable[Word] = (),
                 name: str = ""):
        names = tuple(generator_names)
        if len(set(names)) != len(names):
            raise ValueError(f"generator names not pairwise distinct: {names}")
        for nm in names:
            if not _NAME_RE.match(nm):
                raise ValueError(f"invalid generator name: {nm!r}")
        canonical: dict[tuple[int, ...], Word] = {}
        rels = []
        codes = 2 * len(names)  # the letters are 0..codes-1
        for r in relators:
            c = canonical.get(x := r.letters)
            if c is None:
                if x and (min(x) < 0 or max(x) >= codes):  # Word.of takes any int
                    bad = min(x) if min(x) < 0 else max(x)
                    raise ValueError(f"relator uses generator index {bad >> 1} "
                                     f"but presentation has {len(names)} generators")
                c = canonical[x] = canonical_relator(r)
            if len(c):
                rels.append(c)
        object.__setattr__(self, "generator_names", names)
        object.__setattr__(self, "relators", tuple(rels))
        object.__setattr__(self, "name", name)

    @classmethod
    def _trusted(cls, names: tuple[str, ...], relators: tuple[Word, ...],
                 name: str = "") -> "GroupPresentation":
        """The presentation with exactly these fields, unchecked: see the
        class docstring for who may call this and what they promise."""
        p = object.__new__(cls)
        object.__setattr__(p, "generator_names", names)
        object.__setattr__(p, "relators", relators)
        object.__setattr__(p, "name", name)
        return p

    def __setattr__(self, attr: str, value: object = None) -> None:
        raise AttributeError(f"GroupPresentation is immutable: cannot set {attr!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.generator_names, self.relators) == (other.generator_names,
                                                         other.relators)

    def __hash__(self) -> int:
        return hash((self.generator_names, self.relators))

    def __repr__(self) -> str:
        return (f"GroupPresentation(generator_names={self.generator_names!r}, "
                f"relators={self.relators!r}, name={self.name!r})")

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


# the five limits of a Budget, in the order of its constructor's keywords
BUDGET_LIMITS = ("max_depth", "max_cosets", "max_generators", "max_total_relator_length",
                 "wall_clock_seconds")


class Budget:
    """Every resource limit of a run, each strictly positive.  ``deadline``
    is infinite until :meth:`start` returns a copy that expires
    ``wall_clock_seconds`` from now; starting a started budget returns it
    unchanged, so a deadline is never extended.  Every layer calls
    :meth:`check` at its own steps.

    Immutable, with keyword-only construction.  Equality and hashing read
    the five limits of :data:`BUDGET_LIMITS` and not the deadline, which is
    a moment, not a setting.  :meth:`with_max_cosets` is the one copy that
    changes a limit: it keeps the deadline, so a probe under a lower coset
    cap runs on the caller's clock.  A ``__slots__`` class, not a
    dataclass, so that importing the package imports no ``dataclasses``."""

    __slots__ = (*BUDGET_LIMITS, "deadline")

    def __init__(self, *, max_depth: int = 6, max_cosets: int = 20000,
                 max_generators: int = 64, max_total_relator_length: int = 65536,
                 wall_clock_seconds: float = 60.0):
        for name, value in zip(BUDGET_LIMITS, (max_depth, max_cosets, max_generators,
                                               max_total_relator_length, wall_clock_seconds)):
            if not value > 0:  # rejects NaN too
                raise ValueError(f"{name} must be strictly positive")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "deadline", math.inf)

    def __setattr__(self, attr: str, value: object = None) -> None:
        raise AttributeError(f"Budget is immutable: cannot set {attr!r}")

    __delattr__ = __setattr__

    def _limits(self) -> dict[str, int | float]:
        return {name: getattr(self, name) for name in BUDGET_LIMITS}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._limits() == other._limits()

    def __hash__(self) -> int:
        return hash(tuple(self._limits().values()))

    def __repr__(self) -> str:
        return f"Budget({', '.join(f'{k}={v!r}' for k, v in self._limits().items())})"

    def _copy(self, deadline: float, **limits) -> "Budget":
        copy = Budget(**{**self._limits(), **limits})
        object.__setattr__(copy, "deadline", deadline)
        return copy

    def start(self) -> "Budget":
        if self.deadline < math.inf:
            return self
        return self._copy(clock() + self.wall_clock_seconds)

    def with_max_cosets(self, max_cosets: int) -> "Budget":
        """This budget with another coset cap and the same deadline."""
        return self._copy(self.deadline, max_cosets=max_cosets)

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


_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>-?\d+)"
                       r"|(?P<sym>[<>,|^()=])|(?P<bad>.)", re.S)


def parse_presentation(text: str) -> GroupPresentation:
    """Parse ``< a, b | a^2, (a b)^3 >`` style presentation text.

    The whole text is scanned first, so an unexpected character is reported
    before any syntax error.  Terms are lists of letter codes; each relator
    becomes one :class:`Word`.  Parentheses are matched with a stack, not by
    recursion, so no nesting depth is too deep.
    """
    tokens = []  # (kind, text, position); a symbol is its own kind
    for m in _TOKEN_RE.finditer(text):
        kind, val = m.lastgroup, m.group()
        if kind == "bad":
            raise PresentationSyntaxError(f"unexpected character {val!r}", m.start())
        if kind != "ws":
            tokens.append((val if kind == "sym" else kind, val, m.start()))
    tokens.append(("end", "", len(text)))
    tokens.reverse()  # the next token is tokens[-1]
    index: dict[str, int] = {}  # generator name -> index, in declaration order
    relators: list[Word] = []

    def expect(sym: str) -> None:
        kind, val, pos = tokens.pop()
        if kind != sym:
            raise PresentationSyntaxError(f"expected {sym!r}, found {val or 'end of input'!r}", pos)

    def listed(item: Callable[[], None], close: str) -> None:  # [item ("," item)*] close
        if tokens[-1][0] != close:
            item()
            while tokens[-1][0] == ",":
                tokens.pop()
                item()
        expect(close)

    def name() -> None:
        kind, val, pos = tokens.pop()
        if kind != "name":
            raise PresentationSyntaxError(f"expected generator name, found {val!r}", pos)
        if val in index:
            raise PresentationSyntaxError(f"duplicate generator name {val!r}", pos)
        index[val] = len(index)

    def word() -> list[int]:
        groups: list[list[int]] = [[]]  # letters of the word and of each open "("
        start = len(tokens)  # tokens left when the innermost group began
        while True:
            kind, val, pos = tokens[-1]
            if kind == "(":
                tokens.pop()
                groups.append([])
                start = len(tokens)
                continue
            if kind == "name":
                g = index.get(val)
                if g is None:
                    raise PresentationSyntaxError(f"undeclared generator {val!r}", pos)
                tokens.pop()
                term = [2 * g]
            elif len(tokens) == start:
                raise PresentationSyntaxError(f"expected a word, found {val or 'end of input'!r}", pos)
            elif len(groups) == 1:
                return groups[0]
            else:
                expect(")")
                term = groups.pop()
            if tokens[-1][0] == "^":
                tokens.pop()
                kind, val, pos = tokens.pop()
                if kind != "int":
                    raise PresentationSyntaxError(f"expected integer exponent, found {val!r}", pos)
                term = term * n if (n := int(val)) >= 0 else _inverse(term) * -n
            groups[-1] += term

    def relator() -> None:
        if not index:
            raise PresentationSyntaxError("empty generator list with non-empty relator",
                                          tokens[-1][2])
        r = word()
        if tokens[-1][0] == "=":  # u = v is stored as u v^-1
            tokens.pop()
            r += _inverse(word())
        relators.append(Word.of(r))

    expect("<")
    listed(name, "|")
    listed(relator, ">")
    if tokens[-1][0] != "end":
        raise PresentationSyntaxError(f"trailing input {tokens[-1][1]!r}", tokens[-1][2])
    return GroupPresentation(tuple(index), relators, name=text.strip())


def format_word(w: Word, names: Iterable[str]) -> str:
    """Render a word with exponent-collapsed runs, e.g. ``a^2 b^-1``."""
    names = tuple(names)
    letters = w.letters
    if not letters:
        return "1"
    parts = []
    run, e = letters[0], 0
    for x in letters + (-1,):  # -1 ends the last run
        if x == run:
            e += 1
            continue
        name = names[run >> 1]
        parts.append(f"{name}^-{e}" if run & 1 else name if e == 1 else f"{name}^{e}")
        run, e = x, 1
    return " ".join(parts)


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


# work between two reads of the clock: relators or generators indexed here,
# orbits walked by adorn.rewriting, deductions made by adorn.cosets
INDEX_BLOCK = 4096


def _in_blocks(items: Sequence, budget: Budget, layer: str) -> Iterator[Sequence]:
    """``items`` in slices of ``INDEX_BLOCK``, the budget's clock read
    before each slice after the first."""
    for start in range(0, len(items), INDEX_BLOCK):
        if start:
            budget.check(layer)
        yield items[start:start + INDEX_BLOCK]


def _subword_sources(s: tuple[int, ...], length: int
                     ) -> dict[tuple[int, ...], tuple[tuple[int, ...], int]]:
    """Subwords of the given length of the cyclic words ``s`` and ``s^-1``,
    each mapped to its first ``(base, start)``: ``base`` is ``s`` or ``s^-1``
    written twice and the subword is ``base[start:start + length]``, so its
    cyclic complement is ``base[start + length:start + len(s)]``."""
    out: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    for base in (s + s, _inverse(s) * 2):
        for i in range(len(s)):
            out.setdefault(base[i:i + length], (base, i))
    return out


def _subword_replacement(rels: list[tuple[int, ...] | None],
                         budget: Budget) -> tuple[int, tuple[int, ...]] | None:
    """The first replacement, scanning the live ids of ``rels`` in the order
    ``(relator, source, length, position)``, of a subword of relator ``ri``
    (length >= 3, and more than half of a source relator no longer than
    ``ri``) by the inverse of its shorter cyclic complement.  Relators are
    letter tuples.  Returns ``ri`` and its new canonical letters, possibly
    empty, or ``None``.  Each (source, length) table is built once, alone in
    memory, and matched only against the relators before the best found so
    far; the complement is built only on a match.  The clock is read once
    per relator matched against a table, and once per block of
    ``INDEX_BLOCK`` sources after the first, as most sources are too short
    for any table."""
    live = [i for i, r in enumerate(rels) if r is not None]
    best: tuple[int, tuple[int, ...]] | None = None
    for k, sj in enumerate(live):
        if k and not k % INDEX_BLOCK:
            budget.check("tietze_simplify")
        s = rels[sj]
        n = len(s)
        for length in range(n - 1, max(3, n // 2 + 1) - 1, -1):
            subs = None
            for ri in live:
                r = rels[ri]
                if best and ri >= best[0]:
                    break
                if n > len(r) or sj == ri:
                    continue
                budget.check("tietze_simplify")
                subs = subs or _subword_sources(s, length)
                i = next((i for i in range(len(r) - length + 1) if r[i:i + length] in subs), -1)
                if i >= 0:
                    base, j = subs[r[i:i + length]]
                    complement = _inverse(base[j + length:j + n])
                    best = ri, _canonical(r[:i] + complement + r[i + length:])
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
    occurrence sets' and the occurrence index's build, once per pass, once
    per elimination tried, and in the subword scan once per block of
    sources and once per relator matched against a table.  The loop
    ends with no pass cap: a subword replacement puts n - L < L letters for
    L, so it shortens the total length, and each of the at most one
    elimination per generator leaves it at or below ``max(start, cap)``.

    Relators are held as letter tuples from input to output: the dedupe
    dict ``ids`` is keyed by them, a substitution builds them, and
    :func:`_canonical` canonicalises them; a :class:`Word` is made only for
    the output presentation.  The occurrence index is built once: per
    relator, its letter counts, and per generator, its total count and the
    relators it occurs in.  Relator ids are input positions; a rewritten
    relator keeps its id, and one equal to another keeps the lower id, so
    the first occurrence wins.
    Eliminations are applied in the order of the key ``(cost, len, gen,
    id)``, ``cost = (occurrences elsewhere) * (len - 2) - len``, popped least
    first from one heap: a key is skipped when its relator is gone, its
    generator no longer occurs once there, the key changed since it was
    pushed, or it repeats the key just tried.  A key depends only on its
    relator's length and its generator's total count, so a change pushes the
    keys of the generators whose count moved and of the relators added, then
    pushes back the keys the cap blocked.

    The output renumbers the generators left in order, ``g -> remap[g]``,
    sorts the relators by ``(len, letters)`` and is built through
    :meth:`GroupPresentation._trusted`, with no second canonicalisation.
    The live relators are canonical and pairwise distinct, and the
    renumbering keeps both.  On letter codes it is ``2g + e -> 2 remap[g]
    + e``, which is injective, commutes with inversion (``x ^ 1``) and is
    increasing because ``remap`` is.  So it keeps reduction, and it maps
    the rotations of a word and of its inverse onto those of the image in
    the same lexicographic order: the least rotation stays least.  The
    clock is read once per block of ``INDEX_BLOCK`` relators after the
    first while the letters are renumbered, and again while the words are
    built.
    """
    n_gens = p.n_generators
    rels: list[tuple[int, ...] | None] = [None] * p.n_relators  # set by add
    size = [0] * len(rels)
    counts: list[dict[int, int] | None] = [None] * len(rels)
    occ = [0] * n_gens
    where: list[set[int]] = [
        set() for block in _in_blocks(range(n_gens), budget, "tietze_simplify") for _ in block]
    ids: dict[tuple[int, ...], int] = {}
    total = 0
    moved: dict[int, int] = {}  # the change of each total count in one replace

    def add(i: int, r: tuple[int, ...]) -> None:
        nonlocal total
        c: dict[int, int] = {}
        for x in r:
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

    def rewrite(g: int, ri: int) -> tuple[dict[int, tuple[int, ...]], int]:
        """Relators other than ``ri`` that contain ``g``, with ``g`` solved
        from relator ``ri`` and substituted; and the total length after."""
        r = rels[ri]
        k = next(i for i, x in enumerate(r) if x >> 1 == g)
        x = r[k]
        # x * rest = 1, so x = rest^-1 and x^-1 = rest
        rest = r[k + 1:] + r[:k]
        fwd = _inverse(rest)
        new = {}
        for i in sorted(where[g]):
            if i != ri:
                out: list[int] = []
                for y in rels[i]:
                    if y == x:
                        out += fwd
                    elif y == x ^ 1:
                        out += rest
                    else:
                        out.append(y)
                new[i] = _canonical(out)
        return new, total - size[ri] + sum(len(s) - size[i] for i, s in new.items())

    def replace(new: dict[int, tuple[int, ...]]) -> None:
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
            if not s:
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

    for i, w in enumerate(p.relators):
        if i and not i % INDEX_BLOCK:
            budget.check("tietze_simplify")
        if (r := w.letters) not in ids:
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
            new[ri] = ()
            replace(new)
            removed.append(g)
        found = _subword_replacement(rels, budget)
        if found is None:
            break
        replace(dict([found]))

    del size, counts, occ, where, ids, heap  # free the index before the output
    gone = set(removed)
    alive = [g for g in range(n_gens) if g not in gone]
    code = [0] * (2 * n_gens)  # old letter code -> new, increasing on alive
    for i, g in enumerate(alive):
        code[2 * g], code[2 * g + 1] = 2 * i, 2 * i + 1
    live = [r for r in rels if r is not None]
    final = [tuple(map(code.__getitem__, r))
             for block in _in_blocks(live, budget, "tietze_simplify") for r in block]
    final.sort(key=lambda r: (len(r), r))
    out = GroupPresentation._trusted(
        tuple(p.generator_names[g] for g in alive),
        tuple([Word.of(r) for block in _in_blocks(final, budget, "tietze_simplify")
               for r in block]),
        p.name)
    if out.n_generators > budget.max_generators:
        hit = True
    if out.total_relator_length > budget.max_total_relator_length:
        hit = True
    return Simplified(out, hit)
