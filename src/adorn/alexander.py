"""Fox calculus and Alexander polynomials for knot-like presentations.

A presentation qualifies when its abelianization is infinite cyclic and it
has deficiency one (n generators, n-1 relators).  The Alexander matrix is
the matrix of Fox derivatives of the relators, pushed through the
abelianization map g -> t^e(g); :func:`fox_derivative` computes each
entry in Z[t, 1/t] directly, never in the free group ring.  When some
generator maps to t^{+-1} its column is deleted and the determinant of the
rest is the polynomial; otherwise the gcd of all maximal minors is taken
(first elementary ideal).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .abelian import abelianization_data
from .fpgroup import GroupPresentation, Word


class AlexanderError(ValueError):
    pass


class NotKnotLike(AlexanderError):
    """Abelianization is not infinite cyclic."""


class DeficiencyMismatch(AlexanderError):
    """Presentation does not have exactly n-1 relators for n generators."""


class LaurentPoly:
    """Integer Laurent polynomial; zero coefficients are never stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def term(coeff: int, exp: int) -> "LaurentPoly":
        return LaurentPoly({exp: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def min_exp(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    def max_exp(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    def degree_span(self) -> int:
        """Degree of the normalized polynomial (max exponent - min exponent)."""
        return self.max_exp() - self.min_exp() if self.coeffs else 0

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def normalized(self) -> "LaurentPoly":
        """Canonical unit multiple: lowest exponent 0, positive leading
        coefficient."""
        if not self.coeffs:
            return LaurentPoly()
        out = self.shift(-self.min_exp())
        if out.coeffs[out.max_exp()] < 0:
            out = -out
        return out

    def reciprocal(self) -> "LaurentPoly":
        """t -> 1/t."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def is_symmetric(self) -> bool:
        return self.normalized() == self.reciprocal().normalized()

    def evaluate(self, x: int) -> int:
        """Exact evaluation; x must be +1 or -1 when negative exponents occur."""
        if any(e < 0 for e in self.coeffs) and x not in (1, -1):
            raise ValueError("negative exponents: only x = +-1 supported")
        total = 0
        for e, c in self.coeffs.items():
            if x in (1, -1):
                total += c * (1 if x == 1 or e % 2 == 0 else -1)
            else:
                total += c * x ** e
        return total

    def content(self) -> int:
        g = 0
        for c in self.coeffs.values():
            g = gcd(g, c)
        return g

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                t = "t" if e == 1 else f"t^{e}"
                body = t if abs(c) == 1 else f"{abs(c)}{t}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.coeffs!r})"


def _primitive(f: LaurentPoly) -> LaurentPoly:
    c = f.content()
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
        f = f * LaurentPoly.term(cg // d, 0) - g * LaurentPoly.term(cf // d, lf - lg)
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
    content = gcd(f.content(), g.content())
    f, g = _primitive(f), _primitive(g)
    while not g.is_zero():
        f, g = g, _primitive(_pseudo_rem(f, g).normalized())
    return (f * LaurentPoly.term(content, 0)).normalized()


def fox_derivative(w: Word, gen: int, images: tuple[int, ...]) -> LaurentPoly:
    """Free differential d(w)/d(gen), pushed through the abelianization map
    g -> t^images[g].

    Over Z[F]: d(g)/dg = 1, d(g^-1)/dg = -g^-1, and d(uv)/dg = du/dg +
    u dv/dg.  So a letter gen^s of w contributes s times the image of the
    prefix before it (s = 1) or through it (s = -1).  A prefix maps to t
    to its running exponent sum, so no word or Z[F] element is built.
    """
    out: dict[int, int] = {}
    e = 0
    for g, s in w:
        if s < 0:
            e -= images[g]
        if g == gen:
            out[e] = out.get(e, 0) + s
        if s > 0:
            e += images[g]
    return LaurentPoly(out)


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
            term = entry * sub
            total = total + (term if k % 2 == 0 else -term)
        memo[cols] = total
        return total

    return minor(0, tuple(range(n)))


@dataclass(frozen=True)
class AlexanderData:
    polynomial: LaurentPoly
    exponent_images: tuple[int, ...]
    deleted_column: int | None  # None when the gcd-of-minors fallback ran


def _alexander(p: GroupPresentation) -> AlexanderData:
    data = abelianization_data(p)
    inv = data.invariants
    if inv.rank != 1 or inv.torsion:
        raise NotKnotLike(f"abelianization is {inv}, expected Z")
    if p.n_relators != p.n_generators - 1:
        raise DeficiencyMismatch(
            f"{p.n_generators} generators need {p.n_generators - 1} relators, "
            f"found {p.n_relators}")
    images = tuple(data.free_images[g][0] for g in range(p.n_generators))
    if all(e <= 0 for e in images):
        images = tuple(-e for e in images)

    matrix = [[fox_derivative(r, g, images)
               for g in range(p.n_generators)]
              for r in p.relators]

    unit_cols = [j for j, e in enumerate(images) if abs(e) == 1]
    if unit_cols:
        j = unit_cols[0]
        rest = [[row[jj] for jj in range(p.n_generators) if jj != j]
                for row in matrix]
        delta = _laurent_det(rest)
        deleted = j
    else:
        delta = LaurentPoly.zero()
        for j in range(p.n_generators):
            rest = [[row[jj] for jj in range(p.n_generators) if jj != j]
                    for row in matrix]
            delta = laurent_gcd(delta, _laurent_det(rest))
        deleted = None

    delta = delta.normalized()
    if abs(delta.evaluate(1)) != 1:
        raise AlexanderError(
            f"polynomial evaluates to {delta.evaluate(1)} at t=1; "
            f"the presentation does not behave like a knot group")
    return AlexanderData(delta, images, deleted)


def alexander_polynomial(p: GroupPresentation) -> LaurentPoly:
    """Alexander polynomial of a knot-like presentation, normalized to
    lowest exponent 0 and positive leading coefficient."""
    return _alexander(p).polynomial


@dataclass(frozen=True)
class KnotReport:
    polynomial: LaurentPoly
    degree: int
    adorable: bool
    verdict: str
    derived_quotient_rank: int
    rank_provenance: str
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "alexander": str(self.polynomial),
            "degree": self.degree,
            "verdict": self.verdict,
            "derived_quotient_rank": self.derived_quotient_rank,
            "rank_provenance": self.rank_provenance,
            "notes": list(self.notes),
        }


def knot_adorability_report(p: GroupPresentation) -> KnotReport:
    """Adorability verdict for a knot group: adorable (with perfect
    commutator subgroup) exactly when the Alexander polynomial is trivial."""
    delta = alexander_polynomial(p)
    degree = delta.degree_span()
    trivial = delta == LaurentPoly.one()
    notes = []
    if not delta.is_symmetric():
        notes.append("diagnostic: polynomial is not symmetric under t -> 1/t")
    if degree % 2:
        notes.append("diagnostic: odd degree; Alexander polynomials of knots "
                     "have even degree")
    if degree >= 3:
        notes.append("every derived quotient from stage 1 on has rank >= 3")
    return KnotReport(
        polynomial=delta,
        degree=degree,
        adorable=trivial,
        verdict=("Adorable (commutator subgroup is perfect)" if trivial
                 else "NotAdorable"),
        derived_quotient_rank=degree,
        rank_provenance="cited",  # rank(H1 of the commutator subgroup) = deg, by the Crowell degree identity; not recomputed here
        notes=tuple(notes),
    )
