"""Fox calculus and Alexander polynomials for knot-like presentations.

A presentation qualifies when its abelianization is infinite cyclic and it
has deficiency one (n generators, n-1 relators).  The Alexander matrix is
the matrix of Fox derivatives of the relators, pushed through the
abelianization map g -> t^e(g); :func:`fox_derivative` computes each
entry in Z[t, 1/t] directly, never in the free group ring.  The polynomial
is the gcd of the n maximal minors (the first elementary ideal), and Fox's
fundamental formula lets one minor stand for all of them: deleting the
column j of least non-zero |e_j|, the minor is the polynomial times
(t^|e_j| - 1)/(t - 1), which is divided out exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

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

    def value_at_one(self) -> int:
        """The value at t = 1: the sum of the coefficients."""
        return sum(self.coeffs.values())

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


def _divide_by_geometric_sum(f: LaurentPoly, m: int) -> LaurentPoly:
    """f / (1 + t + ... + t^(m-1)) by long division from the top; raises
    AlexanderError when a remainder is left."""
    rem = dict(f.coeffs)
    out: dict[int, int] = {}
    while rem:
        top = max(rem)
        if top - min(rem) < m - 1:
            raise AlexanderError(
                f"minor {f} is not divisible by (t^{m} - 1)/(t - 1)")
        c = rem[top]
        e = top - m + 1
        out[e] = c
        for k in range(e, top + 1):
            x = rem.get(k, 0) - c
            if x:
                rem[k] = x
            else:
                rem.pop(k, None)
    return LaurentPoly(out)


def alexander_polynomial(p: GroupPresentation) -> LaurentPoly:
    """Alexander polynomial of a knot-like presentation, normalized to
    lowest exponent 0 and positive leading coefficient.

    Let e be the exponent images, negated when none is positive (this fixes
    t against 1/t), and D_k the maximal minor of the Alexander matrix
    without column k.  The result is D_j / ((t^|e_j| - 1)/(t - 1)) for j
    the first column of least non-zero |e_j|, one determinant in all.  It
    is the gcd of every D_k, the first elementary ideal: by Fox's
    fundamental formula each relator row satisfies
    sum_k a_k (t^e_k - 1) = 0, so by Cramer's rule
    D_k = +-t^i Delta (t^e_k - 1)/(t - 1) for one Delta and every k
    (D_k = 0 where e_k = 0), and these cofactors are primitive with gcd
    (t^g - 1)/(t - 1) = 1, since g = gcd(e) = 1 when H1 is Z.  A division
    that leaves a remainder raises AlexanderError.
    """
    data = abelianization_data(p)
    inv = data.invariants
    if inv.rank != 1 or inv.torsion:
        raise NotKnotLike(f"abelianization is {inv}, expected Z")
    n = p.n_generators
    if p.n_relators != n - 1:
        raise DeficiencyMismatch(
            f"{n} generators need {n - 1} relators, found {p.n_relators}")
    images = tuple(data.free_images[g][0] for g in range(n))
    if all(e <= 0 for e in images):
        images = tuple(-e for e in images)

    j = min((g for g in range(n) if images[g]), key=lambda g: abs(images[g]))
    minor = _laurent_det([[fox_derivative(r, g, images) for g in range(n) if g != j]
                          for r in p.relators])
    delta = _divide_by_geometric_sum(minor, abs(images[j])).normalized()
    if abs(delta.value_at_one()) != 1:
        raise AlexanderError(
            f"polynomial evaluates to {delta.value_at_one()} at t=1; "
            f"the presentation does not behave like a knot group")
    return delta


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
