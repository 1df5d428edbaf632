"""Fox calculus and Alexander polynomials for knot-like presentations.

A presentation qualifies when its abelianization is infinite cyclic and it
has deficiency one (n generators, n-1 relators).  The Alexander matrix is
the matrix of Fox derivatives of the relators, pushed through the
abelianization map g -> t^e(g); :func:`fox_derivative` computes each
entry in Z[t, 1/t] directly, never in the free group ring.  The polynomial
is the gcd of the n maximal minors (the first elementary ideal), and Fox's
fundamental formula lets one minor stand for all of them: deleting the
column j of least non-zero |e_j|, the minor is the polynomial times
(t^|e_j| - 1)/(t - 1), which is divided out exactly.  That minor is one
integer determinant: with each row shifted to honest polynomials, its
coefficients are at most B = ceil(sqrt(prod_i sum_j ||a_ij||_1^2)) in
absolute value, so Kronecker substitution t = 2^k, 2^(k-1) > 2B, and
Bareiss's fraction-free elimination give them back as balanced base-2^k
digits.  B holds because a coefficient of a polynomial is at most its
largest absolute value on the unit circle |t| = 1, and there Hadamard's
inequality bounds the determinant by the product of the rows' Euclidean
norms, with |a_ij(t)| <= ||a_ij||_1.
"""

from __future__ import annotations

from math import isqrt, prod
from typing import NamedTuple

from .abelian import abelianization_data
from .fpgroup import DEFAULT_BUDGET, Budget, GroupPresentation, Word


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

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

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
    for x in w.letters:
        if x & 1:
            e -= images[x >> 1]
            if x == 2 * gen + 1:
                out[e] = out.get(e, 0) - 1
        else:
            if x == 2 * gen:
                out[e] = out.get(e, 0) + 1
            e += images[x >> 1]
    return LaurentPoly(out)


def _bareiss_det(a: list[list[int]]) -> int:
    """Integer determinant by fraction-free elimination (Bareiss, Math.
    Comp. 22, 1968): each step's division by the previous pivot is exact.
    A zero pivot is swapped with a row below; a column without one gives 0."""
    a = [list(row) for row in a]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i], sign = a[i], a[k], -sign
        pivot, top = a[k][k], a[k]
        for row in a[k + 1:]:
            x = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - x * top[j]) // prev
        prev = pivot
    return sign * a[-1][-1] if n else 1


def _kronecker_det(matrix: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant in Z[t, 1/t]: row i shifted by its least exponent, t =
    2^k with 2^(k-1) > 2B for the coefficient bound B above, read back as
    balanced base-2^k digits (von zur Gathen and Gerhard, Modern Computer
    Algebra, section 8.4)."""
    lows = [min((e.min_exp() for e in row if e.coeffs), default=0) for row in matrix]
    square = prod(sum(sum(map(abs, e.coeffs.values())) ** 2 for e in row)
                  for row in matrix)
    if not square:
        return LaurentPoly.zero()
    bound = isqrt(square - 1) + 1  # ceil(sqrt(square))
    k = (2 * bound).bit_length() + 1
    d = _bareiss_det([[sum(c << k * (x - lo) for x, c in e.coeffs.items()) for e in row]
                      for row, lo in zip(matrix, lows)])
    out, shift, half = {}, sum(lows), 1 << (k - 1)
    while d:
        digit = (d + half) % (1 << k) - half
        out[shift] = digit
        d = (d - digit) >> k
        shift += 1
    return LaurentPoly(out)


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


def alexander_polynomial(p: GroupPresentation,
                         budget: Budget = DEFAULT_BUDGET) -> LaurentPoly:
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
    (t^g - 1)/(t - 1) = 1, since g = gcd(e) = 1 when H1 is Z.  D_j is one
    Bareiss integer determinant after the Kronecker substitution t = 2^k,
    with k set by Hadamard's coefficient bound
    B = ceil(sqrt(prod_i sum_k ||a_ik||_1^2)).  A division that leaves a
    remainder raises AlexanderError.
    """
    data = abelianization_data(p, budget)
    inv = data.invariants
    if inv.rank != 1 or inv.torsion:
        raise NotKnotLike(f"abelianization is {inv}, expected Z")
    n = p.n_generators
    if p.n_relators != n - 1:
        raise DeficiencyMismatch(
            f"{n} generators need {n - 1} relators, found {p.n_relators}")
    images = tuple(data.free_rows[0].get(g, 0) for g in range(n))
    if all(e <= 0 for e in images):
        images = tuple(-e for e in images)

    j = min((g for g in range(n) if images[g]), key=lambda g: abs(images[g]))
    minor = _kronecker_det([[fox_derivative(r, g, images) for g in range(n) if g != j]
                            for r in p.relators])
    delta = _divide_by_geometric_sum(minor, abs(images[j])).normalized()
    if abs(delta.value_at_one()) != 1:
        raise AlexanderError(
            f"polynomial evaluates to {delta.value_at_one()} at t=1; "
            f"the presentation does not behave like a knot group")
    return delta


class KnotReport(NamedTuple):
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


def knot_adorability_report(p: GroupPresentation,
                            budget: Budget = DEFAULT_BUDGET) -> KnotReport:
    """Adorability verdict for a knot group: adorable (with perfect
    commutator subgroup) exactly when the Alexander polynomial is trivial."""
    delta = alexander_polynomial(p, budget)
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
