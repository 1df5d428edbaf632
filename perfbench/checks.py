"""Closed-form answers the benchmark checks the program's outputs against.

Nothing here imports ``adorn``: every value comes from a formula, so a
check cannot agree with the program by sharing its code.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, prod
from typing import Sequence


def orbifold_quotient(cones: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Order of H1 of the genus-0 orbifold group <x_i | x_i^p_i, x_1...x_n>,
    and the order of each x_i in it.

    H1 is (Z/p_1 + ... + Z/p_n) / <(1, ..., 1)>, so its order is
    prod(p) / lcm(p), and x_i has order gcd(p_i, lcm of the other p_j).
    """
    order = prod(cones) // lcm(*cones)
    orders = tuple(gcd(p, lcm(*(cones[:i] + cones[i + 1:])))
                   for i, p in enumerate(cones))
    return order, orders


def commutator_rank(cones: Sequence[int]) -> int:
    """Rank of H1 of the commutator subgroup K of a genus-0 orbifold group
    (a triangle group is the case of three cones), by Riemann–Hurwitz.

    K has index N = |H1|.  Above cone i lie N/o_i cone points of order
    p_i/o_i, so chi_top(K) = N chi(G) + sum (N/o_i)(1 - o_i/p_i), and K
    has genus g with rank 2g = 2 - chi_top(K).
    """
    cones = tuple(cones)
    n, orders = orbifold_quotient(cones)
    chi = 2 - sum(1 - Fraction(1, p) for p in cones)
    chi_top = n * chi + sum(Fraction(n, o) * (1 - Fraction(o, p))
                            for p, o in zip(cones, orders))
    if chi_top.denominator != 1:
        raise ValueError(f"non-integral Euler characteristic for {cones}")
    return 2 - int(chi_top)


def free_product_rank(m: int, n: int) -> int:
    """The commutator subgroup of Z_m * Z_n is free of rank (m-1)(n-1)."""
    return (m - 1) * (n - 1)


def schreier_generators(index: int, n_generators: int) -> int:
    """Generators of the raw Reidemeister–Schreier presentation of an
    index-``index`` subgroup of a group on ``n_generators`` generators."""
    return index * (n_generators - 1) + 1


def young_index(blocks: Sequence[int]) -> int:
    """Index n!/|W_J| in S_n of the parabolic (Young) subgroup whose
    orbits on {1..n} have the given block sizes."""
    return factorial(sum(blocks)) // prod(factorial(b) for b in blocks)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_exact_div(a: list[int], b: list[int]) -> list[int]:
    """Exact division of integer polynomials (coefficient lists, low first)
    by a monic divisor."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1]
        q[k] = c
        if c:
            for j, y in enumerate(b):
                a[k + j] -= c * y
    if any(a):
        raise ValueError("division is not exact")
    return q


def _t_power_minus_one(k: int) -> list[int]:
    return [-1] + [0] * (k - 1) + [1]


def torus_knot_alexander(p: int, q: int) -> dict[int, int]:
    """Delta of T(p, q) = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), as
    {exponent: coefficient}."""
    num = _poly_mul(_t_power_minus_one(p * q), _t_power_minus_one(1))
    den = _poly_mul(_t_power_minus_one(p), _t_power_minus_one(q))
    return {e: c for e, c in enumerate(_poly_exact_div(num, den)) if c}


def parse_laurent(text: str) -> dict[int, int]:
    """Read a polynomial printed as, for example, ``t^6 - t^5 + 2t - 1``."""
    out: dict[int, int] = {}
    sign = 1
    for tok in text.split():
        if tok in "+-":
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        coeff_text, t, exp_text = tok.partition("t")
        coeff = int(coeff_text) if coeff_text else 1
        exp = (int(exp_text[1:]) if exp_text else 1) if t else 0
        out[exp] = out.get(exp, 0) + sign * coeff
        sign = 1
    return {e: c for e, c in out.items() if c}


def abelian_chain(m: int, n: int) -> tuple[int, ...]:
    """Invariant factors (>= 2) of Z_m + Z_n."""
    return tuple(x for x in (gcd(m, n), lcm(m, n)) if x >= 2)


def seifert_branch(genus: int, cones: Sequence[int], boundary: bool) -> str:
    """Adorability branch of a Seifert fibered space from its base
    orbifold, for the cases the benchmark generates: bounded bases, closed
    bases of positive genus, and closed spheres with at most four cones."""
    cones = tuple(cones)
    if boundary:
        factors = 2 * genus + len(cones)
        if factors <= 1 or (genus == 0 and cones == (2, 2)):
            return "Solvable"
        return "NonAdorable"
    if genus >= 1:
        return "Solvable" if genus == 1 and not cones else "NonAdorable"
    if len(cones) <= 2:
        return "FiniteDerived"
    if len(cones) == 3:
        s = sum(Fraction(1, p) for p in cones)
        if s > 1:
            return "FiniteDerived"
        if s == 1:
            return "Solvable"
        coprime = all(gcd(a, b) == 1 for i, a in enumerate(cones)
                      for b in cones[i + 1:])
        return "Perfect" if coprime else "NonAdorable"
    if len(cones) == 4:
        if cones == (2, 2, 2, 2):
            return "Solvable"
        if orbifold_quotient(cones)[0] == 1:
            return "Perfect"
        return "NonAdorable"
    raise ValueError("five or more cones on a closed sphere are not generated")
