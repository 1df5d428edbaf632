import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adorn.abelian import (AbelianInvariants, IntMatrix, abelianization,
                           abelianization_data, relator_matrix,
                           smith_normal_form)
from adorn.cosets import commutator_coset_table
from adorn.fpgroup import parse_presentation
from adorn.rewriting import rewrite_presentation
from adorn.zoo import make

from oracles import (det, exterior_square_rank, is_perfect, mat_mul,
                     minor_gcd_diagonal, smith_normal_form_reference,
                     word_exponent_images)


def dense(u, n):
    """The sparse rows ``u`` of an n-column matrix as dense lists."""
    out = [[0] * n for _ in u]
    for row, sparse in zip(out, u):
        for j, x in sparse.items():
            row[j] = x
    return out


def snf_checked(rows):
    m = IntMatrix.from_rows(rows) if rows else IntMatrix(0, 0, ())
    d, u = smith_normal_form(m)
    ref_d, ref_u, ref_v = smith_normal_form_reference(m)
    assert mat_mul(mat_mul(ref_u, m.to_rows()), ref_v) == ref_d
    u = dense(u, m.rows)
    assert det(u) in (1, -1)
    assert det(ref_v) in (1, -1)
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert ref_d[i][j] == 0
    diag = list(d)
    assert diag == [ref_d[i][i] for i in range(min(m.rows, m.cols))]
    assert u == ref_u
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


def test_snf_example_trivial_cokernel():
    assert snf_checked([[2, 0], [0, 3], [5, 5]]) == [1, 1]


def test_snf_zero_rows():
    m = IntMatrix(0, 3, ())
    d, u = smith_normal_form(m)
    assert d == () and u == []
    ref_d, ref_u, ref_v = smith_normal_form_reference(m)
    assert ref_d == [] and ref_u == []
    assert det(ref_v) in (1, -1)


def test_snf_single_entry():
    assert snf_checked([[12]]) == [12]


def test_snf_negative_entries():
    assert snf_checked([[4, 0], [2, -3]]) == [1, 12]


@pytest.mark.parametrize("rows, diag", [
    ([[2, 0], [0, 3]], [1, 6]),  # the stray-row fix-up must fire
    ([[2, 4], [6, 8]], [2, 4]),  # no unit entry: the full pivot search runs
    ([[2, 0, 0], [0, 3, 0], [0, 0, 5]], [1, 1, 30]),
    ([[6, 10], [10, 15], [15, 6]], [1, 1]),
    ([[4, 6], [6, 4]], [2, 10]),
])
def test_snf_non_unit_pivots(rows, diag):
    assert snf_checked(rows) == diag == minor_gcd_diagonal(rows)
    m = IntMatrix.from_rows(rows)
    assert _snf_rows(m) == _reference_rows(m)


def _snf_rows(m):
    d, u = smith_normal_form(m)
    return d, dense(u, m.rows)


def _reference_rows(m):
    d, u, _v = smith_normal_form_reference(m)
    return tuple(d[i][i] for i in range(min(m.rows, m.cols))), u


@st.composite
def small_matrices(draw):
    r = draw(st.integers(0, 6))
    c = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return IntMatrix.from_rows(rows) if r else IntMatrix(0, c, ())


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_snf_equals_reference(m):
    # the early exits must not change a single pivot or operation
    assert _snf_rows(m) == _reference_rows(m)


@st.composite
def sparse_matrices(draw):
    # shapes and entries where index upkeep goes wrong: mostly-zero rows and
    # columns, single columns and rows, and equal non-unit minima that only
    # the (i, j) tie-break separates
    shape = draw(st.sampled_from(["sparse", "tall", "wide"]))
    if shape == "tall":
        r, c = draw(st.integers(1, 30)), 1
    elif shape == "wide":
        r, c = 1, draw(st.integers(1, 30))
    else:
        r, c = draw(st.integers(0, 12)), draw(st.integers(0, 16))
    rows = [[0] * c for _ in range(r)]
    if r and c:
        base = draw(st.sampled_from([1, 2, 3]))
        value = st.builds(lambda k, s: s * k * base,
                          st.integers(1, 4), st.sampled_from([1, -1]))
        cells = draw(st.lists(st.tuples(st.integers(0, r - 1),
                                        st.integers(0, c - 1), value),
                              min_size=r * c // 8, max_size=max(1, r * c // 4)))
        for i, j, x in cells:
            rows[i][j] = x
        if base > 1 and r > 1 and draw(st.booleans()):
            for i in draw(st.lists(st.integers(0, r - 1), min_size=2,
                                   max_size=2, unique=True)):
                rows[i][draw(st.integers(0, c - 1))] = base
        if draw(st.booleans()):
            rows[draw(st.integers(0, r - 1))] = [0] * c
        if draw(st.booleans()):
            j = draw(st.integers(0, c - 1))
            for row in rows:
                row[j] = 0
    return IntMatrix.from_rows(rows) if r else IntMatrix(0, c, ())


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_sparse_snf_equals_reference(m):
    assert _snf_rows(m) == _reference_rows(m)


def _raw_rewrite(p):
    return rewrite_presentation(p, commutator_coset_table(p))


def test_snf_equals_reference_on_raw_rewrite():
    for p, shape in [
        (make("free_product", (make("cyclic", (6,)), make("cyclic", (8,)))), (49, 96)),
        (make("fuchsian", (0, (4, 4, 4, 4))), (193, 320)),
    ]:
        m = relator_matrix(_raw_rewrite(p))
        assert (m.rows, m.cols) == shape
        assert _snf_rows(m) == _reference_rows(m)


def test_raw_rewrite_h1_of_genus_zero_orbifold():
    # the commutator subgroup K of fuchsian(0, [4, 4, 4, 4]) has index 64
    # and is a closed surface group: chi(K) = 64 * (2 - 4 * 3/4) = -64, so
    # K has genus 33 and H1(K) = Z^66 (Riemann-Hurwitz)
    raw = _raw_rewrite(make("fuchsian", (0, (4, 4, 4, 4))))
    assert (raw.n_generators, len(raw.relators)) == (193, 320)
    assert abelianization(raw) == AbelianInvariants(66, ())


def test_snf_matches_minor_gcd_oracle_random():
    rng = random.Random(20260810)
    for _ in range(120):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 5)
        rows = [[rng.randrange(-5, 6) for _ in range(c)] for _ in range(r)]
        assert snf_checked(rows) == minor_gcd_diagonal(rows)


def test_abelianization_trefoil():
    inv = abelianization(make("trefoil"))
    assert inv == AbelianInvariants(1, ())
    assert str(inv) == "Z"


def test_abelianization_sl2z():
    inv = abelianization(make("sl2z"))
    assert inv == AbelianInvariants(0, (12,))
    assert str(inv) == "Z/12"
    assert inv.order() == 12


def test_abelianization_triangle_235():
    inv = abelianization(make("triangle", (2, 3, 5)))
    assert inv.is_trivial()
    assert str(inv) == "trivial"


def test_abelianization_free_and_trivial():
    assert abelianization(parse_presentation("< a, b | >")) == AbelianInvariants(2, ())
    assert abelianization(parse_presentation("< | >")).is_trivial()


def test_relator_matrix_orientation():
    p = parse_presentation("< a, b | a^4, a^2 b^-3 >")
    # one row per generator, one column per relator
    assert relator_matrix(p).to_rows() == [[4, 2], [0, -3]]


def test_exterior_square_rank():
    assert exterior_square_rank(3) == 3
    assert exterior_square_rank(1) == 0
    assert exterior_square_rank(4) == 6
    for r in range(11):
        assert exterior_square_rank(r) == len(
            [(i, j) for i in range(r) for j in range(i + 1, r)])


def test_is_perfect():
    assert is_perfect(make("triangle", (2, 3, 5)))
    assert not is_perfect(parse_presentation("< a | >"))
    assert is_perfect(parse_presentation("< | >"))


def test_divisor_chain_validation():
    with pytest.raises(ValueError):
        AbelianInvariants(0, (4, 2))
    with pytest.raises(ValueError):
        AbelianInvariants(0, (1,))


def test_generator_images_kill_relators():
    # the reported images must send every relator to zero
    for p in (make("sl2z"), make("trefoil"), make("triangle", (2, 4, 6)),
              parse_presentation("< a, b | a^2 b^4 >")):
        data = abelianization_data(p)
        for r in p.relators:
            free, tors = word_exponent_images(p, data, r)
            assert all(x == 0 for x in free)
            assert all(x == 0 for x in tors)
        # and the images must generate the quotient: the subgroup generated
        # by the torsion images has full order (checked for rank 0)
        if data.invariants.rank == 0 and data.invariants.order() <= 4096:
            seen = {tuple(0 for _ in data.invariants.torsion)}
            frontier = list(seen)
            while frontier:
                nxt = []
                for x in frontier:
                    for img in data.torsion_images:
                        y = tuple((a + b) % m for a, b, m in
                                  zip(x, img, data.invariants.torsion))
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
            assert len(seen) == data.invariants.order()


def test_abelianization_invariant_under_tietze():
    from adorn.fpgroup import tietze_simplify
    rng = random.Random(4)
    for p in (make("sl2z"), make("trefoil"), make("braid", (4,)),
              make("triangle", (2, 3, 7))):
        inv = abelianization(p)
        simplified, _ = tietze_simplify(p)
        assert abelianization(simplified) == inv
