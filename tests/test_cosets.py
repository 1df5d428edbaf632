import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adorn.abelian import abelianization, abelianization_data
from adorn.cosets import (CapExceeded, CosetTable, InfiniteIndex, _Enumerator,
                          commutator_coset_table, todd_coxeter)
from adorn.fpgroup import Budget, GroupPresentation, Word, parse_presentation
from adorn.rewriting import reidemeister_schreier
from adorn.zoo import make

from oracles import (check_model, closure, commutator_coset_table_reference,
                     open_relator_scans, quaternion_model, scan_entries_reference,
                     todd_coxeter_reference, verify_table, wide)

A = Word.gen(0)
B = Word.gen(1)

S3 = parse_presentation("< a, b | a^2, b^2, (a b)^3 >")
D4 = parse_presentation("< a, b | a^4, b^2, (a b)^2 >")
Q8 = parse_presentation("< a, b | a^4, a^2 b^-2, b^-1 a b a >")
A4 = parse_presentation("< a, b | a^2, b^3, (a b)^3 >")


def test_dinf_over_ab():
    p = make("dihedral_inf")
    t = todd_coxeter(p, [A * B])
    assert t.n_cosets == 2
    verify_table(t, p, [A * B])


def test_s3_over_a():
    t = todd_coxeter(S3, [A])
    assert t.n_cosets == 3
    verify_table(t, S3, [A])


def test_z3_regular():
    p = parse_presentation("< a | a^3 >")
    t = todd_coxeter(p, [])
    assert t.n_cosets == 3
    verify_table(t, p)


@pytest.mark.parametrize("pres,model_gens,order", [
    (parse_presentation("< a | a^6 >"), None, 6),
    (S3, [(1, 0, 2), (0, 2, 1)], 6),
    (D4, [(1, 2, 3, 0), (0, 3, 2, 1)], 8),
    (Q8, quaternion_model()[0], 8),
    (A4, [(1, 0, 3, 2), (1, 2, 0, 3)], 12),
])
def test_finite_orders_match_permutation_models(pres, model_gens, order):
    t = todd_coxeter(pres, [])
    assert t.n_cosets == order
    verify_table(t, pres)
    if model_gens is not None:
        check_model(pres, list(model_gens))
        assert len(closure(model_gens)) == order


@pytest.mark.parametrize("pres,sub,sub_order", [
    (S3, [A], 2),
    (D4, [A], 4),
    (Q8, [A], 4),
    (A4, [B], 3),
])
def test_index_multiplicativity(pres, sub, sub_order):
    whole = todd_coxeter(pres, []).n_cosets
    t = todd_coxeter(pres, sub)
    rewritten, _ = reidemeister_schreier(pres, t)
    assert todd_coxeter(rewritten, []).n_cosets == sub_order
    assert whole == t.n_cosets * sub_order


def test_no_generators_one_coset():
    t = todd_coxeter(parse_presentation("< | >"))
    assert t.n_cosets == 1 and t.rows == ((),)


def test_cap_exceeded_infinite_index():
    free2 = parse_presentation("< a, b | >")
    with pytest.raises(CapExceeded):
        todd_coxeter(free2, [], Budget(max_cosets=50))


def test_commutator_table_q8():
    t = commutator_coset_table(Q8)
    assert t.n_cosets == 4
    verify_table(t, Q8)


def test_commutator_table_triangle_235():
    t = commutator_coset_table(make("triangle", (2, 3, 5)))
    assert t.n_cosets == 1


def test_commutator_table_infinite_index():
    with pytest.raises(InfiniteIndex):
        commutator_coset_table(parse_presentation("< a, b | >"))


def test_commutator_table_honours_coset_cap():
    # Z12 x Z12 has 144 cosets: a cap of 144 lets it build, 10 stops it
    p = parse_presentation("< a, b | a^12, b^12, a b a^-1 b^-1 >")
    assert commutator_coset_table(p, Budget(max_cosets=144)).n_cosets == 144
    with pytest.raises(CapExceeded, match="coset limit 10 reached") as info:
        commutator_coset_table(p, Budget(max_cosets=10))
    assert info.value.layer == "commutator_coset_table"
    assert info.value.limit == "max_cosets"


def test_table_is_complete_by_construction():
    t = CosetTable(1, [[1, 1], [0, 0]])
    assert t.complete is True
    assert t.word_act(0, A * A * A) == 1
    with pytest.raises(ValueError, match="row width"):
        CosetTable(2, [[0, 0]])


@pytest.mark.parametrize("pres,comm_words", [
    (S3, [A * B * A.inverse() * B.inverse()]),
    (make("dihedral_inf"), [A * B * A.inverse() * B.inverse()]),
    (Q8, [A * B * A.inverse() * B.inverse()]),
    (parse_presentation("< a | a^6 >"), []),
    (parse_presentation("< a, b | a^2, b^2, a b a^-1 b^-1 >"),
     [A * B * A.inverse() * B.inverse()]),
])
def test_commutator_table_agrees_with_enumeration(pres, comm_words):
    # on these entries the pairwise generator commutators generate the
    # commutator subgroup, so the two constructions give the same action
    direct = commutator_coset_table(pres)
    enum = todd_coxeter(pres, comm_words)
    assert direct.n_cosets == enum.n_cosets
    # same permutation action up to the coset numbering: compare canonical
    # relabelings by BFS from coset 0 in column order
    def canonical(t):
        order = {0: 0}
        queue = [0]
        qi = 0
        while qi < len(queue):
            c = queue[qi]
            qi += 1
            for x in t.rows[c]:
                if x not in order:
                    order[x] = len(order)
                    queue.append(x)
        return tuple(tuple(order[x] for x in t.rows[c])
                     for c in sorted(order, key=order.get))

    assert canonical(direct) == canonical(enum)


def test_coset_cap_counts_every_defined_coset():
    # < a | a^7 > needs exactly 7 cosets: a cap of 7 lets it close, 6 stops it
    p = parse_presentation("< a | a^7 >")
    assert todd_coxeter(p, [], Budget(max_cosets=7)).n_cosets == 7
    with pytest.raises(CapExceeded, match="coset limit 6 reached"):
        todd_coxeter(p, [], Budget(max_cosets=6))


def test_deterministic_numbering():
    t1 = todd_coxeter(S3, [A])
    t2 = todd_coxeter(S3, [A])
    assert t1.rows == t2.rows


def _enumeration(p, sub, caps=Budget()):
    try:
        return todd_coxeter(p, sub, caps).rows
    except CapExceeded as e:
        return str(e)


def _reference_enumeration(p, sub, caps=Budget()):
    try:
        return todd_coxeter_reference(p, sub, caps)[0]
    except CapExceeded as e:
        return str(e)


def _words(n_gens, max_size, min_size=0):
    letters = st.tuples(st.integers(0, n_gens - 1), st.sampled_from((1, -1)))
    return st.lists(letters, min_size=min_size, max_size=max_size).map(Word)


@st.composite
def enumeration_inputs(draw):
    n = draw(st.integers(1, 4))
    rels = []
    for w in draw(st.lists(_words(n, 8), max_size=5)):
        # a power w^k has k times repeated rotations; a repeated relator
        # repeats all of its rotations
        shape = draw(st.sampled_from(("plain", "plain", "power", "repeat")))
        if shape == "power":
            w = w ** draw(st.integers(2, 4))
        rels.append(w)
        if shape == "repeat":
            rels.append(w)
    sub = draw(st.lists(_words(n, 6), max_size=2))
    return GroupPresentation([f"x{i}" for i in range(n)], rels), sub


REPEATED_RELATOR = (parse_presentation("< x0, x1 | x0 x1^-2, x1, x0 x1^-2 >"),
                    [Word([(0, 1), (0, 1)]), Word([(0, 1), (0, -1), (0, -1)])])


@settings(max_examples=300, deadline=None)
@given(enumeration_inputs())
# a coincidence with a repeated relator: fewer deductions, same rows
@example(REPEATED_RELATOR)
def test_todd_coxeter_matches_reference(case):
    p, sub = case
    for caps in (Budget(max_cosets=300), Budget(max_cosets=40)):
        assert _enumeration(p, sub, caps) == _reference_enumeration(p, sub, caps)


@st.composite
def involution_inputs(draw):
    # each generator is an involution with probability 1/2, its square
    # written g^2 or g^-2; the other relators and the subgroup words use
    # its inverse letter as well, which the enumerator maps onto one column
    n = draw(st.integers(1, 4))
    rels = [Word.gen(g, draw(st.sampled_from((1, -1)))) ** 2
            for g in range(n) if draw(st.booleans())]
    rels = draw(st.permutations(rels + draw(st.lists(_words(n, 8, min_size=1), max_size=4))))
    sub = draw(st.lists(_words(n, 6), max_size=2))
    return GroupPresentation([f"x{i}" for i in range(n)], rels), sub


@settings(max_examples=300, deadline=None)
@given(involution_inputs())
# under cap 40 the reference raises here, by the cosets its subgroup word
# walk defines before the drain that finds them equal
@example((parse_presentation("< x0, x1, x2 | x0 x1^-2 x2 x1 x2^2, x0^2,"
                             " x0 x1^-1 x0 x2 x0^-1 x2 >"),
          [Word([(1, 1), (1, -1)]), Word([(0, 1), (2, 1), (1, -1), (2, -1), (0, 1)])]))
def test_folded_involutions_match_reference(case):
    p, sub = case
    for caps in (Budget(max_cosets=300), Budget(max_cosets=40)):
        assert _enumeration(p, sub, caps) == _reference_enumeration(p, sub, caps)


@st.composite
def periodic_inputs(draw):
    # relators raised to powers, repeated, and beside involution squares
    n = draw(st.integers(1, 3))
    rels = [Word.gen(g, draw(st.sampled_from((1, -1)))) ** 2
            for g in range(n) if draw(st.booleans())]
    for w in draw(st.lists(_words(n, 6, min_size=1), max_size=4)):
        w = w ** draw(st.integers(1, 5))
        rels += [w] * draw(st.integers(1, 2))
    return GroupPresentation([f"x{i}" for i in range(n)], draw(st.permutations(rels)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(periodic_inputs(), enumeration_inputs().map(lambda case: case[0])))
@example(parse_presentation("< a, b | a^2, b^12, (a b)^2, (a b^-1 a b)^3 >"))
def test_scan_entries_equal_the_every_rotation_build(p):
    # set_columns takes only the first period(w) rotations of a column word
    # w; a folded involution can shorten the period of its column word
    for fold in (False, True):
        e = _Enumerator(p.n_generators, p.relators, Budget())
        e.set_columns(fold, [[None] for _ in range(2 * p.n_generators)])
        scans = [[(rot, tuple(map(id, fw)), tuple(map(id, bw)), last)
                  for rot, fw, bw, last in column] for column in e.edp]
        assert scans == scan_entries_reference(e, fold)


@pytest.mark.parametrize("cap", [2, 3, 4])
def test_subgroup_words_meet_the_cap_where_the_reference_does(cap):
    # before its drain, the walk of a^4 sees neither (0.a).a nor 0.a^-1,
    # so it defines 3 cosets where one self-inverse column needs 1: words
    # are scanned before the fold, and raise under caps 2 and 3 as well
    p = parse_presentation("< a | a^2 >")
    caps = Budget(max_cosets=cap)
    assert _enumeration(p, [A ** 4], caps) == _reference_enumeration(p, [A ** 4], caps)


@settings(max_examples=300, deadline=None)
@given(st.one_of(enumeration_inputs(), involution_inputs()))
@example(REPEATED_RELATOR)
def test_deductions_are_bounded_by_the_cosets_defined(case):
    # the bound in todd_coxeter's docstring that lets max_cosets stand for
    # a deduction cap; it holds for a run stopped by the cap as well
    p, sub = case
    e = _Enumerator(p.n_generators, p.relators, Budget(max_cosets=300))
    try:
        e.run(sub)
    except CapExceeded:
        pass
    assert e.deductions_done <= 4 * p.n_generators * e.n


@settings(max_examples=300, deadline=None)
@given(st.one_of(enumeration_inputs(), involution_inputs()))
# x0's folded column scans x0 x1 and its reflection x0 x1^-1: pushed from
# one end and scanning only x0 x1, 0.x1 = 1 would be left undeduced
@example((parse_presentation("< x0, x1 | x0^2, x0 x1, x0^2 >"), []))
def test_every_drain_leaves_no_relator_scan_open(case):
    # each drain must leave the deduction closure: no deduction pending
    # and no coincidence unfound, at any live coset, by a full rescan
    p, sub = case
    e = _Enumerator(p.n_generators, p.relators, Budget(max_cosets=60))
    drain = e.process_deductions

    def checked_drain():
        drain()
        assert open_relator_scans(e) == []

    e.process_deductions = checked_drain
    try:
        e.run(sub)
    except CapExceeded:
        pass


@pytest.mark.parametrize("case,done,reference_done", [
    (REPEATED_RELATOR, 9, 14),
    ((parse_presentation("< x0, x1 | x0^3 x1 x0^-1 x1^-1, x0^3 x1 x0^-1 x1^-1,"
                         " x0^2 x1^-1 x0 x1^-1, x0^2 x1^-1 x0 x1^-1 >"), []), 38, 36),
])
def test_deduction_count_after_coincidence(case, done, reference_done):
    # repeated rotations move the point where a coincidence is found, so
    # the count of processed deductions can change either way; rows cannot
    p, sub = case
    e = _Enumerator(p.n_generators, p.relators, Budget())
    rows = e.run(sub).rows
    assert e.deductions_done == done
    assert todd_coxeter_reference(p, sub, Budget()) == (rows, reference_done)


class PushLog(list):
    """Deduction stack that records each push, and whether a rotation
    starts at its column when it is pushed."""

    def __init__(self, e):
        super().__init__()
        self.e = e
        self.pushed = []

    def append(self, deduction):
        self.pushed.append((deduction, bool(self.e.edp[deduction[1]])))
        super().append(deduction)


def _logged_run(p, sub):
    e = _Enumerator(p.n_generators, p.relators, Budget())
    e.deductions = log = PushLog(e)
    rows = e.run(sub).rows
    assert rows == todd_coxeter_reference(p, sub, Budget())[0]
    assert all(scans for _, scans in log.pushed)
    return e, [d for d, _ in log.pushed]


def test_subgroup_fixed_point_is_pushed_once():
    # < a | a^2 > over <a>: the subgroup word sets 0.a = 0 before the fold,
    # and only the column that starts a rotation (a a) is pushed
    e, pushed = _logged_run(parse_presentation("< a | a^2 >"), [A])
    assert pushed == [(0, 0)]
    assert e.deductions_done == 1 and e.ncols == 1


def test_folded_fixed_point_is_pushed_once():
    # Z2 x Z2 over <b>: scanning (a b)^2 at 0 after 0.a = 1 finds 1.b = 1,
    # one slot of b's self-inverse column, pushed once
    e, pushed = _logged_run(parse_presentation("< a, b | a^2, b^2, (a b)^2 >"), [B])
    b = e.phys[2]
    assert e.ncols == 2 and b == e.inv[b]
    assert pushed.count((1, b)) == 1
    assert e.cols[b][1] == 1


@pytest.mark.parametrize("text,folded", [
    ("< a | a^2, a^2 >", True),  # a repeated square folds once
    ("< a | a^4 >", False),  # a^4 does not make a an involution
    ("< a | a^-2 >", True),
])
def test_only_a_square_relator_folds(text, folded):
    p = parse_presentation(text)
    for sub in ([], [A], [A * A.inverse() * A.inverse()]):
        e, _ = _logged_run(p, sub)
        assert e.ncols == (1 if folded else 2)
        assert bool(e.edp[0]) is not folded  # a folded square is never scanned


@pytest.mark.parametrize("sub", [[], [A], [B], [A.inverse() * B], [B * A.inverse() * A.inverse()]])
def test_inverse_letter_of_an_involution(sub):
    # a^-1 maps onto a's self-inverse column, in a relator and a subgroup word
    p = parse_presentation("< a, b | a^2, b^3, a b^-1 a^-1 b^-1 >")
    e, _ = _logged_run(p, sub)
    assert e.ncols == 3 and e.phys[:2] == [0, 0]


def test_nothing_skipped_or_folded_matches_reference_count():
    # Q8 on two aperiodic relators: no involution, no repeated rotation, and
    # a rotation starts at every column, so every filled slot is pushed and
    # the count of processed deductions is the reference's
    p = parse_presentation("< a, b | a b a b^-1, b a b a^-1 >")
    e, pushed = _logged_run(p, [])
    assert all(e.edp)
    assert e.deductions_done == len(pushed) == todd_coxeter_reference(p, [], Budget())[1] == 32


def coxeter_symmetric(n, perm=None, signs=None):
    """S_n on adjacent transpositions, with s_i written as generator perm[i]
    to the power signs[i]."""
    perm = perm or list(range(n - 1))
    signs = signs or [1] * (n - 1)
    s = [Word.gen(perm[i], signs[i]) for i in range(n - 1)]
    rels = [x ** 2 for x in s]
    rels += [(s[i] * s[i + 1]) ** 3 for i in range(n - 2)]
    rels += [(s[i] * s[j]) ** 2 for i in range(n - 1) for j in range(i + 2, n - 1)]
    return GroupPresentation([f"s{i + 1}" for i in range(n - 1)], rels), s


@pytest.mark.parametrize("n,perm,signs,sub_indices,index", [
    (6, None, None, [], 720),
    (6, None, None, [0, 2], 180),  # Young subgroup of type (2, 2, 1, 1)
    (5, [2, 0, 3, 1], [1, -1, -1, 1], [], 120),
    (5, [2, 0, 3, 1], [1, -1, -1, 1], [1, 2], 20),  # type (1, 3, 1)
])
def test_todd_coxeter_matches_reference_on_symmetric_groups(n, perm, signs, sub_indices,
                                                            index):
    p, s = coxeter_symmetric(n, perm, signs)
    sub = [s[i] for i in sub_indices]
    rows = _enumeration(p, sub)
    assert rows == _reference_enumeration(p, sub)
    assert len(rows) == index


@pytest.mark.parametrize("n,index,done", [(5, 120, 240), (6, 720, 1800), (7, 5040, 15120)])
def test_symmetric_group_deduction_counts(n, index, done):
    # no coincidence: each coset has an edge in each of the n - 1 folded
    # columns, n! (n - 1) / 2 edges in all, and each edge is pushed once,
    # from one end, so a change that pushes both ends or does not fold
    # moves the count
    p, _ = coxeter_symmetric(n)
    e = _Enumerator(p.n_generators, p.relators, Budget())
    assert e.run([]).n_cosets == index
    assert e.deductions_done == done


PSL27 = parse_presentation("< a, b | a^2, b^3, (a b)^7, (a b a b^-1)^4 >")


@pytest.mark.parametrize("p", [coxeter_symmetric(5)[0], PSL27], ids=["S5", "PSL27"])
def test_self_inverse_edge_is_pushed_from_one_end(p):
    e, pushed = _logged_run(p, [])
    cols, inv = e.cols, e.inv
    # no coset dies, so each pushed edge is still in the table
    assert all(e.p[c] == c for c in range(e.n))
    edges = [(c, frozenset((a, cols[c][a]))) for a, c in pushed if inv[c] == c]
    assert edges and len(set(edges)) == len(edges)


def test_folded_column_scans_each_rotation_with_its_reflection():
    # (a b)^7 reflects to (a b^-1)^7, which is no rotation of a relator;
    # (a b a b^-1)^4 is its own reflection
    e, _ = _logged_run(PSL27, [])
    a, inv = e.phys[0], e.inv
    scans = {rot for rot, *_ in e.edp[a]}
    words = [tuple(e.phys[x] for x in r.letters) for r in PSL27.relators]
    rotations = {w[i:] + w[:i] for w in words for i in range(len(w)) if w[i] == a} - {(a, a)}
    assert inv[a] == a and rotations < scans
    assert all((r[0],) + tuple(inv[x] for x in reversed(r[1:])) in scans for r in scans)


def _compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


@pytest.mark.parametrize("blocks", list(_compositions(6)), ids=str)
def test_young_subgroups_of_s6_match_reference(blocks):
    # the Young subgroup permutes each block of consecutive points, and is
    # generated by the adjacent transpositions inside the blocks
    p, s = coxeter_symmetric(6)
    starts = [sum(blocks[:k]) for k in range(len(blocks))]
    sub = [s[i] for start, size in zip(starts, blocks) for i in range(start, start + size - 1)]
    rows = _enumeration(p, sub)
    assert rows == _reference_enumeration(p, sub)
    assert len(rows) == math.factorial(6) // math.prod(map(math.factorial, blocks))


@st.composite
def finite_h1_presentations(draw):
    n = draw(st.integers(1, 3))
    rels = draw(st.lists(_words(n, 8, min_size=1), min_size=n, max_size=n + 2))
    p = GroupPresentation([f"x{i}" for i in range(n)], rels)
    order = abelianization(p).order()
    assume(order is not None and order <= 1000)
    return p


@settings(max_examples=250, deadline=None)
@given(finite_h1_presentations())
@example(Q8)
@example(parse_presentation("< a, b | a^6 b^4, a^-2 b^6 >"))
# a repeat ahead of a later relator: one column per occurrence numbers
# these 4 cosets otherwise
@example(parse_presentation("< x0, x1 | x0^3 x1^2, x0^3 x1^2, x0^3 x1^-2, x0^2 >"))
# no generators: one coset and an empty row
@example(GroupPresentation([], []))
# a perfect group: one coset, every column fixes it
@example(make("triangle", (2, 3, 5)))
# b's image is zero in every coordinate: its columns fix every coset
@example(parse_presentation("< a, b | a^4, b >"))
# 1,024 cosets over ten coordinates
@example(wide(10))
def test_commutator_table_from_torsion_rows(p):
    data = abelianization_data(p)
    for row, d in zip(data.torsion_rows, data.invariants.torsion):
        assert all(1 <= x < d for x in row.values())
    t = commutator_coset_table(p)
    assert t.n_cosets == data.invariants.order()
    verify_table(t, p)
    # the numbering fixes every later stage shape: it must not move.  The
    # reference has one matrix column per relator occurrence, so it reads
    # the relators with repeats dropped, p's own when they are distinct
    distinct = GroupPresentation(p.generator_names, dict.fromkeys(p.relators))
    assert t.rows == commutator_coset_table_reference(distinct)


def test_commutator_table_holds_one_int_per_coset():
    t = commutator_coset_table(wide(10))
    assert len({id(x) for row in t.rows for x in row}) == t.n_cosets
