import copy
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from permfiber.complexes import ChainComplex, homology_dims, page_dims
from permfiber.linalg import SparseMatrix, multiply, pivots, product_vanishes, rank

from oracles import dense_multiply, dense_rank, reference_pivots


def random_matrix(rng, nrows, ncols, density=0.5, values=(-1, 1)):
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                entries[(i, j)] = rng.choice(values)
    return SparseMatrix.from_entries(nrows, ncols, entries)


def test_rank_identity_and_zero():
    assert rank(SparseMatrix.identity(3)) == 3
    assert rank(SparseMatrix.zero(4, 6)) == 0
    assert rank(SparseMatrix.identity(5)) == 5
    assert rank(SparseMatrix.zero(3, 7)) == 0


def test_rank_matches_dense_oracle_on_random_sign_matrices():
    rng = random.Random(20240817)
    for _ in range(120):
        m = random_matrix(rng, rng.randint(1, 30), rng.randint(1, 30),
                          density=rng.choice([0.15, 0.4, 0.8]))
        assert rank(m) == dense_rank(m.dense())
    # sparse integer matrices and rank-deficient products: columns empty
    # and refill while they are eliminated
    values = (-3, -2, -1, 1, 2, 3)
    for _ in range(16):
        m = random_matrix(rng, rng.randint(20, 60), rng.randint(20, 60),
                          density=rng.uniform(0.05, 0.3), values=values)
        assert rank(m) == dense_rank(m.dense())
    for _ in range(10):
        inner = rng.randint(2, 12)
        a = random_matrix(rng, rng.randint(20, 60), inner,
                          density=rng.uniform(0.1, 0.3), values=values)
        b = random_matrix(rng, inner, rng.randint(20, 60),
                          density=rng.uniform(0.1, 0.3), values=values)
        m = multiply(a, b)
        assert rank(m) == dense_rank(m.dense()) <= inner


def test_product_vanishes_matches_dense_products():
    """Columns of a @ b, one at a time, against the triple loop; b often
    holds entries that meet no column of a, so both answers occur."""
    rng = random.Random(7)
    found = set()
    for _ in range(200):
        rows, inner, cols = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8)
        a = random_matrix(rng, rows, inner, density=rng.choice([0.1, 0.4]),
                          values=(-2, 1, Fraction(1, 2)))
        b = random_matrix(rng, inner, cols, density=0.3)
        product = dense_multiply(a.dense(), b.dense())
        chosen = rng.sample(range(cols), rng.randint(0, cols))
        want = all(product[i][j] == 0 for i in range(rows) for j in chosen)
        assert product_vanishes(a, b, chosen) is want
        found.add(want)
    assert found == {True, False}
    with pytest.raises(ValueError):
        product_vanishes(SparseMatrix.identity(2), SparseMatrix.identity(3), [0])


VALUES = st.sampled_from((-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3)))


def columns(draw, rows: int, count: int) -> list:
    """count columns over ``rows`` rows, each {row: nonzero value}."""
    return [draw(st.dictionaries(st.integers(0, rows - 1), VALUES, max_size=3))
            if rows else {} for _ in range(count)]


@st.composite
def kernel_cases(draw):
    """(a, b, cols) for ``product_vanishes``.  a holds the negation of one
    of its own columns, and some columns of b meet that pair with one
    value, so their product columns cancel to zero; ``cols`` lists
    columns of b in a drawn order, repeats allowed."""
    rows, inner = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    a_cols = columns(draw, rows, inner)
    twin = draw(st.integers(0, inner - 1))
    a_cols.append({i: -v for i, v in a_cols[twin].items()})
    a = SparseMatrix(rows, tuple(a_cols))
    b_cols = columns(draw, a.cols, draw(st.integers(0, 5)))
    for k in range(len(b_cols)):
        if draw(st.booleans()):
            value = draw(VALUES)
            b_cols[k] = {twin: value, inner: value}
    b = SparseMatrix(a.cols, tuple(b_cols))
    cols = draw(st.lists(st.integers(0, b.cols - 1), max_size=4)) if b.cols else []
    return a, b, cols


@settings(max_examples=300, derandomize=True, deadline=None)
@given(kernel_cases())
def test_product_vanishes_matches_dense_product_columns(case):
    """The kernel answers whether the listed columns of the triple-loop
    product a @ b are all zero, for int and Fraction entries, columns
    that cancel to zero and empty columns: over the columns that
    vanish, over every column, over a drawn list, and over the columns
    that vanish with one that does not listed last."""
    a, b, cols = case
    product = dense_multiply(a.dense(), b.dense())
    zero = [j for j in range(b.cols) if not any(row[j] for row in product)]
    for chosen in (zero, range(b.cols), cols):
        want = all(product[i][j] == 0 for i in range(a.rows) for j in chosen)
        assert product_vanishes(a, b, chosen) is want
    for j in sorted(set(range(b.cols)) - set(zero)):
        assert not product_vanishes(a, b, [*zero, j])


def test_reductions_leave_their_input_alone(perms, corpus_fibers):
    """pivots reduces a copy of each stored column, so no reduction or
    product changes a matrix, and a second reduction of the same
    matrices, or of a fresh complex over them, gives the same answer."""
    rng = random.Random(13)
    for _ in range(60):
        a = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10),
                          values=(-2, 1, 3, Fraction(1, 2)))
        b = random_matrix(rng, a.cols, rng.randint(1, 10))
        before = copy.deepcopy((a, b))
        rows, cols = rng.sample(range(a.rows), a.rows), rng.sample(range(a.cols), a.cols)
        first = pivots(a)
        permuted = pivots(a, rows, cols, cleared={cols[0]})
        rank(a)
        multiply(a, b)
        product_vanishes(a, b, range(b.cols))
        assert (a, b) == before
        assert pivots(a) == first
        assert pivots(a, rows, cols, cleared={cols[0]}) == permuted
    for c in (perms[4].complex, corpus_fibers["theta"].complex):
        before = copy.deepcopy(c.differentials)
        answers = []
        for _ in range(2):
            fresh = ChainComplex.build(c.basis, c.differentials, c.levels)
            answers.append((homology_dims(fresh), [page_dims(fresh, r) for r in range(3)]))
        assert answers[0] == answers[1]
        assert c.differentials == before


def test_pivots_pair_as_the_reference_reduction(perms, simplexes, corpus_fibers):
    """Pairing a column as it stands changes no pair: ``pivots`` gives
    the pairs of the reduction it replaced (``oracles.reference_pivots``)
    on random int and Fraction matrices, in random row and column orders
    with random cleared columns, and in the one reduction of P1-P6, of
    every corpus fiber and of the cones of its two maps."""
    from permfiber.complexes import _pairs, mapping_cone
    from permfiber.fiber import fiber_to_simplex, perm_to_fiber

    rng = random.Random(41)
    for _ in range(400):
        values = rng.choice([(-1, 1), (-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3))])
        m = random_matrix(rng, rng.randint(0, 12), rng.randint(0, 12),
                          density=rng.choice([0.15, 0.4, 0.7]), values=values)
        rows = rng.sample(range(m.rows), m.rows) if rng.random() < 0.5 else None
        cols = rng.sample(range(m.cols), m.cols) if rng.random() < 0.5 else None
        cleared = set(rng.sample(range(m.cols), rng.randint(0, m.cols // 2)))
        assert pivots(m, rows, cols, cleared) == reference_pivots(m, rows, cols, cleared)
    complexes = [perm.complex for perm in perms.values()]
    for fib in corpus_fibers.values():
        complexes += [fib.complex, mapping_cone(perm_to_fiber(fib, perms[fib.n])),
                      mapping_cone(fiber_to_simplex(fib, simplexes[fib.n]))]
    for c in complexes:
        order = {n: sorted(range(len(ps)), key=ps.__getitem__)
                 for n, ps in (c.levels or {}).items()}
        want: dict = {}
        for n in sorted(c.differentials, reverse=True):
            boundaries = {row for row, _ in want.get(n + 1, ())}
            want[n] = reference_pivots(c.differentials[n], order.get(n - 1), order.get(n),
                                       boundaries)
        assert _pairs(c) == want


def test_dense_and_sparse_paths_agree():
    rng = random.Random(99)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 20), rng.randint(1, 20),
                          density=0.5, values=(-2, -1, 1, 2, 3))
        if m.is_zero():
            continue
        assert rank(m) == dense_rank(m.dense())


def test_rank_of_rational_entries():
    m = SparseMatrix.from_entries(2, 2, {
        (0, 0): Fraction(1, 2), (0, 1): Fraction(1, 3),
        (1, 0): Fraction(3, 2), (1, 1): Fraction(1, 1)})
    assert rank(m) == dense_rank(m.dense())


def test_rank_bounds_and_permutation_invariance():
    rng = random.Random(5)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(2, 12), rng.randint(2, 12))
        r = rank(m)
        assert r <= min(m.rows, m.cols)
        rows = list(range(m.rows))
        cols = list(range(m.cols))
        rng.shuffle(rows)
        rng.shuffle(cols)
        permuted = SparseMatrix.from_entries(
            m.rows, m.cols,
            {(rows[i], cols[j]): v for (i, j), v in m.items()})
        assert rank(permuted) == r


def test_rank_of_product_bounded_by_factor_ranks():
    rng = random.Random(11)
    for _ in range(30):
        a = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        b = random_matrix(rng, a.cols, rng.randint(1, 10))
        assert rank(multiply(a, b)) <= min(rank(a), rank(b))


def test_multiply_against_triple_loop_oracle():
    rng = random.Random(31)
    for _ in range(50):
        a = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        b = random_matrix(rng, a.cols, rng.randint(1, 8))
        assert multiply(a, b).dense() == dense_multiply(a.dense(), b.dense())


def test_rank_of_map_matrices_is_their_row_count(perms, simplexes, corpus_fibers):
    """The blow-down and perm->fiber matrices of P3-P5 are onto, so their
    rank, the number of ``pivots``, is their row count; on matrices whose
    one-entry columns miss a row it still agrees with the dense oracle."""
    from permfiber.fiber import perm_to_fiber
    from permfiber.polytopes import perm_to_simplex

    maps = [perm_to_simplex(perms[n], simplexes[n]) for n in (3, 4, 5)]
    maps += [perm_to_fiber(fib, perms[fib.n]) for fib in corpus_fibers.values()
             if 3 <= fib.n <= 5]
    checked = 0
    for f in maps:
        for r, m in f.matrices.items():
            assert rank(m) == m.rows == f.target.dim(r + f.shift), (f.note, r)
            assert rank(m) == dense_rank(m.dense()), (f.note, r)
            checked += 1
    assert checked > 30
    fallbacks = [
        # one-entry columns miss row 2; a two-entry column completes the rank
        SparseMatrix(3, ({0: 1}, {1: -2}, {1: 1, 2: Fraction(3, 2)})),
        # more one-entry columns than rows, but they repeat rows 0 and 1
        SparseMatrix(3, ({0: 1}, {0: -1}, {1: 2}, {1: 1}, {0: 1, 1: 1})),
        SparseMatrix.zero(0, 3),
    ]
    for m in fallbacks:
        assert rank(m) == dense_rank(m.dense())


def test_multiply_identity_and_zero():
    rng = random.Random(3)
    m = random_matrix(rng, 5, 7)
    assert multiply(SparseMatrix.identity(5), m) == m
    assert multiply(m, SparseMatrix.zero(7, 4)).is_zero()


def test_multiply_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        multiply(SparseMatrix.identity(2), SparseMatrix.identity(3))


def test_integral_entries_are_stored_as_int():
    m = SparseMatrix.from_entries(2, 2, {(0, 0): Fraction(4, 2), (0, 1): Fraction(1, 2),
                                         (1, 0): -3})
    assert type(m.get(0, 0)) is int and m.get(0, 0) == 2
    assert type(m.get(0, 1)) is Fraction and m.get(0, 1) == Fraction(1, 2)
    assert type(m.get(1, 0)) is int
    assert type(m.get(1, 1)) is int and m.get(1, 1) == 0
    assert all(type(v) is int for _, v in SparseMatrix.identity(3).items())
    thirds = SparseMatrix.from_entries(1, 1, {(0, 0): Fraction(2, 3)})
    halves = SparseMatrix.from_entries(1, 1, {(0, 0): Fraction(3, 2)})
    assert type(multiply(thirds, halves).get(0, 0)) is int


def test_shipped_differentials_have_int_entries(perms, simplexes, corpus_fibers):
    complexes = ([perms[n].complex for n in perms]
                 + [simplexes[n].complex for n in simplexes]
                 + [fib.complex for fib in corpus_fibers.values()])
    for c in complexes:
        for r in c.degrees():
            assert all(type(v) is int for _, v in c.d(r).items())


def test_no_zero_entries_stored():
    a = SparseMatrix.from_entries(2, 2, {(0, 0): 1, (0, 1): 1})
    b = SparseMatrix.from_entries(2, 2, {(0, 0): 1, (1, 0): -1})
    assert 0 not in multiply(a, b).columns[0]
    assert SparseMatrix.from_entries(2, 2, {(1, 1): 0}).is_zero()


def test_inexact_entries_are_refused_not_rounded():
    """A float used to become the Fraction nearest it (0.1 became
    3602879701896397/36028797018963968) and a bool an int."""
    for value, kind in ((0.1, "float"), (1.0, "float"), (True, "bool"), ("1", "str")):
        with pytest.raises(ValueError, match=rf"^entry \(1,0\) is {re.escape(repr(value))}, "
                                             rf"of type {kind}, not int or Fraction$"):
            SparseMatrix.from_entries(2, 2, {(0, 0): 1, (1, 0): value})
    m = SparseMatrix.from_entries(1, 2, {(0, 0): Fraction(6, 3), (0, 1): Fraction(1, 3)})
    assert m.columns == ({0: 2}, {0: Fraction(1, 3)}) and type(m.get(0, 0)) is int


def test_out_of_range_entry_rejected():
    with pytest.raises(ValueError):
        SparseMatrix.from_entries(2, 2, {(2, 0): 1})


def test_dense_threshold_crossover_consistency():
    # identical matrix, alone and zero-padded to 69x69
    rng = random.Random(77)
    small = random_matrix(rng, 12, 12, density=0.4)
    big_entries = dict(small.items())
    n = 69
    big = SparseMatrix.from_entries(n, n, big_entries)
    assert rank(big) == rank(small)


def test_perm3_degree_one_differential_rank_matches_oracle(perms):
    d1 = perms[3].complex.d(1)
    assert (d1.rows, d1.cols) == (6, 6)
    assert rank(d1) == dense_rank(d1.dense())


def test_perm4_kernel_dim_matches_rank_oracle(perms):
    d2 = perms[4].complex.d(2)
    assert d2.cols - rank(d2) == d2.cols - dense_rank(d2.dense())


def test_corpus_matrices_match_dense_oracle(perms, corpus_fibers, simplexes):
    # every differential of the shipped complexes that fits in 200x200
    matrices = []
    for n in range(1, 5):
        c = perms[n].complex
        matrices += [c.d(r) for r in c.degrees()]
    for n in range(1, 8):
        c = simplexes[n].complex
        matrices += [c.d(r) for r in c.degrees()]
    for fib in corpus_fibers.values():
        c = fib.complex
        matrices += [c.d(r) for r in c.degrees()]
    checked = 0
    for m in matrices:
        if 0 < m.rows <= 200 and 0 < m.cols <= 200:
            assert rank(m) == dense_rank(m.dense())
            checked += 1
    assert checked > 40
