from fractions import Fraction

from hypothesis import given, settings, strategies as st

import dense_linalg as oracle
from quivalg import linalg


def matrices(max_rows, max_cols, entries):
    """(dense matrix, column count); the count is drawn first, so 0-row and
    0-column shapes both occur."""
    return st.tuples(st.integers(0, max_rows), st.integers(0, max_cols)).flatmap(
        lambda shape: st.tuples(
            st.lists(st.lists(entries, min_size=shape[1], max_size=shape[1]),
                     min_size=shape[0], max_size=shape[0]),
            st.just(shape[1])))


small_matrices = matrices(4, 4, st.integers(-4, 4))
# wide rows that are mostly zero, as the commutation equations are
wide_matrices = matrices(7, 40, st.sampled_from([0] * 12 + [1, -1, 2, -3]))


@st.composite
def dependent_matrices(draw):
    """Rows that are integer combinations of a few base rows."""
    base, ncols = draw(matrices(3, 8, st.integers(-3, 3)))
    count = draw(st.integers(0, 6))
    rows = []
    for _ in range(count):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(ncols)])
    return rows, ncols


any_matrices = st.one_of(small_matrices, wide_matrices, dependent_matrices())


def test_rref_known():
    red = linalg.rref([{0: 2, 1: 4}, {0: 1, 1: 2}], 2)
    assert red == {0: {0: 1, 1: 2}}


def test_rank_and_nullspace_known():
    m = oracle.sparse([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert linalg.rank(m, 3) == 2
    ns = linalg.nullspace(m, 3)
    assert len(ns) == 1
    v = ns[0]
    for row in m:
        assert sum(x * v.get(j, 0) for j, x in row.items()) == 0


def test_empty_shapes():
    assert linalg.rank([], 0) == 0
    assert linalg.rref([{}, {}], 0) == {}
    assert linalg.nullspace([], 0) == []
    assert linalg.nullspace([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert linalg.quotient_maps([], 0) == (0, [], [])
    assert linalg.mat_mul([], [{0: 1}]) == []
    assert linalg.mat_mul([{}, {}], []) == [{}, {}]
    assert linalg.transpose([], 2) == [{}, {}]
    assert linalg.transpose([{}, {}], 0) == []


def test_zero_values_are_ignored():
    assert linalg.rref([{0: 0, 1: 2}, {1: 0}], 2) == {1: {1: 1}}


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_nullity(case):
    m, cols = case
    rows = oracle.sparse(m)
    assert linalg.rank(rows, cols) + len(linalg.nullspace(rows, cols)) == cols


@settings(max_examples=60, deadline=None)
@given(any_matrices)
def test_nullspace_vectors_lie_in_kernel(case):
    m, cols = case
    for v in linalg.nullspace(oracle.sparse(m), cols):
        for row in m:
            assert sum(a * v.get(j, 0) for j, a in enumerate(row)) == 0


@settings(max_examples=60, deadline=None)
@given(any_matrices)
def test_rref_idempotent(case):
    m, cols = case
    red = linalg.rref(oracle.sparse(m), cols)
    assert linalg.rref(list(red.values()), cols) == red


@settings(max_examples=100, deadline=None)
@given(any_matrices)
def test_rref_matches_dense_oracle(case):
    m, cols = case
    red = linalg.rref(oracle.sparse(m), cols)
    r, pivots = oracle.rref(m, cols)
    assert list(red) == pivots
    assert [oracle.dense(row, cols) for row in red.values()] == r[:len(pivots)]
    assert linalg.rank(oracle.sparse(m), cols) == oracle.rank(m, cols)


@settings(max_examples=100, deadline=None)
@given(any_matrices)
def test_echelon_pivots_and_rank_match_dense_oracle(case):
    """Forward reduction alone: each row is 1 at its pivot, its least
    column; the pivots are the dense RREF's and the inputs stay as they
    were."""
    m, cols = case
    rows = oracle.sparse(m)
    ech = linalg.echelon(rows, cols)
    _, pivots = oracle.rref(m, cols)
    assert sorted(ech) == pivots
    assert all(min(row) == p and row[p] == 1 and stores_no_zero([row]) for p, row in ech.items())
    assert linalg.rank(rows, cols) == oracle.rank(m, cols) == len(ech)
    assert rows == oracle.sparse(m)


@settings(max_examples=100, deadline=None)
@given(any_matrices)
def test_nullspace_matches_dense_oracle(case):
    m, cols = case
    got = [oracle.dense(v, cols) for v in linalg.nullspace(oracle.sparse(m), cols)]
    assert got == oracle.nullspace(m, cols)


@settings(max_examples=100, deadline=None)
@given(any_matrices, st.data())
def test_nullspace_coordinates_are_values_at_free_columns(case, data):
    """Each kernel vector is 1 at its last nonzero column, where every other
    one is 0; so a combination's coefficients are its values there."""
    m, cols = case
    basis = linalg.nullspace(oracle.sparse(m), cols)
    free = [max(v) for v in basis]
    assert free == sorted(set(free))
    for v in basis:
        assert [v.get(f, 0) for f in free] == [int(f == max(v)) for f in free]
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    combo = [sum(c * v.get(j, 0) for c, v in zip(coeffs, basis)) for j in range(cols)]
    assert [combo[f] for f in free] == coeffs


@settings(max_examples=100, deadline=None)
@given(any_matrices)
def test_quotient_maps_properties(case):
    rows, cols = case
    dim, proj, sect = linalg.quotient_maps(oracle.sparse(rows), cols)
    assert dim == cols - oracle.rank(rows, cols)
    assert len(proj) == cols and len(sect) == dim
    # the projection has the oracle's kernel basis as its columns
    kernel = linalg.transpose(proj, dim)
    assert [oracle.dense(v, cols) for v in kernel] == oracle.nullspace(rows, cols)
    # the section is a right inverse of the projection
    assert linalg.mat_mul(sect, proj) == linalg.identity(dim)
    # the row span projects to zero
    assert not any(linalg.mat_mul(oracle.sparse(rows), proj))


@st.composite
def product_cases(draw):
    """(a, b, k, c): dense a of shape r x k and b of shape k x c, mostly
    zero so that sums cancel."""
    r, k, c = draw(st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 5)))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2])
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r))
    b = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=k, max_size=k))
    return a, b, k, c


def stores_no_zero(mat):
    return all(x for row in mat for x in row.values())


@settings(max_examples=150, deadline=None)
@given(product_cases())
def test_sparse_products_match_dense_oracle(case):
    a, b, k, c = case
    sa, sb = oracle.sparse(a), oracle.sparse(b)
    results = {
        "mat_mul": (linalg.mat_mul(sa, sb), oracle.mat_mul(a, b, c), c),
        "transpose": (linalg.transpose(sa, k), [[row[j] for row in a] for j in range(k)], len(a)),
    }
    for name, (got, want, ncols) in results.items():
        assert stores_no_zero(got), name
        assert [oracle.dense(row, ncols) for row in got] == want, name
        assert (not any(got)) == all(not x for row in want for x in row), name
    # the inputs are left as they were
    assert (sa, sb) == (oracle.sparse(a), oracle.sparse(b))


def test_integers_stay_integers_without_pivot_division():
    red = linalg.rref([{0: 1, 2: 3}, {1: -1, 2: 4}], 3)
    assert all(type(x) is int for row in red.values() for x in row.values())
    assert linalg.rref([{0: 2, 1: 1}], 2) == {0: {0: 1, 1: Fraction(1, 2)}}
