import copy
import pickle
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sheafcalc.errors import SheafcalcError
from sheafcalc.rationals import (
    RationalMatrix, block_assemble, decompose, matmul, rational, solve)

from util import dense_decompose, dense_matmul


# ---------------------------------------------------------------- oracles

def det(rows):
    """Laplace-expansion determinant, independent of the library code."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det(minor)
    return total


def rank_by_minors(rows, cols, data):
    """Rank = size of the largest square submatrix with nonzero determinant."""
    grid = [[data[r * cols + c] for c in range(cols)] for r in range(rows)]
    for k in range(min(rows, cols), 0, -1):
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[grid[r][c] for c in csel] for r in rsel]
                if det(sub) != 0:
                    return k
    return 0


# ------------------------------------------------------------ scalar form

def test_rational_canonical_forms():
    assert rational("0.5") == Fraction(1, 2)
    assert rational("1/2") == rational("2/4") == Fraction(1, 2)
    assert rational("7.5") == Fraction(15, 2)
    assert rational("-3/6") == Fraction(-1, 2)
    assert rational("-3/6").denominator > 0
    assert rational(Fraction(4, -8)) == Fraction(-1, 2)
    assert rational(3) == Fraction(3)
    with pytest.raises(TypeError):
        rational(0.5)  # floats are not exact inputs


# ---------------------------------------------------------------- product

def test_matmul_hand_example():
    a = RationalMatrix.from_rows([[1, 2], [3, 4]])
    b = RationalMatrix.from_rows([["1/2", 0], [1, -1]])
    assert matmul(a, b) == RationalMatrix.from_rows([["5/2", -2], ["11/2", -4]])


def test_matmul_through_empty_is_zero():
    a = RationalMatrix.zero(3, 0)
    b = RationalMatrix.zero(0, 2)
    prod = matmul(a, b)
    assert (prod.rows, prod.cols) == (3, 2)
    assert prod.is_zero()


def test_unparsable_rational_strings_refused():
    for text in ("x", "1/0", ""):
        with pytest.raises(SheafcalcError, match="not a rational"):
            rational(text)


def test_out_of_range_cells_refused():
    a = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(SheafcalcError, match="no entry"):
        a.entry(0, 3)
    with pytest.raises(SheafcalcError, match="no row"):
        a.row(2)
    with pytest.raises(SheafcalcError, match="no column"):
        a.column(3)


def test_matmul_shape_mismatch_rejected():
    a = RationalMatrix.zero(2, 3)
    with pytest.raises(SheafcalcError):
        matmul(a, RationalMatrix.zero(2, 2))


# -------------------------------------------------------------- decompose

def test_decompose_hand_example():
    m = RationalMatrix.from_rows([[1, 1], [2, 2]])
    dec = decompose(m)
    assert dec.rank == 1
    assert dec.kernel_basis == ((Fraction(-1), Fraction(1)),)
    assert dec.image_basis == ((Fraction(1), Fraction(2)),)
    assert dec.rref == RationalMatrix.from_rows([[1, 1], [0, 0]])


def test_decompose_empty_shapes():
    wide = decompose(RationalMatrix.zero(0, 3))
    assert wide.rank == 0
    assert len(wide.kernel_basis) == 3           # everything is kernel
    assert wide.image_basis == ()
    tall = decompose(RationalMatrix.zero(3, 0))
    assert tall.rank == 0
    assert tall.kernel_basis == ()
    assert tall.image_basis == ()


small_entries = st.integers(min_value=-4, max_value=4).map(Fraction)


@st.composite
def small_matrices(draw, max_dim=4):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    data = draw(st.lists(small_entries, min_size=rows * cols,
                         max_size=rows * cols))
    return RationalMatrix(rows, cols, data)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_decompose_rank_matches_minor_oracle(m):
    dec = decompose(m)
    assert dec.rank == rank_by_minors(m.rows, m.cols, m.data)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_decompose_structural_properties(m):
    dec = decompose(m)
    assert dec.rank + len(dec.kernel_basis) == m.cols
    assert len(dec.image_basis) == dec.rank
    for v in dec.kernel_basis:
        assert all(x == 0 for x in m.apply(v))
    original_columns = {m.column(j) for j in range(m.cols)}
    for col in dec.image_basis:
        assert col in original_columns
    # rref is a fixed point of reduction
    assert decompose(dec.rref).rref == dec.rref


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_decompose_reports_the_rref_pivots(m):
    dec = decompose(m)
    assert len(dec.pivots) == dec.rank
    assert list(dec.pivots) == sorted(set(dec.pivots))
    for i, pc in enumerate(dec.pivots):
        row = dec.rref.row(i)
        assert row[pc] == 1 and all(x == 0 for x in row[:pc])
        assert dec.image_basis[i] == m.column(pc)
    for i in range(dec.rank, m.rows):
        assert all(x == 0 for x in dec.rref.row(i))


# ------------------------------------------------- against the dense oracle

nonzero_entries = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.integers(min_value=1, max_value=5))


@st.composite
def sparse_matrices(draw, rows=None, cols=None, max_dim=8):
    """Mostly-zero matrices with non-integer entries, some rows being
    combinations of earlier ones; 0 x n and n x 0 shapes included."""
    if rows is None:
        rows = draw(st.integers(min_value=0, max_value=max_dim))
    if cols is None:
        cols = draw(st.integers(min_value=0, max_value=max_dim))
    zero_cut = draw(st.sampled_from((6, 8, 9)))  # P(zero) 0.6, 0.8, 0.9
    cell = st.tuples(st.integers(min_value=0, max_value=9), nonzero_entries).map(
        lambda t: Fraction(0) if t[0] < zero_cut else t[1])
    grid = []
    for _ in range(rows):
        if grid and draw(st.booleans()):
            picks = draw(st.lists(
                st.tuples(st.integers(min_value=0, max_value=len(grid) - 1),
                          nonzero_entries),
                min_size=1, max_size=3))
            grid.append([sum((f * grid[i][j] for i, f in picks), start=Fraction(0))
                         for j in range(cols)])
        else:
            grid.append(draw(st.lists(cell, min_size=cols, max_size=cols)))
    return RationalMatrix(rows, cols, [x for row in grid for x in row])


def assert_same_decomposition(got, want):
    assert got.rank == want.rank
    assert got.pivots == want.pivots
    assert got.rref == want.rref
    assert got.kernel_basis == want.kernel_basis
    assert got.image_basis == want.image_basis
    assert repr(got) == repr(want)  # same types too: Fractions, never ints


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_decompose_equals_dense_oracle(m):
    assert_same_decomposition(decompose(m), dense_decompose(m))


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.data())
def test_matmul_equals_dense_oracle(a, data):
    b = data.draw(sparse_matrices(rows=a.cols))
    got, want = matmul(a, b), dense_matmul(a, b)
    assert got == want
    assert repr(got.data) == repr(want.data)


def assert_stored_canonically(m):
    """No stored row holds a zero, and m is the matrix its dense view
    builds, hash included."""
    assert len(m._rows) == m.rows
    assert all(x != 0 and 0 <= j < m.cols for r in m._rows for j, x in r.items())
    dense = RationalMatrix(m.rows, m.cols, m.data)
    assert m == dense
    assert hash(m) == hash(dense)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.data())
def test_every_way_of_building_a_matrix_stores_only_nonzeros(m, data):
    other = data.draw(sparse_matrices(rows=m.rows, cols=m.cols))
    right = data.draw(sparse_matrices(rows=m.cols))
    k = data.draw(st.one_of(st.just(Fraction(0)), nonzero_entries))
    before = (m.data, other.data, right.data)
    # [m | m] @ [right; -right] is zero, every product cancelling
    twice = block_assemble({(0, 0): m, (0, 1): m}, [m.rows], [m.cols, m.cols])
    both = block_assemble({(0, 0): right, (1, 0): -right},
                          [m.cols, m.cols], [right.cols])
    built = [
        m,
        RationalMatrix.from_rows(m.row_lists(), cols=m.cols),
        RationalMatrix.zero(m.rows, m.cols),
        RationalMatrix.identity(m.cols),
        m.transpose(),
        m + other, m + (-m), m - other, m - m, -m,
        m.scale(k), m.scale(0),
        m @ right, twice @ both, twice, both,
        decompose(m).rref,
    ]
    for got in built:
        assert_stored_canonically(got)
    assert (m.data, other.data, right.data) == before  # operands untouched


def test_products_that_cancel_store_no_zero():
    # the first row of the product cancels to zero and stores nothing,
    # so the delta-squared check can ask is_zero()
    a = RationalMatrix.from_rows([[1, 1], [0, 2]])
    b = RationalMatrix.from_rows([[1], [-1]])
    prod = matmul(a, b)
    assert prod._rows == ({}, {0: -2})
    assert prod == RationalMatrix.from_rows([[0], [-2]])
    assert matmul(RationalMatrix.from_rows([[1, 1]]), b).is_zero()


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_copies_and_pickles_rebuild_the_same_matrix(m):
    for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert clone == m
        assert hash(clone) == hash(m)
        assert repr(clone) == repr(m)
        assert_stored_canonically(clone)
        with pytest.raises(AttributeError, match="immutable"):
            clone.rows = m.rows + 1


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.data())
def test_apply_equals_dense_oracle(m, data):
    column = data.draw(sparse_matrices(rows=m.cols, cols=1))
    got = m.apply(column.data)
    want = dense_matmul(m, column).data
    assert repr(got) == repr(want)


# ------------------------------------------------------------------ solve

def test_solve_consistent_and_not():
    a = RationalMatrix.from_rows([[1, 2], [2, 4]])
    assert solve(a, [1, 2]) is not None
    x = solve(a, [1, 2])
    assert a.apply(x) == (Fraction(1), Fraction(2))
    assert solve(a, [1, 3]) is None


def test_solve_single_variable_overdetermined():
    # 3x = 1 and x = 1 cannot hold together
    a = RationalMatrix.from_rows([[3], [1]])
    assert solve(a, [1, 1]) is None
    assert solve(a, [3, 1]) == (Fraction(1),)


@settings(max_examples=60, deadline=None)
@given(small_matrices(), st.data())
def test_solve_agrees_with_rank_test(a, data):
    b = data.draw(st.lists(small_entries, min_size=a.rows, max_size=a.rows))
    aug = RationalMatrix.from_rows(
        [list(a.row(i)) + [b[i]] for i in range(a.rows)], cols=a.cols + 1)
    x = solve(a, b)
    consistent = decompose(aug).rank == decompose(a).rank
    assert (x is not None) == consistent
    if x is not None:
        assert a.apply(x) == tuple(b)
    # the particular solution read off the dense oracle's rref of [A | b]:
    # free variables 0, pivot variables the augmented column
    oracle = dense_decompose(aug)
    if a.cols in oracle.pivots:
        want = None
    else:
        want = [Fraction(0)] * a.cols
        for i, pc in enumerate(oracle.pivots):
            want[pc] = oracle.rref.entry(i, a.cols)
        want = tuple(want)
    assert repr(x) == repr(want)


def test_solve_rejects_wrong_length_rhs():
    a = RationalMatrix.from_rows([[1, 0], [0, 1]])
    for b in ([1], [1, 2, 3]):
        with pytest.raises(SheafcalcError):
            solve(a, b)


# --------------------------------------------------------------- assembly

def test_block_assemble_with_gaps():
    top = RationalMatrix.from_rows([[1, 2], [3, 4]])
    side = RationalMatrix.from_rows([[5], [6]])
    out = block_assemble({(0, 0): top, (1, 1): side},
                         row_dims=[2, 2], col_dims=[2, 1])
    assert out == RationalMatrix.from_rows([
        [1, 2, 0],
        [3, 4, 0],
        [0, 0, 5],
        [0, 0, 6],
    ])


def test_block_assemble_checks_shapes():
    with pytest.raises(SheafcalcError):
        block_assemble({(0, 0): RationalMatrix.zero(1, 1)},
                       row_dims=[2], col_dims=[2])


def test_block_assemble_empty_blocks_contribute_shape():
    out = block_assemble({}, row_dims=[0, 2], col_dims=[3, 0])
    assert (out.rows, out.cols) == (2, 3)
    assert out.is_zero()
