import copy
import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sheafcalc.cellsheaf import Assignment, extend, global_section_space
from sheafcalc.cohomology import bayes_build, coboundary
from sheafcalc.complexes import boundary_matrix
from sheafcalc.errors import SheafcalcError
from sheafcalc.rationals import (
    DIGIT_LIMIT, RationalMatrix, _reduced, _rref, block_assemble, decompose,
    matmul, rational, solve)

from util import (
    assert_primitive_echelon, binary_chain, constant_sheaf, dense_decompose,
    dense_matmul, grid_complex, random_bayes_model, random_complex,
    random_valid_sheaf, stored_rows)


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


def test_rational_strings_past_the_digit_limit_refused_quickly():
    """The exponent is read before any power of ten is built, and the
    value's numerator and denominator, and every run of digits, are held
    to DIGIT_LIMIT digits."""
    edge = DIGIT_LIMIT - 1
    assert rational(f"1e{edge}") == 10 ** edge
    assert rational(f"-1e-{edge}") == Fraction(-1, 10 ** edge)
    assert rational(f"0.0001e{edge + 3}") == 10 ** (edge - 1)
    assert rational("1" * DIGIT_LIMIT + "/" + "1" * DIGIT_LIMIT) == 1
    for text in (f"1e{DIGIT_LIMIT}", f"1e-{DIGIT_LIMIT}", "1e100000",
                 "1e-999999999", "1e-1000000", "-2.5E+99_999_999",
                 "1e" + "9" * 5000, "0e999999999", "1" * (DIGIT_LIMIT + 1),
                 "0." + "0" * DIGIT_LIMIT + "1", "0_" * DIGIT_LIMIT + "1"):
        start = time.perf_counter()
        with pytest.raises(SheafcalcError, match=f"more than {DIGIT_LIMIT} digits"):
            rational(text)
        assert time.perf_counter() - start < 1.0, text


def test_digit_limit_ignores_the_interpreter_setting():
    # 0 lifts the interpreter's integer-string limit; 4300 is its default
    code = ("from sheafcalc.rationals import rational\n"
            "for text in ('1' * 4301, '1' * 4300 + 'e1', '1e-4300'):\n"
            "    try:\n        rational(text)\n"
            "    except ValueError as err:\n        print(err)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": digits},
        check=True).stdout for digits in ("0", "4300", "100000")}
    (output,) = outputs
    assert [line.endswith("has more than 4300 digits")
            for line in output.splitlines()] == [True] * 3


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


def assert_storage_form(entries):
    """Every stored entry is nonzero, and an int (never a bool) when
    integral, else a Fraction with denominator > 1; never a float."""
    for x in entries:
        assert x != 0
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1), repr(x)


def assert_canonical(m):
    """m's one stored form is canonical: a (d, int row) pair per row,
    every column in range, no zero stored, every entry an int (never a
    bool), each d > 0 the least common denominator of the row it stands
    for, so gcd(d, row) = 1, and d = 1 for an empty row."""
    assert len(m._dens) == len(m._int_rows) == m.rows
    for d, r in zip(m._dens, m._int_rows):
        assert type(d) is int and d > 0, d
        assert all(type(c) is int and 0 <= c < m.cols for c in r), r
        assert all(type(x) is int and x for x in r.values()), r
        assert gcd(d, *r.values()) == 1, (d, r)
        assert d == lcm(*[Fraction(x, d).denominator for x in r.values()]), (d, r)


def assert_stored_canonically(m):
    """m is stored canonically, the rows it stands for hold only entries
    in storage form, and m is the matrix its dense view builds, hash
    included."""
    assert_canonical(m)
    assert_storage_form(x for r in stored_rows(m) for x in r.values())
    dense = RationalMatrix(m.rows, m.cols, m.data)
    assert m == dense
    assert hash(m) == hash(dense)


def assert_reductions_stored_canonically(m):
    """The echelon form of m's rows holds primitive int rows, and their
    rref holds stored entries."""
    reduced = _reduced(m)
    assert_primitive_echelon(reduced)
    assert_storage_form(x for rest in _rref(reduced).values() for x in rest.values())


integral_entries = st.integers(min_value=-3, max_value=3).map(Fraction)


@st.composite
def mixed_matrices(draw, rows=None, cols=None):
    """sparse_matrices, or a matrix of small integers, its cells given to
    the constructor as Fractions, ints, bools or strings."""
    if draw(st.booleans()):
        m = draw(sparse_matrices(rows=rows, cols=cols))
    else:
        if rows is None:
            rows = draw(st.integers(min_value=0, max_value=5))
        if cols is None:
            cols = draw(st.integers(min_value=0, max_value=5))
        m = RationalMatrix(rows, cols, draw(st.lists(
            integral_entries, min_size=rows * cols, max_size=rows * cols)))

    def spelled(x):
        forms = [x, str(x)]
        if x.denominator == 1:
            forms.append(int(x))
        if x in (0, 1):
            forms.append(bool(x))
        return draw(st.sampled_from(forms))

    return RationalMatrix(m.rows, m.cols, [spelled(x) for x in m.data])


@settings(max_examples=150, deadline=None)
@given(mixed_matrices(), st.data())
def test_every_way_of_building_a_matrix_stores_only_nonzeros(m, data):
    other = data.draw(mixed_matrices(rows=m.rows, cols=m.cols))
    right = data.draw(mixed_matrices(rows=m.cols))
    k = data.draw(st.one_of(st.just(Fraction(0)), nonzero_entries,
                            integral_entries, st.integers(-3, 3)))
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
        m.scale(k), m.scale(0), m.scale(-1), m.scale(Fraction(2)),
        m @ right, twice @ both, twice, both,
        decompose(m).rref,
    ]
    for got in built:
        assert_stored_canonically(got)
    for got in (m, other, m @ right, m.transpose()):
        assert_reductions_stored_canonically(got)
    assert (m.data, other.data, right.data) == before  # operands untouched


def test_library_built_matrices_are_stored_canonically():
    # boundary matrices, coboundaries, and the Bayes marginalization and
    # conditional matrices are built through the trusted constructor
    rng = random.Random(24)
    matrices = []
    for _ in range(30):
        base = random_complex(rng)
        matrices += [boundary_matrix(base, k) for k in range(1, base.dimension() + 1)]
        for s in (constant_sheaf(base), random_valid_sheaf(rng, base)):
            matrices += [coboundary(s, k) for k in range(base.dimension() + 1)]
    for m in [binary_chain(4)] + [random_bayes_model(rng) for _ in range(20)]:
        a = bayes_build(m)
        matrices += list(a.cosheaf.restriction.values())
        matrices += list(a.sheaf.restriction.values())
    for m in matrices:
        assert_stored_canonically(m)
        assert_reductions_stored_canonically(m)


def assert_fractions(values):
    values = list(values)
    assert all(type(x) is Fraction for x in values), values


@settings(max_examples=100, deadline=None)
@given(mixed_matrices(), st.data())
def test_every_public_view_returns_fractions(m, data):
    vec = data.draw(st.lists(st.integers(-3, 3), min_size=m.cols, max_size=m.cols))
    assert_fractions(m.data)
    assert_fractions(m.entry(i, j) for i in range(m.rows) for j in range(m.cols))
    assert_fractions(x for i in range(m.rows) for x in m.row(i))
    assert_fractions(x for j in range(m.cols) for x in m.column(j))
    assert_fractions(x for row in m.row_lists() for x in row)
    assert_fractions(m.apply(vec))
    dec = decompose(m)
    assert_fractions(x for v in dec.kernel_basis + dec.image_basis for x in v)
    assert_fractions(dec.rref.data)
    assert_fractions(solve(m, m.apply(vec)))
    # a leaked int would print as "1", not "Fraction(1, 1)"
    assert repr(dec) == repr(dense_decompose(m))


def test_sections_and_extensions_hold_fractions():
    # the constant sheaf stores every map as the int 1, and a seed given
    # as ints is carried through int arithmetic
    base = grid_complex(3, holes=[(1, 1)])
    s = constant_sheaf(base)
    first, last = base.k_faces(0)[0], base.k_faces(0)[-1]
    space = global_section_space(s)
    ok = extend(s, Assignment({first: (2,)}))
    bad = extend(s, Assignment({first: (1,), last: (2,)}))
    assert ok.ok and not bad.ok
    for a in space.basis + (ok.result, bad.propagated):
        assert_fractions(x for v in a.vectors.values() for x in v)


def test_products_that_cancel_store_no_zero():
    # the first row of the product cancels to zero and stores nothing,
    # so the delta-squared check can ask is_zero()
    a = RationalMatrix.from_rows([[1, 1], [0, 2]])
    b = RationalMatrix.from_rows([[1], [-1]])
    prod = matmul(a, b)
    assert stored_rows(prod) == ({}, {0: -2})
    assert prod == RationalMatrix.from_rows([[0], [-2]])
    assert matmul(RationalMatrix.from_rows([[1, 1]]), b).is_zero()


def _round_trips(m):
    return copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))


# every view a caller can take of a matrix, each asked of a fresh product
MATRIX_VIEWS = {
    "data": lambda m: m.data,
    "entry": lambda m: [m.entry(i, j) for i in range(m.rows) for j in range(m.cols)],
    "row": lambda m: [m.row(i) for i in range(m.rows)],
    "column": lambda m: [m.column(j) for j in range(m.cols)],
    "row_lists": lambda m: m.row_lists(),
    "repr": repr,
    "eq": lambda m: m,
    "hash": hash,
    "transpose": lambda m: (m.transpose(), repr(m.transpose())),
    "is_zero": lambda m: m.is_zero(),
    "round trips": lambda m: [(c, hash(c), repr(c)) for c in _round_trips(m)],
}


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.data())
def test_a_product_and_the_checked_constructor_agree_in_every_view(a, data):
    b = data.draw(sparse_matrices(rows=a.cols))
    want = RationalMatrix(a.rows, b.cols, dense_matmul(a, b).data)
    for name, view in MATRIX_VIEWS.items():
        got = matmul(a, b)
        assert view(got) == view(want), name
    for one, other in [(matmul(a, b), want), (want, matmul(a, b))]:
        assert one == other and hash(one) == hash(other)


def test_every_slot_of_a_matrix_is_immutable():
    # a product and a checked matrix
    a = RationalMatrix.from_rows([["1/2", 3], [0, "-2/3"]])
    for m in (matmul(a, a), a):
        before = (m.rows, m.cols, m._dens, m._int_rows)
        for name in ("rows", "cols", "_dens", "_int_rows"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(m, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(m, name)
        assert (m.rows, m.cols, m._dens, m._int_rows) == before


def test_a_chain_of_five_fractional_products_keeps_least_int_rows():
    # matmul divides each product row by the gcd of its denominator and
    # its sums, so a product's int rows hold d * row with d the row's
    # least common denominator, the int rows the checked constructor's
    # matrix gets: no int exceeds d times the row's largest entry, however
    # long the chain.  A map and its inverse, alternated, end at the
    # identity with the int rows of the identity.
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 4)
        maps = [RationalMatrix(n, n, [
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n * n)])
            for _ in range(5)]
        chain = maps[0]
        for m in maps[1:]:
            chain = chain @ m
            stored = RationalMatrix(n, n, chain.data)
            assert (chain._dens, chain._int_rows) == (stored._dens, stored._int_rows)
    twist = RationalMatrix.from_rows([["2/3", 0, "5/7"], [0, "-9/4", 0], [0, 0, "3/11"]])
    undo = RationalMatrix.from_rows([["3/2", 0, "-55/14"], [0, "-4/9", 0], [0, 0, "11/3"]])
    chain = twist
    for m in (undo, twist, undo, twist, undo):
        chain = chain @ m
    assert (chain._dens, chain._int_rows) == ((1, 1, 1), ({0: 1}, {1: 1}, {2: 1}))
    assert chain == RationalMatrix.identity(3)


@settings(max_examples=150, deadline=None)
@given(mixed_matrices(), st.data())
def test_every_path_leaves_each_matrix_canonical(m, data):
    # each pair is one matrix built two ways; both must be canonical, and
    # canonical forms of equal matrices are equal int rows and hashes
    other = data.draw(mixed_matrices(rows=m.rows, cols=m.cols))
    k = data.draw(st.one_of(st.just(Fraction(0)), nonzero_entries, st.integers(-3, 3)))
    b = data.draw(sparse_matrices(rows=m.cols, max_dim=5))
    c = data.draw(sparse_matrices(rows=b.cols, max_dim=5))
    zero = RationalMatrix.zero(m.rows, m.cols)

    def dense(x):
        return RationalMatrix(x.rows, x.cols, x.data)

    def product(*factors):
        out = factors[0]
        for f in factors[1:]:
            out = dense_matmul(out, f)
        return out

    wide = [x + y for x, y in zip(m.row_lists(), other.row_lists())]
    pairs = [
        (RationalMatrix(m.rows, m.cols, [str(x) for x in m.data]), m),
        (RationalMatrix.from_rows(m.row_lists(), cols=m.cols), m),
        (RationalMatrix.identity(m.rows) @ m, m @ RationalMatrix.identity(m.cols)),
        (RationalMatrix.identity(m.cols), dense(RationalMatrix.identity(m.cols))),
        (zero, RationalMatrix(m.rows, m.cols, [0] * (m.rows * m.cols))),
        (m.transpose(), dense(m.transpose())),
        (m.transpose().transpose(), m),
        (m + other, other + m),
        (m + other, RationalMatrix(m.rows, m.cols, [
            x + y for x, y in zip(m.data, other.data)])),
        ((m + other) - other, m),
        (m - m, zero),
        (m - other, m + other.scale(-1)),
        (m.scale(k), RationalMatrix(m.rows, m.cols, [k * x for x in m.data])),
        (m.scale(0), zero),
        ((m @ b) @ c, m @ (b @ c)),
        (m @ b @ c, product(m, b, c)),
        (m @ b @ c @ c.transpose(), product(m, b, c, c.transpose())),
        (block_assemble({(0, 0): m, (0, 1): other}, [m.rows], [m.cols, m.cols]),
         RationalMatrix.from_rows(wide, cols=2 * m.cols)),
        (block_assemble({(1, 0): m}, [1, m.rows], [m.cols]),
         RationalMatrix.from_rows([[0] * m.cols] + m.row_lists(), cols=m.cols)),
        (decompose(m).rref, dense(decompose(dense(m)).rref)),
        (copy.copy(m), m),
        (copy.deepcopy(m), m),
        (pickle.loads(pickle.dumps(m)), m),
    ]
    for i, (x, y) in enumerate(pairs):
        assert_canonical(x)
        assert_canonical(y)
        assert (x.rows, x.cols, x._dens, x._int_rows) == (
            y.rows, y.cols, y._dens, y._int_rows), i
        assert x == y and hash(x) == hash(y), i


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
@given(mixed_matrices())
def test_equal_matrices_hash_equal(m):
    cells = m.data
    built = [
        RationalMatrix(m.rows, m.cols, cells),
        RationalMatrix(m.rows, m.cols, [x.numerator if x.denominator == 1 else x
                                        for x in cells]),
        RationalMatrix(m.rows, m.cols, [str(x) for x in cells]),
        m + RationalMatrix.zero(m.rows, m.cols),
        RationalMatrix.zero(m.rows, m.cols) + m,
        m.transpose().transpose(),
        m.scale(1),
        # the same entries, each row's inserted in the opposite order
        RationalMatrix._from_ints(m.rows, m.cols, m._dens, tuple(
            dict(reversed(r.items())) for r in m._int_rows)),
    ]
    for other in built:
        assert other == m
        assert hash(other) == hash(m)


def test_hashing_reads_only_the_stored_entries():
    # the dense view of a 3,000 x 3,000 identity holds 9 million cells;
    # the stored rows hold 3,000
    m = RationalMatrix.identity(3000)
    start = time.perf_counter()
    hash(m)
    assert time.perf_counter() - start < 0.5


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


def test_apply_and_solve_take_any_iterable_but_a_string():
    # a string is refused (see REFUSALS); the rationals a string spells
    # are taken in any other iterable
    a = RationalMatrix.from_rows([[1, 0], [0, 2]])
    for vec in ([1, 2], (1, "2"), iter([1, 2]), range(1, 3), map(int, "12")):
        assert a.apply(vec) == (Fraction(1), Fraction(4))
    for b in ([1, 4], (1, "4"), iter([1, 4]), map(int, "14")):
        assert solve(a, b) == (Fraction(1), Fraction(2))


def test_matrices_take_entries_and_rows_in_any_iterable_but_a_string():
    # a string is refused (see REFUSALS); the rationals it spells are
    # taken as entries of any other iterable
    want = RationalMatrix.from_rows([[1, 2], [3, 4]])
    for entries in ([1, 2, 3, 4], ("1", "2", "3", "4"), iter([1, 2, 3, 4]),
                    range(1, 5), map(int, "1234")):
        assert RationalMatrix(2, 2, entries) == want
    for rows in ([(1, 2), ["3", "4"]], iter([range(1, 3), map(int, "34")])):
        assert RationalMatrix.from_rows(rows) == want


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


# ------------------------------------------------------------- refusals

ONE = RationalMatrix.identity(1)

REFUSALS = {
    "negative-shape": (lambda: RationalMatrix(-1, 2, []), "negative shape -1x2"),
    "entry-count": (lambda: RationalMatrix(1, 2, [1]), "expected 2 entries, got 1"),
    "ragged": (lambda: RationalMatrix.from_rows([[1], [1, 2]]), "ragged rows"),
    "width": (lambda: RationalMatrix.from_rows([[1, 2]], cols=3),
              "rows have width 2, not 3"),
    "no-rows": (lambda: RationalMatrix.from_rows([]),
                "0-row matrix needs an explicit width"),
    "zero-shape": (lambda: RationalMatrix.zero(2, -1), "negative shape 2x-1"),
    "identity-shape": (lambda: RationalMatrix.identity(-2), "negative shape -2x-2"),
    "add-shapes": (lambda: ONE + RationalMatrix.zero(1, 2), "1x1 + 1x2"),
    "apply-length": (lambda: RationalMatrix.identity(2).apply([1]),
                     "vector of length 1 against 2x2"),
    # a string is not read as its digit characters
    "apply-string": (lambda: RationalMatrix.identity(2).apply("12"),
                     "vector '12' is a string, not an iterable of rationals"),
    "solve-string": (lambda: solve(RationalMatrix.identity(2), "34"),
                     "vector '34' is a string, not an iterable of rationals"),
    "entries-string": (lambda: RationalMatrix(1, 2, "12"),
                       "entry list '12' is a string, not an iterable of rationals"),
    "row-string": (lambda: RationalMatrix.from_rows(["12", "34"]),
                   "row '12' is a string, not an iterable of rationals"),
    "block-dimension": (lambda: block_assemble({}, [-1], [1]),
                        "negative block dimension"),
    "block-outside": (lambda: block_assemble({(1, 0): ONE}, [1], [1]),
                      "block (1,0) lies outside the grid"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_names_its_fault(case):
    call, message = REFUSALS[case]
    with pytest.raises(SheafcalcError) as refused:
        call()
    assert str(refused.value) == message
