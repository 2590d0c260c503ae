"""The elimination against the rref it replaced.

``rationals._reduce_row`` keeps a forward-only echelon form; the oracle
in ``util`` keeps the reduced row echelon form, eliminating each new
pivot from every stored row.  Both reduce a new row to the same vector,
so the pivots, every rank and every consistency verdict agree, and the
kernel and particular solution, unique for the free columns chosen,
agree entry for entry.  The digests below were recorded with the rref
elimination and pin the sheaf answers built on top of it.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from sheafcalc.cellsheaf import Assignment, extend, global_section_space
from sheafcalc.cohomology import coboundary, cohomology_dims
from sheafcalc.rationals import (
    RationalMatrix, _augmented, _kernel, _particular, _reduce_row, _reduced,
    _rref, decompose, matmul, solve)

from util import (
    assert_primitive_echelon, dense_matmul, diagonal_grid_sheaf, grid_complex,
    random_sparse_matrix, random_unimodular, rref_decompose, rref_kernel,
    rref_particular, rref_reduce_row, rref_reduced, rref_solve)


# --------------------------------------------------------------- corpora

def sparse_corpus():
    """Random sparse matrices of every shape up to 12 x 12, many of them
    rank-deficient, with 0 x n and n x 0 included."""
    rng = random.Random(23)
    for _ in range(300):
        rows, cols = rng.randint(0, 12), rng.randint(0, 12)
        yield random_sparse_matrix(rng, rows, cols,
                                   density=rng.choice((0.15, 0.3, 0.6)),
                                   combos=rng.choice((0.0, 0.3, 0.6)))


def basis_change_corpus():
    """Sparse matrices times a random unimodular change of basis on
    either side: the same rank, denser rows, new fractions."""
    rng = random.Random(5)
    for _ in range(100):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        m = random_sparse_matrix(rng, rows, cols, combos=0.4)
        left, _ = random_unimodular(rng, rows, steps=rng.randint(1, 8))
        right, _ = random_unimodular(rng, cols, steps=rng.randint(1, 8))
        yield left @ m @ right


def grid_coboundary_corpus():
    """Both coboundaries of the Q^2 diagonal sheaf on holed grids, and
    their transposes."""
    for seed in range(1, 4):
        rng = random.Random(seed)
        n = 3 + seed
        base = grid_complex(n, holes=[(rng.randrange(n), rng.randrange(n))])
        sheaf, _ = diagonal_grid_sheaf(rng, base, 2)
        for k in (0, 1):
            delta = coboundary(sheaf, k)
            yield delta
            yield delta.transpose()


def wide_corpus():
    """Random sparse matrices of 1-8 rows and 20-40 columns with
    denominators up to 10**3: many free columns, so the back pass of
    ``_rref`` clears many pivots from rows that keep long free tails."""
    rng = random.Random(41)
    for _ in range(60):
        rows, cols = rng.randint(1, 8), rng.randint(20, 40)
        yield random_sparse_matrix(rng, rows, cols,
                                   density=rng.choice((0.1, 0.25, 0.5)),
                                   combos=rng.choice((0.0, 0.3)),
                                   max_denominator=10 ** 3)


def corpus():
    yield from sparse_corpus()
    yield from basis_change_corpus()
    yield from grid_coboundary_corpus()
    yield from wide_corpus()


# ------------------------------------------------------ against the rref

def test_the_echelon_oracle_refuses_a_row_that_is_not_primitive():
    # the oracle lives in util, whose asserts hold under python -O only
    # because conftest registers util for assert rewriting
    assert_primitive_echelon({0: (1, {2: 3})})
    with pytest.raises(AssertionError):
        assert_primitive_echelon({0: (2, {2: 4})})


def test_reductions_share_pivots_and_kernels_with_the_rref():
    for m in corpus():
        got, want = _reduced(m), rref_reduced(m)
        assert sorted(got) == sorted(want)
        assert_primitive_echelon(got)  # forward only: nothing at or left of its pivot
        rref = _rref(got)
        assert rref == want
        assert repr(_kernel(rref, m.cols)) == repr(rref_kernel(want, m.cols))
        assert repr(decompose(m)) == repr(rref_decompose(m))


def test_rows_get_the_pivots_the_rref_gives_them_in_order():
    # each new row's pivot, or None, row by row: for an augmented row
    # [A | b] that is the consistency verdict, b's column being the pivot
    for m in corpus():
        got, want = {}, {}
        for row in m._rows:
            assert _reduce_row(got, row) == rref_reduce_row(want, row)


def test_solutions_match_the_rref_solution():
    rng = random.Random(7)
    seen = set()
    for m in corpus():
        reachable = m.apply([rng.randint(-3, 3) for _ in range(m.cols)])
        anything = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(m.rows)]
        for b in (reachable, anything):
            got, want = solve(m, b), rref_solve(m, b)
            assert repr(got) == repr(want)
            seen.add(got is None)
            got_r, want_r = {}, {}
            verdicts = [(_reduce_row(got_r, row) != m.cols,
                         rref_reduce_row(want_r, row) != m.cols)
                        for row in _augmented(m, b)]
            assert [g for g, _ in verdicts] == [w for _, w in verdicts]
            if all(g for g, _ in verdicts):
                assert repr(_particular(got_r, m.cols)) == repr(
                    rref_particular(want_r, m.cols))
    assert seen == {True, False}


def test_reduced_rows_hold_only_columns_right_of_their_pivot():
    # the rref would clear column 1 from the first row; the echelon form
    # leaves it standing, each row a primitive int row with its pivot
    m = RationalMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 2, 1]])
    reduced = _reduced(m)
    assert reduced == {0: (1, {1: 1}), 1: (1, {2: 1})}
    assert decompose(m).rref == RationalMatrix.from_rows(
        [[1, 0, -1], [0, 1, 1], [0, 0, 0]])
    assert _rref(reduced) == {0: {2: Fraction(-1)}, 1: {2: Fraction(1)}}
    assert _kernel(_rref(reduced), 3) == ((Fraction(1), Fraction(-1), Fraction(1)),)
    # a fractional row is cleared of its denominators, then of its content
    m = RationalMatrix.from_rows([["1/2", "1/3", "0"], ["0", "2/3", "-4/3"]])
    reduced = _reduced(m)
    assert reduced == {0: (3, {1: 2}), 1: (1, {2: -2})}
    assert _rref(reduced) == {0: {2: Fraction(4, 3)}, 1: {2: Fraction(-2)}}


# --------------------------------- fraction-free against Fraction oracles

def large_denominator_corpus():
    """Sparse matrices whose entries have denominators up to 10**6, many
    of them rank-deficient, with 0 x n and n x 0 included."""
    rng = random.Random(29)
    for _ in range(120):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        yield random_sparse_matrix(rng, rows, cols,
                                   density=rng.choice((0.2, 0.5)),
                                   combos=rng.choice((0.0, 0.4)),
                                   max_denominator=10 ** 6)


def test_large_denominators_reduce_and_solve_as_the_rref_does():
    rng = random.Random(31)
    for m in large_denominator_corpus():
        got, want = _reduced(m), rref_reduced(m)
        assert sorted(got) == sorted(want)
        assert_primitive_echelon(got)
        assert _rref(got) == want
        assert repr(decompose(m)) == repr(rref_decompose(m))
        reachable = m.apply([Fraction(rng.randint(-9, 9), rng.randint(1, 10 ** 6))
                             for _ in range(m.cols)])
        anything = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                    for _ in range(m.rows)]
        for b in (reachable, anything):
            assert repr(solve(m, b)) == repr(rref_solve(m, b))


def test_products_equal_the_dense_fraction_product():
    # factors with large denominators or with int entries only, on
    # either side, and right factors of kernel columns, whose products
    # cancel to zero
    rng = random.Random(37)
    pairs = [(RationalMatrix.zero(3, 0), RationalMatrix.zero(0, 4)),
             (RationalMatrix.zero(0, 3), RationalMatrix.identity(3)),
             (RationalMatrix.identity(3), RationalMatrix.zero(3, 0))]
    for m in large_denominator_corpus():
        for top in (10 ** 6, 1):
            pairs.append((m, random_sparse_matrix(
                rng, m.cols, rng.randint(0, 9), density=0.4, max_denominator=top)))
            left = random_sparse_matrix(rng, rng.randint(0, 9), m.rows,
                                        density=0.4, max_denominator=1)
            pairs.append((left, m if top > 1 else left.transpose()))
        kernel = decompose(m).kernel_basis
        if kernel:
            pairs.append((m, RationalMatrix.from_rows(kernel).transpose()))
    cancelled = 0
    for a, b in pairs:
        got = matmul(a, b)
        assert repr(got) == repr(dense_matmul(a, b))
        assert all(x and (type(x) is int or x.denominator > 1)
                   for row in got._rows for x in row.values())
        cancelled += bool(a.rows and b.cols and got.is_zero() and not a.is_zero())
    assert cancelled > 10


def test_stored_echelon_integers_stay_small_on_the_holed_grid():
    # the largest stored bit length, measured on the holed 30 x 30 grid:
    # 7 for delta^0 and 10 for delta^1 (15 and 12 when the content is
    # left in); the bounds are those measurements
    base = grid_complex(30, holes=[(15, 15)])
    sheaf, _ = diagonal_grid_sheaf(random.Random(1), base, 2)
    for k, bound in ((0, 7), (1, 10)):
        reduced = _reduced(coboundary(sheaf, k))
        assert max(x.bit_length() for pv, rest in reduced.values()
                   for x in (pv, *rest.values())) <= bound


# ------------------------------------------- sheaf answers, pinned digests

def grid_answers(seed, dim):
    """cohomology_dims, global_section_space and extend on a consistent
    and on a conflicting seed, for the Q^dim diagonal sheaf on a holed
    6 x 6 grid, as one repr."""
    rng = random.Random(seed)
    base = grid_complex(6, holes=[(rng.randrange(6), rng.randrange(6))])
    sheaf, scale = diagonal_grid_sheaf(rng, base, dim)
    c = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(dim))
    other = (c[0] + 1,) + c[1:]

    def value(face, coords):
        return tuple(a * x for a, x in zip(scale[face], coords))

    vertices = base.k_faces(0)
    v = rng.choice(vertices)
    good = Assignment({v: value(v, c)})
    first, last = vertices[0], vertices[-1]
    bad = Assignment({first: value(first, c), last: value(last, other)})
    return repr((cohomology_dims(sheaf), global_section_space(sheaf),
                 extend(sheaf, good), extend(sheaf, bad)))


GRID_DIGESTS = {
    (1, 1): "1084fadf99fb06f67fc117be4625b74448af3d84dacade0f347b9e51a3b62f52",
    (1, 2): "39e4194ff76090cdeb5275276cff081c876aa3179c04eb837de27a82996b45bd",
    (2, 1): "bc222bf7894966367576eb04f630602049c7ff645c27069a3fe1f99d905ec404",
    (2, 2): "125b0ab73215e84bb9b1510ad4e232e0e11bdee099d30a65d859ed2f93a2753a",
    (3, 1): "b1736023229696d0061de3a917d989169a1862ee45b2ef677c1555cafe76ef41",
    (3, 2): "1ee44fe22d461c28dcaba09586bb341ab6cb8088618f3c60dd2b86f94239970e",
    (4, 1): "d950b44ab0f2fd4a2c3a4bd65a1d7e975855a8e9b3149dcf0ac303b78d25a6b7",
    (4, 2): "77c66a0097ec27c461ec0ef1e536ad168f8ce21a5b50312e591238a66a3cf4ae",
    (5, 1): "0b4d5e13555359ce9a4e4118acdf1c54e782d2792d015af44d7e8e1b59d1ca7c",
    (5, 2): "4f5a64fca9bd928c90289254282bd518cd221bfe31ec6c0ca8caeb028796c6d5",
}


@pytest.mark.parametrize("seed,dim", sorted(GRID_DIGESTS))
def test_grid_answers_match_the_digests_of_the_rref_elimination(seed, dim):
    digest = hashlib.sha256(grid_answers(seed, dim).encode()).hexdigest()
    assert digest == GRID_DIGESTS[seed, dim]
