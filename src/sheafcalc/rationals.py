"""Exact dense linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (always canonical: gcd 1, positive
denominator).  Matrices are immutable, row-major, and empty shapes
(0 x n, n x 0) are first-class citizens so that block assembly and
chain-complex code never has to special-case them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Rational",
    "RationalMatrix",
    "MatrixDecomposition",
    "rational",
    "matmul",
    "decompose",
    "solve",
    "block_assemble",
]

Rational = Fraction


def rational(value) -> Fraction:
    """Coerce ints, Fractions and strings ("1/2", "-3", "0.5") to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not a rational: {value!r}")


class RationalMatrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries):
        assert rows >= 0 and cols >= 0
        data = tuple(rational(x) for x in entries)
        assert len(data) == rows * cols, (
            f"expected {rows * cols} entries, got {len(data)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def from_rows(cls, rows_list, cols: int | None = None) -> "RationalMatrix":
        rows_list = [list(r) for r in rows_list]
        if rows_list:
            width = len(rows_list[0])
            assert all(len(r) == width for r in rows_list), "ragged rows"
            if cols is not None:
                assert cols == width
            cols = width
        else:
            assert cols is not None, "0-row matrix needs an explicit width"
        flat = [x for r in rows_list for x in r]
        return cls(len(rows_list), cols, flat)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        assert 0 <= i < self.rows and 0 <= j < self.cols
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        assert 0 <= i < self.rows
        return self.data[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        assert 0 <= j < self.cols
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def row_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.cols, self.rows,
            [self.data[i * self.cols + j]
             for j in range(self.cols) for i in range(self.rows)])

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.data)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return RationalMatrix(self.rows, self.cols,
                              [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols, [-a for a in self.data])

    def scale(self, k) -> "RationalMatrix":
        k = rational(k)
        return RationalMatrix(self.rows, self.cols, [k * a for a in self.data])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        return matmul(self, other)

    def apply(self, vector) -> tuple:
        """Matrix times column vector (any iterable of rationals)."""
        vec = tuple(rational(x) for x in vector)
        assert len(vec) == self.cols, (
            f"vector of length {len(vec)} against {self.rows}x{self.cols}")
        return tuple(
            sum((self.data[i * self.cols + j] * vec[j] for j in range(self.cols)),
                start=Fraction(0))
            for i in range(self.rows))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"RationalMatrix({self.rows}x{self.cols})"
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RationalMatrix[{body}]"


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Exact product; (m x 0) @ (0 x n) is the m x n zero matrix."""
    assert a.cols == b.rows, f"{a.rows}x{a.cols} @ {b.rows}x{b.cols}"
    out = []
    for i in range(a.rows):
        arow = a.row(i)
        for j in range(b.cols):
            out.append(sum((arow[k] * b.data[k * b.cols + j] for k in range(a.cols)),
                           start=Fraction(0)))
    return RationalMatrix(a.rows, b.cols, out)


@dataclass(frozen=True)
class MatrixDecomposition:
    rank: int
    kernel_basis: tuple       # tuples of length cols
    image_basis: tuple        # original pivot columns, tuples of length rows
    rref: RationalMatrix
    pivots: tuple             # pivot column of each nonzero rref row


def decompose(m: RationalMatrix) -> MatrixDecomposition:
    """Gauss-Jordan over Q: rank, kernel basis, image basis (pivot columns
    of the original matrix), the reduced row echelon form and its pivot
    columns.  This is the one elimination routine of the package.

    rank + len(kernel_basis) == cols always.
    """
    work = m.row_lists()
    rows, cols = m.rows, m.cols
    pivots = []
    pr = 0
    for pc in range(cols):
        if pr == rows:
            break
        pivot_row = None
        for r in range(pr, rows):
            if work[r][pc] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[pr], work[pivot_row] = work[pivot_row], work[pr]
        pv = work[pr][pc]
        work[pr] = [x / pv for x in work[pr]]
        for r in range(rows):
            if r != pr and work[r][pc] != 0:
                f = work[r][pc]
                work[r] = [a - f * b for a, b in zip(work[r], work[pr])]
        pivots.append(pc)
        pr += 1

    pivot_set = set(pivots)
    kernel = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -work[i][fc]
        kernel.append(tuple(v))

    image = tuple(m.column(pc) for pc in pivots)
    rref = RationalMatrix(rows, cols, [x for r in work for x in r])
    return MatrixDecomposition(
        rank=len(pivots),
        kernel_basis=tuple(kernel),
        image_basis=image,
        rref=rref,
        pivots=tuple(pivots))


def solve(a: RationalMatrix, b) -> tuple | None:
    """A particular exact solution of A x = b, or None if inconsistent."""
    b = tuple(rational(x) for x in b)
    assert len(b) == a.rows
    aug = RationalMatrix.from_rows(
        [list(a.row(i)) + [b[i]] for i in range(a.rows)], cols=a.cols + 1)
    dec = decompose(aug)
    # inconsistent iff the augmented column is a pivot column
    if a.cols in dec.pivots:
        return None
    x = [Fraction(0)] * a.cols
    for i, pc in enumerate(dec.pivots):
        x[pc] = dec.rref.entry(i, a.cols)
    return tuple(x)


def block_assemble(blocks, row_dims, col_dims) -> RationalMatrix:
    """Assemble a matrix from a sparse grid of blocks.

    ``blocks`` maps (i, j) -> RationalMatrix; absent positions are zero.
    Block (i, j) must be row_dims[i] x col_dims[j].
    """
    row_dims = list(row_dims)
    col_dims = list(col_dims)
    assert all(d >= 0 for d in row_dims + col_dims)
    for (i, j), blk in blocks.items():
        assert 0 <= i < len(row_dims) and 0 <= j < len(col_dims), (i, j)
        assert (blk.rows, blk.cols) == (row_dims[i], col_dims[j]), (
            f"block ({i},{j}) is {blk.rows}x{blk.cols}, "
            f"grid wants {row_dims[i]}x{col_dims[j]}")
    total_rows = sum(row_dims)
    total_cols = sum(col_dims)
    row_off = [0]
    for d in row_dims:
        row_off.append(row_off[-1] + d)
    col_off = [0]
    for d in col_dims:
        col_off.append(col_off[-1] + d)
    grid = [[Fraction(0)] * total_cols for _ in range(total_rows)]
    for (i, j), blk in blocks.items():
        for r in range(blk.rows):
            base = row_off[i] + r
            for c in range(blk.cols):
                grid[base][col_off[j] + c] = blk.entry(r, c)
    return RationalMatrix(total_rows, total_cols, [x for row in grid for x in row])
