"""Exact linear algebra over the rationals: dense storage, with
products and elimination over nonzeros.

Scalars are ``fractions.Fraction`` (always canonical: gcd 1, positive
denominator).  Matrices are immutable, row-major, and empty shapes
(0 x n, n x 0) are first-class citizens so that block assembly and
chain-complex code never has to special-case them.  Products and
elimination read each row's nonzeros once and do arithmetic on those
only, so a coboundary with k+2 nonzero blocks per row costs work in
proportion to its nonzeros, not to its area.
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

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
        return tuple(sum((x * vec[j] for j, x in row), start=_ZERO)
                     for row in _nonzero_rows(self))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"RationalMatrix({self.rows}x{self.cols})"
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RationalMatrix[{body}]"


def _nonzero_rows(m: RationalMatrix) -> list:
    """Each row of ``m`` as its (column, value) pairs with value != 0."""
    cols, data = m.cols, m.data
    return [[(j, x) for j, x in enumerate(data[i * cols:(i + 1) * cols]) if x]
            for i in range(m.rows)]


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Exact product; (m x 0) @ (0 x n) is the m x n zero matrix.

    Only products of two nonzero entries are formed: Theta(sum over the
    nonzeros a_ik of the nonzeros in row k of b) Fraction operations.
    """
    assert a.cols == b.rows, f"{a.rows}x{a.cols} @ {b.rows}x{b.cols}"
    b_rows = _nonzero_rows(b)
    out = []
    for a_row in _nonzero_rows(a):
        acc = {}
        for k, x in a_row:
            for j, y in b_rows[k]:
                acc[j] = acc.get(j, _ZERO) + x * y
        out.extend(acc.get(j, _ZERO) for j in range(b.cols))
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
    columns.  Its row reduction ``_reduce_row`` is the one elimination
    routine of the package: ``solve`` and ``cellsheaf.extend`` use it too.

    rank + len(kernel_basis) == cols always.
    """
    rows, cols = m.rows, m.cols
    reduced = {}
    for row in _nonzero_rows(m):
        if len(reduced) == cols:
            break
        _reduce_row(reduced, row)

    pivots = sorted(reduced)
    data = []
    free = {c: [] for c in range(cols) if c not in reduced}
    for pc in pivots:
        line = [_ZERO] * cols
        line[pc] = _ONE
        for c, x in reduced[pc].items():
            line[c] = x
            free[c].append((pc, -x))
        data.extend(line)
    data.extend([_ZERO] * ((rows - len(pivots)) * cols))

    kernel = []
    for fc, entries in free.items():
        v = [_ZERO] * cols
        v[fc] = _ONE
        for pc, x in entries:
            v[pc] = x
        kernel.append(tuple(v))

    image = tuple(m.column(pc) for pc in pivots)
    return MatrixDecomposition(
        rank=len(pivots),
        kernel_basis=tuple(kernel),
        image_basis=image,
        rref=RationalMatrix(rows, cols, data),
        pivots=tuple(pivots))


def _reduce_row(reduced: dict, row):
    """Add one sparse row ({column: nonzero} or its pairs, left unchanged)
    to ``reduced``, {pivot column: rest of its rref row}.  The row is
    reduced against the stored rows; its leftmost remaining nonzero
    becomes a pivot and is eliminated from them, so they stay the unique
    rref of the rows added.  Returns the new pivot column, or None."""
    r = dict(row)
    for pc in [c for c in r if c in reduced]:
        _eliminate(r, r.pop(pc), reduced[pc])
    if not r:
        return None
    p = min(r)
    pv = r.pop(p)
    r = {c: x / pv for c, x in r.items()}
    for other in reduced.values():
        f = other.pop(p, None)
        if f is not None:
            _eliminate(other, f, r)
    reduced[p] = r
    return p


def _eliminate(r: dict, f, tail: dict):
    """r -= f * tail on sparse rows, dropping entries that cancel."""
    for c, x in tail.items():
        if c in r:
            v = r[c] - f * x
            if v:
                r[c] = v
            else:
                del r[c]
        else:
            r[c] = -f * x


def _augmented(a: RationalMatrix, b) -> list:
    """Sparse rows of [A | b]: b sits in column a.cols."""
    return [dict(row + [(a.cols, v)] if v else row)
            for row, v in zip(_nonzero_rows(a), b, strict=True)]


def _consistent(reduced: dict, rows, rhs: int) -> bool:
    """Add rows of [A | b] (b in column ``rhs``) to a reduction; False at
    the first row whose pivot is b, i.e. A x = b has no solution."""
    return all(_reduce_row(reduced, row) != rhs for row in rows)


def _particular(reduced: dict, rhs: int) -> tuple:
    """The solution of a consistent reduction with every free variable 0."""
    x = [_ZERO] * rhs
    for pc, rest in reduced.items():
        x[pc] = rest.get(rhs, _ZERO)
    return tuple(x)


def solve(a: RationalMatrix, b) -> tuple | None:
    """A particular exact solution of A x = b, or None if inconsistent."""
    b = tuple(rational(x) for x in b)
    assert len(b) == a.rows
    reduced = {}
    if not _consistent(reduced, _augmented(a, b), a.cols):
        return None
    return _particular(reduced, a.cols)


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
