"""Exact linear algebra over the rationals, stored as sparse rows.

Scalars are ``fractions.Fraction`` (always canonical: gcd 1, positive
denominator).  Matrices are immutable, and empty shapes (0 x n, n x 0)
are first-class citizens so that block assembly and chain-complex code
never has to special-case them.  A matrix stores one {column: nonzero}
dict per row, never a zero, and ``data`` is a dense view built on each
read.  Products and elimination work on the nonzeros only, so a
coboundary costs work in proportion to its nonzeros, not to its area.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from ._record import Record
from .errors import SheafcalcError

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
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SheafcalcError(f"not a rational: {value!r}") from None
    raise TypeError(f"not a rational: {value!r}")


class RationalMatrix:
    __slots__ = ("rows", "cols", "_rows")

    def __new__(cls, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise SheafcalcError(f"negative shape {rows}x{cols}")
        data = [rational(x) for x in entries]
        if len(data) != rows * cols:
            raise SheafcalcError(f"expected {rows * cols} entries, got {len(data)}")
        sparse = tuple([{} for _ in range(rows)])
        for k, x in enumerate(data):
            if x:
                sparse[k // cols][k % cols] = x
        return cls._from_sparse(rows, cols, sparse)

    @classmethod
    def _from_sparse(cls, rows: int, cols: int, sparse: tuple) -> "RationalMatrix":
        """The trusted constructor, unchecked: ``sparse`` is one {column:
        nonzero Fraction} dict per row, kept as given and never mutated."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_rows", sparse)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild from the stored sparse rows
        return type(self)._from_sparse, (self.rows, self.cols, self._rows)

    @classmethod
    def from_rows(cls, rows_list, cols: int | None = None) -> "RationalMatrix":
        rows_list = [list(r) for r in rows_list]
        if rows_list:
            width = len(rows_list[0])
            if any(len(r) != width for r in rows_list):
                raise SheafcalcError("ragged rows")
            if cols is not None and cols != width:
                raise SheafcalcError(f"rows have width {width}, not {cols}")
            cols = width
        elif cols is None:
            raise SheafcalcError("0-row matrix needs an explicit width")
        flat = [x for r in rows_list for x in r]
        return cls(len(rows_list), cols, flat)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        if rows < 0 or cols < 0:
            raise SheafcalcError(f"negative shape {rows}x{cols}")
        return cls._from_sparse(rows, cols, tuple({} for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        if n < 0:
            raise SheafcalcError(f"negative shape {n}x{n}")
        return cls._from_sparse(n, n, tuple({i: _ONE} for i in range(n)))

    @property
    def data(self) -> tuple:
        """All entries row by row, zeros included."""
        return tuple(x for r in self._rows for x in self._dense(r))

    def _dense(self, r: dict) -> list:
        line = [_ZERO] * self.cols
        for j, x in r.items():
            line[j] = x
        return line

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise SheafcalcError(f"no entry ({i}, {j}) in {self.rows}x{self.cols}")
        return self._rows[i].get(j, _ZERO)

    def row(self, i: int) -> tuple:
        if not 0 <= i < self.rows:
            raise SheafcalcError(f"no row {i} in {self.rows}x{self.cols}")
        return tuple(self._dense(self._rows[i]))

    def column(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise SheafcalcError(f"no column {j} in {self.rows}x{self.cols}")
        return tuple(r.get(j, _ZERO) for r in self._rows)

    def row_lists(self):
        return [self._dense(r) for r in self._rows]

    def transpose(self) -> "RationalMatrix":
        out = tuple({} for _ in range(self.cols))
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                out[j][i] = x
        return RationalMatrix._from_sparse(self.cols, self.rows, out)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._rows) == (other.rows, other.cols, other._rows)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise SheafcalcError(f"{self.rows}x{self.cols} + {other.rows}x{other.cols}")
        out = tuple(dict(r) for r in self._rows)
        for r, s in zip(out, other._rows):
            _eliminate(r, -_ONE, s)
        return RationalMatrix._from_sparse(self.rows, self.cols, out)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return self.scale(-_ONE)

    def scale(self, k) -> "RationalMatrix":
        k = rational(k)
        return RationalMatrix._from_sparse(self.rows, self.cols, tuple(
            {j: k * x for j, x in r.items()} if k else {} for r in self._rows))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        return matmul(self, other)

    def apply(self, vector) -> tuple:
        """Matrix times column vector (any iterable of rationals)."""
        vec = tuple(rational(x) for x in vector)
        if len(vec) != self.cols:
            raise SheafcalcError(f"vector of length {len(vec)} against "
                                 f"{self.rows}x{self.cols}")
        return tuple(sum((x * vec[j] for j, x in row.items()), start=_ZERO)
                     for row in self._rows)

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"RationalMatrix({self.rows}x{self.cols})"
        body = "; ".join(
            " ".join(str(x) for x in self._dense(r)) for r in self._rows)
        return f"RationalMatrix[{body}]"


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Exact product; (m x 0) @ (0 x n) is the m x n zero matrix.

    Only products of two nonzero entries are formed: Theta(sum over the
    nonzeros a_ik of the nonzeros in row k of b) Fraction operations.
    Entries that cancel to zero are dropped.
    """
    if a.cols != b.rows:
        raise SheafcalcError(f"{a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    b_rows = b._rows
    out = []
    for a_row in a._rows:
        acc = {}
        for k, x in a_row.items():
            for j, y in b_rows[k].items():
                p = x * y
                acc[j] = acc[j] + p if j in acc else p
        out.append({j: v for j, v in acc.items() if v})
    return RationalMatrix._from_sparse(a.rows, b.cols, tuple(out))


class MatrixDecomposition(Record):
    rank: int
    kernel_basis: tuple       # tuples of length cols
    image_basis: tuple        # original pivot columns, tuples of length rows
    rref: RationalMatrix
    pivots: tuple             # pivot column of each nonzero rref row


def decompose(m: RationalMatrix) -> MatrixDecomposition:
    """Gauss-Jordan over Q: rank, kernel basis, image basis (pivot columns
    of the original matrix), the reduced row echelon form and its pivot
    columns, written out from ``_reduced``.  Its row step ``_reduce_row``
    is the one elimination routine of the package: ``solve`` and
    ``cellsheaf.extend`` use it too, and the Betti numbers read only the
    rank of ``_reduced``.

    rank + len(kernel_basis) == cols always.
    """
    rows, cols = m.rows, m.cols
    reduced = _reduced(m)

    pivots = sorted(reduced)
    rref = []
    free = {c: [] for c in range(cols) if c not in reduced}
    for pc in pivots:
        rref.append({pc: _ONE, **reduced[pc]})
        for c, x in reduced[pc].items():
            free[c].append((pc, -x))
    rref.extend({} for _ in range(rows - len(pivots)))

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
        rref=RationalMatrix._from_sparse(rows, cols, tuple(rref)),
        pivots=tuple(pivots))


def _reduced(m: RationalMatrix) -> dict:
    """The rref of m's rows as {pivot column: rest of its row}, built
    row by row with ``_reduce_row``; its length is the rank of m."""
    reduced = {}
    for row in m._rows:
        if len(reduced) == m.cols:
            break
        _reduce_row(reduced, row)
    return reduced


def _reduce_row(reduced: dict, row):
    """Add one sparse row ({column: nonzero}, left unchanged) to
    ``reduced``, {pivot column: rest of its rref row}.  The row is
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
    """Sparse rows of [A | b], copies of A's: b sits in column a.cols."""
    return [{**row, a.cols: v} if v else dict(row)
            for row, v in zip(a._rows, b, strict=True)]


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
    if len(b) != a.rows:
        raise SheafcalcError(f"right-hand side of length {len(b)}, not {a.rows}")
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
    if any(d < 0 for d in row_dims + col_dims):
        raise SheafcalcError("negative block dimension")
    for (i, j), blk in blocks.items():
        if not (0 <= i < len(row_dims) and 0 <= j < len(col_dims)):
            raise SheafcalcError(f"block ({i},{j}) lies outside the grid")
        if (blk.rows, blk.cols) != (row_dims[i], col_dims[j]):
            raise SheafcalcError(
                f"block ({i},{j}) is {blk.rows}x{blk.cols}, "
                f"grid wants {row_dims[i]}x{col_dims[j]}")
    row_off = list(accumulate(row_dims, initial=0))
    col_off = list(accumulate(col_dims, initial=0))
    out = tuple({} for _ in range(row_off[-1]))
    for (i, j), blk in blocks.items():
        at = col_off[j]
        for r, row in enumerate(blk._rows, start=row_off[i]):
            out[r].update((at + c, x) for c, x in row.items())
    return RationalMatrix._from_sparse(row_off[-1], col_off[-1], out)
