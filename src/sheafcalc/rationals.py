"""Exact linear algebra over the rationals, stored as sparse rows.

Scalars are ``fractions.Fraction`` (always canonical: gcd 1, positive
denominator).  Matrices are immutable, and empty shapes (0 x n, n x 0)
are first-class citizens so that block assembly and chain-complex code
never has to special-case them.  A matrix stores one {column: nonzero}
dict per row, never a zero, and ``data`` is a dense view built on each
read.  Products and elimination work on the nonzeros only, so a
coboundary costs work in proportion to its nonzeros, not to its area.

Stored matrix entries keep an integral value as a plain ``int`` (never a
``bool``) and any other value as a ``Fraction`` with denominator > 1, so
a +-1 incidence sign or a 0/1 marginalization costs int arithmetic, not
a Fraction and a gcd.  No float is ever stored: ``_div`` is the one
division on entries, because int / int is a float.  Every public view
(``data``, ``entry``, ``row``, ``column``, ``row_lists``, ``apply``,
``decompose``, ``solve``) returns Fractions.

Elimination and products are fraction-free.  Elimination keeps a
forward-only row echelon form of primitive int rows, each with its own
pivot coefficient: a new row is cleared of its denominators and reduced
by the stored rows whose pivots it meets, in int arithmetic (Bareiss),
and no stored row changes.  ``_reduce_row`` is the one home of that
row step: the forward pass and ``_rref``'s back pass both go through
it.  Ranks and consistency verdicts read its pivots.  A product brings
each row of the left factor and the rows of the right factor it meets
to a common denominator and sums int products.  Fractions appear only
at the end: in ``_rref`` and ``_particular``, which divide by each
pivot once, in ``_kernel``, which reads the rref, and in ``matmul``'s
one division of each nonzero sum.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import gcd, lcm

from ._record import Immutable, Record
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

DIGIT_LIMIT = 4300  # digits of a rational string's value, and of each digit run
_DIGIT_BOUND = 10 ** DIGIT_LIMIT
_DIGIT_RUN = re.compile(r"[\d_]+")
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _stored(x):
    """An int or Fraction in storage form: an int when integral."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _public(x) -> Fraction:
    """A stored entry as the Fraction every public view returns."""
    return Fraction(x) if type(x) is int else x


def _div(x, y):
    """x / y on stored entries, in storage form; y is nonzero."""
    if type(x) is int and type(y) is int:
        q, rem = divmod(x, y)
        return Fraction(x, y) if rem else q
    return _stored(x / y)


def _fits(text) -> bool:
    """False when a rational string is sure to pass ``DIGIT_LIMIT``
    before it is parsed: a run of more digits than the limit, or an
    exponent past the limit plus the length of the string.  A nonzero
    mantissa has fewer digits than the string, so such an exponent puts
    the value past the limit, and no power of ten that large is built.
    Refusing long runs here keeps the interpreter's own integer-string
    limit, at its default or above, out of the answer."""
    runs = _DIGIT_RUN.findall(text)
    exponent = _EXPONENT.search(text)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    bound = DIGIT_LIMIT + len(text)
    return (all(len(run.replace("_", "")) <= DIGIT_LIMIT for run in runs)
            and len(digits) <= len(str(bound)) and int(digits or "0") <= bound)


def rational(value) -> Fraction:
    """Coerce ints, Fractions and strings ("1/2", "-3", "0.5") to Fraction.

    A string is refused when the numerator or denominator of its value,
    or a run of digits in it, has more than ``DIGIT_LIMIT`` digits; an
    exponent too large for any value within the limit is refused before
    it is applied, even on a zero mantissa.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _fits(value):
            try:
                out = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise SheafcalcError(f"not a rational: {value!r}") from None
            if abs(out.numerator) < _DIGIT_BOUND and out.denominator < _DIGIT_BOUND:
                return out
        raise SheafcalcError(
            f"rational {value!r} has more than {DIGIT_LIMIT} digits")
    raise TypeError(f"not a rational: {value!r}")


class RationalMatrix(Immutable):
    __slots__ = ("rows", "cols", "_rows")

    def __new__(cls, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise SheafcalcError(f"negative shape {rows}x{cols}")
        data = [x if type(x) is int else _stored(rational(x)) for x in entries]
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
        nonzero entry} dict per row, each entry in storage form (an int
        when integral, else a Fraction), kept as given and never
        mutated."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_rows", sparse)
        return m

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
        return cls._from_sparse(n, n, tuple({i: 1} for i in range(n)))

    @property
    def data(self) -> tuple:
        """All entries row by row, zeros included."""
        return tuple(x for r in self._rows for x in self._dense(r))

    def _dense(self, r: dict) -> list:
        line = [_ZERO] * self.cols
        for j, x in r.items():
            line[j] = _public(x)
        return line

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise SheafcalcError(f"no entry ({i}, {j}) in {self.rows}x{self.cols}")
        return _public(self._rows[i].get(j, _ZERO))

    def row(self, i: int) -> tuple:
        if not 0 <= i < self.rows:
            raise SheafcalcError(f"no row {i} in {self.rows}x{self.cols}")
        return tuple(self._dense(self._rows[i]))

    def column(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise SheafcalcError(f"no column {j} in {self.rows}x{self.cols}")
        return tuple(_public(r.get(j, _ZERO)) for r in self._rows)

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
        # equal matrices store equal entries, each row's possibly inserted
        # in another order
        return hash((self.rows, self.cols,
                     tuple(tuple(sorted(r.items())) for r in self._rows)))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise SheafcalcError(f"{self.rows}x{self.cols} + {other.rows}x{other.cols}")
        out = tuple(dict(r) for r in self._rows)
        for r, s in zip(out, other._rows):
            for c, x in s.items():
                v = r.get(c, 0) + x
                if v:
                    r[c] = _stored(v)
                else:
                    del r[c]
        return RationalMatrix._from_sparse(self.rows, self.cols, out)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._from_sparse(self.rows, self.cols, tuple(
            {j: -x for j, x in r.items()} for r in self._rows))

    def scale(self, k) -> "RationalMatrix":
        k = _stored(rational(k))
        return RationalMatrix._from_sparse(self.rows, self.cols, tuple(
            {j: _stored(k * x) for j, x in r.items()} if k else {}
            for r in self._rows))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        return matmul(self, other)

    def apply(self, vector) -> tuple:
        """Matrix times column vector (any iterable of rationals)."""
        vec = tuple(rational(x) for x in vector)
        if len(vec) != self.cols:
            raise SheafcalcError(f"vector of length {len(vec)} against "
                                 f"{self.rows}x{self.cols}")
        return tuple(map(_public, _image(self, vec)))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"RationalMatrix({self.rows}x{self.cols})"
        body = "; ".join(
            " ".join(str(x) for x in self._dense(r)) for r in self._rows)
        return f"RationalMatrix[{body}]"


def _image(m: RationalMatrix, vec) -> tuple:
    """m times ``vec``, a vector of stored entries or Fractions, in
    storage form: ``apply`` without its checks and its Fraction view,
    for values that stay inside the library."""
    out = []
    for row in m._rows:
        terms = [vec[j] * x for j, x in row.items()]
        out.append(_stored(sum(terms[1:], terms[0])) if terms else 0)
    return tuple(out)


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Exact product; (m x 0) @ (0 x n) is the m x n zero matrix.

    Only products of two nonzero entries are formed: Theta(sum over the
    nonzeros a_ik of the nonzeros in row k of b) operations, all of them
    int ones.  A row of a and the rows of b it meets are brought to a
    common denominator, the int products are summed, and each nonzero
    sum is divided by that denominator once; sums that cancel to zero
    are dropped.
    """
    if a.cols != b.rows:
        raise SheafcalcError(f"{a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    b_rows = [_ints(r) for r in b._rows]
    integral = all(d == 1 for d, _ in b_rows)
    out = []
    for a_row in a._rows:
        da, a_row = _ints(a_row)
        db = 1 if integral else lcm(*[b_rows[k][0] for k in a_row])
        acc = {}
        for k, x in a_row.items():
            d, b_row = b_rows[k]
            if d != db:
                x *= db // d
            for j, y in b_row.items():
                p = x * y
                acc[j] = acc[j] + p if j in acc else p
        out.append({j: _div(v, da * db) for j, v in acc.items() if v})
    return RationalMatrix._from_sparse(a.rows, b.cols, tuple(out))


class MatrixDecomposition(Record):
    rank: int
    kernel_basis: tuple       # tuples of length cols
    image_basis: tuple        # original pivot columns, tuples of length rows
    rref: RationalMatrix
    pivots: tuple             # pivot column of each nonzero rref row


def decompose(m: RationalMatrix) -> MatrixDecomposition:
    """Rank, kernel basis, image basis (pivot columns of the original
    matrix), the reduced row echelon form and its pivot columns over Q.
    The rows go through ``_reduced``, whose row step ``_reduce_row`` is
    the one elimination routine of the package: ``solve`` and
    ``cellsheaf.extend`` use it too, and the Betti numbers read only the
    rank of ``_reduced``.  ``_rref`` back-eliminates the echelon form
    once, through ``_reduce_row`` as well; the rref and, through
    ``_kernel``, the kernel basis are read off it, as
    ``cellsheaf.global_section_space`` reads its kernel.

    rank + len(kernel_basis) == cols always.
    """
    rows, cols = m.rows, m.cols
    rref = _rref(_reduced(m))
    pivots = sorted(rref)
    rows_out = [{pc: 1, **rref[pc]} for pc in pivots]
    rows_out.extend({} for _ in range(rows - len(pivots)))
    return MatrixDecomposition(
        rank=len(pivots),
        kernel_basis=_kernel(rref, cols),
        image_basis=tuple(m.column(pc) for pc in pivots),
        rref=RationalMatrix._from_sparse(rows, cols, tuple(rows_out)),
        pivots=tuple(pivots))


def _rref(reduced: dict) -> dict:
    """The reduced row echelon form of ``_reduced``'s result, as {pivot
    column: rest of its row, pivot scaled to 1}.  Back elimination,
    last pivot first: each row, pivot included, goes through
    ``_reduce_row`` into the finished rows.  A finished row holds only
    free columns, since every pivot right of its own was cleared from
    it and nothing left of it is stored, so reducing by the finished
    rows clears exactly the pivots the row meets, brings in no new one
    and leaves the row's own pivot leftmost.  Each finished row is then
    divided by its pivot, the only Fraction arithmetic here."""
    done = {}
    for pc in sorted(reduced, reverse=True):
        pv, rest = reduced[pc]
        _reduce_row(done, {pc: pv, **rest})
    return {pc: r if pv == 1 else {c: _div(x, pv) for c, x in r.items()}
            for pc, (pv, r) in done.items()}


def _kernel(rref: dict, cols: int) -> tuple:
    """The kernel basis of an rref from ``_rref``, one vector per free
    column c in increasing order: 1 at c, 0 at the other free columns,
    and at each pivot minus its row's entry in column c, which is that
    pivot's back-substituted value."""
    kernel = {c: [_ZERO] * cols for c in range(cols) if c not in rref}
    for c, v in kernel.items():
        v[c] = _ONE
    for pc, rest in rref.items():
        for c, x in rest.items():
            kernel[c][pc] = _public(-x)
    return tuple(map(tuple, kernel.values()))


def _reduced(m: RationalMatrix) -> dict:
    """A row echelon form of m's rows as {pivot column: (pivot, rest of
    its row)}, built row by row with ``_reduce_row``; its length is the
    rank of m."""
    reduced = {}
    for row in m._rows:
        if len(reduced) == m.cols:
            break
        _reduce_row(reduced, row)
    return reduced


def _reduce_row(reduced: dict, row):
    """Add one sparse row ({column: nonzero}, left unchanged) to
    ``reduced``, {pivot column: (pivot, rest of its row)}: a primitive
    int row, its pivot > 0 and its rest holding only columns right of
    the pivot.  The row is cleared of its denominators, then reduced by
    the stored rows whose pivots it meets, lowest pivot first, so a
    pivot column brought in by one of them is met later; its leftmost
    remaining nonzero becomes the new pivot.  No stored row changes.
    Returns the new pivot column, or None.

    Fraction-free (Bareiss): entry f at the pivot of a stored row
    (pv, rest) is cleared by r <- (pv/g) r - (f/g) rest, g = gcd(pv, f),
    and the new row is divided by its content.  Scaling a row by a
    nonzero rational moves neither its pivot nor the span, so the
    reduced row is a multiple of the one vector in the row plus the span
    of the stored rows that is zero at every pivot, and the pivots are
    those of the rref of the rows added."""
    r = dict(_ints(row)[1])
    todo = [c for c in r if c in reduced]
    heapify(todo)
    while todo:
        pc = heappop(todo)
        f = r.pop(pc, None)
        if f is None:  # cancelled, or a repeat
            continue
        pv, rest = reduced[pc]
        if pv != 1:
            g = gcd(pv, f)
            a, f = pv // g, f // g
            if a != 1:
                for c in r:
                    r[c] *= a
        # r -= f * rest, inlined so that each pivot column the row gains
        # is queued as it appears
        for c, x in rest.items():
            if c in r:
                v = r[c] - f * x
                if v:
                    r[c] = v
                else:
                    del r[c]
            else:
                r[c] = -f * x
                if c in reduced:
                    heappush(todo, c)
    if not r:
        return None
    p = min(r)
    reduced[p] = _primitive(r.pop(p), r)
    return p


def _primitive(pv: int, r: dict) -> tuple:
    """(pv, r), a pivot and the rest of its int row, divided by the gcd
    of all its entries and signed so that pv > 0."""
    g = gcd(pv, *r.values()) if pv > 0 else -gcd(pv, *r.values())
    return (pv, r) if g == 1 else (pv // g, {c: x // g for c, x in r.items()})


def _ints(row: dict) -> tuple:
    """(d, d times the row): d the least common denominator of a row of
    stored entries, so every entry of the second is an int; the row
    itself when d is 1."""
    for x in row.values():
        if type(x) is not int:
            break
    else:
        return 1, row
    d = lcm(*[x.denominator for x in row.values()])
    return d, {c: x.numerator * (d // x.denominator) for c, x in row.items()}


def _augmented(a: RationalMatrix, b) -> list:
    """Sparse rows of [A | b], copies of A's: b sits in column a.cols."""
    return [{**row, a.cols: _stored(v)} if v else dict(row)
            for row, v in zip(a._rows, b, strict=True)]


def _consistent(reduced: dict, rows, rhs: int) -> bool:
    """Add rows of [A | b] (b in column ``rhs``) to a reduction; False at
    the first row whose pivot is b, i.e. A x = b has no solution."""
    return all(_reduce_row(reduced, row) != rhs for row in rows)


def _particular(reduced: dict, rhs: int) -> tuple:
    """The solution of a consistent reduction of [A | b] with every free
    variable 0, back-substituted from the last pivot up: x[pc] is b's
    entry in the row less the rest of the row times x, divided by the
    row's pivot."""
    x = [0] * rhs
    for pc in sorted(reduced, reverse=True):
        pv, rest = reduced[pc]
        s = rest.get(rhs, 0) - sum(
            a * x[c] for c, a in rest.items() if c != rhs)
        if s:
            x[pc] = _div(s, pv)
    return tuple(map(_public, x))


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
