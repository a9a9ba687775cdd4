"""Exact sparse matrices over Q(i, sqrt2) and one exact elimination step.

ExactMatrix is the square carrier for representations and group
elements.  Each row is stored as a tuple of (column, value) pairs that
holds the nonzero entries only, in ascending column order.  The
canonical frame images, volume elements and frame-group elements are
unit-monomial (one entry from {+-1, +-i} per row), so their products,
sums and inverses cost time in the number of nonzeros rather than n^3
or n^2; a row scaled by 1 is the stored row itself, and one scaled by -1
is negated without a product.  The storage is canonical, which lets equality and hashing
compare the pairs directly.  Product and combination rows with several
terms, ``a + b`` and ``a - b`` among them, are summed on the scalar
kernel (``scalars._sum_products``): raw integer cells, one canonical
ExactScalar per output cell, which equals the term-by-term sum because
the canonical form is unique.

Every exact solve is built on one incremental Gauss-Jordan step,
``_add_row``, over a dict from each pivot column to its fully reduced
sparse row, which makes every solver in the library deterministic.
``rank`` counts the rows that add a pivot, ``inverse`` reduces [A | I],
``det`` multiplies the leading values of A's rows, and the intertwiners
of frames that are not unit-monomial reduce their projections from the
right.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import ExactScalar, MINUS_ONE, ONE, ZERO, _View, _sum_products, sc

Row = Tuple[Tuple[int, ExactScalar], ...]


def _dense_rows(mat: "ExactMatrix") -> Tuple[tuple, ...]:
    """The dense view ``mat.rows``: a tuple of n-tuples, built once.  Zero
    entries are the shared ZERO; nonzero entries are the stored objects."""
    if mat._dense is None:
        dense = [[ZERO] * mat.n for _ in range(mat.n)]
        for r, row in enumerate(mat.sparse_rows):
            for c, x in row:
                dense[r][c] = x
        mat._dense = tuple(map(tuple, dense))
    return mat._dense


class ExactMatrix:
    """Immutable square matrix with ExactScalar entries, stored by nonzeros.

    ``sparse_rows[r]`` lists the nonzero entries of row r as (column,
    value) pairs in ascending column order; ``rows`` is the dense view.
    """

    __slots__ = ("n", "sparse_rows", "_dense", "_hash")

    rows = _View(_dense_rows)

    def __init__(self, rows: Sequence[Sequence]):
        n = len(rows)
        data = []
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            entries = []
            for c, x in enumerate(row):
                if type(x) is not ExactScalar:
                    x = sc(x)
                if not x.is_zero():
                    entries.append((c, x))
            data.append(tuple(entries))
        self.n = n
        self.sparse_rows = tuple(data)
        self._dense = self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sparse_rows(cls, rows: Sequence[Iterable[Tuple[int, object]]]) -> "ExactMatrix":
        """Square matrix from per-row (column, value) pairs; zeros are dropped."""
        n = len(rows)
        data = []
        for row in rows:
            entries = sorted(((c, sc(x)) for c, x in row), key=lambda e: e[0])
            cols = [c for c, _ in entries]
            if cols and not (0 <= cols[0] and cols[-1] < n and len(set(cols)) == len(cols)):
                raise ValueError("sparse row has a repeated or out-of-range column")
            data.append(tuple(e for e in entries if not e[1].is_zero()))
        return _wrap(n, tuple(data))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return _wrap(n, tuple(((i, ONE),) for i in range(n)))

    @classmethod
    def zeros(cls, n: int) -> "ExactMatrix":
        return _wrap(n, ((),) * n)

    @classmethod
    def combination(cls, n: int, terms: Iterable[Tuple[object, "ExactMatrix"]]) -> "ExactMatrix":
        """The n x n matrix sum of c * M over the (c, M) terms, one pass per row.

        Terms with a zero coefficient are dropped.  A row that one term
        alone touches is that term's row scaled (a product of nonzeros is
        nonzero); the others are summed on the scalar kernel.
        """
        coeffs, rowsets = [], []
        for c, mat in terms:
            if mat.n != n:
                raise ValueError("dimension mismatch")
            c = sc(c)
            if not c.is_zero():
                coeffs.append(c)
                rowsets.append(mat.sparse_rows)
        if not coeffs:
            return cls.zeros(n)
        out = []
        for rows in zip(*rowsets):
            touching = [(c, row) for c, row in zip(coeffs, rows) if row]
            if len(touching) == 1:
                out.append(_scaled_row(*touching[0]))
                continue
            out.append(_sum_products(touching))
        return _wrap(n, tuple(out))

    @classmethod
    def diag(cls, entries: Sequence) -> "ExactMatrix":
        return cls.from_sparse_rows([[(i, x)] for i, x in enumerate(entries)])

    @classmethod
    def block2(cls, a: "ExactMatrix", b: "ExactMatrix", c: "ExactMatrix", d: "ExactMatrix") -> "ExactMatrix":
        """Assemble [[a, b], [c, d]] from four equally sized blocks."""
        n = a.n
        if not (b.n == c.n == d.n == n):
            raise ValueError("blocks must share dimensions")
        top = (left + _shift(right, n) for left, right in zip(a.sparse_rows, b.sparse_rows))
        bottom = (left + _shift(right, n) for left, right in zip(c.sparse_rows, d.sparse_rows))
        return _wrap(2 * n, tuple(top) + tuple(bottom))

    @classmethod
    def kron(cls, a: "ExactMatrix", b: "ExactMatrix") -> "ExactMatrix":
        nb = b.n
        rows = tuple(
            tuple((j * nb + q, x * y) for j, x in arow for q, y in brow)
            for arow in a.sparse_rows
            for brow in b.sparse_rows
        )
        return _wrap(a.n * nb, rows)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "ExactMatrix"):
        if self.n != other.n:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix.combination(self.n, ((ONE, self), (ONE, other)))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix.combination(self.n, ((ONE, self), (MINUS_ONE, other)))

    # negation and scaling have one term per cell, so they need no sum
    def __neg__(self) -> "ExactMatrix":
        return _wrap(self.n, tuple(tuple((c, -x) for c, x in row) for row in self.sparse_rows))

    def scale(self, factor) -> "ExactMatrix":
        factor = sc(factor)
        if factor.is_zero():
            return ExactMatrix.zeros(self.n)
        return _wrap(self.n, tuple(_scaled_row(factor, row) for row in self.sparse_rows))

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return self.scale(other)
        self._check(other)
        brows = other.sparse_rows
        out = []
        for arow in self.sparse_rows:
            if len(arow) == 1:
                # a product of nonzeros is nonzero, and brows[k] is sorted
                k, x = arow[0]
                out.append(_scaled_row(x, brows[k]))
                continue
            out.append(_sum_products((x, brows[k]) for k, x in arow))
        return _wrap(self.n, tuple(out))

    def __rmul__(self, other):
        if isinstance(other, ExactMatrix):
            return NotImplemented
        return self.scale(other)

    def transpose(self) -> "ExactMatrix":
        cols: List[list] = [[] for _ in range(self.n)]
        for r, row in enumerate(self.sparse_rows):
            for c, x in row:
                cols[c].append((r, x))
        return _wrap(self.n, tuple(tuple(col) for col in cols))

    def _monomial_inverse(self) -> Optional["ExactMatrix"]:
        """Inverse of a matrix with one nonzero per row and column, else None."""
        out: List[Optional[Row]] = [None] * self.n
        for r, row in enumerate(self.sparse_rows):
            if len(row) != 1:
                return None
            c, x = row[0]
            if out[c] is not None:
                return None
            out[c] = ((r, x.inverse()),)
        return _wrap(self.n, tuple(out))

    def inverse(self) -> "ExactMatrix":
        """Gauss-Jordan inverse on [A | I]; raises ValueError on singular input.

        Monomial matrices (the whole frame group) take a direct path.
        """
        fast = self._monomial_inverse()
        if fast is not None:
            return fast
        n = self.n
        pivots: Dict[int, SparseRow] = {}
        for r, row in enumerate(self.sparse_rows):
            _add_row(pivots, row + ((n + r, ONE),))
        if any(col not in pivots for col in range(n)):
            raise ValueError("matrix is singular")
        return _wrap(n, tuple(
            tuple(sorted((j - n, x) for j, x in pivots[col].items() if j >= n)) for col in range(n)
        ))

    def det(self) -> ExactScalar:
        """Product of the leading values the rows add, times the sign of the
        permutation taking each row to its pivot column."""
        pivots: Dict[int, SparseRow] = {}
        det, perm = ONE, []
        for row in self.sparse_rows:
            step = _add_row(pivots, row)
            if step is None:
                return ZERO
            perm.append(step[0])
            det = det * step[1]
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        return -det if inversions % 2 else det

    def rank(self) -> int:
        pivots: Dict[int, SparseRow] = {}
        return sum(_add_row(pivots, row) is not None for row in self.sparse_rows)

    # -- queries ------------------------------------------------------------

    def __getitem__(self, pos: Tuple[int, int]) -> ExactScalar:
        """Entry (r, c), read from the sparse row; IndexError unless 0 <= r, c < n."""
        r, c = pos
        if not (0 <= r < self.n and 0 <= c < self.n):
            raise IndexError(f"entry {pos} outside a {self.n} x {self.n} matrix")
        for col, x in self.sparse_rows[r]:
            if col >= c:
                return x if col == c else ZERO
        return ZERO

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def is_identity(self) -> bool:
        return self.scalar_value() == ONE

    def scalar_value(self) -> Optional[ExactScalar]:
        """If the matrix is c*I, return c, else None."""
        rows = self.sparse_rows
        if not any(rows):
            return ZERO
        first = rows[0]
        if len(first) != 1 or first[0][0] != 0:
            return None
        c = first[0][1]
        for i, row in enumerate(rows):
            if row != ((i, c),):
                return None
        return c

    def trace(self) -> ExactScalar:
        return sum((self[r, r] for r in range(self.n)), ZERO)

    def first_nonzero(self) -> Optional[ExactScalar]:
        for row in self.sparse_rows:
            if row:
                return row[0][1]
        return None

    def commutes_with(self, other: "ExactMatrix") -> bool:
        return self * other == other * self

    def anticommutes_with(self, other: "ExactMatrix") -> bool:
        return (self * other + other * self).is_zero()

    def key(self) -> tuple:
        """Canonical hashable key (used for stable ordering): the reduced
        coordinate tuple of every entry, zeros included, in row-major order."""
        n = self.n
        out: list = []
        for row in self.sparse_rows:
            full = [_ZERO_KEY] * n
            for c, x in row:
                full[c] = _coordinate_key(x)
            out += full
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.n == other.n and self.sparse_rows == other.sparse_rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.sparse_rows))
        return self._hash

    def __str__(self):
        cells = [[str(x) for x in row] for row in self.rows]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join("[" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells)

    __repr__ = __str__

    # -- serialization --------------------------------------------------------

    def to_json(self):
        return [[x.to_json() for x in row] for row in self.rows]

    @classmethod
    def from_json(cls, data) -> "ExactMatrix":
        if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
            raise ValueError(f"a matrix is a list of rows of scalars, got {data!r}")
        return cls([[ExactScalar.from_json(x) for x in row] for row in data])


_new = object.__new__


def _wrap(n: int, rows: Tuple[Row, ...]) -> ExactMatrix:
    """Wrap rows already in canonical form (nonzero ExactScalars, ascending columns)."""
    mat = _new(ExactMatrix)
    mat.n = n
    mat.sparse_rows = rows
    mat._dense = mat._hash = None
    return mat


def _scaled_row(x: ExactScalar, row: Row) -> Row:
    """x times a canonical row: the row itself for x = 1, its negation
    for x = -1, else one product per entry."""
    if x.den == 1 and not (x.q or x.r or x.s):
        if x.p == 1:
            return row
        if x.p == -1:
            return tuple((j, -y) for j, y in row)
    return tuple((j, x * y) for j, y in row)


def _shift(row: Row, offset: int) -> Row:
    return tuple((c + offset, x) for c, x in row)


_ZERO_KEY = (0, 1, 0, 1, 0, 1, 0, 1)


def _coordinate_key(x: ExactScalar) -> tuple:
    """(numerator, denominator) of each reduced rational coordinate of x."""
    den = x.den
    if den == 1:
        return (x.p, 1, x.q, 1, x.r, 1, x.s, 1)
    out = []
    for num in (x.p, x.q, x.r, x.s):
        g = gcd(num, den)
        out += (num // g, den // g)
    return tuple(out)


SparseRow = Dict[int, ExactScalar]


def _eliminate(row: SparseRow, col: int, pivot: SparseRow) -> None:
    """row -= row[col] * pivot in place, for a pivot row with pivot[col] == 1."""
    f = row.pop(col)
    for j, v in pivot.items():
        if j == col:
            continue
        acc = row.get(j, ZERO) - f * v
        if acc.is_zero():
            row.pop(j, None)
        else:
            row[j] = acc


def _add_row(pivots: Dict[int, SparseRow], row: Iterable) -> Optional[Tuple[int, ExactScalar]]:
    """One Gauss-Jordan step: add a row (a dict or (column, value) pairs)
    to the fully reduced rows stored by pivot column.

    The row is copied and its pivot columns are eliminated; a stored row
    is zero at every other pivot column, so one pass suffices.  If
    anything is left, it is normalised at its leading column, that
    column is cleared from the stored rows, and the result is
    (column, leading value before normalising).  A dependent row gives
    None and leaves pivots untouched.
    """
    row = dict(row)
    for col in [c for c in row if c in pivots]:
        _eliminate(row, col, pivots[col])
    if not row:
        return None
    col = min(row)
    lead = row[col]
    inv = lead.inverse()
    row = {j: v * inv for j, v in row.items()}
    for other in pivots.values():
        if col in other:
            _eliminate(other, col, row)
    pivots[col] = row
    return col, lead
