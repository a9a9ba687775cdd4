"""Exact sparse matrices over Q(i, sqrt2) and a sparse nullspace solver.

ExactMatrix is the square carrier for representations and group
elements.  Each row is stored as a tuple of (column, value) pairs that
holds the nonzero entries only, in ascending column order.  The
canonical frame images, volume elements and frame-group elements are
unit-monomial (one entry from {+-1, +-i} per row), so their products,
sums and inverses cost time in the number of nonzeros rather than n^3
or n^2.  The storage is canonical, which lets equality and hashing
compare the pairs directly.

The row-reduction helpers work on sparse dict rows so the big commutant
systems (hundreds of unknowns, two-term equations) stay cheap; the
reduced echelon form is canonical, which makes every solver in the
library deterministic.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import ExactScalar, ONE, ZERO, sc

Row = Tuple[Tuple[int, ExactScalar], ...]


class _DenseRows:
    """Read-only dense view ``mat.rows``: a tuple of n-tuples, built once.

    Zero entries are the shared ZERO; nonzero entries are the stored
    objects themselves.  A descriptor rather than a property, for the
    same reason as the scalar coordinates: perfbench/tracer.py times
    every property as layer work, but reads ``rows`` from its own hooks.
    """

    __slots__ = ()

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        if obj._dense is None:
            n = obj.n
            dense = []
            for row in obj.sparse_rows:
                full = [ZERO] * n
                for c, x in row:
                    full[c] = x
                dense.append(tuple(full))
            obj._dense = tuple(dense)
        return obj._dense


class ExactMatrix:
    """Immutable square matrix with ExactScalar entries, stored by nonzeros.

    ``sparse_rows[r]`` lists the nonzero entries of row r as (column,
    value) pairs in ascending column order; ``rows`` is the dense view.
    """

    __slots__ = ("n", "sparse_rows", "_dense", "_key", "_hash")

    rows = _DenseRows()

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
        self._dense = self._key = self._hash = None

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
        self._check(other)
        return _wrap(self.n, tuple(
            _combine(a, b, False) for a, b in zip(self.sparse_rows, other.sparse_rows)
        ))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check(other)
        return _wrap(self.n, tuple(
            _combine(a, b, True) for a, b in zip(self.sparse_rows, other.sparse_rows)
        ))

    def __neg__(self) -> "ExactMatrix":
        return _wrap(self.n, tuple(tuple((c, -x) for c, x in row) for row in self.sparse_rows))

    def scale(self, factor) -> "ExactMatrix":
        factor = sc(factor)
        if factor.is_zero():
            return ExactMatrix.zeros(self.n)
        return _wrap(self.n, tuple(
            tuple((c, factor * x) for c, x in row) for row in self.sparse_rows
        ))

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return self.scale(other)
        self._check(other)
        n = self.n
        brows = other.sparse_rows
        out = []
        for arow in self.sparse_rows:
            if len(arow) == 1:
                # a product of nonzeros is nonzero, and brows[k] is sorted
                k, x = arow[0]
                out.append(tuple((j, x * y) for j, y in brows[k]))
                continue
            acc: List[Optional[ExactScalar]] = [None] * n
            for k, x in arow:
                for j, y in brows[k]:
                    cur = acc[j]
                    acc[j] = x * y if cur is None else cur + x * y
            out.append(tuple(
                (j, v) for j, v in enumerate(acc) if v is not None and not v.is_zero()
            ))
        return _wrap(n, tuple(out))

    def __rmul__(self, other):
        if isinstance(other, ExactMatrix):
            return NotImplemented
        return self.scale(other)

    def __pow__(self, k: int) -> "ExactMatrix":
        if k < 0:
            return self.inverse() ** (-k)
        out = ExactMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
        """Gauss-Jordan inverse; raises ValueError on singular input.

        Monomial matrices (the whole frame group) take a direct path.
        """
        fast = self._monomial_inverse()
        if fast is not None:
            return fast
        n = self.n
        aug = [dict(row) for row in self.sparse_rows]
        for i, row in enumerate(aug):
            row[n + i] = ONE
        for col in range(n):
            pivot = next((r for r in range(col, n) if col in aug[r]), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = aug[col][col].inverse()
            prow = aug[col] = {j: x * inv for j, x in aug[col].items()}
            for r in range(n):
                if r != col and col in aug[r]:
                    _eliminate(aug[r], col, prow)
        return _wrap(n, tuple(
            tuple(sorted((j - n, x) for j, x in row.items() if j >= n)) for row in aug
        ))

    def det(self) -> ExactScalar:
        n = self.n
        work = [dict(row) for row in self.sparse_rows]
        det = ONE
        for col in range(n):
            pivot = next((r for r in range(col, n) if col in work[r]), None)
            if pivot is None:
                return ZERO
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = -det
            lead = work[col][col]
            det = det * lead
            inv = lead.inverse()
            prow = {j: x * inv for j, x in work[col].items()}
            for r in range(col + 1, n):
                if col in work[r]:
                    _eliminate(work[r], col, prow)
        return det

    def rank(self) -> int:
        reduced, pivots = rref_sparse([dict(row) for row in self.sparse_rows if row], self.n)
        return len(pivots)

    # -- queries ------------------------------------------------------------

    def __getitem__(self, pos: Tuple[int, int]) -> ExactScalar:
        """Entry (r, c), read from the sparse row."""
        r, c = pos
        for col, x in self.sparse_rows[r]:
            if col >= c:
                return x if col == c else ZERO
        return ZERO

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def is_identity(self) -> bool:
        return self == ExactMatrix.identity(self.n)

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
        if self._key is None:
            n = self.n
            out: list = []
            for row in self.sparse_rows:
                full = [_ZERO_KEY] * n
                for c, x in row:
                    full[c] = _coordinate_key(x)
                out += full
            self._key = tuple(out)
        return self._key

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
        return cls([[ExactScalar.from_json(x) for x in row] for row in data])


_new = object.__new__


def _wrap(n: int, rows: Tuple[Row, ...]) -> ExactMatrix:
    """Wrap rows already in canonical form (nonzero ExactScalars, ascending columns)."""
    mat = _new(ExactMatrix)
    mat.n = n
    mat.sparse_rows = rows
    mat._dense = mat._key = mat._hash = None
    return mat


def _shift(row: Row, offset: int) -> Row:
    return tuple((c + offset, x) for c, x in row)


def _combine(a: Row, b: Row, subtract: bool) -> Row:
    """The sparse row a + b, or a - b when subtract is set."""
    if not b:
        return a
    if not a:
        return tuple((c, -x) for c, x in b) if subtract else b
    acc = dict(a)
    for c, x in b:
        cur = acc.get(c)
        if cur is None:
            acc[c] = -x if subtract else x
        else:
            acc[c] = cur - x if subtract else cur + x
    # columns are unique, so sorting never compares two values
    return tuple(sorted(item for item in acc.items() if not item[1].is_zero()))


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


def rref_sparse(rows: List[SparseRow], ncols: int) -> Tuple[List[SparseRow], List[int]]:
    """Reduced row echelon form of a sparse system; returns (rows, pivot cols).

    The output is the canonical RREF, so callers can rely on it for
    deterministic bases regardless of input row order.
    """
    work = [dict(r) for r in rows if r]
    reduced: List[SparseRow] = []
    pivots: List[int] = []
    for col in range(ncols):
        pivot_row = None
        for idx, row in enumerate(work):
            if col in row and min(row) == col:
                pivot_row = idx
                break
        if pivot_row is None:
            continue
        row = work.pop(pivot_row)
        inv = row[col].inverse()
        row = {j: v * inv for j, v in row.items()}
        for other in work + reduced:
            if col in other:
                _eliminate(other, col, row)
        reduced.append(row)
        pivots.append(col)
        work = [r for r in work if r]
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [reduced[i] for i in order], sorted(pivots)


def nullspace_sparse(rows: List[SparseRow], ncols: int) -> List[List[ExactScalar]]:
    """Canonical basis of the solution space of a homogeneous sparse system.

    One basis vector per free column, in increasing column order, with a
    1 in its free coordinate.
    """
    reduced, pivots = rref_sparse(rows, ncols)
    pivot_set = set(pivots)
    pivot_of = {col: row for col, row in zip(pivots, reduced)}
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for col in pivots:
            coeff = pivot_of[col].get(free)
            if coeff is not None:
                vec[col] = -coeff
        basis.append(vec)
    return basis


def expand_in_basis(
    vectors: List[List[ExactScalar]], target: List[ExactScalar]
) -> Optional[List[ExactScalar]]:
    """Coordinates of target in the span of the given vectors, or None.

    Solves the small least-structured system exactly by RREF on the
    augmented matrix [V | target].
    """
    k = len(vectors)
    if k == 0:
        return [] if all(x.is_zero() for x in target) else None
    length = len(target)
    rows: List[SparseRow] = []
    for i in range(length):
        row: SparseRow = {}
        for j in range(k):
            v = vectors[j][i]
            if not v.is_zero():
                row[j] = v
        if not target[i].is_zero():
            row[k] = target[i]
        if row:
            rows.append(row)
    reduced, pivots = rref_sparse(rows, k + 1)
    if k in pivots:
        return None  # inconsistent
    coords = [ZERO] * k
    for col, row in zip(pivots, reduced):
        coords[col] = row.get(k, ZERO)
    # verify exactly (span may not contain target even when consistent rows ran out)
    for i in range(length):
        acc = ZERO
        for j in range(k):
            if not coords[j].is_zero():
                acc = acc + coords[j] * vectors[j][i]
        if acc != target[i]:
            return None
    return coords


def matrix_to_vector(mat: ExactMatrix) -> List[ExactScalar]:
    return [x for row in mat.rows for x in row]


def vector_to_matrix(vec: Sequence[ExactScalar], n: int) -> ExactMatrix:
    return ExactMatrix([[vec[i * n + j] for j in range(n)] for i in range(n)])
