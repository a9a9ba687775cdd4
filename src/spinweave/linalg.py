"""Exact dense matrices over Q(i, sqrt2) and a sparse nullspace solver.

ExactMatrix is the square carrier for representations and group
elements.  The row-reduction helpers work on sparse dict rows so the
big commutant systems (hundreds of unknowns, two-term equations) stay
cheap; the reduced echelon form is canonical, which makes every solver
in the library deterministic.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .scalars import ExactScalar, ONE, ZERO, sc


class ExactMatrix:
    """Immutable square matrix with ExactScalar entries."""

    __slots__ = ("n", "rows", "_key")

    def __init__(self, rows: Sequence[Sequence]):
        n = len(rows)
        data = []
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            data.append(tuple(x if type(x) is ExactScalar else sc(x) for x in row))
        self.n = n
        self.rows = tuple(data)
        self._key = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int) -> "ExactMatrix":
        return cls([[ZERO] * n for _ in range(n)])

    @classmethod
    def diag(cls, entries: Sequence) -> "ExactMatrix":
        n = len(entries)
        return cls([[sc(entries[i]) if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def block2(cls, a: "ExactMatrix", b: "ExactMatrix", c: "ExactMatrix", d: "ExactMatrix") -> "ExactMatrix":
        """Assemble [[a, b], [c, d]] from four equally sized blocks."""
        n = a.n
        if not (b.n == c.n == d.n == n):
            raise ValueError("blocks must share dimensions")
        rows = [list(a.rows[i]) + list(b.rows[i]) for i in range(n)]
        rows += [list(c.rows[i]) + list(d.rows[i]) for i in range(n)]
        return cls(rows)

    @classmethod
    def kron(cls, a: "ExactMatrix", b: "ExactMatrix") -> "ExactMatrix":
        rows = []
        for i in range(a.n):
            for p in range(b.n):
                row = []
                for j in range(a.n):
                    aij = a.rows[i][j]
                    if aij.is_zero():
                        row.extend([ZERO] * b.n)
                    else:
                        row.extend(aij * b.rows[p][q] for q in range(b.n))
                rows.append(row)
        return cls(rows)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "ExactMatrix"):
        if self.n != other.n:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check(other)
        return ExactMatrix(
            [[self.rows[i][j] + other.rows[i][j] for j in range(self.n)] for i in range(self.n)]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check(other)
        return ExactMatrix(
            [[self.rows[i][j] - other.rows[i][j] for j in range(self.n)] for i in range(self.n)]
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-x for x in row] for row in self.rows])

    def scale(self, factor) -> "ExactMatrix":
        factor = sc(factor)
        return ExactMatrix([[factor * x for x in row] for row in self.rows])

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return self.scale(other)
        self._check(other)
        n = self.n
        out = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            arow = self.rows[i]
            orow = out[i]
            for k in range(n):
                aik = arow[k]
                if aik.is_zero():
                    continue
                brow = other.rows[k]
                for j in range(n):
                    bkj = brow[j]
                    if not bkj.is_zero():
                        orow[j] = orow[j] + aik * bkj
        return ExactMatrix(out)

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
        return ExactMatrix([[self.rows[j][i] for j in range(self.n)] for i in range(self.n)])

    def _monomial_inverse(self) -> Optional["ExactMatrix"]:
        """Fast inverse for matrices with one nonzero per row and column."""
        n = self.n
        entries = []
        seen_cols = set()
        for r in range(n):
            hit = None
            for c in range(n):
                if not self.rows[r][c].is_zero():
                    if hit is not None:
                        return None
                    hit = c
            if hit is None or hit in seen_cols:
                return None
            seen_cols.add(hit)
            entries.append((r, hit))
        rows = [[ZERO] * n for _ in range(n)]
        for r, c in entries:
            rows[c][r] = self.rows[r][c].inverse()
        return ExactMatrix(rows)

    def inverse(self) -> "ExactMatrix":
        """Gauss-Jordan inverse; raises ValueError on singular input.

        Monomial matrices (the whole frame group) take a direct path.
        """
        fast = self._monomial_inverse()
        if fast is not None:
            return fast
        n = self.n
        aug = [list(self.rows[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = aug[col][col].inverse()
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and not aug[r][col].is_zero():
                    f = aug[r][col]
                    aug[r] = [xr - f * xc for xr, xc in zip(aug[r], aug[col])]
        return ExactMatrix([row[n:] for row in aug])

    def det(self) -> ExactScalar:
        n = self.n
        work = [list(row) for row in self.rows]
        det = ONE
        for col in range(n):
            pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
            if pivot is None:
                return ZERO
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = -det
            det = det * work[col][col]
            inv = work[col][col].inverse()
            for r in range(col + 1, n):
                if not work[r][col].is_zero():
                    f = work[r][col] * inv
                    work[r] = [xr - f * xc for xr, xc in zip(work[r], work[col])]
        return det

    def rank(self) -> int:
        rows = [
            {j: x for j, x in enumerate(row) if not x.is_zero()} for row in self.rows
        ]
        reduced, pivots = rref_sparse([r for r in rows if r], self.n)
        return len(pivots)

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    def is_identity(self) -> bool:
        return self == ExactMatrix.identity(self.n)

    def scalar_value(self) -> Optional[ExactScalar]:
        """If the matrix is c*I, return c, else None."""
        c = self.rows[0][0]
        for i in range(self.n):
            for j in range(self.n):
                expected = c if i == j else ZERO
                if self.rows[i][j] != expected:
                    return None
        return c

    def first_nonzero(self) -> Optional[ExactScalar]:
        for row in self.rows:
            for x in row:
                if not x.is_zero():
                    return x
        return None

    def commutes_with(self, other: "ExactMatrix") -> bool:
        return self * other == other * self

    def anticommutes_with(self, other: "ExactMatrix") -> bool:
        return (self * other + other * self).is_zero()

    def key(self) -> tuple:
        """Canonical hashable key (used for dedup and stable ordering)."""
        if self._key is None:
            self._key = tuple(_coordinate_key(x) for row in self.rows for x in row)
        return self._key

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash(self.key())

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
        for other in work:
            if col in other:
                f = other.pop(col)
                for j, v in row.items():
                    if j == col:
                        continue
                    acc = other.get(j, ZERO) - f * v
                    if acc.is_zero():
                        other.pop(j, None)
                    else:
                        other[j] = acc
        for other in reduced:
            if col in other:
                f = other.pop(col)
                for j, v in row.items():
                    if j == col:
                        continue
                    acc = other.get(j, ZERO) - f * v
                    if acc.is_zero():
                        other.pop(j, None)
                    else:
                        other[j] = acc
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
