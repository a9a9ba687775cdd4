"""Differential tests of ExactMatrix against a naive dense reference.

The reference below works on plain lists of lists of ExactScalar and
shares no code with linalg.py: products and sums entry by entry, the
determinant by the Leibniz formula, and the key from the Fraction
coordinates.  Entries come from a small grid with many zeros, so the
sparse rows see empty rows, single entries and full rows.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweave.linalg import ExactMatrix
from spinweave.scalars import ExactScalar, ONE, ZERO

NONZERO = (
    ExactScalar(1), ExactScalar(-1), ExactScalar(0, 1), ExactScalar(0, -1),
    ExactScalar(Fraction(1, 2)), ExactScalar(0, 0, 1), ExactScalar(1, 1),
)
GRID = (ZERO,) * 5 + NONZERO


# -- naive dense reference ----------------------------------------------------


def ref_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(n):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def ref_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_scale(a, factor):
    return [[factor * x for x in row] for row in a]


def ref_transpose(a):
    return [list(col) for col in zip(*a)]


def ref_kron(a, b):
    nb = len(b)
    return [
        [a[i][j] * b[p][q] for j in range(len(a)) for q in range(nb)]
        for i in range(len(a))
        for p in range(nb)
    ]


def ref_block2(a, b, c, d):
    return [ra + rb for ra, rb in zip(a, b)] + [rc + rd for rc, rd in zip(c, d)]


def ref_identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def _parity(perm):
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def ref_det(a):
    n = len(a)
    total = ZERO
    for perm in permutations(range(n)):
        term = ONE
        for i in range(n):
            term = term * a[i][perm[i]]
            if term.is_zero():
                break
        if not term.is_zero():
            total = total + term if _parity(perm) > 0 else total - term
    return total


def ref_key(a):
    out = []
    for row in a:
        for x in row:
            entry = ()
            for coord in (x.a, x.b, x.c, x.d):
                entry += (coord.numerator, coord.denominator)
            out.append(entry)
    return tuple(out)


def dense(mat):
    return [list(row) for row in mat.rows]


# -- strategies -----------------------------------------------------------------


def square(n):
    return st.lists(st.lists(st.sampled_from(GRID), min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def one(draw):
    return draw(square(draw(st.integers(1, 6))))


@st.composite
def pair(draw):
    n = draw(st.integers(1, 6))
    return draw(square(n)), draw(square(n))


@st.composite
def monomial(draw):
    n = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(n)))
    values = draw(st.lists(st.sampled_from(NONZERO), min_size=n, max_size=n))
    return [[values[r] if c == perm[r] else ZERO for c in range(n)] for r in range(n)]


# -- properties -------------------------------------------------------------------


@given(one())
def test_storage_holds_the_nonzeros_in_column_order(a):
    mat = ExactMatrix(a)
    assert dense(mat) == a
    for r, row in enumerate(mat.sparse_rows):
        assert [c for c, _ in row] == [c for c, x in enumerate(a[r]) if not x.is_zero()]
        assert all(not x.is_zero() for _, x in row)
        assert all(mat[r, c] == a[r][c] for c in range(len(a)))
    pairs = [list(enumerate(row))[::-1] for row in a]  # unsorted, zeros included
    assert ExactMatrix.from_sparse_rows(pairs).sparse_rows == mat.sparse_rows


def test_from_sparse_rows_rejects_bad_columns():
    for row in ([(0, ONE), (0, ONE)], [(2, ONE)], [(-1, ONE)]):
        with pytest.raises(ValueError):
            ExactMatrix.from_sparse_rows([row, []])


@given(pair())
def test_ring_operations_match_reference(ab):
    a, b = ab
    ma, mb = ExactMatrix(a), ExactMatrix(b)
    assert dense(ma * mb) == ref_mul(a, b)
    assert dense(ma + mb) == ref_add(a, b)
    assert dense(ma - mb) == ref_sub(a, b)
    assert dense(-ma) == ref_scale(a, ExactScalar(-1))
    assert (ma * mb).sparse_rows == ExactMatrix(ref_mul(a, b)).sparse_rows


@given(one(), st.sampled_from(GRID))
def test_scale_matches_reference(a, factor):
    mat = ExactMatrix(a)
    assert dense(mat.scale(factor)) == ref_scale(a, factor)
    assert dense(factor * mat) == ref_scale(a, factor)


@given(one())
def test_transpose_matches_reference(a):
    assert dense(ExactMatrix(a).transpose()) == ref_transpose(a)


@settings(max_examples=50)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(square(n), square(n))))
def test_kron_matches_reference(ab):
    a, b = ab
    assert dense(ExactMatrix.kron(ExactMatrix(a), ExactMatrix(b))) == ref_kron(a, b)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[square(n)] * 4)))
def test_block2_matches_reference(blocks):
    mats = [ExactMatrix(x) for x in blocks]
    assert dense(ExactMatrix.block2(*mats)) == ref_block2(*blocks)


@given(one())
def test_det_matches_leibniz(a):
    assert ExactMatrix(a).det() == ref_det(a)


@given(one())
def test_inverse_matches_reference(a):
    mat = ExactMatrix(a)
    if ref_det(a).is_zero():
        with pytest.raises(ValueError):
            mat.inverse()
        return
    inv = dense(mat.inverse())
    n = len(a)
    assert ref_mul(a, inv) == ref_identity(n)
    assert ref_mul(inv, a) == ref_identity(n)


@given(monomial())
def test_monomial_inverse_matches_reference(a):
    mat = ExactMatrix(a)
    n = len(a)
    expected = [[ZERO] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            if not a[r][c].is_zero():
                expected[c][r] = a[r][c].inverse()
    assert dense(mat.inverse()) == expected
    assert ref_mul(a, expected) == ref_identity(n)


@given(pair())
def test_equality_hash_and_key_agree_with_reference(ab):
    a, b = ab
    ma, mb = ExactMatrix(a), ExactMatrix(b)
    assert ma.key() == ref_key(a)
    assert (ma == mb) == (a == b) == (ma.key() == mb.key())
    # the same matrix reached through arithmetic is equal and hashes equal
    again = (ma + mb) - mb
    assert again == ma and hash(again) == hash(ma) and again.key() == ma.key()
    assert len({ma, again, ExactMatrix(a)}) == 1
