from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spinweave.linalg import (
    ExactMatrix,
    matrix_to_vector,
    nullspace_sparse,
    rref_sparse,
    vector_to_matrix,
)
from spinweave.scalars import I, ONE, ZERO, ExactScalar, sc

M = ExactMatrix


def test_identity_and_mul():
    a = M([[1, 2], [3, 4]])
    assert M.identity(2) * a == a
    b = M([[0, 1], [1, 0]])
    assert a * b == M([[2, 1], [4, 3]])


def test_scale_and_add():
    a = M([[1, 0], [0, 1]])
    assert a.scale(3) + a == a.scale(4)
    assert 2 * a == a.scale(2)


def test_getitem_reads_in_range_entries_only():
    a = M([[1, 2], [3, 4]])
    assert [a[r, c] for r in range(2) for c in range(2)] == [sc(1), sc(2), sc(3), sc(4)]
    assert M([[0, 0], [0, 5]])[1, 0] == ZERO
    for pos in ((0, 5), (2, 0), (-1, 0), (0, -1)):
        with pytest.raises(IndexError):
            a[pos]


def test_inverse_roundtrip():
    a = M([[1, 2], [3, 5]])
    assert a * a.inverse() == M.identity(2)
    c = M([[I, 1], [0, I]])
    assert c.inverse() * c == M.identity(2)


def test_singular_inverse_raises():
    with pytest.raises(ValueError):
        M([[1, 1], [1, 1]]).inverse()


def test_det():
    assert M([[1, 2], [3, 5]]).det() == sc(-1)
    assert M([[1, 1], [1, 1]]).det() == ZERO
    assert M.identity(3).det() == ONE
    perm = M([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert perm.det() == sc(-1)


def test_rank():
    assert M([[1, 2], [2, 4]]).rank() == 1
    assert M.identity(4).rank() == 4
    assert M.zeros(3).rank() == 0


def test_kron_and_block():
    sx = M([[0, 1], [1, 0]])
    i2 = M.identity(2)
    k = M.kron(sx, i2)
    assert k.n == 4
    assert k.rows[0][2] == ONE and k.rows[0][0] == ZERO
    blk = M.block2(i2, M.zeros(2), M.zeros(2), -i2)
    assert blk == M.diag([1, 1, -1, -1])


def test_scalar_value():
    assert M.diag([3, 3]).scalar_value() == sc(3)
    assert M.diag([3, 2]).scalar_value() is None
    assert M([[0, 1], [0, 0]]).scalar_value() is None


def test_commutation_helpers():
    sx = M([[0, 1], [1, 0]])
    sz = M([[1, 0], [0, -1]])
    assert sx.anticommutes_with(sz)
    assert sx.commutes_with(M.identity(2))


def test_key_ordering_stable():
    a = M([[1, 0], [0, 1]])
    b = M([[0, 1], [1, 0]])
    assert sorted([a, b], key=lambda m: m.key()) == sorted([b, a], key=lambda m: m.key())


def test_rref_canonical():
    rows = [{0: sc(2), 1: sc(4)}, {0: sc(1), 1: sc(2), 2: sc(1)}]
    reduced, pivots = rref_sparse(rows, 3)
    assert pivots == [0, 2]
    assert reduced[0] == {0: ONE, 1: sc(2)}
    assert reduced[1] == {2: ONE}


def test_rref_order_independent():
    rows_a = [{0: sc(1), 2: sc(3)}, {1: sc(2)}]
    rows_b = [{1: sc(4)}, {0: sc(2), 2: sc(6)}]
    assert rref_sparse(rows_a, 3) == rref_sparse(rows_b, 3)


def test_nullspace_simple():
    # x + y = 0 over 3 unknowns -> basis {(-1,1,0), (0,0,1)}
    basis = nullspace_sparse([{0: ONE, 1: ONE}], 3)
    assert len(basis) == 2
    assert basis[0] == [sc(-1), ONE, ZERO]
    assert basis[1] == [ZERO, ZERO, ONE]


def test_nullspace_trivial():
    basis = nullspace_sparse([{0: ONE}, {1: ONE}], 2)
    assert basis == []


@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_nullspace_solutions_satisfy_system(vals):
    rows = [
        {j: sc(v) for j, v in enumerate(vals[:2]) if v},
        {j: sc(v) for j, v in enumerate(vals[2:]) if v},
    ]
    rows = [r for r in rows if r]
    for vec in nullspace_sparse(rows, 2):
        for row in rows:
            acc = ZERO
            for j, coeff in row.items():
                acc = acc + coeff * vec[j]
            assert acc.is_zero()


def test_vector_matrix_roundtrip():
    a = M([[1, 2], [3, 4]])
    assert vector_to_matrix(matrix_to_vector(a), 2) == a


def test_json_roundtrip():
    a = M([[ExactScalar(1, 2, Fraction(1, 3), 0), ZERO], [I, ONE]])
    assert M.from_json(a.to_json()) == a


@pytest.mark.parametrize("data", [5, None])
def test_json_rejects_a_matrix_that_is_not_a_list_of_rows(data):
    # regression: from_json(5) and from_json(None) raised TypeError
    with pytest.raises(ValueError, match="a matrix is a list of rows"):
        M.from_json(data)


def _old_key(coords):
    # the (numerator, denominator) tuple of each reduced Fraction coordinate
    return tuple(
        tuple(part for f in entry for part in (Fraction(f).numerator, Fraction(f).denominator))
        for entry in coords
    )


@pytest.mark.parametrize(
    "coords",
    [
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (-1, 0, 0, 0)],
        [(Fraction(1, 2), 0, 0, 0), (0, Fraction(-3, 4), 0, 0), (2, 0, 0, 0), (0, 0, 0, 0)],
        [(0, 0, 1, 0), (Fraction(1, 2), 0, Fraction(-1, 2), 0), (0, 0, 0, Fraction(5, 6)),
         (Fraction(2, 3), Fraction(-1, 6), Fraction(3, 4), Fraction(1, 12))],
    ],
)
def test_key_is_per_coordinate_fraction_tuple(coords):
    mat = M([[ExactScalar(*coords[0]), ExactScalar(*coords[1])],
             [ExactScalar(*coords[2]), ExactScalar(*coords[3])]])
    assert mat.key() == _old_key(coords)


@given(st.lists(st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=8)] * 4),
                min_size=4, max_size=4))
def test_key_matches_fraction_coordinates(coords):
    mat = M([[ExactScalar(*coords[0]), ExactScalar(*coords[1])],
             [ExactScalar(*coords[2]), ExactScalar(*coords[3])]])
    assert mat.key() == _old_key(coords)


def test_init_coerces_only_foreign_entries():
    half = ExactScalar(Fraction(1, 2))
    mat = M([[half, 1], [Fraction(1, 3), ZERO]])
    assert mat.rows[0][0] is half
    assert all(type(x) is ExactScalar for row in mat.rows for x in row)
    assert mat.rows[1][0] == ExactScalar(Fraction(1, 3))
