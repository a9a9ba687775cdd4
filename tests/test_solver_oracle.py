"""Differential tests of the incremental Gauss-Jordan solver.

The oracle is the pivot-scan row reduction that linalg.py used before it
kept one dict of fully reduced pivot rows: for each column in turn it
scans the remaining rows for one that starts there, normalises it and
clears its column from every other row.  It shares no code with
linalg.py.  The reduced echelon form is unique, so both must agree
exactly on every system, whatever the row order, duplicates or zero rows.
"""

from hypothesis import given
from hypothesis import strategies as st

from spinweave.scalars import ZERO

from test_intertwiner_oracle import rref_sparse
from test_matrix_oracle import GRID, NONZERO


# -- pivot-scan oracle ------------------------------------------------------------


def _oracle_eliminate(row, col, pivot):
    f = row.pop(col)
    for j, v in pivot.items():
        if j != col:
            acc = row.get(j, ZERO) - f * v
            if acc.is_zero():
                row.pop(j, None)
            else:
                row[j] = acc


def oracle_rref(rows, ncols):
    work = [dict(r) for r in rows if r]
    reduced, pivots = [], []
    for col in range(ncols):
        pivot_row = next((i for i, row in enumerate(work) if col in row and min(row) == col), None)
        if pivot_row is None:
            continue
        row = work.pop(pivot_row)
        inv = row[col].inverse()
        row = {j: v * inv for j, v in row.items()}
        for other in work + reduced:
            if col in other:
                _oracle_eliminate(other, col, row)
        reduced.append(row)
        pivots.append(col)
        work = [r for r in work if r]
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [reduced[i] for i in order], sorted(pivots)


# -- strategies -------------------------------------------------------------------


def _sparse(values):
    return {j: x for j, x in enumerate(values) if not x.is_zero()}


@st.composite
def system(draw):
    ncols = draw(st.integers(1, 6))
    dense = draw(st.lists(st.lists(st.sampled_from(GRID), min_size=ncols, max_size=ncols),
                          max_size=7))
    return [_sparse(row) for row in dense], ncols


# -- properties -------------------------------------------------------------------


@given(system())
def test_rref_matches_oracle(case):
    rows, ncols = case
    before = [dict(r) for r in rows]
    assert rref_sparse(rows, ncols) == oracle_rref(rows, ncols)
    assert rows == before  # the input rows are not modified


@given(system(), st.randoms(use_true_random=False), st.sampled_from(NONZERO), st.integers(0, 3))
def test_rref_ignores_order_duplicates_and_zero_rows(case, rng, factor, zeros):
    rows, ncols = case
    noisy = rows + [{j: factor * x for j, x in row.items()} for row in rows[:2]]
    noisy += [{}] * zeros + [dict(r) for r in rows[-1:]]
    rng.shuffle(noisy)
    assert rref_sparse(noisy, ncols) == oracle_rref(rows, ncols)


@given(system(), st.lists(st.sampled_from(NONZERO), min_size=7, max_size=7),
       st.sampled_from(NONZERO))
def test_inconsistent_augmented_system_pivots_on_the_last_column(case, coeffs, rhs):
    # [A | 0] plus a combination of A's rows with right-hand side rhs != 0
    rows, ncols = case
    combo = {}
    for c, row in zip(coeffs, rows):
        for j, x in row.items():
            combo[j] = combo.get(j, ZERO) + c * x
    aug = rows + [{**{j: x for j, x in combo.items() if not x.is_zero()}, ncols: rhs}]
    reduced, pivots = rref_sparse(aug, ncols + 1)
    assert pivots[-1] == ncols
    assert (reduced, pivots) == oracle_rref(aug, ncols + 1)
