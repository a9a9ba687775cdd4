"""Differential tests of the commutant, anticommutant and intertwiners.

The oracle is the solve ``reps`` made before the Reynolds projection: the
m n^2 linear equations (a x - y a)[r, c] = 0 in the n^2 entries of a, with
the canonical kernel basis of their reduced echelon form (one vector per
free column, in increasing column order, 1 there and 0 at the other free
columns), read back into matrices in row-major order.  ``rref_sparse``,
``nullspace_sparse``, ``vector_to_matrix`` and ``matrix_to_vector`` are the
library functions of that solve, kept here: ``test_linalg.py`` tests them,
and ``test_solver_oracle.py`` checks ``rref_sparse``, and with it the
library's elimination step ``linalg._add_row``, against a second reduction.

The projection must give the very same bases: on the canonical spin spaces
(unit-monomial frames, summed once per orbit of positions), on conjugated
frames (matrix blades), and between frames of the two kinds.
"""

from functools import reduce
from operator import mul
from typing import Dict, Iterable, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweave import reps
from spinweave.clifford import Signature
from spinweave.linalg import ExactMatrix, _add_row
from spinweave.reps import (
    Representation, _intertwiner_space, anticommutant, build_rep, commutant, find_intertwiner,
    invertible_intertwiner, spin_space,
)
from spinweave.scalars import ExactScalar, I, ONE, ZERO, sc

from test_reps import _conjugated_spin_space


# -- the solve, kept as the oracle ------------------------------------------------------


def rref_sparse(rows: Iterable, ncols: int) -> Tuple[List[Dict[int, ExactScalar]], List[int]]:
    """Reduced row echelon form of a sparse system in ncols unknowns;
    returns (rows, pivot cols), both in increasing pivot order.

    The output is the canonical RREF, so callers can rely on it for
    deterministic bases regardless of input row order.
    """
    pivots: Dict[int, Dict[int, ExactScalar]] = {}
    for row in rows:
        _add_row(pivots, row)
    cols = sorted(pivots)
    return [pivots[col] for col in cols], cols


def nullspace_sparse(rows: List[Dict[int, ExactScalar]], ncols: int) -> List[List[ExactScalar]]:
    """Canonical basis of the solution space of a homogeneous sparse system.

    One basis vector per free column, in increasing column order, with a
    1 in its free coordinate.
    """
    reduced, pivots = rref_sparse(rows, ncols)
    pivot_of = dict(zip(pivots, reduced))
    basis = []
    for free in range(ncols):
        if free in pivot_of:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for col, row in pivot_of.items():
            coeff = row.get(free)
            if coeff is not None:
                vec[col] = -coeff
        basis.append(vec)
    return basis


def matrix_to_vector(mat: ExactMatrix) -> List[ExactScalar]:
    return [x for row in mat.rows for x in row]


def vector_to_matrix(vec: Sequence[ExactScalar], n: int) -> ExactMatrix:
    return ExactMatrix([[vec[i * n + j] for j in range(n)] for i in range(n)])


def oracle_intertwiner_space(images1, images2) -> List[ExactMatrix]:
    """Basis of {a : a x = y a for every paired (x, y)}."""
    n = images1[0].n
    rows = []
    for x, y in zip(images1, images2):
        x_cols = x.transpose().sparse_rows
        for r in range(n):
            for c in range(n):
                # (a x - y a)[r,c] = sum_s a[r,s] x[s,c] - y[r,s] a[s,c] = 0
                row = {r * n + s: xsc for s, xsc in x_cols[c]}
                for s, yrs in y.sparse_rows[r]:
                    key = s * n + c
                    row[key] = row.get(key, ZERO) - yrs
                row = {k: v for k, v in row.items() if not v.is_zero()}
                if row:
                    rows.append(row)
    return [vector_to_matrix(vec, n) for vec in nullspace_sparse(rows, n * n)]


def oracle_commutant(frame):
    return oracle_intertwiner_space(frame, frame)


def oracle_anticommutant(frame):
    return oracle_intertwiner_space(frame, [-v for v in frame])


# -- canonical spin spaces ----------------------------------------------------------------

SIGNATURES = [Signature(k, m - k) for m in range(1, 9) for k in range(m + 1)] + [
    Signature(9, 0), Signature(4, 5), Signature(10, 0), Signature(5, 5)]


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_projection_bases_equal_the_solve(sig):
    frame = spin_space(sig).frame
    assert commutant(frame) == oracle_commutant(frame)
    assert anticommutant(frame) == oracle_anticommutant(frame)


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_character_count_is_the_basis_length(sig):
    frame = spin_space(sig).frame
    for flip in (False, True):
        basis, count = _intertwiner_space(frame, frame, flip)
        assert count == len(basis) == (2 if sig.m % 2 else 1)


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_phase_blades_read_back_as_the_matrix_blades(sig):
    frame = spin_space(sig).frame
    # the low-bit product v_A = v_low v_(A - low), unrolled: the frame matrices of A in
    # increasing order
    products = [reduce(mul, (v for i, v in enumerate(frame) if mask >> i & 1),
                       ExactMatrix.identity(frame[0].n)) for mask in range(1 << len(frame))]
    assert [b.matrix() for b in reps._blade_table(frame)[1]] == products


# -- frames that are not unit-monomial ----------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([0, 1]).flatmap(_conjugated_spin_space))
def test_conjugated_frames_equal_the_solve(ss):
    # a conjugated frame takes the matrix-blade path, alone and against the
    # canonical frame it came from
    canonical = spin_space(ss.sig).frame
    for source, target in ((ss.frame, ss.frame), (canonical, ss.frame), (ss.frame, canonical)):
        for flip in (False, True):
            basis, count = _intertwiner_space(source, target, flip)
            signed = [-w for w in target] if flip else list(target)
            assert basis == oracle_intertwiner_space(source, signed)
            assert count == len(basis)


KIND_PAIRS = [(sig, a, b) for sig in (Signature(3, 0), Signature(1, 2))
              for a in ("pauli", "pauli_twisted") for b in ("pauli", "pauli_twisted")]
KIND_PAIRS += [(sig, a, b) for sig in (Signature(2, 2), Signature(4, 0))
               for a in ("weyl+", "weyl-") for b in ("weyl+", "weyl-")]


@pytest.mark.parametrize("sig, source, target", KIND_PAIRS, ids=str)
def test_representation_kinds_against_each_other(sig, source, target):
    # twisted against plain Pauli and the two Weyl halves have no intertwiner
    images1, images2 = build_rep(sig, source).images, build_rep(sig, target).images
    basis = _intertwiner_space(images1, images2)[0]
    assert basis == oracle_intertwiner_space(images1, images2)
    assert len(basis) == (source == target)


# -- frames outside the projection's hypothesis -----------------------------------------


def _broken_frames(frame):
    v = frame
    yield (v[0], v[0]) + tuple(v[2:])  # v1 commutes with itself
    yield (v[0] + v[1],) + tuple(v[1:])  # v1 + v2 does not anticommute with v2
    yield (v[0] + ExactMatrix.identity(v[0].n),) + tuple(v[1:])  # (v1 + I)^2 = 2 v1 + (h1 + 1) I


@pytest.mark.parametrize("sig", [Signature(2, 0), Signature(1, 1), Signature(3, 0),
                                 Signature(1, 3)], ids=str)
def test_a_frame_breaking_the_clifford_relations_raises(sig):
    frame = spin_space(sig).frame
    for broken in _broken_frames(frame):
        for source, target in ((broken, broken), (frame, broken), (broken, frame)):
            with pytest.raises(ValueError, match="breaks the Clifford relations"):
                _intertwiner_space(source, target)


def test_a_zero_square_raises():
    frame = spin_space(Signature(1, 1)).frame
    null = frame[0] + frame[1]  # squares to (1 - 1) I = 0
    with pytest.raises(ValueError, match="breaks the Clifford relations"):
        commutant((null,))


@pytest.mark.parametrize("sig", [Signature(2, 0), Signature(3, 0), Signature(2, 2),
                                 Signature(5, 0)], ids=str)
def test_frames_with_different_squares_give_the_empty_basis(sig):
    frame = spin_space(sig).frame
    for changed in ((frame[0].scale(sc(2)),) + frame[1:], (frame[0].scale(I),) + frame[1:]):
        for source, target in ((frame, changed), (changed, frame)):
            assert oracle_intertwiner_space(source, target) == []
            assert _intertwiner_space(source, target) == ([], ZERO)
            assert invertible_intertwiner(source, target) is None


def test_signatures_with_different_squares_have_no_intertwiner():
    plus, minus = build_rep(Signature(2, 0), "dirac"), build_rep(Signature(1, 1), "dirac")
    minus = Representation(plus.sig, plus.kind, minus.images, minus.dim)
    assert oracle_intertwiner_space(plus.images, minus.images) == []
    assert find_intertwiner(plus, minus) is None


def test_frames_of_different_sizes_raise():
    two, four = spin_space(Signature(2, 0)).frame, spin_space(Signature(3, 0)).frame
    for source, target in ((two, four[:2]), (two, two[:1]), ((), ())):
        with pytest.raises(ValueError, match="nonempty"):
            _intertwiner_space(source, target)


# -- no solve on the canonical path -------------------------------------------------------


def _no_solve(*args):
    raise AssertionError("a linear solve was made")


VERIFY_SIGNATURES = [Signature(k, m - k) for m in range(1, 7) for k in range(m + 1)] + [
    Signature(7, 0), Signature(4, 4), Signature(9, 0), Signature(4, 5), Signature(5, 5),
    Signature(0, 10)]


@pytest.mark.parametrize("sig", VERIFY_SIGNATURES, ids=str)
def test_verify_makes_no_solve(monkeypatch, sig):
    from spinweave import cli

    expected = [r.to_json() for r in cli._verify_signature(sig, 1)]
    for cached in (reps._blade_table, reps.spin_space):
        cached.cache_clear()  # so that Gamma and the frame group are built again
    monkeypatch.setattr(reps, "_add_row", _no_solve)
    assert [r.to_json() for r in cli._verify_signature(sig, 1)] == expected
