"""Differential tests of the Weyl halves and of gamma_map.

The Weyl oracle is the eigenspace solve and restriction ``build_rep`` made
before it read the halves off the Dirac blocks: the canonical kernel
basis of j - lambda I for the volume involution j (``nullspace_sparse``),
and each even generator expanded in that basis by row-reducing the
augmented system [V | image] (with the pivot-scan reduction of
test_solver_oracle.py); a target outside the span gives None, and an
operator that leaves the span raises.  The gamma oracle is the blade
recursion ``gamma_map`` kept before it became the image of the
Gamma * v_i representation: a blade is (Gamma v_i) times the blade
without its lowest generator, cached per spin space.  It is checked on
every blade of the canonical spaces with m <= 5 and of three altered
ones: Gamma = I, a frame that is not the inclusion images, and a
conjugated frame.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinweave import linalg, reps
from spinweave.clifford import CliffordElement, Signature
from spinweave.linalg import ExactMatrix
from spinweave.reps import (
    DIRAC, WEYL_MINUS, WEYL_PLUS, SpinSpace, _frame_volume, _weyl_images,
    build_rep, conjugate_spin_space, gamma_map, spin_space,
)
from spinweave.scalars import MINUS_ONE, ONE, ZERO, sc

from test_intertwiner_oracle import nullspace_sparse
from test_matrix_oracle import GRID, NONZERO, ref_add, ref_identity, ref_sub
from test_solver_oracle import oracle_rref

CE = CliffordElement


# -- Weyl oracle ----------------------------------------------------------------------


def oracle_expand_in_basis(vectors, target):
    """Coordinates of target in the span of the vectors, or None."""
    k = len(vectors)
    if k == 0:
        return [] if all(x.is_zero() for x in target) else None
    rows = []
    for i in range(len(target)):
        row = {j: vectors[j][i] for j in range(k) if not vectors[j][i].is_zero()}
        if not target[i].is_zero():
            row[k] = target[i]
        if row:
            rows.append(row)
    reduced, pivots = oracle_rref(rows, k + 1)
    if k in pivots:
        return None  # inconsistent
    coords = [ZERO] * k
    for col, row in zip(pivots, reduced):
        coords[col] = row.get(k, ZERO)
    for i in range(len(target)):
        acc = ZERO
        for j in range(k):
            acc = acc + coords[j] * vectors[j][i]
        if acc != target[i]:
            return None
    return coords


def oracle_restrict(op, basis):
    cols = []
    for vec in basis:
        image = [sum((x * vec[c] for c, x in row), ZERO) for row in op.sparse_rows]
        coords = oracle_expand_in_basis(basis, image)
        if coords is None:
            raise ValueError("subspace is not invariant under the operator")
        cols.append(coords)
    return ExactMatrix(cols).transpose()


def oracle_eigenspace_basis(frame, eigenvalue):
    """Canonical kernel basis of j - eigenvalue * I, j = iota * eta."""
    eta, iota = _frame_volume(frame)
    shifted = eta.scale(iota) - ExactMatrix.identity(eta.n).scale(eigenvalue)
    return nullspace_sparse([dict(row) for row in shifted.sparse_rows if row], eta.n)


def oracle_weyl_images(frame, eigenvalue):
    basis = oracle_eigenspace_basis(frame, eigenvalue)
    return tuple(oracle_restrict(v * frame[-1], basis) for v in frame[:-1])


EVEN_SIGNATURES = [Signature(k, m - k) for m in (2, 4, 6, 8, 10) for k in range(m + 1)]
HALVES = {WEYL_PLUS: ONE, WEYL_MINUS: MINUS_ONE}


@pytest.mark.parametrize("kind", [WEYL_PLUS, WEYL_MINUS])
@pytest.mark.parametrize("sig", EVEN_SIGNATURES, ids=str)
def test_weyl_images_equal_the_oracle(sig, kind):
    rep = build_rep(sig, kind)
    assert rep.images == oracle_weyl_images(build_rep(sig, DIRAC).images, HALVES[kind])
    assert rep.dim == 2 ** (sig.m // 2 - 1)


@pytest.mark.parametrize("want", [ONE, MINUS_ONE])
@pytest.mark.parametrize("sig", EVEN_SIGNATURES, ids=str)
def test_odd_image_on_a_half_raises_like_the_oracle(sig, want):
    # the oracle's own invariance check, which the equality above relies on:
    # a Dirac generator image anticommutes with the volume, so it swaps the
    # two eigenspaces, leaves neither invariant, and the restriction raises
    dirac = build_rep(sig, DIRAC)
    basis = oracle_eigenspace_basis(dirac.images, want)
    for v in dirac.images:
        with pytest.raises(ValueError, match="not invariant"):
            oracle_restrict(v, basis)


def _conjugated_dirac(sig, shift):
    frame = build_rep(sig, DIRAC).images
    a = ExactMatrix.identity(frame[0].n) + shift(frame).scale(sc(2))
    inv = a.inverse()
    return tuple(a * v * inv for v in frame)


GUARD_SIGNATURES = [Signature(2, 0), Signature(1, 1), Signature(0, 4), Signature(3, 3)]


@pytest.mark.parametrize("eigenvalue", [ONE, MINUS_ONE])
@pytest.mark.parametrize("sig", GUARD_SIGNATURES, ids=str)
def test_weyl_read_rejects_a_volume_off_the_block_form(sig, eigenvalue):
    # I + 2 v1 mixes the halves: it does not commute with the volume, so the
    # conjugated involution is not [[0, -cI], [cI, 0]]
    frame = _conjugated_dirac(sig, lambda f: f[0])
    with pytest.raises(ValueError, match=r"not \[\[0, -cI\], \[cI, 0\]\]"):
        _weyl_images(frame, eigenvalue)


@pytest.mark.parametrize("eigenvalue", [ONE, MINUS_ONE])
@pytest.mark.parametrize("sig", GUARD_SIGNATURES, ids=str)
def test_weyl_read_of_an_even_conjugate_equals_the_oracle(sig, eigenvalue):
    # I + 2 v1 v2 is even, so it commutes with the volume and leaves j in
    # block form: the read is still the restriction, of the conjugated frame
    frame = _conjugated_dirac(sig, lambda f: f[0] * f[1])
    assert _weyl_images(frame, eigenvalue) == oracle_weyl_images(frame, eigenvalue)


def _no_solve(*args):
    raise AssertionError("the Weyl read made a linear solve")


@pytest.mark.parametrize("kind", [WEYL_PLUS, WEYL_MINUS])
@pytest.mark.parametrize("sig", EVEN_SIGNATURES, ids=str)
def test_weyl_build_makes_no_solve(monkeypatch, sig, kind):
    expected = build_rep(sig, kind).images
    for module, name in ((reps, "_add_row"), (linalg, "_add_row")):
        monkeypatch.setattr(module, name, _no_solve)
    assert build_rep(sig, kind).images == expected


def _dense(draw, rows, cols):
    return [[draw(st.sampled_from(GRID)) for _ in range(cols)] for _ in range(rows)]


def _sparse(vec):
    return {c: x for c, x in enumerate(vec) if not x.is_zero()}


def _matmul(a, b):
    return [[sum((x * b[j][c] for j, x in enumerate(row)), ZERO) for c in range(len(b[0]))]
            for row in a]


@st.composite
def _kernel_basis(draw):
    """A canonical kernel basis in n <= 5 unknowns with at least one vector."""
    n = draw(st.integers(1, 5))
    system = _dense(draw, draw(st.integers(0, n - 1)), n)
    return n, nullspace_sparse([row for row in map(_sparse, system) if row], n)


@given(_kernel_basis(), st.data())
def test_invariant_operator_restricts_to_its_matrix(case, data):
    # the oracle recovers R on any invariant operator: with B the basis as
    # columns and L a left inverse of B, op = B R L + N (I - B L) acts on the
    # span as R, whatever N does off it
    n, basis = case
    d = len(basis)
    b = [[vec[r] for vec in basis] for r in range(n)]
    # the pivot columns of the basis rows pick d coordinates where B is invertible
    _, picked = oracle_rref([_sparse(vec) for vec in basis], n)
    select = [[ONE if c == p else ZERO for c in range(n)] for p in picked]
    left = _matmul(oracle_inverse(_matmul(select, b)), select)
    r = _dense(data.draw, d, d)
    noise = _dense(data.draw, n, n)
    off_span = ref_sub(ref_identity(n), _matmul(b, left))
    op = ExactMatrix(ref_add(_matmul(_matmul(b, r), left), _matmul(noise, off_span)))
    assert oracle_restrict(op, basis) == ExactMatrix(r)


def oracle_inverse(a):
    """Inverse of a small invertible dense matrix: the RREF of [A | I] is [I | A^-1]."""
    n = len(a)
    reduced, pivots = oracle_rref([_sparse(row + ref_identity(n)[i]) for i, row in enumerate(a)],
                                  2 * n)
    assert pivots[:n] == list(range(n))
    return [[row.get(n + c, ZERO) for c in range(n)] for row in reduced[:n]]


# -- gamma_map oracle ---------------------------------------------------------------


def oracle_gamma_blade(ss, mask, cache):
    if mask not in cache:
        if mask == 0:
            cache[mask] = ExactMatrix.identity(ss.dim)
        else:
            low = mask & -mask
            cache[mask] = ((ss.gamma * ss.frame[low.bit_length() - 1])
                           * oracle_gamma_blade(ss, mask ^ low, cache))
    return cache[mask]


def _canonical(sig):
    return spin_space(sig)


def _identity_gamma(sig):
    ss = spin_space(sig)
    return SpinSpace(ss.sig, ss.rep, ss.frame, ss.eta, ss.iota, ExactMatrix.identity(ss.dim))


def _negated_first(sig):
    # a frame that differs from the inclusion representation's images
    ss = spin_space(sig)
    frame = (-ss.frame[0],) + ss.frame[1:]
    return SpinSpace(ss.sig, ss.rep, frame, ss.eta, ss.iota, ss.gamma)


def _conjugated(sig):
    ss = spin_space(sig)
    shift = ExactMatrix.identity(ss.dim)
    if sig.m >= 2:
        shift = shift + (ss.frame[0] * ss.frame[1]).scale(sc(2))
    return conjugate_spin_space(ss, shift)


SMALL_SIGNATURES = [Signature(k, m - k) for m in range(1, 6) for k in range(m + 1)]


@pytest.mark.parametrize("make", [_canonical, _identity_gamma, _negated_first, _conjugated])
@pytest.mark.parametrize("sig", SMALL_SIGNATURES, ids=str)
def test_gamma_map_equals_the_blade_oracle(sig, make):
    ss = make(sig)
    cache = {}
    total = ExactMatrix.zeros(ss.dim)
    combo = CE.zero(sig)
    for mask in range(1 << sig.m):
        assert gamma_map(ss, CE.blade(sig, mask)) == oracle_gamma_blade(ss, mask, cache)
        coeff = NONZERO[mask % len(NONZERO)]
        total = total + cache[mask].scale(coeff)
        combo = combo + CE.blade(sig, mask, coeff)
    assert gamma_map(ss, combo) == total


def test_gamma_map_rejects_a_foreign_element():
    with pytest.raises(ValueError):
        gamma_map(spin_space(Signature(2, 0)), CE.generator(Signature(1, 1), 0))
