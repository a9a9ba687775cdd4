"""Differential tests of the coordinate read ``groups._expand``.

The read takes the coordinates of x in a basis b_k off duals (t_k, d_k)
with t_k (b_j d_k + d_k b_j) = delta_jk I, and keeps them only when their
combination equals x.  The oracle is ``oracle_expand_in_basis`` of
test_restrict_oracle.py: the pivot-scan row reduction of the n^2 entry
equations, which shares no code with the library.  Both must give equal
coordinates on targets in the span and None on targets outside it, for
the frame of every canonical spin space with m <= 6 and of 9,0 and 4,5,
of Hypothesis-conjugated spin spaces and of frames with one vector
rescaled by 2 or i, and for kappa's isotropic pair on its conjugates by
sampled Lipschitz elements.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweave.clifford import Signature
from spinweave.groups import (
    _expand, _isotropic_pair, expand_in_frame, generate_frame_group, sample_lipschitz,
)
from spinweave.linalg import ExactMatrix
from spinweave.reps import spin_space

from test_group_oracle import MUTATIONS
from test_matrix_oracle import GRID, NONZERO
from test_reps import _conjugated_spin_space
from test_restrict_oracle import oracle_expand_in_basis

SIGNATURES = [(k, m - k) for m in range(1, 7) for k in range(m + 1)] + [(9, 0), (4, 5)]
ODD_SIGNATURES = [kl for kl in SIGNATURES if sum(kl) % 2]


def _entries(mat: ExactMatrix) -> list:
    return [y for row in mat.rows for y in row]


def oracle_expand(mats, x):
    return oracle_expand_in_basis([_entries(b) for b in mats], _entries(x))


def _dense(rng: random.Random, n: int) -> ExactMatrix:
    return ExactMatrix([[rng.choice(NONZERO) for _ in range(n)] for _ in range(n)])


def _dense_outside(rng: random.Random, mats) -> ExactMatrix:
    """A dense matrix that the oracle puts outside span mats, redrawn while it lies inside: at
    n = 2 an m = 2 frame spans half the dimensions, and about 1 % of the draws land in it."""
    for _ in range(20):
        x = _dense(rng, mats[0].n)
        if oracle_expand(mats, x) is None:
            return x
    raise AssertionError("20 dense draws all lie in the span")


def _check_frame(ss, rng: random.Random) -> None:
    coords = [rng.choice(GRID) for _ in ss.frame]
    inside = ExactMatrix.combination(ss.dim, zip(coords, ss.frame))
    assert expand_in_frame(ss, inside) == oracle_expand(ss.frame, inside) == coords
    # Gamma anticommutes with every v_k, so it has no frame coordinates
    for outside in (ss.gamma, _dense_outside(rng, ss.frame)):
        assert oracle_expand(ss.frame, outside) is None
        assert expand_in_frame(ss, outside) is None


def _check_isotropic_pair(ss, rng: random.Random, samples: int) -> None:
    pair, duals = _isotropic_pair(ss)
    group = generate_frame_group(ss)
    targets = [ss.gamma]  # (u+ - u-) / 2
    for _ in range(samples):
        a = sample_lipschitz(group, rng)
        inv = a.inverse()
        targets += [a * u * inv for u in pair]
    for x in targets:
        coords = _expand(pair, duals, x)
        assert coords is not None and coords == oracle_expand(pair, x)
    for outside in (ExactMatrix.identity(ss.dim), _dense(rng, ss.dim)):
        assert oracle_expand(pair, outside) is None
        assert _expand(pair, duals, outside) is None


@pytest.mark.parametrize("kl", SIGNATURES, ids="{0[0]},{0[1]}".format)
def test_frame_read_matches_the_oracle(kl):
    _check_frame(spin_space(Signature(*kl)), random.Random(str(kl)))


@pytest.mark.parametrize("kl", ODD_SIGNATURES, ids="{0[0]},{0[1]}".format)
def test_isotropic_read_matches_the_oracle(kl):
    _check_isotropic_pair(spin_space(Signature(*kl)), random.Random(str(kl)), samples=5)


@pytest.mark.parametrize("parity", [0, 1], ids=["even-m", "odd-m"])
@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(0, 1000))
def test_conjugated_reads_match_the_oracle(parity, data, seed):
    ss = data.draw(_conjugated_spin_space(parity))
    _check_frame(ss, random.Random(seed))
    if parity:
        _check_isotropic_pair(ss, random.Random(seed), samples=2)


@pytest.mark.parametrize("name", ["2v", "iv"])
@pytest.mark.parametrize("kl", [(2, 0), (2, 1), (1, 2), (3, 3), (2, 3)], ids="{0[0]},{0[1]}".format)
def test_rescaled_frame_is_read_with_its_own_squares(kl, name):
    _check_frame(MUTATIONS[name](spin_space(Signature(*kl))), random.Random(name))


def test_frame_that_breaks_anticommutation_raises():
    ss = MUTATIONS["v0+v1"](spin_space(Signature(2, 1)))
    with pytest.raises(ValueError, match="Clifford relations"):
        expand_in_frame(ss, ss.frame[1])


@pytest.mark.parametrize("kl", [(1, 0), (2, 1), (0, 3), (2, 3)], ids="{0[0]},{0[1]}".format)
def test_isotropic_pair_with_identity_gamma_raises(kl):
    # Gamma = I makes u+ u- = u- u+ = j^2 - I = 0
    with pytest.raises(ValueError, match="not a nonzero scalar"):
        _isotropic_pair(MUTATIONS["gamma=I"](spin_space(Signature(*kl))))
