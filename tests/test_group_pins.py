"""Pinned frame-group order, Cayley tables and seeded Lipschitz samples.

The digests were recorded from the dense-matrix implementation that
preceded sparse rows.  Frame-group element order (sorted by
``ExactMatrix.key``) fixes the Cayley table and which element a seeded
``sample_lipschitz`` draw picks, so any change in key values, element
order or sampling shows up here.
"""

import hashlib
import random

import pytest

from spinweave.clifford import Signature
from spinweave.groups import frame_group, sample_lipschitz

# signature -> (order, element keys, Cayley table through index_of, 8 samples with seed 20)
PINS = {
    (2, 1): (16, "212cf1985b84b7bc", "99bbf98e99bccc20", "e2386db3f5093bcb"),
    (2, 2): (32, "4a9ede2cde089c35", "4d1ea8333a988b80", "ba807d02ceb93e1d"),
    (3, 2): (64, "fe20d3614aa7ea5a", "2f84ef64b0216989", "ebe8ec533e16e627"),
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@pytest.mark.parametrize("kl", sorted(PINS))
def test_frame_group_and_samples_match_pins(kl):
    order, elements, cayley, samples = PINS[kl]
    sig = Signature(*kl)
    group = frame_group(sig)
    rng = random.Random(20)
    drawn = tuple(sample_lipschitz(group, rng).key() for _ in range(8))
    assert group.order == order
    assert _digest(tuple(g.key() for g in group.elements)) == elements
    table = tuple(tuple(group.index_of(a * b) for b in group.elements) for a in group.elements)
    assert _digest(table) == cayley
    assert _digest(drawn) == samples
