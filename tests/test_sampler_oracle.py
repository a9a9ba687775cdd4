"""Differential tests of the integer sphere and tangent-pair sampling.

The oracle is the Fraction sampler that bundles.py used before it moved
to integers: stereographic projection and the tangent projection
y = v - (x.v) x on Fractions, with the same randint draws in the same
order.  The records must be equal, so every seeded example checks the
same points as before.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinweave.bundles import (
    RationalSpherePoint,
    TangentPair,
    sample_sphere_points,
    sample_tangent_pairs,
    stereographic,
)

# -- Fraction oracle --------------------------------------------------------------------


def oracle_stereographic(params):
    norm = Fraction(sum(p * p for p in params))
    den = 1 + norm
    return tuple(2 * Fraction(p) / den for p in params) + ((1 - norm) / den,)


def _oracle_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def oracle_tangent_pairs(m, count, seed):
    """(records, redraws): the redraws count the samples dropped for y == 0."""
    rng = random.Random(seed)
    out, redraws = [], 0
    while len(out) < count:
        x = oracle_stereographic([_oracle_fraction(rng) for _ in range(m)])
        v = [_oracle_fraction(rng) for _ in range(m + 1)]
        dot = sum(a * b for a, b in zip(x, v))
        y = tuple(b - dot * a for a, b in zip(x, v))
        if all(c == 0 for c in y):
            redraws += 1
            continue
        out.append(TangentPair(RationalSpherePoint(x), y))
    return out, redraws


# -- properties -------------------------------------------------------------------------


@pytest.mark.parametrize("m", range(1, 9))
def test_tangent_pairs_match_the_fraction_oracle(m):
    for seed in range(1, 41):
        got = sample_tangent_pairs(m, 4, seed)
        assert got == oracle_tangent_pairs(m, 4, seed)[0]
        for pair in got:
            assert all(type(c) is Fraction for c in pair.point.coords + pair.y)


def test_a_redraw_keeps_the_draw_order():
    # at seed 6, m = 1 the fourth draw has x = (-3/5, 4/5) and v = (5/6) x, so y == 0
    expected, redraws = oracle_tangent_pairs(1, 5, 6)
    assert redraws == 1
    assert sample_tangent_pairs(1, 5, 6) == expected


@pytest.mark.parametrize("m", range(1, 9))
def test_sphere_points_match_the_fraction_oracle(m):
    for seed in range(1, 11):
        rng = random.Random(seed)
        expected = [oracle_stereographic([_oracle_fraction(rng) for _ in range(m)]) for _ in range(4)]
        assert [p.coords for p in sample_sphere_points(m, 4, seed)] == expected


@given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=40)), max_size=6))
def test_stereographic_matches_the_fraction_oracle(params):
    assert stereographic(params).coords == oracle_stereographic(params)
