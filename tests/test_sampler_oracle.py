"""Differential tests of the integer sphere and tangent-pair sampling.

The oracle is the Fraction sampler that bundles.py used before it moved
to integers: stereographic projection and the tangent projection
y = v - (x.v) x on Fractions, with the same randint draws in the same
order.  The records must be equal, so every seeded example checks the
same points as before.  The maps the examples check are built once, as
integer numerators; divided by their scales they must equal the maps
built on the Fraction records, as bundles.py built them before.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinweave import bundles
from spinweave.bundles import (
    QuadricPoint,
    RationalSpherePoint,
    TangentPair,
    quadric_tau,
    quadric_varpi,
    sample_quadric_points,
    sample_sphere_points,
    sample_tangent_pairs,
    sphere_representation,
    sphere_tau,
    stereographic,
)
from spinweave.clifford import CliffordElement, Signature, volume
from spinweave.linalg import ExactMatrix
from spinweave.reps import DIRAC, PAULI, build_rep
from spinweave.scalars import I, ONE, sc

CE = CliffordElement

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


# -- the maps on integer numerators --------------------------------------------------------


def oracle_sphere_tau(pair, rep):
    """theta(i x y) on the reduced Fraction coordinates of the pair."""
    x = CE.vector(rep.sig, [sc(c) for c in pair.point.coords])
    y = CE.vector(rep.sig, [sc(c) for c in pair.y])
    return rep.image((x * y).scale(I))


def oracle_quadric_maps(p):
    """(tau, varpi) of a quadric sample on its reduced Fraction coordinates."""
    s2, s3 = Signature(2, 0), Signature(3, 0)
    theta, sigma, omega = build_rep(s2, DIRAC), build_rep(s3, PAULI), volume(s3).eta
    xi = CE.vector(s2, [sc(c) for c in p.x.y])
    iy = CE.vector(s3, [sc(c) * I for c in p.y.point.coords])
    t = CE.vector(s3, [sc(c) for c in p.y.y])
    tau = (ExactMatrix.kron(theta.image(xi), sigma.image(iy * omega))
           + ExactMatrix.kron(ExactMatrix.identity(2), sigma.image(iy * t)))
    x = CE.vector(s2, [sc(c) for c in p.x.point.coords])
    varpi = ExactMatrix.kron(theta.image(x), sigma.image(iy.scale(-ONE) * omega))
    return tau, varpi


@pytest.mark.parametrize("m", range(1, 9))
def test_tangent_forms_are_the_records_over_integers(m):
    rep = sphere_representation(m)
    for seed in range(1, 21):
        forms = bundles._tangent_forms(m, 3, seed)
        records = oracle_tangent_pairs(m, 3, seed)[0]
        assert sample_tangent_pairs(m, 3, seed) == records
        for (xs, d, ys, e), pair in zip(forms, records):
            assert all(type(c) is int for c in (*xs, d, *ys, e)) and d > 0 and e > 0
            assert tuple(Fraction(c, d) for c in xs) == pair.point.coords
            assert tuple(Fraction(c, e) for c in ys) == pair.y
            tau = oracle_sphere_tau(pair, rep)
            assert bundles._sphere_numerator(xs, ys, rep).scale(ONE / (d * e)) == tau
            assert sphere_tau(m, pair, rep) == tau


def test_quadric_maps_are_numerators_over_their_scales():
    for seed in range(1, 21):
        forms = bundles._quadric_forms(3, seed)
        points = sample_quadric_points(3, seed)
        assert points == [
            QuadricPoint(x, y) for x, y in zip(oracle_tangent_pairs(1, 3, seed)[0],
                                               oracle_tangent_pairs(2, 3, seed + 1)[0])
        ]
        for (fx, fy), p in zip(forms, points):
            tau, varpi = oracle_quadric_maps(p)
            (_, d1, _, e1), (_, d2, _, e2) = fx, fy
            scale_tau = ONE / (d2 * (e1 * e2 // gcd(e1, e2)))
            assert bundles._quadric_tau_numerator(fx, fy).scale(scale_tau) == tau
            assert bundles._quadric_varpi_numerator(fx, fy).scale(ONE / (d1 * d2)) == varpi
            assert quadric_tau(p) == tau and quadric_varpi(p) == varpi


def test_some_quadric_tangent_denominators_share_a_factor():
    # otherwise lcm(E1, E2) = E1 E2 and the tau scale would go untested
    assert any(gcd(fx[3], fy[3]) > 1 for fx, fy in bundles._quadric_forms(3, 1))


_X = (Fraction(3, 5), Fraction(4, 5))


@pytest.mark.parametrize("check, form, record, message", [
    ("point", ([3, 4], 6), lambda: RationalSpherePoint((Fraction(3, 6), Fraction(4, 6))),
     "sphere point does not have unit norm"),
    ("tangent", ([3, 4], [4, -3, 0]), lambda: TangentPair(RationalSpherePoint(_X), (4, -3, 0)),
     "tangent vector has wrong length"),
    ("tangent", ([3, 4], [1, 1]),
     lambda: TangentPair(RationalSpherePoint(_X), (Fraction(1, 7), Fraction(1, 7))),
     "tangent vector is not orthogonal to the point"),
], ids=["not-unit", "wrong-length", "not-orthogonal"])
def test_hand_made_forms_raise_the_records_messages(check, form, record, message):
    # the sampler checks its forms with these before it builds any record
    with pytest.raises(ValueError, match=f"^{message}$"):
        record()
    with pytest.raises(ValueError, match=f"^{message}$"):
        getattr(bundles, f"_check_{check}")(*form)
