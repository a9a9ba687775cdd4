"""Differential tests of the exterior and Hermitean module operators.

The reference below keeps the per-basis-form form of both checks: the
action on a sparse form is written out with its own wedge and
contraction rules, shares no code with bundles.py, and is applied twice
to every basis form.  The module checks must reach the same verdicts,
and every row of an operator must be the reference image of its basis
form.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweave import bundles
from spinweave.bundles import (
    ExteriorElement,
    exterior_example_check,
    exterior_operator,
    exterior_tau,
    hermitean_example_check,
    hermitean_h_value,
    hermitean_tau,
)
from spinweave.clifford import Signature
from spinweave.scalars import ExactScalar, ONE, SQRT2, ZERO, sc

# -- reference: one basis form at a time ---------------------------------------


def ref_wedge(mask, i):
    """Insert covector i into the sorted subset: (mask, sign), or None."""
    if mask >> i & 1:
        return None
    before = bin(mask & ((1 << i) - 1)).count("1")
    return mask | (1 << i), (-1) ** before


def ref_contract(mask, i):
    """Pair slot i of the sorted subset: (mask, sign), or None."""
    if not mask >> i & 1:
        return None
    before = bin(mask & ((1 << i) - 1)).count("1")
    return mask & ~(1 << i), (-1) ** before


def _add(acc, mask, value):
    total = acc.get(mask, ZERO) + value
    if total.is_zero():
        acc.pop(mask, None)
    else:
        acc[mask] = total


def ref_exterior_tau(v, form, h):
    """Contraction by v plus wedge by g(v), on a dict mask -> scalar."""
    acc = {}
    for mask, c in form.items():
        for i in range(h.m):
            vi = sc(v[i])
            if vi.is_zero():
                continue
            hit = ref_contract(mask, i)
            if hit:
                _add(acc, hit[0], sc(hit[1]) * vi * c)
            hit = ref_wedge(mask, i)
            if hit:
                _add(acc, hit[0], sc(hit[1] * h.h(i)) * vi * c)
    return acc


def ref_hermitean_tau(n, form):
    """sqrt2 * (conjugate contraction + wedge) by n, on a dict mask -> scalar."""
    acc = {}
    for mask, c in form.items():
        for i, ai in enumerate(n):
            ai = sc(ai)
            if ai.is_zero():
                continue
            hit = ref_contract(mask, i)
            if hit:
                _add(acc, hit[0], sc(hit[1]) * ai.conjugate() * c)
            hit = ref_wedge(mask, i)
            if hit:
                _add(acc, hit[0], sc(hit[1]) * ai * c)
    return {mask: SQRT2 * c for mask, c in acc.items()}


def ref_exterior_check(h):
    for i in range(h.m):
        v = [1 if j == i else 0 for j in range(h.m)]
        for mask in range(1 << h.m):
            twice = ref_exterior_tau(v, ref_exterior_tau(v, {mask: ONE}, h), h)
            if twice != {mask: sc(h.h(i))}:
                return False
    return True


def ref_hermitean_check(d, samples, seed):
    rng = random.Random(seed)
    ok = True
    for _ in range(samples):
        n = [ExactScalar(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(d)]
        if all(c.is_zero() for c in n):
            continue
        hv = hermitean_h_value(n)
        for mask in range(1 << d):
            if ref_hermitean_tau(n, ref_hermitean_tau(n, {mask: ONE})) != {mask: hv}:
                ok = False
    return ok


def rows_of(image, m):
    """Sparse rows of the reference operator: row A lists image(omega_A)."""
    return tuple(tuple(sorted(image({mask: ONE}).items())) for mask in range(1 << m))


def _gaussian_operator(n):
    """S: the operator on the Gaussian slots of n that hermitean_example_check squares."""
    return bundles._operator(len(n), bundles._hermitean_slots(n, len(n)))


# -- verdicts ---------------------------------------------------------------------

SIGNATURES = [Signature(k, m - k) for m in range(1, 7) for k in range(m + 1)]


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_exterior_verdict_matches_reference(sig):
    assert ref_exterior_check(sig) is True
    assert exterior_example_check(sig).ok is True


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [1, 2, 7, 2024])
def test_hermitean_verdict_matches_reference(d, seed):
    assert ref_hermitean_check(d, 4, seed) is True
    assert hermitean_example_check(d, 4, seed).ok is True


# -- operator rows at general vectors -------------------------------------------------

COORD = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2)])
GAUSS = st.builds(ExactScalar, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def exterior_case(draw):
    m = draw(st.integers(1, 5))
    k = draw(st.integers(0, m))
    return Signature(k, m - k), draw(st.lists(COORD, min_size=m, max_size=m))


@settings(max_examples=60, deadline=None)
@given(exterior_case())
def test_exterior_operator_rows_are_reference_images(case):
    sig, v = case
    op = exterior_operator(v, sig)
    assert op.n == 1 << sig.m
    assert op.sparse_rows == rows_of(lambda form: ref_exterior_tau(v, form, sig), sig.m)
    form = {mask: sc(mask - 3) for mask in range(1 << sig.m) if mask != 3}
    assert exterior_tau(v, ExteriorElement(sig.m, form), sig).terms == ref_exterior_tau(v, form, sig)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(GAUSS, min_size=d, max_size=d)))
def test_hermitean_operator_rows_are_reference_images(n):
    # T = sqrt2 * S for the Gaussian-slot operator S that hermitean_example_check squares
    d = len(n)
    op = _gaussian_operator(n).scale(SQRT2)
    assert op.n == 1 << d
    assert op.sparse_rows == rows_of(lambda form: ref_hermitean_tau(n, form), d)
    form = {mask: sc(mask + 1) for mask in range(1 << d)}
    assert hermitean_tau(n, ExteriorElement(d, form)).terms == ref_hermitean_tau(n, form)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [1, 2, 7, 2024])
def test_hermitean_operator_is_sqrt2_times_the_gaussian_operator(d, seed):
    # hermitean_example_check squares the Gaussian operator S, and row A of T = sqrt2 * S is
    # hermitean_tau(n, omega_A)
    rng = random.Random(seed)
    n = [ExactScalar(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(d)]
    gaussian = _gaussian_operator(n)
    assert all(x.is_gaussian() for row in gaussian.sparse_rows for _, x in row)
    images = (hermitean_tau(n, ExteriorElement.basis_form(d, mask)) for mask in range(1 << d))
    rows = tuple(tuple(sorted(image.terms.items())) for image in images)
    assert gaussian.scale(SQRT2).sparse_rows == rows


def test_operators_keep_the_input_checks():
    with pytest.raises(ValueError):
        exterior_operator([1, 0], Signature(3, 0))
    with pytest.raises(ValueError):
        hermitean_tau([SQRT2], ExteriorElement.zero(1))
