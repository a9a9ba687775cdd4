"""Differential tests of the raw-integer multiply-accumulate kernel.

``scalars._accumulate`` sums products into unreduced integer cells and
``scalars._collect`` reduces each cell once.  The reference is the sum
that the kernel replaced: one canonical ExactScalar per product, added
term by term.  The canonical form is unique, so the two must agree on
all five ints of every entry.

Values come from a grid with denominators 1, 2, 3, 6 and 10, optional
sqrt2 parts and integers above 2^64, so equal and unequal denominators
meet in one cell, the Gaussian shortcut and the full product both run,
and numerators outgrow machine words.  Half the draws append every term
again with its coefficient negated, so each sum cancels to exactly zero.
The matrix products and combinations are checked against ``ref_mul``
and friends from test_matrix_oracle.py, the Clifford product against a
per-term sum on ``blade_mul``.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinweave.clifford import CliffordElement, Signature, blade_mul
from spinweave.linalg import ExactMatrix
from spinweave.scalars import ExactScalar, SQRT2, ZERO, _accumulate, _collect, _sum_products

from test_matrix_oracle import dense, ref_add, ref_mul, ref_scale

BIG = 2**64 + 13
DENOMINATORS = (1, 2, 3, 6, 10)
NUMERATORS = (0, 0, 1, -1, 2, -3, 7, BIG, -BIG, 5 * BIG - 1)


@st.composite
def scalar(draw):
    """A grid scalar: each coordinate over its own denominator, and sqrt2
    parts only when the draw asks for them."""
    coords = [Fraction(draw(st.sampled_from(NUMERATORS)), draw(st.sampled_from(DENOMINATORS)))
              for _ in range(4)]
    if not draw(st.booleans()):
        coords[2] = coords[3] = 0
    return ExactScalar(*coords)


def fields(x):
    return x.p, x.q, x.r, x.s, x.den


def ref_sum(pairs):
    """Term-by-term reference: (key, ExactScalar) pairs in key order."""
    acc = {}
    for x, terms in pairs:
        for key, y in terms:
            acc[key] = acc.get(key, ZERO) + x * y
    return tuple(sorted((k, v) for k, v in acc.items() if not v.is_zero()))


def assert_same(got, expected):
    assert [k for k, _ in got] == [k for k, _ in expected]
    for (_, a), (_, b) in zip(got, expected):
        assert type(a) is ExactScalar and not a.is_zero()
        assert fields(a) == fields(b)


@st.composite
def kernel_pairs(draw):
    terms = st.lists(st.tuples(st.integers(0, 4), scalar()), max_size=5)
    pairs = draw(st.lists(st.tuples(scalar(), terms), max_size=5))
    if draw(st.booleans()):
        pairs += [(-x, terms) for x, terms in pairs]
    return pairs


# -- the kernel -----------------------------------------------------------------------


@given(kernel_pairs())
def test_kernel_matches_term_by_term_sums(pairs):
    acc = {}
    for x, terms in pairs:
        _accumulate(acc, x, terms)
    assert_same(_collect(acc), ref_sum(pairs))
    assert_same(_sum_products(pairs), ref_sum(pairs))


@given(kernel_pairs())
def test_cancelling_sums_are_empty(pairs):
    assert _sum_products(pairs + [(-x, terms) for x, terms in pairs]) == ()


def test_unequal_denominators_meet_at_their_lcm():
    # 1/2 + 1/3 + 1/6 = 1 in one cell, and 1/6 + 1/10 = 4/15 in another
    half, third, sixth, tenth = (ExactScalar(Fraction(1, d)) for d in (2, 3, 6, 10))
    one = ExactScalar(1)
    got = _sum_products([(half, [(0, one)]), (one, [(0, third), (1, sixth)]),
                         (sixth, [(0, one)]), (one, [(1, tenth)])])
    assert [(k, fields(v)) for k, v in got] == [(0, (1, 0, 0, 0, 1)), (1, (4, 0, 0, 0, 15))]


def test_sqrt2_products_leave_the_gaussian_shortcut():
    # sqrt2 * sqrt2 = 2, (1 + i sqrt2)(1 - i sqrt2) = 3, and i * sqrt2 keeps its sqrt2 part
    conj = ExactScalar(1, 0, 0, 1), ExactScalar(1, 0, 0, -1)
    got = _sum_products([(SQRT2, [(0, SQRT2)]), (conj[0], [(1, conj[1])]),
                         (ExactScalar(0, 1), [(2, SQRT2)])])
    assert [(k, fields(v)) for k, v in got] == [
        (0, (2, 0, 0, 0, 1)), (1, (3, 0, 0, 0, 1)), (2, (0, 0, 0, 1, 1)),
    ]


# -- ExactMatrix products and combinations ---------------------------------------------


GRID_ENTRY = st.one_of(st.just(ZERO), scalar())


def square(n):
    return st.lists(st.lists(GRID_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def matrix_pair(draw):
    n = draw(st.integers(1, 4))
    return draw(square(n)), draw(square(n))


@given(matrix_pair())
def test_matrix_product_matches_ref_mul(ab):
    a, b = ab
    got = ExactMatrix(a) * ExactMatrix(b)
    assert dense(got) == ref_mul(a, b)
    assert got.sparse_rows == ExactMatrix(ref_mul(a, b)).sparse_rows


@st.composite
def combination_case(draw):
    n = draw(st.integers(1, 4))
    terms = draw(st.lists(st.tuples(GRID_ENTRY, square(n)), max_size=4))
    if draw(st.booleans()):
        terms += [(-c, a) for c, a in terms]
    return n, terms


@given(combination_case())
def test_combination_matches_reference(case):
    n, terms = case
    expected = [[ZERO] * n for _ in range(n)]
    for c, a in terms:
        expected = ref_add(expected, ref_scale(a, c))
    mat = ExactMatrix.combination(n, [(c, ExactMatrix(a)) for c, a in terms])
    assert mat.sparse_rows == ExactMatrix(expected).sparse_rows


# -- the Clifford product ------------------------------------------------------------


def ref_clifford_mul(a, b):
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mask, sign = blade_mul(ma, mb, a.sig)
            term = ca * cb
            out[mask] = out.get(mask, ZERO) + (term if sign > 0 else -term)
    return {mask: c for mask, c in out.items() if not c.is_zero()}


@st.composite
def clifford_pair(draw):
    m = draw(st.integers(1, 4))
    k = draw(st.integers(0, m))
    sig = Signature(k, m - k)

    def element():
        return CliffordElement(sig, draw(st.dictionaries(st.integers(0, (1 << m) - 1), scalar(), max_size=5)))

    return element(), element()


@given(clifford_pair())
def test_clifford_product_matches_per_term_reference(ab):
    a, b = ab
    got = (a * b).terms
    expected = ref_clifford_mul(a, b)
    assert sorted(got) == sorted(expected)
    assert all(fields(got[mask]) == fields(expected[mask]) for mask in got)


# -- blade products of elements -------------------------------------------------------


@pytest.mark.parametrize("m", range(1, 6))
def test_blade_table_agrees_with_blade_mul(m):
    for k in range(m + 1):
        sig = Signature(k, m - k)
        for _ in range(2):  # twice: a product must not depend on the products made before it
            for a, b in product(range(1 << m), repeat=2):
                mask, sign = blade_mul(a, b, sig)
                got = CliffordElement.blade(sig, a) * CliffordElement.blade(sig, b)
                assert got == CliffordElement.blade(sig, mask, sign)


def test_out_of_range_mask_raises_on_every_product():
    # the constructor refuses the mask, so it is smuggled into an empty element
    sig = Signature(2, 1)
    with pytest.raises(ValueError):
        CliffordElement.blade(sig, 1 << 3)
    bad = CliffordElement.zero(sig)
    bad.terms = {1 << 3: ExactScalar(1)}
    good = CliffordElement.generator(sig, 0)
    for _ in range(3):
        with pytest.raises(ValueError):
            bad * good
        with pytest.raises(ValueError):
            good * bad
