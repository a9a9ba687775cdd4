"""Differential tests of the scalar kernel against sympy's number field.

sympy represents Q(i, sqrt2) by a primitive element and its minimal
polynomial, so it shares nothing with the integer kernel beyond the
coordinates of the four basis elements.  Skipped when sympy is absent.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spinweave.scalars import ExactScalar

sympy = pytest.importorskip("sympy")

K = sympy.QQ.algebraic_field(sympy.I, sympy.sqrt(2))
BASIS = [K.from_sympy(v) for v in (sympy.Integer(1), sympy.I, sympy.sqrt(2), sympy.I * sympy.sqrt(2))]
# complex conjugation fixes sqrt2 and sends the primitive element
# theta = sqrt2 + i to sqrt2 - i
THETA_BAR = BASIS[2] - BASIS[1]

rats = st.fractions(min_value=-20, max_value=20, max_denominator=30)
scalars = st.builds(ExactScalar, rats, rats, rats, rats)


def embed(x: ExactScalar):
    out = K.zero
    for coeff, unit in zip((x.a, x.b, x.c, x.d), BASIS):
        out += K.convert(sympy.QQ(coeff.numerator, coeff.denominator)) * unit
    return out


def oracle_conjugate(y):
    acc = K.zero
    for coeff in y.to_list():  # Horner in theta_bar
        acc = acc * THETA_BAR + K.convert(coeff)
    return acc


@given(scalars, scalars)
def test_add_sub_mul(x, y):
    ex, ey = embed(x), embed(y)
    assert embed(x + y) == ex + ey
    assert embed(x - y) == ex - ey
    assert embed(x * y) == ex * ey


@given(scalars)
def test_inverse(x):
    if x.is_zero():
        return
    assert embed(x.inverse()) == K.one / embed(x)


@given(scalars)
def test_conjugate(x):
    assert embed(x.conjugate()) == oracle_conjugate(embed(x))


@given(scalars, scalars)
def test_equality(x, y):
    assert (x == y) == (embed(x) == embed(y))
    assert x * y + x == x * (y + 1)


@given(rats, rats)
def test_gaussian_and_rational_operands(u, v):
    x = ExactScalar(u, v)
    assert embed(x * x) == embed(x) ** 2
    assert embed(x + Fraction(1, 3)) == embed(x) + K.convert(sympy.QQ(1, 3))
    assert embed(x * 5) == embed(x) * K.convert(5)
