from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spinweave.scalars import (
    I,
    MINUS_ONE,
    ONE,
    SQRT2,
    ZERO,
    ExactScalar,
    sc,
)

small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=6)
scalars = st.builds(ExactScalar, small_rats, small_rats, small_rats, small_rats)


def test_defining_relations():
    assert I * I == MINUS_ONE
    assert SQRT2 * SQRT2 == sc(2)
    assert (I * SQRT2) * (I * SQRT2) == sc(-2)


def test_mixed_product():
    x = ONE + I
    y = SQRT2 - I
    assert x * y == ExactScalar(1, -1, 1, 1)


@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(scalars)
def test_additive_inverse(x):
    assert x + (-x) == ZERO


@given(scalars)
def test_multiplicative_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == ONE


def test_inverse_of_irrational():
    x = ONE + SQRT2
    assert x * x.inverse() == ONE
    assert x.inverse() == SQRT2 - ONE  # 1/(1+sqrt2) = sqrt2 - 1


@given(scalars)
def test_conjugation_is_ring_morphism(x):
    y = ExactScalar(1, 2, Fraction(1, 3), -1)
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x


def test_predicates():
    assert sc(3).is_rational()
    assert not I.is_rational()
    assert SQRT2.is_real()
    assert not (I * SQRT2).is_real()
    assert (ONE + I).is_gaussian()
    assert not SQRT2.is_gaussian()


def test_real_sign_exact():
    # 3 - 2*sqrt2 > 0 since 9 > 8
    assert ExactScalar(3, 0, -2).real_sign() == 1
    # 2 - 2*sqrt2 < 0 since 4 < 8
    assert ExactScalar(2, 0, -2).real_sign() == -1
    assert ZERO.real_sign() == 0
    assert ExactScalar(-1, 0, 1).real_sign() == 1  # sqrt2 > 1


def test_leads_positive():
    assert ONE.leads_positive()
    assert not MINUS_ONE.leads_positive()
    assert I.leads_positive()
    assert not (-I).leads_positive()
    assert (SQRT2 - ONE).leads_positive()


def test_pow():
    assert (ONE + I) ** 4 == sc(-4)
    assert I ** -1 == -I


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(ONE - I) == "1 - i"
    assert str(ExactScalar(0, 0, -2)) == "-2*sqrt2"


def test_json_roundtrip():
    x = ExactScalar(Fraction(1, 2), -3, Fraction(5, 7), 0)
    assert ExactScalar.from_json(x.to_json()) == x


@pytest.mark.parametrize("data", [["1", "0", "0"], ["1", "0", "0", "0", "0"], "1234",
                                  [1, 0, 0, 0], ("1", "0", "0", "0"), None])
def test_json_rejects_anything_but_four_coordinate_strings(data):
    # regression: ['1', '0', '0'] read as 1, and '1234' as 1 + 2i + 3*sqrt2 + 4i*sqrt2
    with pytest.raises(ValueError):
        ExactScalar.from_json(data)


def test_json_names_a_coordinate_with_a_zero_denominator():
    # regression: ["1/0", "0", "0", "0"] raised ZeroDivisionError from Fraction
    with pytest.raises(ValueError, match=r"coordinate 0 \('1/0'\) has a zero denominator"):
        ExactScalar.from_json(["1/0", "0", "0", "0"])


@pytest.mark.parametrize("coords", [(0.1,), ("1/3",), (1, 0.5), (0, 0, 0, "2")])
def test_constructor_rejects_floats_and_strings(coords):
    # regression: ExactScalar(0.1) was the binary value of the float, as sc(0.1) is not
    with pytest.raises(TypeError, match="cannot coerce"):
        ExactScalar(*coords)


@pytest.mark.parametrize("value", [1, -3, 0, Fraction(1, 2), Fraction(-7, 3)])
def test_hash_agrees_with_eq_on_rationals(value):
    # regression: ONE == 1 held while 1 in {ONE} did not
    x = sc(value)
    assert x == value
    assert hash(x) == hash(value)
    assert value in {x}
    assert x in {value}


def _fields(x):
    return (x.p, x.q, x.r, x.s, x.den)


@given(scalars)
def test_canonical_form(x):
    from math import gcd

    assert x.den > 0
    assert gcd(x.p, x.q, x.r, x.s, x.den) == 1
    assert (x.a, x.b, x.c, x.d) == (
        Fraction(x.p, x.den), Fraction(x.q, x.den), Fraction(x.r, x.den), Fraction(x.s, x.den)
    )


@given(scalars, scalars)
def test_equal_values_have_equal_fields(x, y):
    # the same value reached along different routes
    assert _fields((x + y) - y) == _fields(x)
    assert _fields(x * (y + ONE) - x * y) == _fields(x)


def test_zero_is_stored_canonically():
    half = ExactScalar(Fraction(1, 2), Fraction(1, 3))
    for zero in (ZERO, ExactScalar(), half - half, half * ZERO, sc(Fraction(0, 5)), -ZERO):
        assert _fields(zero) == (0, 0, 0, 0, 1)


def test_shared_denominator():
    x = ExactScalar(Fraction(1, 2), Fraction(-1, 3), Fraction(5, 4), 2)
    assert _fields(x) == (6, -4, 15, 24, 12)
    assert _fields(x + x) == (6, -4, 15, 24, 6)


@pytest.mark.parametrize("value", [1.5, Decimal(1), "1", 1j, None])
def test_only_ints_and_fractions_coerce(value):
    # scalars reads the Fraction class from sys.modules, not from numbers.Rational
    for make in (sc, ExactScalar, lambda x: ExactScalar(0, x)):
        with pytest.raises(TypeError, match=rf"cannot coerce {type(value).__name__} into"):
            make(value)
    for op in ("__add__", "__sub__", "__mul__", "__eq__"):
        assert getattr(ONE, op)(value) is NotImplemented


@pytest.mark.parametrize("value, expected", [
    (True, sc(1)), (False, sc(0)), (Fraction(3, 6), ExactScalar(Fraction(1, 2))), (7, sc(7)),
])
def test_bools_ints_and_fractions_coerce(value, expected):
    assert sc(value) == expected and ExactScalar(value) == expected
    assert ONE * value == expected and expected == value
