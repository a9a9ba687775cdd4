import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from spinweave.clifford import CliffordElement, Signature, blade_mul, iso_im, volume
from spinweave.scalars import I, MINUS_ONE, ONE, sc

CE = CliffordElement


def sig(k, l):
    return Signature(k, l)


def e(s, i):
    return CE.generator(s, i)


def all_signatures(max_m):
    for m in range(1, max_m + 1):
        for k in range(m + 1):
            yield sig(k, m - k)


class TestSignature:
    def test_nu(self):
        assert sig(1, 0).nu == 1
        assert sig(2, 0).nu == 1
        assert sig(3, 0).nu == 2
        assert sig(4, 3).nu == 4

    def test_h_values(self):
        s = sig(2, 1)
        assert [s.h(i) for i in range(3)] == [1, 1, -1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            sig(0, 0)
        with pytest.raises(ValueError):
            sig(-1, 2)


class TestBladeMul:
    def test_generator_squares(self):
        assert blade_mul(0b1, 0b1, sig(1, 0)) == (0, 1)
        assert blade_mul(0b1, 0b1, sig(0, 1)) == (0, -1)

    def test_single_transposition(self):
        # e2 * e1 = -e1e2 in Cl(2,0)
        assert blade_mul(0b10, 0b01, sig(2, 0)) == (0b11, -1)

    def test_mixed_blade(self):
        # (e1e2) * e1 = -e2 in Cl(2,0)
        assert blade_mul(0b11, 0b01, sig(2, 0)) == (0b10, -1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            blade_mul(0b100, 0b1, sig(2, 0))

    def test_element_rejects_a_mask_outside_the_algebra(self):
        # mask 4 is e3 and mask 8 is e4, neither in Cl(2,0); -1 is no blade at all
        s = sig(2, 0)
        for terms in ({4: ONE, 1: ONE}, {8: ONE}, {-1: ONE}):
            with pytest.raises(ValueError, match="blade mask outside the algebra"):
                CE(s, terms)
        with pytest.raises(ValueError, match="blade mask outside the algebra"):
            CE.blade(s, 8)
        assert str(CE.blade(s, 0b11)) == "e1e2"


class TestProduct:
    def test_unit(self):
        s = sig(2, 1)
        x = CE(s, {0b101: sc(3), 0b010: -ONE})
        assert CE.scalar(s, 1) * x == x
        assert x * CE.scalar(s, 1) == x

    def test_sum_of_generators_squares(self):
        s = sig(2, 0)
        x = e(s, 0) + e(s, 1)
        assert x * x == CE.scalar(s, 2)

    def test_bivector_square(self):
        s = sig(2, 0)
        x = e(s, 0) * e(s, 1)
        assert x * x == CE.scalar(s, -1)

    def test_signature_mismatch(self):
        with pytest.raises(ValueError):
            e(sig(2, 0), 0) * e(sig(1, 1), 0)

    def test_clifford_relation_all_pairs(self):
        for s in all_signatures(5):
            for i in range(s.m):
                for j in range(s.m):
                    lhs = e(s, i) * e(s, j) + e(s, j) * e(s, i)
                    expected = CE.scalar(s, 2 * s.h(i)) if i == j else CE.zero(s)
                    assert lhs == expected


def random_element(s, rng, max_blades=3):
    terms = {}
    for _ in range(rng.randint(1, max_blades)):
        mask = rng.randrange(1 << s.m)
        terms[mask] = sc(rng.randint(-3, 3))
    return CE(s, terms)


def test_associativity_fuzz():
    rng = random.Random(7)
    for m in range(1, 9):
        for k in (0, m // 2, m):
            s = sig(k, m - k) if m else None
            for _ in range(20):
                x, y, z = (random_element(s, rng) for _ in range(3))
                assert (x * y) * z == x * (y * z)


@settings(max_examples=40)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.integers(0, 3))
def test_associativity_on_blades(a, b, c, k):
    s = sig(k, 3 - k)
    x, y, z = CE.blade(s, a), CE.blade(s, b), CE.blade(s, c)
    assert (x * y) * z == x * (y * z)


class TestAlpha:
    def test_negates_vectors(self):
        s = sig(3, 0)
        assert e(s, 0).alpha() == -e(s, 0)

    def test_fixes_even(self):
        s = sig(3, 0)
        b = e(s, 0) * e(s, 1)
        assert b.alpha() == b

    def test_linearity(self):
        s = sig(2, 0)
        x = CE.scalar(s, 1) + e(s, 0) + e(s, 0) * e(s, 1)
        assert x.alpha() == CE.scalar(s, 1) - e(s, 0) + e(s, 0) * e(s, 1)

    def test_involutive_automorphism(self):
        rng = random.Random(11)
        for s in all_signatures(5):
            x, y = random_element(s, rng), random_element(s, rng)
            assert x.alpha().alpha() == x
            assert (x * y).alpha() == x.alpha() * y.alpha()


class TestVolume:
    def test_small_cases(self):
        v = volume(sig(1, 0))
        assert v.eta == CE.generator(sig(1, 0), 0)
        assert v.iota == ONE
        assert volume(sig(0, 1)).iota == I
        assert volume(sig(3, 0)).iota == I

    def test_square_matches_iota(self):
        for s in all_signatures(6):
            v = volume(s)
            assert v.eta * v.eta == CE.scalar(s, v.iota * v.iota)

    def test_centrality_parity(self):
        # m odd: eta commutes with vectors; m even: anticommutes.
        for s in all_signatures(6):
            eta = volume(s).eta
            for i in range(s.m):
                vi = e(s, i)
                if s.m % 2:
                    assert eta * vi == vi * eta
                else:
                    assert eta * vi == -(vi * eta)

    def test_commutes_with_even_part(self):
        for s in all_signatures(5):
            eta = volume(s).eta
            for i, j in combinations(range(s.m), 2):
                b = e(s, i) * e(s, j)
                assert eta * b == b * eta


class TestIsoIm:
    def test_generator_image(self):
        s = sig(0, 1)
        out = iso_im(e(s, 0))
        assert out.sig == sig(0, 2)
        assert out == CE.blade(sig(0, 2), 0b11)

    def test_unit_maps_to_unit(self):
        s = sig(0, 2)
        assert iso_im(CE.scalar(s, 1)) == CE.scalar(sig(0, 3), 1)

    def test_bivector_sign(self):
        # e1e2 in Cl(0,2) -> (e1e3)(e2e3) = +e1e2 in Cl(0,3)
        s = sig(0, 2)
        out = iso_im(e(s, 0) * e(s, 1))
        assert out == CE.blade(sig(0, 3), 0b011)

    def test_image_is_even(self):
        s = sig(0, 3)
        x = CE(s, {0b1: ONE, 0b101: sc(2), 0b111: MINUS_ONE})
        out = iso_im(x)
        assert out.terms and out.alpha() == out

    def test_homomorphism_on_all_blade_pairs(self):
        for m in range(1, 7):
            s = sig(0, m)
            for a, b in product(range(1 << m), repeat=2):
                x, y = CE.blade(s, a), CE.blade(s, b)
                assert iso_im(x * y) == iso_im(x) * iso_im(y)

    def test_positive_target_allowed(self):
        s = sig(0, 1)
        out = iso_im(e(s, 0), target=sig(2, 0))
        assert out * out == CE.scalar(sig(2, 0), -1)

    def test_wrong_signature_rejected(self):
        with pytest.raises(ValueError):
            iso_im(e(sig(1, 0), 0))


def test_rendering():
    s = sig(3, 0)
    x = CE.scalar(s, 1) - sc(2) * (e(s, 0) * e(s, 2))
    assert str(x) == "1 - 2*e1e3"
