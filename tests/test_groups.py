import gc
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from spinweave import cli, groups
from spinweave.clifford import CliffordElement, Signature
from spinweave.linalg import ExactMatrix
from spinweave.groups import (
    KappaImage,
    OrthMatrix,
    adjoint_matrix,
    ad_surjectivity_witnesses,
    build_odd_element,
    clifford_parity,
    embed_pin_pair,
    expand_in_frame,
    factor_kernel_element,
    factor_scalar_times_pin,
    frame_group,
    generate_frame_group,
    in_kernel_k,
    is_lipschitz,
    kappa,
    plain_ad_kernel,
    sample_lipschitz,
    scalar_pair,
    twisted_adjoint,
    twisted_adjoint_matrix,
    verify_extension_diagram,
    verify_spinor_groups,
)
from spinweave.reps import (
    EVEN, ODD, Representation, SpinSpace, _blade_table, conjugate_spin_space, grading_of,
    spin_space,
)
from spinweave.scalars import I, MINUS_ONE, ONE, ExactScalar, sc

CE = CliffordElement
M = ExactMatrix


def sig(k, l):
    return Signature(k, l)


def all_signatures(max_m):
    for m in range(1, max_m + 1):
        for k in range(m + 1):
            yield sig(k, m - k)


class TestFrameGroup:
    def test_orders(self):
        assert generate_frame_group(spin_space(sig(1, 0))).order == 4
        assert generate_frame_group(spin_space(sig(2, 0))).order == 8
        assert generate_frame_group(spin_space(sig(3, 0))).order == 16

    def test_order_all_signatures(self):
        for s in all_signatures(5):
            assert generate_frame_group(spin_space(s)).order == 2 ** (s.m + 1)

    @pytest.mark.parametrize("s", [sig(3, 0), sig(2, 2)], ids=str)
    def test_reads_the_built_blade_table_without_a_product(self, monkeypatch, s):
        ss = spin_space(s)
        _blade_table(ss.frame)
        products = []
        mul = M.__mul__
        monkeypatch.setattr(M, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        assert generate_frame_group(ss).order == 2 ** (s.m + 1)
        assert not products

    def test_contains_plus_minus_identity(self):
        ss = spin_space(sig(2, 1))
        g = generate_frame_group(ss)
        ident = M.identity(ss.dim)
        assert ident in g and -ident in g

    def test_cayley_closure_and_inverses(self):
        ss = spin_space(sig(2, 0))
        g = generate_frame_group(ss)
        for i in range(g.order):
            g.inverse_index(i)  # raises KeyError if missing
        e = g.identity_index
        assert all(g.cayley[e][j] == j for j in range(g.order))

    def test_inverse_index_needs_no_cayley_table(self):
        g = generate_frame_group(spin_space(sig(6, 0)))
        e = g.identity_index
        for i in (0, 1, g.order // 3, g.order - 1):
            j = g.inverse_index(i)
            assert g.elements[i] * g.elements[j] == g.elements[e]
        assert g._cayley is None

    def test_inverse_index_agrees_with_cayley_table(self):
        g = generate_frame_group(spin_space(sig(2, 0)))
        e = g.identity_index
        for i in range(g.order):
            assert g.cayley[i][g.inverse_index(i)] == e
            assert [j for j in range(g.order) if g.cayley[i][j] == e] == [g.inverse_index(i)]


class TestTwistedAdjoint:
    def test_identity(self):
        ss = spin_space(sig(2, 0))
        v = ss.frame[0]
        assert twisted_adjoint(ss, M.identity(2), v) == v

    def test_unit_vector_is_reflection(self):
        # twisted adjoint of u acts as -u v u^-1: fixes orthogonal vectors,
        # negates u itself
        for s in (sig(2, 0), sig(3, 0), sig(1, 1)):
            ss = spin_space(s)
            u = ss.frame[0]
            assert twisted_adjoint(ss, u, u) == -u
            for v in ss.frame[1:]:
                assert twisted_adjoint(ss, u, v) == v

    def test_e1_fixes_e2(self):
        ss = spin_space(sig(2, 0))
        assert twisted_adjoint(ss, ss.frame[0], ss.frame[1]) == ss.frame[1]


class TestAdjointMatrix:
    def test_identity(self):
        ss = spin_space(sig(3, 0))
        assert adjoint_matrix(ss, M.identity(ss.dim)).mat.is_identity()

    def test_gamma_image_matches_twisted(self):
        for s in (sig(2, 0), sig(3, 0), sig(1, 2)):
            ss = spin_space(s)
            for i in range(s.m):
                u = ss.frame[i]
                assert adjoint_matrix(ss, ss.gamma * u) == twisted_adjoint_matrix(ss, u)

    def test_rotation_by_pi(self):
        ss = spin_space(sig(2, 0))
        b = ss.frame[0] * ss.frame[1]
        assert adjoint_matrix(ss, b).mat == M.diag([-1, -1])

    def test_rejects_non_normalising(self):
        ss = spin_space(sig(2, 0))
        with pytest.raises(ValueError):
            adjoint_matrix(ss, M([[1, 0], [1, 1]]))


class TestGroupOfAConjugatedSpace:
    """The frame group carries its spin space, so the checks on a
    conjugated space run on that space's own group."""

    @staticmethod
    def _conjugated(s):
        ss = spin_space(s)
        shift = M.identity(ss.dim) + (ss.frame[0] * ss.frame[1]).scale(sc(2))
        return conjugate_spin_space(ss, shift)

    @pytest.mark.parametrize("s", [sig(2, 1), sig(2, 2)], ids=str)
    def test_checks_run_on_the_conjugated_space(self, s):
        conj = self._conjugated(s)
        group = generate_frame_group(conj)
        assert group.ss is conj
        assert all(r.ok for r in verify_spinor_groups(group, 1))
        rng = random.Random(2)
        for _ in range(10):
            a = sample_lipschitz(group, rng)
            assert is_lipschitz(conj, a)
            factored = factor_scalar_times_pin(group, a)
            assert factored is not None or s.m % 2
            if factored is not None:
                z, g = factored
                assert g in group and a == g.scale(z)

    @pytest.mark.parametrize("s", [sig(2, 1), sig(2, 2)], ids=str)
    def test_cached_group_carries_the_canonical_space(self, s):
        assert frame_group(s).ss is spin_space(s)


class TestOneSignatureAtATime:
    """Each signature's derived state, its frame group included, lives on its spin space, and
    ``spin_space`` keeps only the last one: a ``verify`` sweep holds one signature at a time."""

    def test_group_is_kept_on_its_space(self):
        s = sig(2, 1)
        assert frame_group(s) is frame_group(s)
        assert frame_group(s).ss is spin_space(s)

    def test_next_signature_frees_the_last_group(self):
        spin_space.cache_clear()  # a space built here, which no other test holds
        first = weakref.ref(frame_group(sig(2, 1)))
        cli._verify_signature(sig(2, 1), 1)
        assert first() is frame_group(sig(2, 1))  # verify used the group kept on the space
        cli._verify_signature(sig(1, 2), 1)
        gc.collect()  # the group and its space reference each other
        assert first() is None


class TestIsLipschitz:
    def test_scalars(self):
        ss = spin_space(sig(2, 0))
        assert is_lipschitz(ss, M.identity(2).scale(sc(5)))
        assert not is_lipschitz(ss, M.zeros(2))

    def test_odd_block_members(self):
        ss = spin_space(sig(3, 0))
        g = generate_frame_group(ss)
        a = build_odd_element(ss, 2, sc(1) / 3, g.elements[3])
        assert is_lipschitz(ss, a)
        assert grading_of(a, ss) == ODD

    def test_one_plus_vector_rejected(self):
        ss = spin_space(sig(2, 0))
        assert not is_lipschitz(ss, M.identity(2) + ss.frame[0])  # singular
        ss2 = spin_space(sig(0, 2))
        assert not is_lipschitz(ss2, M.identity(2) + ss2.frame[0])  # not normalising

    @pytest.mark.parametrize("s", [sig(2, 0), sig(3, 0)], ids=str)
    def test_complex_vector_rejected_by_its_coordinates(self, s):
        # a = v1 + 2i v2 squares to -3, so a v1 a^-1 = -v1 - (2/3) a lies in
        # span V but has the non-real coordinate -(4/3) i on v2
        ss = spin_space(s)
        a = ss.frame[0] + ss.frame[1].scale(sc(2) * I)
        assert expand_in_frame(ss, a * ss.frame[0] * a.inverse()) is not None
        assert not is_lipschitz(ss, a)
        with pytest.raises(ValueError):
            adjoint_matrix(ss, a)
        with pytest.raises(ValueError):
            kappa(ss, a)

    def test_complex_orthogonal_matrix_rejected(self):
        # M^T M = I over C (25/9 - 16/9 = 1 on the diagonal), but M is not real
        c, s = ExactScalar(Fraction(5, 3)), ExactScalar(0, Fraction(4, 3))
        with pytest.raises(ValueError, match="non-real"):
            OrthMatrix(sig(2, 0), M([[c, s], [-s, c]]))

    def test_frame_expansion(self):
        ss = spin_space(sig(2, 1))
        combo = ss.frame[0].scale(sc(2)) - ss.frame[2].scale(sc(3))
        assert expand_in_frame(ss, combo) == [sc(2), sc(0), sc(-3)]
        assert expand_in_frame(ss, ss.gamma) is None


class TestKappa:
    def test_identity(self):
        for s in (sig(2, 0), sig(3, 0)):
            ss = spin_space(s)
            assert kappa(ss, M.identity(ss.dim)).is_identity()

    def test_even_m_gamma_image_is_minus_one(self):
        s = sig(2, 0)
        ss = spin_space(s)
        u = ss.frame[0]
        assert kappa(ss, ss.gamma * u) == KappaImage(-1)

    def test_even_m_is_grading_homomorphism(self):
        s = sig(2, 0)
        ss = spin_space(s)
        g = generate_frame_group(ss)
        for a in g.elements:
            expected = 1 if grading_of(a, ss) == EVEN else -1
            assert kappa(ss, a).sign == expected

    def test_odd_block_value(self):
        for s in (sig(1, 0), sig(3, 0), sig(0, 3), sig(2, 1)):
            ss = spin_space(s)
            group = generate_frame_group(ss)
            lam, mu = sc(2), sc(3)
            for a_pin in (group.elements[0], group.elements[group.order // 2]):
                odd = build_odd_element(ss, lam, mu, a_pin)
                assert kappa(ss, odd) == KappaImage(-1, lam / mu)

    def test_odd_block_unit_scale(self):
        ss = spin_space(sig(3, 0))
        e1 = ss.frame[0]
        odd = build_odd_element(ss, 1, 1, e1)
        assert kappa(ss, odd) == KappaImage(-1, ONE)

    def test_scalar_pair_is_rotation(self):
        ss = spin_space(sig(3, 0))
        k = scalar_pair(ss, 2, 3)
        img = kappa(ss, k)
        assert img.sign == 1 and img.scale == sc(3) / 2

    def test_homomorphism_random_pairs(self):
        rng = random.Random(5)
        for s in (sig(1, 0), sig(3, 0), sig(2, 3)):
            ss = spin_space(s)
            group = generate_frame_group(ss)
            for _ in range(25):
                a = sample_lipschitz(group, rng)
                b = sample_lipschitz(group, rng)
                assert kappa(ss, a * b) == kappa(ss, a) * kappa(ss, b)

    def test_semidirect_rule(self):
        refl = KappaImage(-1, sc(2))
        rot = KappaImage(1, sc(3))
        assert refl * rot == KappaImage(-1, sc(6))
        assert rot * refl == KappaImage(-1, sc(2) / 3)
        assert refl * refl == KappaImage(1, sc(1))

    def test_rejects_non_lipschitz(self):
        ss = spin_space(sig(2, 0))
        with pytest.raises(ValueError):
            kappa(ss, M([[1, 0], [1, 1]]))

    def test_even_m_images_compose_by_sign(self):
        assert KappaImage(-1) * KappaImage(-1) == KappaImage(1)
        assert KappaImage(1) * KappaImage(-1) == KappaImage(-1)

    def test_images_of_different_parities_do_not_compose(self):
        for a, b in ((KappaImage(1), KappaImage(1, ONE)), (KappaImage(-1, sc(2)), KappaImage(-1))):
            with pytest.raises(ValueError, match="kappa images of different parities"):
                a * b


class TestKappaCore:
    """The errors of ``groups._kappa``, which takes a^-1 on trust.  A true conjugation maps the
    gamma line, or the isotropic pair (u+, u-) of the anticommutant, diagonally or antidiagonally
    and keeps u+ u- + u- u+ = 4I, so these are reached through a wrong inverse (or a = 0)."""

    def test_even_m_conjugation_off_the_gamma_line(self):
        ss = spin_space(sig(2, 0))
        with pytest.raises(ValueError, match="conjugation does not preserve the gamma line"):
            groups._kappa(ss, M.identity(ss.dim), ss.frame[0])

    def test_odd_m_image_outside_the_anticommutant(self):
        # u+ v1 commutes with v2, so it is not in A(h)
        ss = spin_space(sig(3, 0))
        with pytest.raises(ValueError, match="conjugation does not preserve the anticommutant"):
            groups._kappa(ss, M.identity(ss.dim), ss.frame[0])

    def test_odd_m_diagonal_image_that_is_not_orthogonal(self):
        # u -> 2u: diagonal, with x1 y2 = 4
        ss = spin_space(sig(3, 0))
        ident = M.identity(ss.dim)
        with pytest.raises(ValueError, match="conjugation is not orthogonal on the anticommutant"):
            groups._kappa(ss, ident, ident.scale(sc(2)))

    @pytest.mark.parametrize("s", [sig(3, 0), sig(1, 2)], ids=str)
    def test_odd_m_antidiagonal_image_that_is_not_orthogonal(self, s):
        # an odd element swaps u+ and u- with x2 y1 = 1; twice its inverse makes it 4
        ss = spin_space(s)
        odd = build_odd_element(ss, 2, 3, M.identity(ss.dim))
        inv = odd.inverse()
        assert groups._kappa(ss, odd, inv) == KappaImage(-1, sc(2) / 3)
        with pytest.raises(ValueError, match="conjugation is not orthogonal on the anticommutant"):
            groups._kappa(ss, odd, inv.scale(sc(2)))

    def test_odd_m_zero_images_are_neither_diagonal_nor_antidiagonal(self):
        ss = spin_space(sig(3, 0))
        with pytest.raises(ValueError, match="conjugation is not diagonal or antidiagonal"):
            groups._kappa(ss, M.zeros(ss.dim), M.identity(ss.dim))


class TestOddElements:
    def test_zero_scale_rejected(self):
        ss = spin_space(sig(3, 0))
        with pytest.raises(ValueError):
            build_odd_element(ss, 0, 1, M.identity(4))

    def test_even_m_rejected(self):
        ss = spin_space(sig(2, 0))
        with pytest.raises(ValueError):
            build_odd_element(ss, 1, 1, M.identity(2))

    def test_pin_part_of_neither_parity_rejected(self):
        ss = spin_space(sig(3, 0))
        with pytest.raises(ValueError, match="even or odd"):
            build_odd_element(ss, 1, 2, M.identity(ss.dim) + ss.frame[0])

    def test_identity_pin_part_swap_block(self):
        ss = spin_space(sig(3, 0))
        odd = build_odd_element(ss, 1, 1, M.identity(ss.dim))
        half = ss.dim // 2
        z, ident = M.zeros(half), M.identity(half)
        assert odd == M.block2(z, ident, ident, z)

    def test_odd_elements_are_odd(self):
        ss = spin_space(sig(3, 0))
        g = generate_frame_group(ss)
        for a in g.elements[:4]:
            odd = build_odd_element(ss, 2, 1, a)
            assert grading_of(odd, ss) == ODD


class TestPairModel:
    def test_moving_odd_factor_swaps_scalars(self):
        ss = spin_space(sig(3, 0))
        group = generate_frame_group(ss)
        odd_pins = [g for g in group.elements if clifford_parity(ss, g) == ODD]
        lam, mu = sc(2), sc(5)
        pair = scalar_pair(ss, lam, mu)
        swapped = scalar_pair(ss, mu, lam)
        for a in odd_pins[:4]:
            x = build_odd_element(ss, 1, 1, a)
            assert x * pair == swapped * x

    def test_pin_part_of_neither_parity_rejected(self):
        ss = spin_space(sig(3, 0))
        with pytest.raises(ValueError, match="even or odd"):
            embed_pin_pair(ss, M.identity(ss.dim) + ss.frame[0], 1, 2)

    @pytest.mark.parametrize("lam, mu", [(0, 1), (1, 0)], ids=["lambda=0", "mu=0"])
    @pytest.mark.parametrize("parity", [EVEN, ODD])
    def test_zero_scale_rejected(self, lam, mu, parity):
        # a zero scale gives a singular matrix, which no Lipschitz group holds
        ss = spin_space(sig(3, 0))
        a = M.identity(ss.dim) if parity == EVEN else ss.frame[0]
        with pytest.raises(ValueError, match="scale parameters must be nonzero"):
            embed_pin_pair(ss, a, lam, mu)

    def test_embed_homomorphism_with_parity_swap(self):
        rng = random.Random(9)
        ss = spin_space(sig(3, 0))
        group = generate_frame_group(ss)
        for _ in range(30):
            a = group.elements[rng.randrange(group.order)]
            b = group.elements[rng.randrange(group.order)]
            lam1, mu1 = sc(rng.randint(1, 4)), sc(rng.randint(1, 4))
            lam2, mu2 = sc(rng.randint(1, 4)), sc(rng.randint(1, 4))
            left = embed_pin_pair(ss, a, lam1, mu1) * embed_pin_pair(ss, b, lam2, mu2)
            ab = a * b
            if clifford_parity(ss, a) == ODD:
                lam2, mu2 = mu2, lam2
            right = embed_pin_pair(ss, ab, lam1 * lam2, mu1 * mu2)
            assert left == right


class TestExtensionDiagram:
    @pytest.mark.parametrize("s", [sig(2, 0), sig(3, 0), sig(1, 1)])
    def test_all_checks_pass(self, s):
        results = verify_extension_diagram(generate_frame_group(spin_space(s)))
        assert all(r.ok for r in results)

    def test_plain_ad_kernel_odd(self):
        ss = spin_space(sig(3, 0))
        kernel = plain_ad_kernel(generate_frame_group(ss))
        ident = M.identity(ss.dim)
        expected = {ident.key(), (-ident).key(), ss.eta.key(), (-ss.eta).key()}
        assert {k.key() for k in kernel} == expected

    def test_plain_ad_kernel_even(self):
        ss = spin_space(sig(2, 0))
        kernel = plain_ad_kernel(generate_frame_group(ss))
        assert len(kernel) == 2

    @pytest.mark.parametrize("s", [sig(2, 0), sig(3, 0)], ids=str)
    def test_plain_ad_kernel_is_empty_on_a_group_without_minus_identity(self, s):
        ss = spin_space(s)
        minus = -M.identity(ss.dim)
        group = groups.FrameGroup(ss, tuple(g for g in frame_group(s).elements if g != minus))
        assert plain_ad_kernel(group) == []


class TestSurjectivityWitnesses:
    @pytest.mark.parametrize("s", [sig(2, 0), sig(3, 0), sig(1, 2)])
    def test_witnesses(self, s):
        results = ad_surjectivity_witnesses(spin_space(s))
        assert all(r.ok for r in results)
        names = [r.check_name for r in results]
        assert "identity-witness" in names
        if s.m % 2:
            assert "central-inversion-witness" in names



class TestVerifySpinorGroups:
    EXTENSION = ["twisted-adjoint-lands-in-orthogonal-group",
                 "twisted-adjoint-kernel-is-plus-minus-identity",
                 "adjoint-of-gamma-image-matches-twisted-adjoint"]

    def test_even_m_reports_in_order(self):
        reports = verify_spinor_groups(generate_frame_group(spin_space(sig(2, 0))), seed=1)
        assert [r.check_name for r in reports] == [
            "frame-group-order", *self.EXTENSION,
            "identity-witness", "reflection-e1-witness", "reflection-e2-witness",
        ]
        assert all(r.ok for r in reports)

    def test_odd_m_adds_kernel_and_kappa(self):
        reports = verify_spinor_groups(generate_frame_group(spin_space(sig(1, 2))), seed=1)
        assert [r.check_name for r in reports][-3:] == [
            "central-inversion-witness", "plain-ad-kernel-size-4", "kappa-homomorphism-sampled",
        ]
        assert all(r.ok for r in reports)

    def test_broken_kappa_is_reported(self, monkeypatch):
        # a constant reflection is not multiplicative: (-1, 2)(-1, 2) = (1, 1)
        monkeypatch.setattr(groups, "_kappa", lambda ss, a, inv: KappaImage(-1, sc(2)))
        reports = verify_spinor_groups(generate_frame_group(spin_space(sig(3, 0))), seed=1,
                                       kappa_pairs=1)
        assert [r.check_name for r in reports if not r.ok] == ["kappa-homomorphism-sampled"]

    @staticmethod
    def _non_lipschitz_gamma(s):
        # Gamma (I + 2 v1) conjugates v2 out of span V; the frame and eta are untouched
        ss = spin_space(s)
        gamma = ss.gamma * (M.identity(ss.dim) + ss.frame[0].scale(sc(2)))
        return SpinSpace(ss.sig, ss.rep, ss.frame, ss.eta, ss.iota, gamma)

    @pytest.mark.parametrize("s", [sig(3, 0), sig(1, 2)], ids=str)
    def test_certificate_rejects_a_non_lipschitz_gamma(self, s):
        ss = self._non_lipschitz_gamma(s)
        assert all(is_lipschitz(ss, v) for v in ss.frame) and in_kernel_k(ss, ss.eta)
        assert not is_lipschitz(ss, ss.gamma)
        assert not groups._sampled_kinds_are_lipschitz(ss)
        assert groups._sampled_kinds_are_lipschitz(spin_space(s))

    @pytest.mark.parametrize("s", [sig(3, 0), sig(1, 2)], ids=str)
    def test_non_lipschitz_gamma_fails_kappa_without_raising(self, s):
        reports = verify_spinor_groups(generate_frame_group(self._non_lipschitz_gamma(s)),
                                       seed=1)
        assert reports[-1].check_name == "kappa-homomorphism-sampled"
        assert not reports[-1].ok

    @pytest.mark.parametrize("s", [sig(3, 0), sig(1, 2)], ids=str)
    def test_non_central_eta_fails_the_kernel_and_kappa(self, s):
        # eta replaced by v1, which does not commute with v2: the kernel certificate finds no
        # central +-eta, and the kappa certificate needs eta in K(h)
        ss = spin_space(s)
        broken = SpinSpace(ss.sig, ss.rep, ss.frame, ss.frame[0], ss.iota, ss.gamma)
        reports = verify_spinor_groups(generate_frame_group(broken), seed=1)
        assert [r.check_name for r in reports if not r.ok] == [
            "plain-ad-kernel-size-4", "kappa-homomorphism-sampled"]

    def test_coinciding_blades_fail_the_group_order(self):
        # the 1 x 1 frame ([[1]],) keeps v^2 = I, but v = I = v_empty, so the group is {+-I}
        one = (M([[ONE]]),)
        ss = SpinSpace(sig(1, 0), Representation(sig(1, 0), "cartan", one, 1), one, one[0], ONE,
                       M([[I]]))
        group = generate_frame_group(ss)
        assert group.order == 2
        reports = verify_spinor_groups(group, seed=1)
        assert (reports[0].check_name, reports[0].status) == ("frame-group-order", "fail")

    def test_singular_sample_fails_kappa_without_raising(self, monkeypatch):
        # a zero scalar factor makes the sample singular, so its inverse (or the odd element's
        # zero scale) raises ValueError inside the check, which reports a failure
        monkeypatch.setattr(groups, "_SCALAR_GRID", (sc(0),))
        reports = verify_spinor_groups(generate_frame_group(spin_space(sig(3, 0))), seed=1)
        assert [r.check_name for r in reports if not r.ok] == ["kappa-homomorphism-sampled"]

    def test_odd_m_builds_each_frame_adjoint_once(self):
        # verify --sig 5,0: 5 twisted adjoints, 5 Ad(Gamma v_i), the identity
        # witness, 5 Ad(v_i) shared by the plain-Ad kernel and the kappa
        # certificate, and Gamma's own: 17, where building Ad(v_i) twice made 22
        code = """
import contextlib, io
from spinweave import cli, groups
calls = []
inner = groups._frame_matrix
def counted(*args):
    calls.append(1)
    return inner(*args)
groups._frame_matrix = counted
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--sig", "5,0"])
print(code, len(calls))
"""
        src = str(Path(groups.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        env.pop("SPINWEAVE_SEED", None)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "17"]


class TestGradingCompatibility:
    def test_det_matches_grading(self):
        for s in all_signatures(4):
            ss = spin_space(s)
            group = generate_frame_group(ss)
            for a in group.elements:
                grade = grading_of(a, ss)
                det = adjoint_matrix(ss, a).det()
                assert det == (ONE if grade == EVEN else MINUS_ONE)


class TestFactorisations:
    def test_even_m_scalar_times_pin(self):
        rng = random.Random(3)
        ss = spin_space(sig(2, 0))
        group = generate_frame_group(ss)
        for _ in range(20):
            a = sample_lipschitz(group, rng)
            factored = factor_scalar_times_pin(group, a)
            assert factored is not None
            z, g = factored
            assert a == g.scale(z)
            adjoint_matrix(ss, a)  # orthogonality of the image

    def test_odd_m_kernel_factorisation(self):
        rng = random.Random(4)
        ss = spin_space(sig(3, 0))
        group = generate_frame_group(ss)
        found = 0
        for _ in range(200):
            a = sample_lipschitz(group, rng)
            if not kappa(ss, a).is_identity():
                continue
            found += 1
            factored = factor_kernel_element(group, a)
            assert factored is not None
            k, g = factored
            assert in_kernel_k(ss, k)
            assert clifford_parity(ss, g) == EVEN
            assert k * g == a
        assert found >= 3
