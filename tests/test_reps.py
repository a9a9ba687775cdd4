import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinweave import groups
from spinweave.clifford import CliffordElement, Signature, volume
from spinweave.groups import (
    KappaImage,
    build_odd_element,
    generate_frame_group,
    kappa,
    sample_lipschitz,
    scalar_pair,
    verify_spinor_groups,
)
from spinweave.linalg import ExactMatrix
from spinweave.reps import (
    CARTAN,
    DIRAC,
    EVEN,
    ODD,
    PAULI,
    PAULI_TWISTED,
    WEYL_MINUS,
    WEYL_PLUS,
    Representation,
    SpinSpace,
    _spin_space_from,
    alpha_is_gamma_conjugation,
    anticommutant,
    build_rep,
    cartan_projectors,
    choose_gamma,
    commutant,
    conjugate_spin_space,
    decompose_even_restriction,
    find_intertwiner,
    gamma_map,
    grading_of,
    spin_space,
    verify_clifford,
    verify_spin_space,
)
from spinweave.scalars import ExactScalar, I, MINUS_ONE, ONE, sc

CE = CliffordElement
M = ExactMatrix

SIGMA_X = M([[0, 1], [1, 0]])
SIGMA_Y = M([[0, -I], [I, 0]])
SIGMA_Z = M([[1, 0], [0, -1]])


def sig(k, l):
    return Signature(k, l)


def all_signatures(max_m):
    for m in range(1, max_m + 1):
        for k in range(m + 1):
            yield sig(k, m - k)


class TestBuildRep:
    def test_pauli_base_case(self):
        rep = build_rep(sig(1, 0), PAULI)
        assert rep.dim == 1
        assert rep.images[0] == M([[1]])

    def test_dirac_two_dims(self):
        rep = build_rep(sig(2, 0), DIRAC)
        assert rep.dim == 2
        a, b = rep.images
        assert (a * a).is_identity() and (b * b).is_identity()
        assert a.anticommutes_with(b)

    def test_pauli_three_is_pauli_triple(self):
        rep = build_rep(sig(3, 0), PAULI)
        assert rep.images == (SIGMA_X, SIGMA_Z, -SIGMA_Y)

    def test_pauli_volume_normalisation(self):
        # sigma(eta) = iota * I for every odd signature
        for s in all_signatures(7):
            if s.m % 2 == 0:
                continue
            rep = build_rep(s, PAULI)
            vol = volume(s)
            assert rep.image(vol.eta) == M.identity(rep.dim).scale(vol.iota)

    def test_pauli_twisted_is_alpha_composite(self):
        s = sig(3, 0)
        plain = build_rep(s, PAULI)
        twisted = build_rep(s, PAULI_TWISTED)
        x = CE.generator(s, 0) + CE.generator(s, 1) * CE.generator(s, 2)
        assert twisted.image(x) == plain.image(x.alpha())

    def test_cartan_block_form(self):
        s = sig(3, 0)
        sigma = build_rep(s, PAULI)
        cartan = build_rep(s, CARTAN)
        assert cartan.dim == 4
        for si, ci in zip(sigma.images, cartan.images):
            half = sigma.dim
            for r in range(half):
                for c in range(half):
                    assert ci.rows[r][c] == si.rows[r][c]
                    assert ci.rows[half + r][half + c] == -si.rows[r][c]
                    assert ci.rows[r][half + c].is_zero()
                    assert ci.rows[half + r][c].is_zero()

    def test_dimensions(self):
        for s in all_signatures(7):
            if s.m % 2:
                assert build_rep(s, PAULI).dim == 2 ** (s.nu - 1)
                assert build_rep(s, CARTAN).dim == 2 ** s.nu
            else:
                assert build_rep(s, DIRAC).dim == 2 ** s.nu
                assert build_rep(s, WEYL_PLUS).dim == 2 ** (s.nu - 1)

    def test_parity_mismatch(self):
        with pytest.raises(ValueError):
            build_rep(sig(2, 0), PAULI)
        with pytest.raises(ValueError):
            build_rep(sig(3, 0), DIRAC)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_rep(sig(2, 0), "majorana")


class TestVerifyClifford:
    def test_all_kinds_all_signatures(self):
        for s in all_signatures(6):
            kinds = (PAULI, PAULI_TWISTED, CARTAN) if s.m % 2 else (DIRAC, WEYL_PLUS, WEYL_MINUS)
            for kind in kinds:
                assert verify_clifford(build_rep(s, kind)).ok

    def test_negated_image_still_passes(self):
        rep = build_rep(sig(2, 1), CARTAN)
        flipped = Representation(rep.sig, rep.kind, (rep.images[0], -rep.images[1], rep.images[2]), rep.dim)
        assert verify_clifford(flipped).ok

    def test_perturbed_image_reported(self):
        rep = build_rep(sig(2, 0), DIRAC)
        bad_rows = [list(r) for r in rep.images[0].rows]
        bad_rows[0][0] = bad_rows[0][0] + ONE
        bad = Representation(rep.sig, rep.kind, (M(bad_rows), rep.images[1]), rep.dim)
        report = verify_clifford(bad)
        assert not report.ok
        assert "(0, 0)" in report.counterexample
        # e1 + E_00 fails its square and its anticommutator with e2
        assert report.check_name == "clifford-relations-dirac"
        assert report.status == "fail"
        assert report.counterexample == str([(0, 0), (0, 1)])

    def test_counterexample_lists_first_three_failures(self):
        rep = build_rep(sig(4, 0), DIRAC)
        bad_rows = [list(r) for r in rep.images[0].rows]
        bad_rows[0][0] = bad_rows[0][0] + ONE
        bad = Representation(rep.sig, rep.kind, (M(bad_rows),) + rep.images[1:], rep.dim)
        report = verify_clifford(bad)
        # (0, 0) .. (0, 3) all fail; the record keeps the first three
        assert report.check_name == "clifford-relations-dirac"
        assert report.signature == "Cl(4,0)"
        assert report.status == "fail"
        assert report.counterexample == str([(0, 0), (0, 1), (0, 2)])


class TestCommutants:
    def test_dimension_by_parity(self):
        for s in all_signatures(6):
            ss = spin_space(s)
            expected = 2 if s.m % 2 else 1
            assert len(commutant(ss.frame)) == expected
            assert len(anticommutant(ss.frame)) == expected

    def test_even_commutant_is_scalars(self):
        ss = spin_space(sig(2, 0))
        basis = commutant(ss.frame)
        assert len(basis) == 1
        assert basis[0].scalar_value() is not None

    def test_one_zero_anticommutant(self):
        ss = spin_space(sig(1, 0))
        assert len(anticommutant(ss.frame)) == 2

    def test_anticommutant_spanned_by_gamma_and_gamma_eta(self):
        ss = spin_space(sig(3, 0))
        basis = anticommutant(ss.frame)
        span_check = commutant(ss.frame)  # reuse solver sanity
        assert len(basis) == 2 and len(span_check) == 2
        for w in (ss.gamma, ss.gamma * ss.eta):
            for v in ss.frame:
                assert w.anticommutes_with(v)


class TestChooseGamma:
    def test_even_case_matches_volume_formula(self):
        ss = spin_space(sig(2, 0))
        expected = ss.eta.scale(I * ss.iota)
        assert ss.gamma == expected
        assert (ss.gamma * ss.gamma).scalar_value() == MINUS_ONE
        # every even signature up to MAX_M: +-(i iota) eta with a positive lead
        for s in all_signatures(10):
            if s.m % 2 == 0:
                ss = spin_space(s)
                expected = ss.eta.scale(I * ss.iota)
                assert ss.gamma in (expected, -expected)
                assert ss.gamma.first_nonzero().leads_positive()

    def test_odd_canonical_swap_block(self):
        for s in all_signatures(9):
            if s.m % 2:
                ss = spin_space(s)
                half = ss.dim // 2
                z, ident = M.zeros(half), M.identity(half)
                assert ss.gamma == M.block2(z, -ident, ident, z)

    def test_gamma_anticommutes_with_frame(self):
        for s in all_signatures(6):
            ss = spin_space(s)
            assert (ss.gamma * ss.gamma).scalar_value() == MINUS_ONE
            for v in ss.frame:
                assert ss.gamma.anticommutes_with(v)

    def test_conjugated_frame_gives_conjugated_gamma_up_to_sign(self):
        ss = spin_space(sig(3, 0))
        for a in (ss.frame[0], ss.frame[0] * ss.frame[1]):
            conj = conjugate_spin_space(ss, a)
            expected = a * ss.gamma * a.inverse()
            assert conj.gamma in (expected, -expected)

    def test_conjugated_even_case(self):
        ss = spin_space(sig(2, 0))
        a = ss.frame[0]
        conj = conjugate_spin_space(ss, a)
        expected = a * ss.gamma * a.inverse()
        assert conj.gamma in (expected, -expected)


_SCALARS = [sc(2), sc(-3), ExactScalar(1, 1), ExactScalar(0, -1) / 2]


@st.composite
def _conjugated_spin_space(draw, parity):
    """A canonical spin space with n <= 4 (every m <= 4) of the given m parity,
    conjugated by an invertible matrix with entries p + q*i, p in [-2, 2] and
    q in [-1, 1]."""
    s = draw(st.sampled_from([s for s in all_signatures(4) if s.m % 2 == parity]))
    ss = spin_space(s)
    entry = st.builds(ExactScalar, st.integers(-2, 2), st.integers(-1, 1))
    row = st.lists(entry, min_size=ss.dim, max_size=ss.dim)
    a = M(draw(st.lists(row, min_size=ss.dim, max_size=ss.dim)))
    assume(a.rank() == ss.dim)
    return conjugate_spin_space(ss, a)


class TestConjugatedFrames:
    """Gamma and the odd Lipschitz elements on frames that are not canonical."""

    @pytest.mark.parametrize("parity", [0, 1], ids=["even-m", "odd-m"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 1000))
    def test_every_check_passes(self, parity, data, seed):
        ss = data.draw(_conjugated_spin_space(parity))
        assert (ss.gamma * ss.gamma).scalar_value() == MINUS_ONE
        for v in ss.frame:
            assert ss.gamma.anticommutes_with(v)
        assert all(r.ok for r in verify_spin_space(ss))
        # at odd m this samples kappa on odd elements of the conjugated space
        group = generate_frame_group(ss)
        assert all(r.ok for r in verify_spinor_groups(group, seed, kappa_pairs=5))
        if ss.sig.m % 2:
            odd = build_odd_element(ss, 2, 3, ss.frame[0])
            assert kappa(ss, odd) == KappaImage(-1, sc(2) / 3)

    @pytest.mark.parametrize("parity", [0, 1], ids=["even-m", "odd-m"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 1000))
    def test_kappa_core_given_the_inverse_matches_kappa(self, parity, data, seed):
        # verify reads kappa of sampled elements through the unguarded core,
        # with (ab)^-1 taken as b^-1 a^-1
        ss = data.draw(_conjugated_spin_space(parity))
        group = generate_frame_group(ss)
        rng = random.Random(seed)
        a, b = sample_lipschitz(group, rng), sample_lipschitz(group, rng)
        inv_a, inv_b = a.inverse(), b.inverse()
        assert groups._kappa(ss, a, inv_a) == kappa(ss, a)
        assert groups._kappa(ss, a * b, inv_b * inv_a) == kappa(ss, a * b)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), lam=st.sampled_from(_SCALARS), mu=st.sampled_from(_SCALARS))
    def test_scalar_pair_is_the_projector_form(self, data, lam, mu):
        ss = data.draw(_conjugated_spin_space(1))
        # lam P+ + mu P- with P+- = (I +- eta/iota)/2 assembled term by term
        ident, j = M.identity(ss.dim), ss.eta.scale(ss.iota.inverse())
        pair = (ident + j).scale(lam / 2) + (ident - j).scale(mu / 2)
        assert scalar_pair(ss, lam, mu) == pair
        # even a takes mu P- - lam P+, odd a takes lam P+ + mu P-
        for a, sign in ((ident, -1), (ss.frame[0], 1)):
            left = (ident + j).scale(sign * lam / 2) + (ident - j).scale(mu / 2)
            assert build_odd_element(ss, lam, mu, a) == left * ss.gamma * a


class TestSpinSpace:
    def test_invariants(self):
        for s in all_signatures(6):
            ss = spin_space(s)
            assert ss.dim == 2 ** s.nu
            assert (ss.eta * ss.eta).scalar_value() == ss.iota * ss.iota
            product = ss.frame[0]
            for v in ss.frame[1:]:
                product = product * v
            assert product == ss.eta

    def test_alpha_realised_by_gamma_conjugation(self):
        for s in all_signatures(5):
            ss = spin_space(s)
            ginv = ss.gamma.inverse()
            for mask in range(1 << s.m):
                x = CE.blade(s, mask)
                assert ss.include(x.alpha()) == ginv * ss.include(x) * ss.gamma



class TestAlphaIsGammaConjugation:
    SIG = Signature(7, 0)

    def _with_gamma(self, gamma):
        ss = spin_space(self.SIG)
        return SpinSpace(ss.sig, ss.rep, ss.frame, ss.eta, ss.iota, gamma)

    def test_canonical_gamma_passes(self):
        assert alpha_is_gamma_conjugation(spin_space(self.SIG))

    def test_identity_gamma_fails(self):
        ss = self._with_gamma(M.identity(spin_space(self.SIG).dim))
        assert not alpha_is_gamma_conjugation(ss)

    def test_gamma_wrong_only_on_e7_fails(self):
        # e1...e6 anticommutes with e1..e6 and commutes with e7, so it
        # conjugates like alpha on every blade of e1..e6 and not on e7
        ss = spin_space(self.SIG)
        e1_to_e6 = ss.include(CE.blade(self.SIG, 0b0111111))
        assert not alpha_is_gamma_conjugation(self._with_gamma(e1_to_e6))


class TestVerifySpinSpace:
    NAMES = ["commutant-dimension", "anticommutant-dimension", "volume-square",
             "gamma-square", "alpha-is-gamma-conjugation"]

    @pytest.mark.parametrize("s", [sig(2, 0), sig(1, 2)])
    def test_canonical_space_passes_in_order(self, s):
        reports = verify_spin_space(spin_space(s))
        assert [(r.check_name, r.signature, r.ok) for r in reports] == [
            (name, str(s), True) for name in self.NAMES
        ]

    def test_identity_gamma_fails_its_two_checks(self):
        ss = spin_space(sig(3, 0))
        flat = SpinSpace(ss.sig, ss.rep, ss.frame, ss.eta, ss.iota, M.identity(ss.dim))
        failed = [r.check_name for r in verify_spin_space(flat) if not r.ok]
        assert failed == ["gamma-square", "alpha-is-gamma-conjugation"]

    def test_doubled_frame_fails_both_dimensions(self):
        # v -> diag(v, v) keeps the Clifford relations, but M_2 commutes with the doubled frame:
        # dim K(h) = dim A(h) = 4, not 1
        ss = spin_space(sig(2, 0))
        z = M.zeros(ss.dim)
        frame = tuple(M.block2(v, z, z, v) for v in ss.frame)
        doubled = _spin_space_from(Representation(ss.sig, ss.rep.kind, frame, 2 * ss.dim))
        failed = [r.check_name for r in verify_spin_space(doubled) if r.status == "fail"]
        assert failed == ["commutant-dimension", "anticommutant-dimension"]

    def test_swapped_iota_fails_the_volume_square(self):
        # eta^2 = -I on Cl(2,0), so iota = i; iota = 1 gives iota^2 = 1
        ss = spin_space(sig(2, 0))
        assert ss.iota == I
        swapped = SpinSpace(ss.sig, ss.rep, ss.frame, ss.eta, ONE, ss.gamma)
        failed = [r.check_name for r in verify_spin_space(swapped) if r.status == "fail"]
        assert failed == ["volume-square"]


class TestGammaMap:
    def test_unit(self):
        ss = spin_space(sig(2, 0))
        assert gamma_map(ss, CE.scalar(sig(2, 0), 1)).is_identity()

    def test_generator(self):
        s = sig(3, 0)
        ss = spin_space(s)
        assert gamma_map(ss, CE.generator(s, 0)) == ss.gamma * ss.frame[0]

    def test_odd_blocks_antidiagonal(self):
        s = sig(3, 0)
        ss = spin_space(s)
        sigma = build_rep(s, PAULI)
        half = ss.dim // 2
        for i in range(s.m):
            g = gamma_map(ss, CE.generator(s, i))
            for r in range(half):
                for c in range(half):
                    assert g.rows[r][c].is_zero()
                    assert g.rows[half + r][half + c].is_zero()
                    assert g.rows[r][half + c] == sigma.images[i].rows[r][c]
                    assert g.rows[half + r][c] == sigma.images[i].rows[r][c]

    def test_gamma_alpha_intertwining(self):
        # gamma(alpha(x)) = Gamma^-1 gamma(x) Gamma on generators
        for s in all_signatures(5):
            ss = spin_space(s)
            ginv = ss.gamma.inverse()
            for i in range(s.m):
                x = CE.generator(s, i)
                assert gamma_map(ss, x.alpha()) == ginv * gamma_map(ss, x) * ss.gamma

    def test_equivalent_to_inclusion(self):
        # gamma(v) = (I + Gamma) v (I + Gamma)^-1
        for s in all_signatures(4):
            ss = spin_space(s)
            shift = M.identity(ss.dim) + ss.gamma
            shift_inv = shift.inverse()
            for i in range(s.m):
                v = ss.frame[i]
                assert gamma_map(ss, CE.generator(s, i)) == shift * v * shift_inv

    def test_homomorphism_on_blades(self):
        for s in all_signatures(4):
            ss = spin_space(s)
            for a in range(1 << s.m):
                for b in range(1 << s.m):
                    x, y = CE.blade(s, a), CE.blade(s, b)
                    assert gamma_map(ss, x * y) == gamma_map(ss, x) * gamma_map(ss, y)

    def test_injective_on_blades(self):
        for s in all_signatures(6):
            ss = spin_space(s)
            images = {}
            for mask in range(1 << s.m):
                img = gamma_map(ss, CE.blade(s, mask)).key()
                assert img not in images
                images[img] = mask


class TestGrading:
    def test_identity_even(self):
        ss = spin_space(sig(2, 0))
        assert grading_of(M.identity(2), ss) == EVEN

    def test_odd_m_frame_vectors_even(self):
        ss = spin_space(sig(3, 0))
        assert grading_of(ss.frame[0], ss) == EVEN

    def test_odd_m_gamma_images_odd(self):
        s = sig(3, 0)
        ss = spin_space(s)
        assert grading_of(gamma_map(ss, CE.generator(s, 0)), ss) == ODD

    def test_even_m_vectors_odd(self):
        ss = spin_space(sig(2, 0))
        assert grading_of(ss.frame[0], ss) == ODD

    def test_neither(self):
        ss = spin_space(sig(2, 0))
        assert grading_of(M.identity(2) + ss.frame[0], ss) == "neither"


class TestCartanProjectors:
    def test_requires_odd(self):
        with pytest.raises(ValueError):
            cartan_projectors(spin_space(sig(2, 0)))

    def test_projector_algebra(self):
        for s in (sig(1, 0), sig(3, 0), sig(1, 2), sig(5, 0)):
            ss = spin_space(s)
            p, q = cartan_projectors(ss)
            ident = M.identity(ss.dim)
            assert p * p == p and q * q == q
            assert p + q == ident
            assert (p * q).is_zero()

    def test_ranks(self):
        ss = spin_space(sig(3, 0))
        p, q = cartan_projectors(ss)
        assert p.rank() == 2 and q.rank() == 2

    def test_even_images_commute(self):
        s = sig(3, 0)
        ss = spin_space(s)
        p, q = cartan_projectors(ss)
        for i in range(s.m):
            for j in range(s.m):
                if i == j:
                    continue
                even = gamma_map(ss, CE.generator(s, i) * CE.generator(s, j))
                assert even.commutes_with(p) and even.commutes_with(q)

    def test_inclusion_vectors_swap(self):
        # the Clifford action moves one Pauli piece to the other
        s = sig(3, 0)
        ss = spin_space(s)
        p, q = cartan_projectors(ss)
        for v in ss.frame:
            assert v * p == q * v

    def test_dual_projectors_swapped_by_gamma_images(self):
        s = sig(3, 0)
        ss = spin_space(s)
        p, q = decompose_even_restriction(ss)
        for i in range(s.m):
            g = gamma_map(ss, CE.generator(s, i))
            assert g * p == q * g


class TestDecomposeEvenRestriction:
    def test_even_m_weyl_split(self):
        s = sig(2, 0)
        ss = spin_space(s)
        p, q = decompose_even_restriction(ss)
        assert p.rank() == 1 and q.rank() == 1
        assert p + q == M.identity(2)
        even = ss.include(CE.generator(s, 0) * CE.generator(s, 1))
        assert even.commutes_with(p) and even.commutes_with(q)

    def test_all_signatures_invariant_under_even(self):
        for s in all_signatures(5):
            ss = spin_space(s)
            p, q = decompose_even_restriction(ss)
            assert p + q == M.identity(ss.dim)
            assert p * p == p and q * q == q
            for i in range(s.m - 1):
                even = ss.include(CE.generator(s, i) * CE.generator(s, i + 1))
                assert even.commutes_with(p) and even.commutes_with(q)


class TestWeyl:
    def test_weyl_even_generators_satisfy_shifted_relations(self):
        for s in (sig(2, 0), sig(4, 0), sig(2, 2), sig(0, 4), sig(6, 0)):
            for kind in (WEYL_PLUS, WEYL_MINUS):
                assert verify_clifford(build_rep(s, kind)).ok

    def test_weyl_labels_by_volume_eigenvalue(self):
        s = sig(2, 0)
        dirac = build_rep(s, DIRAC)
        eta = dirac.images[0] * dirac.images[1]
        iota = I if (eta * eta).scalar_value() == MINUS_ONE else ONE
        j = eta.scale(iota)
        plus = build_rep(s, WEYL_PLUS)
        # on the + eigenspace, e1 e2 acts as (iota^-1 J restricted) -> check sign
        ev = plus.images[0]
        expected = iota.inverse()
        assert ev.scalar_value() == expected or (-ev).scalar_value() == -expected

    def test_weyl_halves_inequivalent(self):
        for s in (sig(2, 0), sig(4, 0)):
            plus = build_rep(s, WEYL_PLUS)
            minus = build_rep(s, WEYL_MINUS)
            assert find_intertwiner(plus, minus) is None


class TestIntertwiner:
    def test_self_intertwiner_is_identity(self):
        rep = build_rep(sig(2, 0), DIRAC)
        found = find_intertwiner(rep, rep)
        assert found is not None
        assert found.matrix.is_identity()

    def test_self_intertwiner_odd(self):
        rep = build_rep(sig(3, 0), CARTAN)
        found = find_intertwiner(rep, rep)
        assert found is not None
        assert found.matrix.is_identity()

    def test_recovers_conjugation(self):
        rep = build_rep(sig(2, 0), DIRAC)
        a = M([[1, 1], [0, 1]])
        conj = Representation(
            rep.sig, rep.kind, tuple(a * g * a.inverse() for g in rep.images), rep.dim
        )
        found = find_intertwiner(rep, conj)
        assert found is not None
        t = found.matrix
        for g, cg in zip(rep.images, conj.images):
            assert t * g == cg * t

    def test_sigma_vs_twisted_incompatible(self):
        s = sig(3, 0)
        plain = build_rep(s, PAULI)
        twisted = build_rep(s, PAULI_TWISTED)
        assert find_intertwiner(plain, twisted) is None

    def test_rep_and_negated_rep_pointwise_equivalent(self):
        # the two opposite-sign Clifford maps on a projective fibre are
        # equivalent at a point: only the global bundles differ
        for s in (sig(2, 0), sig(4, 0)):
            rep = build_rep(s, DIRAC)
            negated = Representation(rep.sig, rep.kind, tuple(-g for g in rep.images), rep.dim)
            found = find_intertwiner(rep, negated)
            assert found is not None
            for g, ng in zip(rep.images, negated.images):
                assert found.matrix * g == ng * found.matrix
        for s in (sig(3, 0), sig(1, 2)):
            rep = build_rep(s, CARTAN)
            negated = Representation(rep.sig, rep.kind, tuple(-g for g in rep.images), rep.dim)
            found = find_intertwiner(rep, negated)
            assert found is not None
