import random
from fractions import Fraction
from itertools import combinations

import pytest

from spinweave import bundles
from spinweave.bundles import (
    ExteriorElement,
    QuadricPoint,
    RationalSpherePoint,
    TangentPair,
    associated_tau_welldefined,
    exterior_example_check,
    exterior_tau,
    hermitean_example_check,
    hermitean_h_value,
    hermitean_tau,
    projective_example_check,
    projective_tau,
    quadric_example_check,
    quadric_tau,
    sample_quadric_points,
    sample_tangent_pairs,
    sphere_example_check,
    sphere_representation,
    sphere_tau,
    spin_space_morphisms,
    stereographic,
)
from spinweave.charclass import check_lpin, projective_space_data, sphere_data
from spinweave.cli import MAX_M
from spinweave.clifford import CliffordElement, Signature
from spinweave.linalg import ExactMatrix
from spinweave import reps
from spinweave.reps import Representation, SpinSpace, spin_space
from spinweave.scalars import ExactScalar, HALF, I, ONE, ZERO, sc

from tools import conjugate_spin_space

CE = CliffordElement
M = ExactMatrix
F = Fraction


def sig(k, l):
    return Signature(k, l)


class TestSampling:
    def test_north_pole(self):
        p = stereographic([F(0)])
        assert p.coords == (F(0), F(1))

    def test_unit_parameter(self):
        p = stereographic([F(1)])
        assert p.coords == (F(1), F(0))

    def test_exact_unit_norm(self):
        for pair in sample_tangent_pairs(4, 25, seed=3):
            assert sum(c * c for c in pair.point.coords) == 1

    def test_tangent_orthogonality(self):
        for pair in sample_tangent_pairs(3, 25, seed=5):
            assert sum(a * b for a, b in zip(pair.point.coords, pair.y)) == 0

    def test_deterministic_per_seed(self):
        a = sample_tangent_pairs(2, 10, seed=11)
        b = sample_tangent_pairs(2, 10, seed=11)
        assert a == b

    def test_invalid_point_rejected(self):
        with pytest.raises(ValueError):
            RationalSpherePoint((F(1), F(1)))
        with pytest.raises(ValueError):
            TangentPair(stereographic([F(0)]), (F(1), F(1)))

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            sample_tangent_pairs(0, 5, seed=1)


class TestSphereTau:
    def test_zero_tangent(self):
        rep = sphere_representation(2)
        x = stereographic([F(0), F(0)])
        pair = TangentPair(x, (F(0),) * 3)
        assert sphere_tau(2, pair, rep).is_zero()

    def test_clifford_property_base_point(self):
        rep = sphere_representation(2)
        pair = TangentPair(
            RationalSpherePoint((F(1), F(0), F(0))), (F(0), F(1), F(0))
        )
        t = sphere_tau(2, pair, rep)
        assert t * t == M.identity(rep.dim)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_clifford_property_sampled(self, m):
        rep = sphere_representation(m)
        for pair in sample_tangent_pairs(m, 12, seed=m):
            t = sphere_tau(m, pair, rep)
            assert t * t == M.identity(rep.dim).scale(sc(sum(c * c for c in pair.y)))

    def test_scaling_is_quadratic(self):
        rep = sphere_representation(2)
        pair = sample_tangent_pairs(2, 1, seed=9)[0]
        doubled = TangentPair(pair.point, tuple(2 * c for c in pair.y))
        t1, t2 = sphere_tau(2, pair, rep), sphere_tau(2, doubled, rep)
        assert t2 == t1.scale(sc(2))
        assert t2 * t2 == (t1 * t1).scale(sc(4))


class TestProjectiveTau:
    """The antipode and sign comparisons that projective_example_check
    certifies by construction instead of recomputing."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_antipodal_invariance(self, m):
        rep = sphere_representation(m)
        for pair in sample_tangent_pairs(m, 10, seed=2):
            plus = projective_tau(m, 1, pair, rep)
            assert projective_tau(m, 1, pair.antipode(), rep) == plus

    @pytest.mark.parametrize("m", range(1, 7))
    def test_minus_is_negation(self, m):
        rep = sphere_representation(m)
        for pair in sample_tangent_pairs(m, 5, seed=4):
            assert projective_tau(m, -1, pair, rep) == -projective_tau(m, 1, pair, rep)

    def test_clifford_property_both_signs(self):
        rep = sphere_representation(2)
        for pair in sample_tangent_pairs(2, 10, seed=6):
            for sign in (1, -1):
                t = projective_tau(2, sign, pair, rep)
                assert t * t == M.identity(rep.dim).scale(sc(sum(c * c for c in pair.y)))

    def test_bad_sign(self):
        rep = sphere_representation(2)
        pair = sample_tangent_pairs(2, 1, seed=1)[0]
        with pytest.raises(ValueError):
            projective_tau(2, 0, pair, rep)


class TestExteriorModule:
    def test_wedge_on_scalars(self):
        s = sig(3, 0)
        one = ExteriorElement.basis_form(3, 0)
        out = exterior_tau([1, 0, 0], one, s)
        assert out == ExteriorElement.basis_form(3, 1 << 0)

    def test_metric_sign_in_wedge(self):
        s = sig(0, 3)
        one = ExteriorElement.basis_form(3, 0)
        out = exterior_tau([1, 0, 0], one, s)
        assert out == ExteriorElement.basis_form(3, 1).scale(sc(-1))

    @pytest.mark.parametrize("s", [sig(3, 0), sig(1, 2), sig(0, 4), sig(2, 2)])
    def test_squares_exhaustive(self, s):
        for i in range(s.m):
            v = [1 if j == i else 0 for j in range(s.m)]
            for mask in range(1 << s.m):
                omega = ExteriorElement.basis_form(s.m, mask)
                twice = exterior_tau(v, exterior_tau(v, omega, s), s)
                assert twice == omega.scale(sc(s.h(i)))

    def test_anticommutation_exhaustive(self):
        s = sig(2, 1)
        for i, j in combinations(range(s.m), 2):
            vi = [1 if t == i else 0 for t in range(s.m)]
            vj = [1 if t == j else 0 for t in range(s.m)]
            for mask in range(1 << s.m):
                omega = ExteriorElement.basis_form(s.m, mask)
                lhs = exterior_tau(vi, exterior_tau(vj, omega, s), s)
                rhs = exterior_tau(vj, exterior_tau(vi, omega, s), s)
                assert (lhs + rhs).is_zero()

    def test_general_vector_square(self):
        s = sig(2, 1)
        v = [F(1, 2), F(-2), F(3)]
        hv = sum(F(c) * F(c) * s.h(i) for i, c in enumerate(v))
        for mask in range(1 << s.m):
            omega = ExteriorElement.basis_form(s.m, mask)
            twice = exterior_tau(v, exterior_tau(v, omega, s), s)
            assert twice == omega.scale(sc(hv))

    def test_sum_of_different_dimensions_rejected(self):
        # e_3 (mask 4) is not a form on R^2
        with pytest.raises(ValueError, match="dimension mismatch"):
            ExteriorElement(2, {1: ONE}) + ExteriorElement(3, {4: ONE})

    def test_mask_outside_the_algebra_rejected(self):
        # mask 8 is e_4, which is not a form on R^2, and -1 is no subset at all
        for mask in (8, 4, -1):
            with pytest.raises(ValueError):
                ExteriorElement(2, {mask: ONE})
        with pytest.raises(ValueError):
            ExteriorElement.basis_form(2, 1 << 2)

    def test_sum_whose_terms_cancel(self):
        # 1/2 e_1 + 1/3 e_1 - 5/6 e_1 = 0 and i e_1^e_2 - i e_1^e_2 = 0
        a = ExteriorElement(2, {1: F(1, 2), 3: I, 2: ONE})
        b = ExteriorElement(2, {1: F(1, 3), 3: -I})
        c = ExteriorElement(2, {1: F(-5, 6)})
        assert (a + b).terms == {1: sc(F(5, 6)), 2: ONE}
        assert (a + b) + c == ExteriorElement.basis_form(2, 2)
        assert (a + a.scale(sc(-1))).is_zero()
        assert (a + a.scale(sc(-1))).terms == {}


class TestHermiteanModule:
    def test_d1_square(self):
        n = [ONE]
        for mask in (0, 1):
            omega = ExteriorElement.basis_form(1, mask)
            twice = hermitean_tau(n, hermitean_tau(n, omega))
            assert twice == omega.scale(hermitean_h_value(n))
            assert hermitean_h_value(n) == sc(2)

    def test_zero_in_zero_out(self):
        assert hermitean_tau([ONE, ZERO], ExteriorElement.zero(2)).is_zero()

    def test_anticommutation_orthogonal_pairs(self):
        # n = e-slot 1, n' = e-slot 2, and also n' = i*n (the J-rotated mate)
        pairs = [
            ([ONE, ZERO], [ZERO, ONE]),
            ([ONE, ZERO], [I, ZERO]),
        ]
        for n, n2 in pairs:
            for mask in range(4):
                omega = ExteriorElement.basis_form(2, mask)
                lhs = hermitean_tau(n, hermitean_tau(n2, omega))
                rhs = hermitean_tau(n2, hermitean_tau(n, omega))
                assert (lhs + rhs).is_zero()

    def test_square_general_coefficients(self):
        n = [ExactScalar(1, 1), ExactScalar(0, -2)]
        hv = hermitean_h_value(n)
        assert hv == sc(12)  # 2 * (|1+i|^2 + |2i|^2) = 2 * (2 + 4)
        for mask in range(4):
            omega = ExteriorElement.basis_form(2, mask)
            twice = hermitean_tau(n, hermitean_tau(n, omega))
            assert twice == omega.scale(hv)

    def test_requires_gaussian(self):
        from spinweave.scalars import SQRT2

        with pytest.raises(ValueError):
            hermitean_tau([SQRT2], ExteriorElement.basis_form(1, 0))


def _varpi(p):
    """The quadric involution varpi at p: its numerator N_varpi over D1 D2."""
    fx, fy = bundles._form(p.x), bundles._form(p.y)
    return bundles._quadric_varpi_numerator(fx, fy).scale(ONE / (fx[1] * fy[1]))


class TestQuadric:
    def test_base_point_involution(self):
        base = QuadricPoint(
            TangentPair(RationalSpherePoint((F(1), F(0))), (F(0), F(1))),
            TangentPair(RationalSpherePoint((F(1), F(0), F(0))), (F(0), F(1), F(0))),
        )
        w = _varpi(base)
        assert w * w == M.identity(4)

    def test_sampled_checks(self):
        points = sample_quadric_points(12, seed=20)
        report = quadric_example_check(12, seed=20)
        assert report.ok, report.counterexample
        # the projector swap, which quadric_example_check certifies by the
        # anticommutation it checks
        ident = M.identity(4)
        for p in points:
            tau, varpi = quadric_tau(p), _varpi(p)
            assert tau * (ident + varpi).scale(HALF) == (ident - varpi).scale(HALF) * tau

    def test_varpi_antipodal(self):
        for p in sample_quadric_points(12, seed=8):
            assert _varpi(p.antipode()) == _varpi(p)
            assert quadric_tau(p.antipode()) == quadric_tau(p)


class TestAssociatedBundle:
    @pytest.mark.parametrize("s", [sig(1, 0), sig(2, 0), sig(3, 0), sig(1, 1)])
    def test_welldefinedness(self, s):
        report = associated_tau_welldefined(spin_space(s))
        assert report.ok, report.counterexample

    @staticmethod
    def _with_gamma(ss, gamma):
        return SpinSpace(ss.sig, ss.rep, ss.frame, ss.eta, ss.iota, gamma)

    def test_gamma_replaced_by_identity_is_reported(self):
        # the identity commutes with e1, so it conjugates e1 like alpha's
        # negative control (no Gamma at all), not like alpha
        ss = spin_space(sig(3, 0))
        report = associated_tau_welldefined(self._with_gamma(ss, M.identity(ss.dim)))
        assert report.check_name == "associated-welldefined"
        assert report.signature == "Cl(3,0)"
        assert report.status == "fail"
        assert report.counterexample == "vector e1"

    def test_gamma_commuting_only_with_e7_is_reported(self):
        # e1...e6 anticommutes with e1..e6 and commutes with e7, so it agrees
        # with alpha on every blade of e1..e6 and not on e7
        s = sig(7, 0)
        ss = spin_space(s)
        e1_to_e6 = ss.include(CE.blade(s, 0b0111111))
        report = associated_tau_welldefined(self._with_gamma(ss, e1_to_e6))
        assert (report.status, report.counterexample) == ("fail", "vector e7")

    def test_singular_gamma_is_reported(self):
        # the zero matrix anticommutes with every frame vector
        ss = spin_space(sig(2, 0))
        report = associated_tau_welldefined(self._with_gamma(ss, M.zeros(ss.dim)))
        assert (report.status, report.counterexample) == ("fail", "Gamma is not invertible")

    @pytest.mark.parametrize("s", [sig(k, m - k) for m in range(1, 5) for k in range(m + 1)])
    def test_agrees_with_exhaustive_blade_oracle(self, s):
        # Gamma^-1 v_A Gamma = (-1)^|A| v_A on every blade mask A is alpha
        # realised by Gamma on the whole frame group {+-v_A}; the candidates
        # are every blade image v_B and the canonical Gamma times v_B
        ss = spin_space(s)
        blades = [ss.include(CE.blade(s, mask)) for mask in range(1 << s.m)]
        verdicts = set()
        for b in blades:
            for gamma in (b, ss.gamma * b):
                inv = gamma.inverse()
                oracle = all(
                    inv * v * gamma == (-v if bin(mask).count("1") % 2 else v)
                    for mask, v in enumerate(blades)
                )
                assert associated_tau_welldefined(self._with_gamma(ss, gamma)).ok == oracle
                verdicts.add(oracle)
        assert verdicts == {True, False}

    def test_gamma_needed_specific_case(self):
        from spinweave.groups import twisted_adjoint

        ss = spin_space(sig(3, 0))
        a = ss.frame[0]
        v = ss.frame[1]
        inv = a.inverse()
        with_gamma = ss.gamma * twisted_adjoint(ss, inv, v) * inv
        assert with_gamma == inv * ss.gamma * v
        without = twisted_adjoint(ss, inv, v) * inv
        assert without != inv * v


class TestSpinSpaceMorphisms:
    def test_identity(self):
        ss = spin_space(sig(2, 0))
        found = spin_space_morphisms(ss, ss)
        assert found is not None and found.is_identity()

    def test_identity_odd(self):
        ss = spin_space(sig(3, 0))
        found = spin_space_morphisms(ss, ss)
        assert found is not None and found.is_identity()

    def test_conjugated_target(self):
        ss = spin_space(sig(2, 0))
        a = M([[1, 1], [0, 1]])
        other = conjugate_spin_space(ss, a)
        found = spin_space_morphisms(ss, other)
        assert found is not None
        inv = found.inverse()
        for v in ss.frame:
            conj = found * v * inv
            from spinweave.groups import expand_in_frame

            assert expand_in_frame(other, conj) is not None

    def test_signature_mismatch_gives_none(self):
        assert spin_space_morphisms(spin_space(sig(2, 0)), spin_space(sig(0, 2))) is None

    def test_morphism_induces_isometry(self):
        ss = spin_space(sig(1, 1))
        found = spin_space_morphisms(ss, ss)
        assert found is not None

    @staticmethod
    def _variants(ss, rng):
        """Spin spaces of ss's signature: three random conjugates, every single
        sign flip of a frame vector, and every adjacent transposition of two
        frame vectors with the same square."""
        n, m = ss.dim, ss.sig.m
        out = []
        while len(out) < 3:
            a = M([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if a.rank() == n:
                out.append(conjugate_spin_space(ss, a))
        frames = [ss.frame[:i] + (-ss.frame[i],) + ss.frame[i + 1:] for i in range(m)]
        frames += [ss.frame[:i] + (ss.frame[i + 1], ss.frame[i]) + ss.frame[i + 2:]
                   for i in range(m - 1) if ss.sig.h(i) == ss.sig.h(i + 1)]
        for frame in frames:
            out.append(reps._spin_space_from(Representation(ss.sig, ss.rep.kind, frame, n)))
        return out

    @pytest.mark.parametrize("s", [sig(k, m - k) for m in range(1, 5) for k in range(m + 1)],
                             ids=str)
    def test_conjugates_the_frame_onto_every_variant(self, s):
        ss = spin_space(s)
        for other in self._variants(ss, random.Random(s.m * 10 + s.k)):
            found = spin_space_morphisms(ss, other)
            assert found is not None
            inv = found.inverse()
            assert all(found * v * inv == w for v, w in zip(ss.frame, other.frame))

    def test_no_morphism_onto_a_frame_with_a_doubled_vector(self):
        # 2 v1 squares to 4 I, so no conjugation takes v1 to any +-v_j or to 2 v1
        ss = spin_space(sig(5, 0))
        frame = (ss.frame[0].scale(sc(2)),) + ss.frame[1:]
        doubled = SpinSpace(ss.sig, ss.rep, frame, ss.eta, ss.iota, ss.gamma)
        assert spin_space_morphisms(ss, doubled) is None


class TestExampleChecks:
    """The records ``spinweave examples`` prints, one check function each."""

    def test_records_carry_the_cli_name_and_signature(self):
        records = [
            sphere_example_check(2, 3, seed=1),
            projective_example_check(2, 3, seed=1),
            exterior_example_check(sig(3, 0)),
            hermitean_example_check(2, 3, seed=1),
            quadric_example_check(2, seed=1),
        ]
        assert [(r.check_name, r.signature, r.status, r.counterexample) for r in records] == [
            ("sphere-clifford-property", "m=2", "pass", None),
            ("projective-clifford-property", "m=2", "pass", None),
            ("exterior-clifford-property", "m=3", "pass", None),
            ("hermitean-clifford-property", "d=2", "pass", None),
            ("quadric-pointwise-checks", None, "pass", None),
        ]

    def test_exterior_names_a_mixed_signature(self):
        report = exterior_example_check(sig(1, 2))
        assert report.ok and report.signature == "Cl(1,2)"

    def test_sphere_counts_failing_samples(self, monkeypatch):
        monkeypatch.setattr(bundles, "_sphere_numerator", lambda xs, ys, rep: M.zeros(rep.dim))
        report = sphere_example_check(2, 3, seed=1)
        assert report.status == "fail" and report.counterexample == "3 failures"
        # the projective maps are +-sphere_tau: one failure per pair, not two
        report = projective_example_check(2, 3, seed=1)
        assert report.status == "fail" and report.counterexample == "3 failures"

    def test_exterior_fails_with_a_doubled_wedge(self, monkeypatch):
        # tau(e_i) = contraction + 2 wedge squares to 2 h_i, not h_i
        slots = bundles._exterior_slots
        monkeypatch.setattr(bundles, "_exterior_slots",
                            lambda v, h: [(i, c, w + w) for i, c, w in slots(v, h)])
        assert exterior_example_check(sig(3, 0)).status == "fail"

    def test_hermitean_fails_without_the_conjugation(self, monkeypatch):
        # the contraction by n instead of conj(n) squares to sum n_i^2, not |n|^2
        slots = bundles._hermitean_slots
        monkeypatch.setattr(bundles, "_hermitean_slots",
                            lambda n, d: [(i, w, w) for i, _, w in slots(n, d)])
        assert hermitean_example_check(3, 5, 1).status == "fail"

    @pytest.mark.parametrize("name, broken, first", [
        # varpi = I: the numerator D1 D2 varpi is D1 D2 I
        ("_quadric_varpi_numerator", lambda fx, fy: M.identity(4).scale(fx[1] * fy[1]),
         "sample 0: varpi does not anticommute with tau"),
        ("_quadric_tau_numerator", lambda fx, fy: M.zeros(4), "sample 0: Clifford property fails"),
    ], ids=["varpi-identity", "tau-zero"])
    def test_quadric_names_the_first_failure(self, monkeypatch, name, broken, first):
        monkeypatch.setattr(bundles, name, broken)
        report = quadric_example_check(2, seed=1)
        assert report.status == "fail" and report.counterexample == first


class TestObstructionFence:
    """Where the sphere and RP^m examples build their Clifford module bundles, the obstruction
    table must allow an lpin structure; the catalog stops at s7, so S^m and RP^m are built here."""

    @pytest.mark.parametrize("m", range(1, MAX_M + 1))
    def test_examples_pass_and_lpin_holds(self, m):
        assert sphere_example_check(m, 2, 1).ok
        assert projective_example_check(m, 2, 1).ok
        assert check_lpin(sphere_data(m))[0] is True
        assert check_lpin(projective_space_data(m))[0] is True
