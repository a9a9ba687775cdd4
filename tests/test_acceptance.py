"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact; tolerances are equality in Q(i, sqrt2) or in
F2.  Runtime budgets: criterion 1 under 60 s, criterion 8 under 120 s,
criterion 7 under 1 s.
"""

import random
import time
from itertools import combinations

from spinweave.bundles import (
    ExteriorElement,
    associated_tau_welldefined,
    exterior_example_check,
    exterior_tau,
    projective_example_check,
    quadric_example_check,
    sphere_example_check,
)
from spinweave.charclass import (
    builtin_catalog,
    check_lpin,
    check_pin_c,
    check_pin_minus,
    check_pin_plus,
    check_spin,
    check_spin_c,
    grassmann_g52_data,
    is_orientable,
    product_with_parallelizable,
    projective_space_data,
)
from spinweave.clifford import CliffordElement, Signature
from spinweave.groups import (
    KappaImage,
    adjoint_matrix,
    build_odd_element,
    clifford_parity,
    factor_scalar_times_pin,
    frame_group,
    kappa,
    plain_ad_kernel,
    sample_lipschitz,
    twisted_adjoint,
    twisted_adjoint_matrix,
    verify_spinor_groups,
)
from spinweave.linalg import ExactMatrix
from spinweave.reps import (
    CARTAN,
    DIRAC,
    EVEN,
    PAULI,
    PAULI_TWISTED,
    WEYL_MINUS,
    WEYL_PLUS,
    build_rep,
    cartan_projectors,
    decompose_even_restriction,
    gamma_map,
    grading_of,
    spin_space,
    verify_clifford,
    verify_spin_space,
)
from spinweave.scalars import MINUS_ONE, ONE, sc

CE = CliffordElement
M = ExactMatrix


def signatures(max_m, min_m=1):
    for m in range(min_m, max_m + 1):
        for k in range(m + 1):
            yield Signature(k, m - k)


def _announce(number, label, started):
    print(f"PASS criterion {number}: {label} ({time.perf_counter() - started:.1f}s)")


def _random_sparse(sig, rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randrange(1 << sig.m)] = sc(rng.randint(-4, 4))
    return CE(sig, terms)


def test_criterion_1_algebra_suite():
    started = time.perf_counter()
    for sig in signatures(7):
        kinds = (PAULI, PAULI_TWISTED, CARTAN) if sig.m % 2 else (DIRAC, WEYL_PLUS, WEYL_MINUS)
        for kind in kinds:
            assert verify_clifford(build_rep(sig, kind)).ok, f"{kind} fails for {sig}"
        for i in range(sig.m):
            for j in range(sig.m):
                ei, ej = CE.generator(sig, i), CE.generator(sig, j)
                expected = CE.scalar(sig, 2 * sig.h(i)) if i == j else CE.zero(sig)
                assert ei * ej + ej * ei == expected
    rng = random.Random(2024)
    triples = 0
    while triples < 1000:
        m = rng.randint(1, 8)
        k = rng.randint(0, m)
        sig = Signature(k, m - k)
        x, y, z = (_random_sparse(sig, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        triples += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"criterion 1 exceeded budget: {elapsed:.1f}s"
    _announce(1, "Clifford relations m<=7 and 1000-triple associativity fuzz", started)


def _assert_all_ok(reports, sig):
    failed = [r.check_name for r in reports if not r.ok]
    assert reports and not failed, f"{failed} fail for {sig}"


def test_criterion_2_commutant_dimensions():
    started = time.perf_counter()
    # the spin-space checks ``spinweave verify`` runs, led by dim K and dim A
    for sig in signatures(7):
        _assert_all_ok(verify_spin_space(spin_space(sig)), sig)
    _announce(2, "dim K(h) and dim A(h) are 1 (even m) / 2 (odd m) for m<=7", started)


def test_criterion_3_volume_and_gamma():
    started = time.perf_counter()
    for sig in signatures(6):
        ss = spin_space(sig)
        # volume-square, gamma-square, and alpha on the generators
        _assert_all_ok(verify_spin_space(ss), sig)
        # alpha and the gamma map on every blade, beyond the generators
        ginv = ss.gamma.inverse()
        for mask in range(1 << sig.m):
            x = CE.blade(sig, mask)
            assert ss.include(x.alpha()) == ginv * ss.include(x) * ss.gamma
        for i in range(sig.m):
            v = CE.generator(sig, i)
            assert gamma_map(ss, v.alpha()) == ginv * gamma_map(ss, v) * ss.gamma
    _announce(3, "eta^2 = iota^2, Gamma^2 = -I, alpha and gamma intertwining", started)


def test_criterion_4_group_suite():
    started = time.perf_counter()
    for sig in signatures(6):
        ss = spin_space(sig)
        group = frame_group(sig)
        # order, extension diagram, witnesses, and for odd m kernel size and kappa
        _assert_all_ok(verify_spinor_groups(group, seed=1), sig)
        if sig.m % 2:
            kernel = plain_ad_kernel(group)
            ident = M.identity(ss.dim)
            expected = {ident.key(), (-ident).key(), ss.eta.key(), (-ss.eta).key()}
            assert {g.key() for g in kernel} == expected, f"Ad kernel wrong for {sig}"
    _announce(4, "frame groups, extension diagram, odd-m Ad kernel {+-I, +-eta}", started)


def test_criterion_5_lipschitz_structure():
    started = time.perf_counter()
    # kappa is a homomorphism on >= 100 seeded random pairs per odd m
    for m in (1, 3, 5):
        sig = Signature(m, 0)
        reports = verify_spinor_groups(frame_group(sig), seed=100 + m, kappa_pairs=100)
        assert reports[-1].check_name == "kappa-homomorphism-sampled"
        _assert_all_ok(reports, sig)

    # kappa of the odd block elements is (-1, lambda/mu) exactly
    for sig in (Signature(1, 0), Signature(3, 0), Signature(0, 3), Signature(2, 3)):
        ss = spin_space(sig)
        group = frame_group(sig)
        lam, mu = sc(5), sc(7)
        for a_pin in group.elements[: min(6, group.order)]:
            odd = build_odd_element(ss, lam, mu, a_pin)
            assert kappa(ss, odd) == KappaImage(-1, lam / mu)

    # even m: sampled Lipschitz elements factor as scalar times Pin
    for sig in (Signature(2, 0), Signature(1, 1), Signature(4, 0)):
        ss = spin_space(sig)
        group = frame_group(sig)
        rng = random.Random(17)
        for _ in range(30):
            a = sample_lipschitz(group, rng)
            factored = factor_scalar_times_pin(group, a)
            assert factored is not None
            z, g = factored
            assert a == g.scale(z)
            adjoint_matrix(ss, a)  # image must be orthogonal

    # parity rule: det(Ad(a)) = (-1)^grade(a) exhaustively on frame groups
    for sig in signatures(5):
        ss = spin_space(sig)
        group = frame_group(sig)
        for a in group.elements:
            det = adjoint_matrix(ss, a).det()
            expected = ONE if grading_of(a, ss) == EVEN else MINUS_ONE
            assert det == expected
    _announce(5, "kappa homomorphism, odd-block values, even-m factorisation, parity", started)


def test_criterion_6_cartan_decomposition():
    started = time.perf_counter()
    for sig in signatures(5):
        if sig.m % 2 == 0:
            continue
        ss = spin_space(sig)
        ident = M.identity(ss.dim)
        p_plus, p_minus = cartan_projectors(ss)
        assert p_plus * p_plus == p_plus and p_minus * p_minus == p_minus
        assert p_plus + p_minus == ident
        assert (p_plus * p_minus).is_zero()
        for i, j in combinations(range(sig.m), 2):
            even = gamma_map(ss, CE.generator(sig, i) * CE.generator(sig, j))
            assert even.commutes_with(p_plus) and even.commutes_with(p_minus)
        # the Clifford (inclusion) action swaps the two Pauli pieces
        for v in ss.frame:
            assert v * p_plus == p_minus * v
        # dual form: the eta-projectors are swapped by the odd gamma images
        q_plus, q_minus = decompose_even_restriction(ss)
        for i in range(sig.m):
            g = gamma_map(ss, CE.generator(sig, i))
            assert g * q_plus == q_minus * g
    _announce(6, "Cartan projectors: idempotent, even-invariant, odd-swapped; m<=5", started)


def test_criterion_7_obstruction_table():
    started = time.perf_counter()
    g52 = grassmann_g52_data()
    assert not is_orientable(g52)
    assert not check_pin_c(g52)
    ok, _ = check_lpin(g52)
    assert not ok
    for factor in ("circle", "line"):
        prod = product_with_parallelizable(g52, factor)
        assert not check_pin_c(prod)
        ok, witness = check_lpin(prod)
        assert ok and witness == "gamma"

    assert check_spin(projective_space_data(1))  # RP^1 = S^1, outside the m>1 rule
    for m in range(2, 17):
        assert check_spin(projective_space_data(m)) == (m % 4 == 3)
        if m % 4 == 1:
            assert not check_spin(projective_space_data(m))

    for mf in builtin_catalog():
        spin = check_spin(mf)
        pin_p, pin_m = check_pin_plus(mf), check_pin_minus(mf)
        spin_c, pin_c = check_spin_c(mf), check_pin_c(mf)
        if spin:
            assert pin_p and pin_m and spin_c
        if pin_p or pin_m:
            assert pin_c
        if spin_c:
            assert pin_c
    elapsed = time.perf_counter() - started
    assert elapsed < 1, f"criterion 7 exceeded budget: {elapsed:.2f}s"
    _announce(7, "G52 rows verbatim, RP^m spin table, implication chain", started)


def test_criterion_8_bundle_examples():
    started = time.perf_counter()
    # the check functions ``spinweave examples`` runs: sphere tau^2 = |y|^2;
    # projective antipodal invariance, sign flip and tau^2 = |y|^2
    for m in range(1, 7):
        for check in (sphere_example_check, projective_example_check):
            report = check(m, 100, seed=m)
            assert report.ok, (report.check_name, report.counterexample)

    report = quadric_example_check(50, seed=3)
    assert report.ok, report.counterexample

    for sig in signatures(6):
        assert exterior_example_check(sig).ok, f"tau(e_i)^2 != h_i for {sig}"
        for i, j in combinations(range(sig.m), 2):
            vi = [1 if t == i else 0 for t in range(sig.m)]
            vj = [1 if t == j else 0 for t in range(sig.m)]
            for mask in range(1 << sig.m):
                omega = ExteriorElement.basis_form(sig.m, mask)
                lhs = exterior_tau(vi, exterior_tau(vj, omega, sig), sig)
                rhs = exterior_tau(vj, exterior_tau(vi, omega, sig), sig)
                assert (lhs + rhs).is_zero()

    for sig in signatures(4):
        result = associated_tau_welldefined(spin_space(sig))
        assert result.ok, result.counterexample

    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"criterion 8 exceeded budget: {elapsed:.1f}s"
    _announce(8, "sphere/projective/quadric/exterior/associated checks", started)
