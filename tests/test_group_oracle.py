"""Exhaustive oracle for the frame-group certificates in ``spinweave.groups``.

``generate_frame_group`` reads the group off the frame's blade table, which
checks the Clifford relations on the frame; ``verify_extension_diagram`` and
``plain_ad_kernel`` check the m frame vectors and count orders.  The
reference code below is the exhaustive version they replace: closure under
the 2m signed generators, one twisted adjoint per element, and m
commutations per element.  Both must agree on every small signature, and on
broken frames the certificate must fail exactly where the oracle fails or
where the spin space breaks an identity the oracle never looks at.

The odd-m Lipschitz elements ``build_odd_element``, ``embed_pin_pair`` and
``scalar_pair`` are built from the projectors (I +- eta/iota)/2 and Gamma on
any frame; on the canonical Cartan frames they must equal the block
assembly from Pauli images below.
"""

from typing import List, Optional

import pytest

from spinweave.clifford import Signature
from spinweave.groups import (
    FrameGroup,
    adjoint_matrix,
    build_odd_element,
    clifford_parity,
    embed_pin_pair,
    generate_frame_group,
    plain_ad_kernel,
    scalar_pair,
    twisted_adjoint_matrix,
    verify_extension_diagram,
)
from spinweave.linalg import ExactMatrix
from spinweave.reports import Report, report
from spinweave.reps import EVEN, SpinSpace, spin_space
from spinweave.scalars import ExactScalar, sc

from tools import conjugate_spin_space


# ---------------------------------------------------------------------------
# reference code: the exhaustive loops
# ---------------------------------------------------------------------------


def closure_frame_group(ss: SpinSpace, safety_bound: Optional[int] = None) -> FrameGroup:
    """Closure of {+-I, +-v_i} under right multiplication by the 2m signed
    generators, raising once it exceeds the bound."""
    bound = safety_bound if safety_bound is not None else 1 << (ss.sig.m + 2)
    gens = [s for v in ss.frame for s in (v, -v)]
    ident = ExactMatrix.identity(ss.dim)
    seen = set()
    frontier = []
    for g in [ident, -ident] + gens:
        if g not in seen:
            seen.add(g)
            frontier.append(g)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                p = g * h
                if p not in seen:
                    if len(seen) >= bound:
                        raise RuntimeError("frame-group closure exceeded safety bound")
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return FrameGroup(ss, tuple(sorted(seen, key=lambda g: g.key())))


def exhaustive_extension_diagram(ss: SpinSpace, group: FrameGroup) -> List[Report]:
    """(a) and (b) from one twisted adjoint per group element; (c) on the frame."""
    bad = None
    kernel = []
    for g in group.elements:
        try:
            adj = twisted_adjoint_matrix(ss, g)
        except ValueError:
            if bad is None:
                bad = g
            continue
        if adj.mat.is_identity():
            kernel.append(g)
    ident = ExactMatrix.identity(ss.dim)
    kernel_ok = sorted(k.key() for k in kernel) == sorted([ident.key(), (-ident).key()])
    agree = all(
        adjoint_matrix(ss, ss.gamma * u) == twisted_adjoint_matrix(ss, u) for u in ss.frame
    )
    return [
        report("twisted-adjoint-lands-in-orthogonal-group", ss.sig, bad is None),
        report("twisted-adjoint-kernel-is-plus-minus-identity", ss.sig, kernel_ok),
        report("adjoint-of-gamma-image-matches-twisted-adjoint", ss.sig, agree),
    ]


def exhaustive_plain_ad_kernel(ss: SpinSpace, group: FrameGroup) -> List[ExactMatrix]:
    return [g for g in group.elements if all(g * v == v * g for v in ss.frame)]


def pauli_block(a: ExactMatrix) -> ExactMatrix:
    """Top-left block of a canonical Cartan-form matrix (the sigma image)."""
    half = a.n // 2
    return ExactMatrix.from_sparse_rows(
        [[(c, x) for c, x in row if c < half] for row in a.sparse_rows[:half]]
    )


def cartan_scalar_pair(ss: SpinSpace, lam, mu) -> ExactMatrix:
    """diag(lam I, mu I)."""
    half = ss.dim // 2
    z, ident = ExactMatrix.zeros(half), ExactMatrix.identity(half)
    return ExactMatrix.block2(ident.scale(sc(lam)), z, z, ident.scale(sc(mu)))


def cartan_odd_element(ss: SpinSpace, lam, mu, a_pin: ExactMatrix) -> ExactMatrix:
    """The odd block [[0, lam s(a)], [mu s(a), 0]] for any a."""
    sigma_a = pauli_block(a_pin)
    z = ExactMatrix.zeros(ss.dim // 2)
    return ExactMatrix.block2(z, sigma_a.scale(sc(lam)), sigma_a.scale(sc(mu)), z)


def cartan_embed_pin_pair(ss: SpinSpace, a_pin: ExactMatrix, lam, mu) -> ExactMatrix:
    """diag(lam s(a), mu s(a)) for even a and [[0, lam s(a)], [mu s(a), 0]]
    for odd a, with s(a) the upper Pauli block of a."""
    sigma_a = pauli_block(a_pin)
    z = ExactMatrix.zeros(ss.dim // 2)
    if clifford_parity(ss, a_pin) == EVEN:
        return ExactMatrix.block2(sigma_a.scale(sc(lam)), z, z, sigma_a.scale(sc(mu)))
    return cartan_odd_element(ss, lam, mu, a_pin)


# ---------------------------------------------------------------------------
# canonical spin spaces: identical results
# ---------------------------------------------------------------------------

SIGNATURES = [Signature(k, m - k) for m in range(1, 6) for k in range(m + 1)] + [
    Signature(6, 0), Signature(3, 3), Signature(1, 5)
]


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_certificates_match_the_oracle(sig):
    ss = spin_space(sig)
    group = generate_frame_group(ss)
    reference = closure_frame_group(ss)
    assert group.elements == reference.elements
    assert [g.key() for g in group.elements] == [g.key() for g in reference.elements]

    got = [(r.check_name, r.ok) for r in verify_extension_diagram(group)]
    want = [(r.check_name, r.ok) for r in exhaustive_extension_diagram(ss, reference)]
    assert got == want
    assert all(ok for _, ok in got)

    kernel = [g.key() for g in plain_ad_kernel(group)]
    assert kernel == [g.key() for g in exhaustive_plain_ad_kernel(ss, reference)]
    assert len(kernel) == (4 if sig.m % 2 else 2)


def test_degenerate_frame_gives_a_short_order():
    """The upper Pauli blocks of Cl(0,3) satisfy its relations, but there
    v_1 v_2 v_3 = +-I, so v_A = +-v_B for complementary masks: order 8."""
    full = spin_space(Signature(0, 3))
    frame = tuple(pauli_block(v) for v in full.frame)
    eta = frame[0] * frame[1] * frame[2]
    assert eta.scalar_value() is not None
    ss = SpinSpace(full.sig, full.rep, frame, eta, full.iota, eta)
    group = generate_frame_group(ss)
    assert group.order == 8
    assert group.elements == closure_frame_group(ss).elements


@pytest.mark.parametrize("sig", [s for s in SIGNATURES if s.m % 2], ids=str)
def test_odd_elements_match_the_cartan_blocks(sig):
    ss = spin_space(sig)
    group = generate_frame_group(ss)
    for lam, mu in ((sc(2), sc(3)), (ExactScalar(1, 1), ExactScalar(0, -1) / 2)):
        assert scalar_pair(ss, lam, mu) == cartan_scalar_pair(ss, lam, mu)
        for a in group.elements:
            assert build_odd_element(ss, lam, mu, a) == cartan_odd_element(ss, lam, mu, a)
            assert embed_pin_pair(ss, a, lam, mu) == cartan_embed_pin_pair(ss, a, lam, mu)


# ---------------------------------------------------------------------------
# altered spin spaces: the certificate fails where the oracle does
# ---------------------------------------------------------------------------

I_UNIT = ExactScalar(0, 1)
# Frame mutations: the first three break the space, the last two keep it a
# spin space of its signature (a sign flip, and conjugation by I + 2 v_1 v_2,
# which is invertible since (v_1 v_2)^2 = -h_1 h_2 I).
MUTATIONS = {
    "2v": lambda ss: _rebuilt(ss, [ss.frame[0].scale(sc(2))] + list(ss.frame[1:])),
    "iv": lambda ss: _rebuilt(ss, [ss.frame[0].scale(I_UNIT)] + list(ss.frame[1:])),
    "v0+v1": lambda ss: _rebuilt(ss, [ss.frame[0] + ss.frame[1]] + list(ss.frame[1:])),
    "gamma=I": lambda ss: _rebuilt(ss, list(ss.frame), ExactMatrix.identity(ss.dim)),
    "-v": lambda ss: _rebuilt(ss, [-ss.frame[0]] + list(ss.frame[1:])),
    "conjugated": lambda ss: conjugate_spin_space(
        ss, ExactMatrix.identity(ss.dim) + (ss.frame[0] * ss.frame[1]).scale(sc(2))
    ),
}
MUTATED_SIGNATURES = [Signature(k, m - k) for m in range(2, 5) for k in range(m + 1)] + [
    Signature(5, 0), Signature(2, 3)
]


def _rebuilt(ss: SpinSpace, frame, gamma: Optional[ExactMatrix] = None) -> SpinSpace:
    """A spin space with fresh caches; eta is the product of the new frame."""
    eta = frame[0]
    for v in frame[1:]:
        eta = eta * v
    return SpinSpace(ss.sig, ss.rep, tuple(frame), eta, ss.iota,
                     ss.gamma if gamma is None else gamma)


def _fails(ss: SpinSpace, generate, diagram, kernel) -> bool:
    """True iff building the group raises or any verify-level check fails."""
    try:
        group = generate(ss)
    except RuntimeError:
        return True
    if group.order != 2 ** (ss.sig.m + 1):
        return True
    if not all(r.ok for r in diagram(ss, group)):
        return True
    return len(kernel(ss, group)) != (4 if ss.sig.m % 2 else 2)


def _certificate_fails(ss: SpinSpace) -> bool:
    return _fails(ss, generate_frame_group, lambda _, group: verify_extension_diagram(group),
                  lambda _, group: plain_ad_kernel(group))


def _oracle_fails(ss: SpinSpace) -> bool:
    return _fails(ss, closure_frame_group, exhaustive_extension_diagram,
                  exhaustive_plain_ad_kernel)


def _is_spin_space(ss: SpinSpace) -> bool:
    """v_i v_j + v_j v_i = 2 h_ij delta_ij I, and Gamma anticommutes with
    every v_i (so alpha(v_i) = -v_i).  The oracle tests neither directly."""
    ident = ExactMatrix.identity(ss.dim)
    for j, v in enumerate(ss.frame):
        if v * v != ident.scale(sc(ss.sig.h(j))) or not v.anticommutes_with(ss.gamma):
            return False
        if any(not v.anticommutes_with(ss.frame[i]) for i in range(j)):
            return False
    return True


@pytest.mark.parametrize("name", sorted(MUTATIONS))
@pytest.mark.parametrize("sig", MUTATED_SIGNATURES, ids=str)
def test_altered_spin_space_fails_where_the_oracle_does(sig, name):
    ss = MUTATIONS[name](spin_space(sig))
    valid = _is_spin_space(ss)
    assert valid == (name in ("-v", "conjugated"))
    assert _certificate_fails(ss) == (_oracle_fails(ss) or not valid)
    if valid:  # "conjugated" takes the table's matrix blades
        assert generate_frame_group(ss).elements == closure_frame_group(ss).elements


def test_oracle_misses_what_the_certificate_catches():
    """Where the certificate is stricter: i*v_1 squares to -h_1 (the
    oracle builds the frame group of another signature), and with Gamma = I
    the twisted adjoint of v_i is -r_i, not the reflection r_i (at even m
    the oracle still finds the kernel {+-I})."""
    for sig, name in ((Signature(2, 0), "iv"), (Signature(2, 1), "iv"),
                      (Signature(2, 2), "gamma=I")):
        ss = MUTATIONS[name](spin_space(sig))
        assert not _oracle_fails(ss)
        assert _certificate_fails(ss)
