"""Spinor groups on a spin space: frame groups, adjoint actions, kappa.

Continuous groups are never enumerated.  Pin is probed through the
finite subgroup generated by the frame images (order 2^(m+1)), the
Lipschitz group through a membership predicate plus seeded random
elements assembled from guaranteed members: scalars, frame-group
elements, and the odd two-block elements available for odd m.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .clifford import Signature
from .linalg import ExactMatrix, rref_sparse
from .reps import EVEN, ODD, SpinSpace, spin_space
from .scalars import ExactScalar, MINUS_ONE, ONE, ZERO, sc


class FrameGroup:
    """Finite subgroup of Pin generated by {+-frame}; includes +-I.

    The Cayley table is materialised on first use; element order is
    canonical (sorted by ``ExactMatrix.key``).  Lookups hash the sparse
    rows, not the key.
    """

    def __init__(self, sig: Signature, elements: Tuple[ExactMatrix, ...]):
        self.sig = sig
        self.elements = elements
        self._index = {g: i for i, g in enumerate(elements)}
        self._cayley: Optional[Tuple[Tuple[int, ...], ...]] = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def cayley(self) -> Tuple[Tuple[int, ...], ...]:
        if self._cayley is None:
            self._cayley = tuple(
                tuple(self._index[a * b] for b in self.elements)
                for a in self.elements
            )
        return self._cayley

    def index_of(self, mat: ExactMatrix) -> Optional[int]:
        return self._index.get(mat)

    def __contains__(self, mat: ExactMatrix) -> bool:
        return mat in self._index

    @property
    def identity_index(self) -> int:
        return self._index[ExactMatrix.identity(self.elements[0].n)]

    def inverse_index(self, i: int) -> int:
        e = self.identity_index
        return next(j for j in range(self.order) if self.cayley[i][j] == e)


def generate_frame_group(ss: SpinSpace, safety_bound: Optional[int] = None) -> FrameGroup:
    """Closure of the signed frame images under multiplication.

    The generators contain their own inverses up to sign, so product
    closure yields the group.  Exceeding the safety bound signals a
    broken frame and raises.  Products are deduplicated by matrix
    equality (hashing the sparse rows); the elements are sorted by
    ``key()`` once, at the end.
    """
    bound = safety_bound if safety_bound is not None else 1 << (ss.sig.m + 2)
    gens = []
    for v in ss.frame:
        gens.append(v)
        gens.append(-v)
    seen: Set[ExactMatrix] = set()
    frontier = []
    ident = ExactMatrix.identity(ss.dim)
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
    elements = tuple(sorted(seen, key=lambda m: m.key()))
    return FrameGroup(ss.sig, elements)


@lru_cache(maxsize=None)
def frame_group(sig: Signature) -> FrameGroup:
    """Frame group of the canonical spin space, cached per signature."""
    return generate_frame_group(spin_space(sig))


# ---------------------------------------------------------------------------
# adjoint actions
# ---------------------------------------------------------------------------


def clifford_alpha(ss: SpinSpace, a: ExactMatrix) -> ExactMatrix:
    """Grade involution realised matricially: Gamma^-1 a Gamma."""
    return ss.gamma_inv * a * ss.gamma


def twisted_adjoint(ss: SpinSpace, a: ExactMatrix, v: ExactMatrix) -> ExactMatrix:
    """alpha(a) v a^-1 for invertible a."""
    return clifford_alpha(ss, a) * v * a.inverse()


def _probe(mats: Sequence[ExactMatrix]) -> Tuple[List[Tuple[int, int]], ExactMatrix]:
    """Probe positions and inverted sample matrix for fast expansion.

    Greedily picks len(mats) entry positions, in row-major order among
    the nonzeros, at which the matrices are linearly independent;
    expansion then solves a small system and verifies the candidate
    exactly.
    """
    k = len(mats)
    positions: List[Tuple[int, int]] = []
    rows: List[Dict[int, ExactScalar]] = []
    picked: List[List[ExactScalar]] = []
    for r in range(mats[0].n):
        for c in sorted({c for v in mats for c, _ in v.sparse_rows[r]}):
            vals = [v[r, c] for v in mats]
            trial = rows + [{j: x for j, x in enumerate(vals) if not x.is_zero()}]
            reduced, pivots = rref_sparse(trial, k)
            if len(pivots) == len(trial):
                rows = trial
                picked.append(vals)
                positions.append((r, c))
                if len(positions) == k:
                    return positions, ExactMatrix(picked).inverse()
    raise ValueError("matrices are linearly dependent")


def _expand(
    mats: Sequence[ExactMatrix], probe: Tuple[List[Tuple[int, int]], ExactMatrix], x: ExactMatrix
) -> Optional[List[ExactScalar]]:
    """Coefficients of x in the span of mats, or None if x is outside it.

    The probe entries of x give the only possible coefficients; the
    combination is then compared with x exactly.
    """
    positions, sample_inv = probe
    target = [x[r, c] for r, c in positions]
    coords = []
    for row in sample_inv.sparse_rows:
        acc = ZERO
        for i, s in row:
            if not target[i].is_zero():
                acc = acc + s * target[i]
        coords.append(acc)
    combo = ExactMatrix.zeros(x.n)
    for coeff, v in zip(coords, mats):
        if not coeff.is_zero():
            combo = combo + v.scale(coeff)
    return coords if combo == x else None


def _frame_probe(ss: SpinSpace):
    probe = ss._probes.get("frame")
    if probe is None:
        probe = ss._probes["frame"] = _probe(ss.frame)
    return probe


def expand_in_frame(ss: SpinSpace, x: ExactMatrix) -> Optional[List[ExactScalar]]:
    """Coefficients of x in the frame basis, or None if x is outside span V."""
    return _expand(ss.frame, _frame_probe(ss), x)


@dataclass(frozen=True)
class OrthMatrix:
    """Real m x m matrix orthogonal for the diagonal form of the signature."""

    sig: Signature
    mat: ExactMatrix

    def __post_init__(self):
        m = self.sig.m
        if self.mat.n != m:
            raise ValueError("orthogonal matrix has wrong dimension")
        h = [sc(self.sig.h(i)) for i in range(m)]
        # Gram matrix M^T H M, summed over the nonzeros of each row of M
        gram: Dict[Tuple[int, int], ExactScalar] = {}
        for r, row in enumerate(self.mat.sparse_rows):
            for i, x in row:
                xh = x * h[r]
                for j, y in row:
                    term = xh * y
                    cur = gram.get((i, j))
                    gram[i, j] = term if cur is None else cur + term
        nonzero = {ij: v for ij, v in gram.items() if not v.is_zero()}
        if nonzero != {(i, i): h[i] for i in range(m)}:
            raise ValueError("matrix is not orthogonal for the signature")

    def det(self) -> ExactScalar:
        return self.mat.det()

    def __eq__(self, other):
        return isinstance(other, OrthMatrix) and self.sig == other.sig and self.mat == other.mat


def _frame_matrix(ss: SpinSpace, images: Sequence[ExactMatrix]) -> OrthMatrix:
    """Orthogonal matrix whose column i holds the frame coordinates of images[i]."""
    cols = []
    for image in images:
        coords = expand_in_frame(ss, image)
        if coords is None:
            raise ValueError("conjugation does not preserve the vector span")
        for c in coords:
            if not c.is_real():
                raise ValueError("conjugation has non-real frame coefficients")
        cols.append(coords)
    return OrthMatrix(ss.sig, ExactMatrix(cols).transpose())


def adjoint_matrix(ss: SpinSpace, a: ExactMatrix) -> OrthMatrix:
    """Matrix of Ad(a): v -> a v a^-1 in the frame basis."""
    inv = a.inverse()
    return _frame_matrix(ss, [a * v * inv for v in ss.frame])


def twisted_adjoint_matrix(ss: SpinSpace, a: ExactMatrix) -> OrthMatrix:
    """Matrix of the twisted adjoint v -> alpha(a) v a^-1 in the frame basis."""
    alpha_a = clifford_alpha(ss, a)
    inv = a.inverse()
    return _frame_matrix(ss, [alpha_a * v * inv for v in ss.frame])


def is_lipschitz(ss: SpinSpace, a: ExactMatrix, inv: Optional[ExactMatrix] = None) -> bool:
    """True iff a is invertible and conjugation by a preserves span V.

    ``inv``, when given, must be a^-1; it spares inverting a again.
    """
    if inv is None:
        try:
            inv = a.inverse()
        except ValueError:
            return False
    for v in ss.frame:
        coords = expand_in_frame(ss, a * v * inv)
        if coords is None or any(not c.is_real() for c in coords):
            return False
    return True


# ---------------------------------------------------------------------------
# kappa: conjugation action on the anticommutant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KappaImage:
    """Element of O1(C) = Z2 (even m) or O2(C) = Z2 x| C^x (odd m).

    Composition follows the semidirect rule phi(-1)z = z^-1.
    """

    sign: int
    scale: Optional[ExactScalar] = None

    def __mul__(self, other: "KappaImage") -> "KappaImage":
        if (self.scale is None) != (other.scale is None):
            raise ValueError("cannot compose kappa images of different parities")
        if self.scale is None:
            return KappaImage(self.sign * other.sign)
        t = self.scale if other.sign > 0 else self.scale.inverse()
        return KappaImage(self.sign * other.sign, t * other.scale)

    def is_identity(self) -> bool:
        return self.sign == 1 and (self.scale is None or self.scale == ONE)

    def __eq__(self, other):
        return (
            isinstance(other, KappaImage)
            and self.sign == other.sign
            and self.scale == other.scale
        )


def _isotropic_pair(ss: SpinSpace) -> Tuple[Tuple[ExactMatrix, ExactMatrix], tuple]:
    """Ordered isotropic basis of A(h) normalised from (Gamma, Gamma*eta),
    with its expansion probe; cached on the spin space.

    For the canonical Cartan form these are the two corner blocks; kappa
    reads off as the reflection scale on this pair, making the odd-block
    elements map to (-1, lambda/mu) exactly.
    """
    cached = ss._probes.get("isotropic")
    if cached is None:
        scaled = (ss.gamma * ss.eta).scale(ss.iota.inverse())
        pair = (ss.gamma + scaled, -ss.gamma + scaled)
        cached = ss._probes["isotropic"] = (pair, _probe(pair))
    return cached


def kappa(ss: SpinSpace, a: ExactMatrix) -> KappaImage:
    """Conjugation action of a Lipschitz element on the anticommutant."""
    try:
        inv = a.inverse()
    except ValueError:
        inv = None
    if inv is None or not is_lipschitz(ss, a, inv):
        raise ValueError("kappa needs a Lipschitz group element")
    if ss.sig.m % 2 == 0:
        conj = a * ss.gamma * inv
        if conj == ss.gamma:
            return KappaImage(1)
        if conj == -ss.gamma:
            return KappaImage(-1)
        raise ValueError("conjugation does not preserve the gamma line")
    (u_plus, u_minus), probe = _isotropic_pair(ss)
    img_plus = _expand((u_plus, u_minus), probe, a * u_plus * inv)
    img_minus = _expand((u_plus, u_minus), probe, a * u_minus * inv)
    if img_plus is None or img_minus is None:
        raise ValueError("conjugation does not preserve the anticommutant")
    (x1, y1), (x2, y2) = img_plus, img_minus
    if y1.is_zero() and x2.is_zero() and not x1.is_zero():
        if y2 * x1 != ONE:
            raise ValueError("conjugation is not orthogonal on the anticommutant")
        return KappaImage(1, x1)
    if x1.is_zero() and y2.is_zero() and not y1.is_zero():
        if x2 * y1 != ONE:
            raise ValueError("conjugation is not orthogonal on the anticommutant")
        return KappaImage(-1, y1)
    raise ValueError("conjugation is not diagonal or antidiagonal on the isotropic pair")


# ---------------------------------------------------------------------------
# odd block elements and the Pin x (C* x C*) model
# ---------------------------------------------------------------------------


def build_odd_element(ss: SpinSpace, lam, mu, a_pin: ExactMatrix) -> ExactMatrix:
    """Assemble the odd Lipschitz block [[0, lam*s(a)], [mu*s(a), 0]]."""
    if ss.sig.m % 2 == 0:
        raise ValueError("odd block elements need odd m")
    lam, mu = sc(lam), sc(mu)
    if lam.is_zero() or mu.is_zero():
        raise ValueError("scale parameters must be nonzero")
    sigma_a = ss.pauli_block(a_pin)
    half = ss.dim // 2
    z = ExactMatrix.zeros(half)
    return ExactMatrix.block2(z, sigma_a.scale(lam), sigma_a.scale(mu), z)


def embed_pin_pair(ss: SpinSpace, a_pin: ExactMatrix, lam, mu) -> ExactMatrix:
    """Image of (a, lambda, mu) in the Lipschitz group.

    Even Pin parts land block-diagonally as diag(lam*s(a), mu*s(a)); odd
    parts land in the antidiagonal blocks.  Moving an odd factor past a
    scalar pair swaps (lambda, mu).
    """
    if ss.sig.m % 2 == 0:
        raise ValueError("the pair model needs odd m")
    lam, mu = sc(lam), sc(mu)
    sigma_a = ss.pauli_block(a_pin)
    half = ss.dim // 2
    z = ExactMatrix.zeros(half)
    if clifford_parity(ss, a_pin) == EVEN:
        return ExactMatrix.block2(sigma_a.scale(lam), z, z, sigma_a.scale(mu))
    return ExactMatrix.block2(z, sigma_a.scale(lam), sigma_a.scale(mu), z)


def clifford_parity(ss: SpinSpace, a: ExactMatrix) -> str:
    """Parity of an invertible Clifford-algebra element via alpha conjugation."""
    conj = clifford_alpha(ss, a)
    if conj == a:
        return EVEN
    if conj == -a:
        return ODD
    return "neither"


def scalar_pair(ss: SpinSpace, lam, mu) -> ExactMatrix:
    """K(h) element acting by lam on the +eta eigenblock and mu on the other."""
    if ss.sig.m % 2 == 0:
        raise ValueError("scalar pairs need odd m")
    half = ss.dim // 2
    return ExactMatrix.block2(
        ExactMatrix.identity(half).scale(sc(lam)),
        ExactMatrix.zeros(half),
        ExactMatrix.zeros(half),
        ExactMatrix.identity(half).scale(sc(mu)),
    )


def in_kernel_k(ss: SpinSpace, a: ExactMatrix) -> bool:
    """Membership in K(h): commutes with every frame matrix."""
    return all(a.commutes_with(v) for v in ss.frame)


# ---------------------------------------------------------------------------
# structure verification
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    ok: bool
    witness: Optional[str] = None
    counterexample: Optional[str] = None


def verify_extension_diagram(ss: SpinSpace, group: Optional[FrameGroup] = None) -> List[CheckResult]:
    """Exhaustive frame-group checks for the twisted/untwisted comparison.

    (a) the twisted adjoint of every group element is orthogonal,
    (b) its kernel on the group is exactly {+-I},
    (c) Ad(gamma(u)) equals the twisted adjoint of u on frame vectors.

    (a) and (b) share one twisted adjoint per element.  g lies in the
    kernel iff alpha(g) v g^-1 = v for every frame vector v, which holds
    iff its twisted adjoint matrix exists and is the identity: the
    expansion verifies its coordinates exactly, and an image outside
    span V is not a frame vector.
    """
    group = group or generate_frame_group(ss)
    results = []

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
    results.append(
        CheckResult(
            "twisted-adjoint-lands-in-orthogonal-group",
            bad is None,
            counterexample=None if bad is None else str(bad),
        )
    )

    ident = ExactMatrix.identity(ss.dim)
    kernel_ok = sorted(k.key() for k in kernel) == sorted([ident.key(), (-ident).key()])
    results.append(
        CheckResult(
            "twisted-adjoint-kernel-is-plus-minus-identity",
            kernel_ok,
            counterexample=None if kernel_ok else f"kernel size {len(kernel)}",
        )
    )

    agree = True
    for i in range(ss.sig.m):
        u = ss.frame[i]
        gamma_u = ss.gamma * u
        if adjoint_matrix(ss, gamma_u) != twisted_adjoint_matrix(ss, u):
            agree = False
            break
    results.append(CheckResult("adjoint-of-gamma-image-matches-twisted-adjoint", agree))
    return results


def plain_ad_kernel(ss: SpinSpace, group: Optional[FrameGroup] = None) -> List[ExactMatrix]:
    """Kernel of the plain adjoint action restricted to the frame group."""
    group = group or generate_frame_group(ss)
    return [
        g
        for g in group.elements
        if all(g * v == v * g for v in ss.frame)
    ]


def ad_surjectivity_witnesses(ss: SpinSpace) -> List[CheckResult]:
    """Exhibit gamma-image witnesses hitting the generating reflections.

    The identity gets the identity witness, each frame reflection the
    element gamma(e_i), and for odd m the central inversion -id_V gets
    the product of all m of them.
    """
    m = ss.sig.m
    results = [
        CheckResult(
            "identity-witness",
            adjoint_matrix(ss, ExactMatrix.identity(ss.dim)).mat.is_identity(),
            witness="I",
        )
    ]
    reflections = []
    for i in range(m):
        target = ExactMatrix.diag([sc(-1 if j == i else 1) for j in range(m)])
        witness = ss.gamma * ss.frame[i]
        ok = adjoint_matrix(ss, witness).mat == target
        reflections.append(ok)
        results.append(
            CheckResult(f"reflection-e{i + 1}-witness", ok, witness=f"gamma(e{i + 1})")
        )
    if m % 2 == 1:
        witness = ExactMatrix.identity(ss.dim)
        for i in range(m):
            witness = witness * (ss.gamma * ss.frame[i])
        ok = adjoint_matrix(ss, witness).mat == ExactMatrix.identity(m).scale(MINUS_ONE)
        results.append(
            CheckResult("central-inversion-witness", ok, witness="product of gamma(e_i)")
        )
    return results


# ---------------------------------------------------------------------------
# seeded sampling of Lipschitz elements
# ---------------------------------------------------------------------------

_SCALAR_GRID = (
    sc(1), sc(-1), sc(2), sc(-2), sc(3),
    ExactScalar(1, 1), ExactScalar(0, 1), ExactScalar(0, -1),
    ExactScalar(2, -1), sc(1) / 2,
)


def _random_scalar(rng: random.Random) -> ExactScalar:
    return _SCALAR_GRID[rng.randrange(len(_SCALAR_GRID))]


def sample_lipschitz(
    ss: SpinSpace, rng: random.Random, group: Optional[FrameGroup] = None
) -> ExactMatrix:
    """Random guaranteed Lipschitz element: a short product of scalars,
    frame-group elements, and (odd m) odd block elements."""
    group = group or generate_frame_group(ss)
    out = ExactMatrix.identity(ss.dim)
    for _ in range(rng.randint(1, 3)):
        choice = rng.randrange(3 if ss.sig.m % 2 else 2)
        if choice == 0:
            out = out * ExactMatrix.identity(ss.dim).scale(_random_scalar(rng))
        elif choice == 1:
            out = out * group.elements[rng.randrange(group.order)]
        else:
            a = group.elements[rng.randrange(group.order)]
            out = out * build_odd_element(ss, _random_scalar(rng), _random_scalar(rng), a)
    return out


def factor_scalar_times_pin(
    ss: SpinSpace, a: ExactMatrix, group: Optional[FrameGroup] = None
) -> Optional[Tuple[ExactScalar, ExactMatrix]]:
    """Factor a = z * g with g in the frame group, searching the group."""
    group = group or generate_frame_group(ss)
    for g in group.elements:
        z = (a * g.inverse()).scalar_value()
        if z is not None and not z.is_zero():
            return z, g
    return None


def factor_kernel_element(
    ss: SpinSpace, a: ExactMatrix, group: Optional[FrameGroup] = None
) -> Optional[Tuple[ExactMatrix, ExactMatrix]]:
    """Factor a kappa-kernel element as (K(h) element) * (gamma-image of Pin).

    Searches even frame-group elements g (for which gamma(g) = g) for one
    with a * g^-1 in K(h).
    """
    group = group or generate_frame_group(ss)
    for g in group.elements:
        if clifford_parity(ss, g) != EVEN:
            continue
        k = a * g.inverse()
        if in_kernel_k(ss, k):
            return k, g
    return None
