"""Spinor groups on a spin space: frame groups, adjoint actions, kappa.

Continuous groups are never enumerated.  Pin is probed through the
finite subgroup generated by the frame images (order 2^(m+1)), the
Lipschitz group through a membership predicate plus seeded random
elements assembled from guaranteed members: scalars, frame-group
elements, and the odd elements available for odd m.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import takewhile
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .clifford import Signature
from .linalg import ExactMatrix
from .reports import Record, Report, report
from .reps import EVEN, NEITHER, SpinSpace, _blade_table, _parity, spin_space
from .scalars import ExactScalar, MINUS_ONE, ONE, ZERO, _sum_products, sc


class FrameGroup:
    """Subgroup of Pin that {+-frame} of the spin space ``ss`` generates: its signed blades +-v_A.

    Element order is canonical (sorted by ``ExactMatrix.key``).  Lookups hash the sparse rows, not
    the key.
    """

    def __init__(self, ss: SpinSpace, elements: Tuple[ExactMatrix, ...]):
        self.ss = ss
        self.elements = elements
        self._index = {g: i for i, g in enumerate(elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, mat: ExactMatrix) -> Optional[int]:
        return self._index.get(mat)

    def __contains__(self, mat: ExactMatrix) -> bool:
        return mat in self._index


def generate_frame_group(ss: SpinSpace) -> FrameGroup:
    """{+-v_A}: the blades of the frame's ``reps._blade_table`` and their negatives.

    The table checks v_i^2 = c_i I, c_i a nonzero scalar, and v_j v_i = -v_i v_j for i < j, so
    v_A v_B = +-v_(A xor B) (Lawson-Michelsohn I.5).  c_i = h_i is checked here; a frame that breaks
    either raises.  Deduplication hashes the sparse rows, so a degenerate frame (v_A = +-v_B for
    some A != B) gives fewer than 2^(m+1) elements.
    """
    try:
        blades, squares, _, _ = _blade_table(tuple(ss.frame))
    except ValueError as exc:
        raise RuntimeError(str(exc)) from None
    for j, c in enumerate(squares):
        if c != sc(ss.sig.h(j)):
            raise RuntimeError(f"frame vector e{j + 1} breaks the Clifford relations")
    elements = set(blades) | {-b for b in blades}
    return FrameGroup(ss, tuple(sorted(elements, key=lambda g: g.key())))


def frame_group(sig: Signature) -> FrameGroup:
    """Frame group of the canonical spin space, kept on that space (``SpinSpace.memo``)."""
    ss = spin_space(sig)
    return ss.memo("group", lambda: generate_frame_group(ss))


# -- adjoint actions ----------------------------------------------------------


def clifford_alpha(ss: SpinSpace, a: ExactMatrix) -> ExactMatrix:
    """Grade involution realised matricially: Gamma^-1 a Gamma."""
    return ss.gamma_inv * a * ss.gamma


def twisted_adjoint(ss: SpinSpace, a: ExactMatrix, v: ExactMatrix) -> ExactMatrix:
    """alpha(a) v a^-1 for invertible a."""
    return clifford_alpha(ss, a) * v * a.inverse()


def _expand(
    mats: Sequence[ExactMatrix], duals: Sequence[ExactMatrix], x: ExactMatrix
) -> Optional[List[ExactScalar]]:
    """Coefficients of x in the span of mats, or None if x is outside it.

    duals gives each b_k = mats[k] a d_k with b_j d_k + d_k b_j = delta_jk I, so x = sum_j c_j b_j
    has x d_k + d_k x = c_k I and c_k is its entry (0, 0): row 0 of x against column 0 of d_k, plus
    row 0 of d_k against column 0 of x.  The column-0 entry of row j is the row's first stored
    entry when its column is 0, so the read forms no product and does no solve.  The combination
    is then compared with x exactly, so a wrong reading (x outside the span, or duals that break
    the relation) returns None, never wrong coordinates.
    """
    pairs = []
    for k, d in enumerate(duals):
        for left, right in ((x.sparse_rows, d.sparse_rows), (d.sparse_rows, x.sparse_rows)):
            pairs += [(y, ((k, right[j][0][1]),))
                      for j, y in left[0] if right[j] and right[j][0][0] == 0]
    values = dict(_sum_products(pairs))
    coords = [values.get(k, ZERO) for k in range(len(mats))]
    return coords if ExactMatrix.combination(x.n, zip(coords, mats)) == x else None


def expand_in_frame(ss: SpinSpace, x: ExactMatrix) -> Optional[List[ExactScalar]]:
    """Coefficients of x in the frame basis, or None if x is outside span V.

    v_j v_k + v_k v_j = 2 c_k delta_jk I, so the frame is its own dual basis up to scale: the duals
    are v_k / (2 c_k), with the c_k the squares of ``reps._blade_table``, which raises ValueError
    on a frame whose vectors do not anticommute with nonzero scalar squares.
    """
    def duals():
        _, squares, _, _ = _blade_table(tuple(ss.frame))
        return tuple(v.scale((c * 2).inverse()) for c, v in zip(squares, ss.frame))

    return _expand(ss.frame, ss.memo("frame", duals), x)


class OrthMatrix(Record):
    """Real m x m matrix orthogonal for the diagonal form of the signature."""

    __slots__ = ("sig", "mat")

    def __init__(self, sig: Signature, mat: ExactMatrix):
        m = sig.m
        if mat.n != m:
            raise ValueError("orthogonal matrix has wrong dimension")
        if not all(x.is_real() for row in mat.sparse_rows for _, x in row):
            raise ValueError("orthogonal matrix has a non-real entry")
        h = [sc(sig.h(i)) for i in range(m)]
        # Gram matrix M^T H M, summed over the nonzeros of each row of M
        pairs = []
        for r, row in enumerate(mat.sparse_rows):
            pairs += ((x * h[r], [((i, j), y) for j, y in row]) for i, x in row)
        if dict(_sum_products(pairs)) != {(i, i): h[i] for i in range(m)}:
            raise ValueError("matrix is not orthogonal for the signature")
        self._assign(sig, mat)

    def det(self) -> ExactScalar:
        return self.mat.det()


def _frame_matrix(ss: SpinSpace, left: ExactMatrix, inv: ExactMatrix) -> OrthMatrix:
    """Orthogonal matrix whose column i holds the frame coordinates of left * v_i * inv; ValueError
    if an image leaves span V or, through ``OrthMatrix``, has a non-real coordinate."""
    cols = []
    for v in ss.frame:
        coords = expand_in_frame(ss, left * v * inv)
        if coords is None:
            raise ValueError("conjugation does not preserve the vector span")
        cols.append(coords)
    return OrthMatrix(ss.sig, ExactMatrix(cols).transpose())


def adjoint_matrix(ss: SpinSpace, a: ExactMatrix) -> OrthMatrix:
    """Matrix of Ad(a): v -> a v a^-1 in the frame basis."""
    return _frame_matrix(ss, a, a.inverse())


def twisted_adjoint_matrix(ss: SpinSpace, a: ExactMatrix) -> OrthMatrix:
    """Matrix of the twisted adjoint v -> alpha(a) v a^-1 in the frame basis."""
    return _frame_matrix(ss, clifford_alpha(ss, a), a.inverse())


def is_lipschitz(ss: SpinSpace, a: ExactMatrix) -> bool:
    """True iff a is invertible and conjugation by a maps span V into itself
    with a real frame matrix M.  M is then orthogonal on a spin space, so the
    orthogonality check of ``_frame_matrix`` adds no condition: the images
    w_i = a v_i a^-1 = sum_k M_ki v_k keep the frame's Clifford relations, so
    2 h_i delta_ij I = w_i w_j + w_j w_i = sum_k M_ki M_kj 2 h_k I: M^T H M = H.
    """
    try:
        _frame_matrix(ss, a, a.inverse())
    except ValueError:
        return False
    return True


# -- kappa: conjugation action on the anticommutant ---------------------------


class KappaImage(Record):
    """Element of O1(C) = Z2 (even m) or O2(C) = Z2 x| C^x (odd m).

    Composition follows the semidirect rule phi(-1)z = z^-1.
    """

    __slots__ = ("sign", "scale")

    def __init__(self, sign: int, scale: Optional[ExactScalar] = None):
        self._assign(sign, scale)

    def __mul__(self, other: "KappaImage") -> "KappaImage":
        if (self.scale is None) != (other.scale is None):
            raise ValueError("cannot compose kappa images of different parities")
        if self.scale is None:
            return KappaImage(self.sign * other.sign)
        t = self.scale if other.sign > 0 else self.scale.inverse()
        return KappaImage(self.sign * other.sign, t * other.scale)

    def is_identity(self) -> bool:
        return self.sign == 1 and (self.scale is None or self.scale == ONE)


def _isotropic_pair(ss: SpinSpace) -> Tuple[Tuple[ExactMatrix, ExactMatrix], tuple]:
    """Ordered isotropic basis (u+, u-) of A(h) normalised from (Gamma, Gamma*eta), with its
    ``_expand`` duals; cached on the spin space.

    With j = eta/iota the pair is Gamma (I + j) and Gamma (j - I).  On a spin space Gamma j = -j
    Gamma, j^2 = I and Gamma^2 = -I, so each squares to -(I - j^2) = 0, u+ u- = 2I - 2j and
    u- u+ = 2I + 2j: s = u+ u- + u- u+ = 4I, and the duals are u-/s for u+ and u+/s for u-.
    ValueError if s is not a nonzero scalar (Gamma = I gives s = 0).  kappa reads off as the
    reflection scale on this pair, making the odd elements map to (-1, lambda/mu) exactly.  On the
    canonical Cartan frame the pair is the two corner blocks.
    """
    def build():
        scaled = (ss.gamma * ss.eta).scale(ss.iota.inverse())
        u_plus, u_minus = ss.gamma + scaled, -ss.gamma + scaled
        s = (u_plus * u_minus + u_minus * u_plus).scalar_value()
        if not s:
            raise ValueError("u+ u- + u- u+ is not a nonzero scalar")
        t = s.inverse()
        return (u_plus, u_minus), (u_minus.scale(t), u_plus.scale(t))
    return ss.memo("isotropic", build)


def kappa(ss: SpinSpace, a: ExactMatrix) -> KappaImage:
    """Conjugation action of a Lipschitz element on the anticommutant."""
    if not is_lipschitz(ss, a):
        raise ValueError("kappa needs a Lipschitz group element")
    return _kappa(ss, a, a.inverse())


def _kappa(ss: SpinSpace, a: ExactMatrix, inv: ExactMatrix) -> KappaImage:
    """kappa(a) from conjugation by a, given inv = a^-1, without checking that a is Lipschitz;
    ValueError if the conjugation does not act on the anticommutant as an element of O1 or O2."""
    if ss.sig.m % 2 == 0:
        conj = a * ss.gamma * inv
        if conj == ss.gamma:
            return KappaImage(1)
        if conj == -ss.gamma:
            return KappaImage(-1)
        raise ValueError("conjugation does not preserve the gamma line")
    pair, duals = _isotropic_pair(ss)
    img_plus, img_minus = (_expand(pair, duals, a * u * inv) for u in pair)
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


# -- odd elements and the Pin x (C* x C*) model -------------------------------


def build_odd_element(ss: SpinSpace, lam, mu, a_pin: ExactMatrix) -> ExactMatrix:
    """Odd Lipschitz element (lam P+ + mu P-) Gamma a for odd a and
    (mu P- - lam P+) Gamma a for even a, with P+- = (I +- eta/iota)/2.

    The scalar pair commutes with the frame (eta is central at odd m), and Gamma and a normalise
    span V, so the element is Lipschitz; through Gamma it anticommutes with eta.  The sign on P+
    for even a makes it the block [[0, lam*s(a)], [mu*s(a), 0]] on the canonical Cartan frame, with
    s(a) the Pauli image of a.
    """
    lam, mu, parity = _pair_model_parts(ss, lam, mu, a_pin)
    return scalar_pair(ss, -lam if parity == EVEN else lam, mu) * ss.gamma * a_pin


def embed_pin_pair(ss: SpinSpace, a_pin: ExactMatrix, lam, mu) -> ExactMatrix:
    """Image of (a, lambda, mu) in the Lipschitz group.

    Even Pin parts land as (lam P+ + mu P-) a, odd parts as the odd element
    (lam P+ + mu P-) Gamma a; on the canonical Cartan frame these are
    diag(lam*s(a), mu*s(a)) and the antidiagonal blocks.  Moving an odd
    factor past a scalar pair swaps (lambda, mu).
    """
    lam, mu, parity = _pair_model_parts(ss, lam, mu, a_pin)
    pair = scalar_pair(ss, lam, mu)
    return pair * a_pin if parity == EVEN else pair * ss.gamma * a_pin


def _pair_model_parts(ss: SpinSpace, lam, mu, a_pin: ExactMatrix) -> tuple:
    """(lam, mu, parity of a_pin) for the pair model; raises ValueError unless m is odd, both
    scales are nonzero and a_pin is even or odd."""
    if ss.sig.m % 2 == 0:
        raise ValueError("the pair model needs odd m")
    lam, mu = sc(lam), sc(mu)
    if lam.is_zero() or mu.is_zero():
        raise ValueError("scale parameters must be nonzero")
    parity = clifford_parity(ss, a_pin)
    if parity == NEITHER:
        raise ValueError("a_pin must be even or odd")
    return lam, mu, parity


def clifford_parity(ss: SpinSpace, a: ExactMatrix) -> str:
    """Parity of an invertible Clifford-algebra element via alpha conjugation."""
    return _parity(clifford_alpha(ss, a), a)


def scalar_pair(ss: SpinSpace, lam, mu) -> ExactMatrix:
    """K(h) element lam P+ + mu P-, acting by lam on the +iota eigenspace of
    eta and by mu on the other; P+- = (I +- eta/iota)/2, so it is
    (lam + mu)/2 I + (lam - mu)/(2 iota) eta."""
    if ss.sig.m % 2 == 0:
        raise ValueError("scalar pairs need odd m")
    lam, mu = sc(lam), sc(mu)
    terms = [((lam + mu) / 2, ExactMatrix.identity(ss.dim)), ((lam - mu) / (ss.iota * 2), ss.eta)]
    return ExactMatrix.combination(ss.dim, terms)


def in_kernel_k(ss: SpinSpace, a: ExactMatrix) -> bool:
    """Membership in K(h): commutes with every frame matrix."""
    return all(a.commutes_with(v) for v in ss.frame)


# -- structure verification ---------------------------------------------------


def _reflection(m: int, i: int) -> ExactMatrix:
    """r_i: the reflection e_i -> -e_i, e_j -> e_j (j != i) of V."""
    return ExactMatrix.diag([MINUS_ONE if j == i else ONE for j in range(m)])


def _adjoints(ss: SpinSpace, family: str) -> Tuple[Optional[OrthMatrix], ...]:
    """Ad~(v_i), Ad(Gamma v_i) or Ad(v_i) of each frame vector for family "twisted", "gamma" or
    "frame", None where it fails; cached on the spin space.  The first two serve the extension
    diagram ("gamma" the reflection witnesses too), "frame" the plain-Ad kernel and kappa."""
    def adjoint(v: ExactMatrix) -> Optional[OrthMatrix]:
        try:
            return (twisted_adjoint_matrix(ss, v) if family == "twisted" else
                    adjoint_matrix(ss, ss.gamma * v if family == "gamma" else v))
        except ValueError:
            return None
    return ss.memo(family + "-adjoints", lambda: tuple(map(adjoint, ss.frame)))


def verify_extension_diagram(group: FrameGroup) -> List[Report]:
    """Frame-group checks for the twisted/untwisted comparison, certified
    on the m frame vectors of the group's spin space.

    (a) The twisted adjoint of every group element is orthogonal.  It is
        multiplicative, Ad~(ab) = Ad~(a) o Ad~(b), since alpha is conjugation
        by Gamma, and Ad~(-I) = id.  The group is generated by -I and the
        frame, so if each frame vector maps V into V by a real orthogonal
        matrix, so does every element.
    (b) Its kernel on the group is exactly {+-I}.  Ad~(v_i) is checked to be
        the reflection r_i, and +-I and the frame to lie in G.  The r_i
        generate all 2^m sign diagonals, so the image has order 2^m; with
        |G| = 2^(m+1) the kernel has order 2, so it is {+-I}.
    (c) Ad(gamma(u)) equals the twisted adjoint of u on frame vectors.

    Each check is an exact matrix equality on the m twisted adjoints.  The first frame vector
    that fails (a) is its counterexample; (b) names the adjoints before it; (c) names the first
    e_i whose two adjoints differ or where either is missing.
    """
    ss = group.ss
    m = ss.sig.m
    twisted = list(takewhile(lambda t: t is not None, _adjoints(ss, "twisted")))
    bad = ss.frame[len(twisted)] if len(twisted) < m else None
    ident = ExactMatrix.identity(ss.dim)
    off = [f"e{i + 1}" for i, t in enumerate(twisted) if t.mat != _reflection(m, i)]
    kernel_ok = (
        bad is None and not off and group.order == 2 << m
        and all(g in group for g in (ident, -ident, *ss.frame))
    )
    pairs = enumerate(zip(_adjoints(ss, "gamma"), _adjoints(ss, "twisted")), 1)
    mismatch = next((f"e{i}: " + ("Ad(Gamma v) missing" if g is None else "Ad~(v) missing"
                                  if t is None else "Ad(Gamma v) != Ad~(v)")
                     for i, (g, t) in pairs if g is None or t is None or g != t), None)
    return [
        report("twisted-adjoint-lands-in-orthogonal-group", ss.sig, bad is None,
               counterexample=None if bad is None else str(bad)),
        report("twisted-adjoint-kernel-is-plus-minus-identity", ss.sig, kernel_ok,
               counterexample=None if kernel_ok else
               f"group order {group.order}; not a reflection: {', '.join(off) or '-'}"),
        report("adjoint-of-gamma-image-matches-twisted-adjoint", ss.sig, mismatch is None,
               counterexample=mismatch),
    ]


def plain_ad_kernel(group: FrameGroup) -> List[ExactMatrix]:
    """Kernel of the plain adjoint action on the frame group, certified on
    the m frame vectors; [] when the certificate fails.

    Ad(v_i) is checked to be -r_i, so Ad(+-v_A) = (-1)^|A| r_A: the image is generated by the -r_i,
    whose product is (-1)^(m+1) I, and has order 2^(m-1) for odd m and 2^m for even m.  With |G| =
    2^(m+1) the kernel has order 4 or 2.  +-I, and for odd m +-eta, are checked to be that many
    distinct group elements commuting with the frame, so they are the kernel; they are returned in
    group order.
    """
    ss = group.ss
    m = ss.sig.m
    central = list(_central_candidates(ss).values())
    members = {group.index_of(g) for g in central}
    ok = all(g is not None and g.mat == -_reflection(m, i)
             for i, g in enumerate(_adjoints(ss, "frame")))
    if ok and group.order == 2 << m and None not in members and len(members) == len(central):
        if all(in_kernel_k(ss, g) for g in central):
            return [group.elements[i] for i in sorted(members)]
    return []


def _central_candidates(ss: SpinSpace) -> dict:
    """+-I, and for odd m +-eta, by name: the elements the plain-Ad kernel certificate checks."""
    ident = ExactMatrix.identity(ss.dim)
    odd = {"eta": ss.eta, "-eta": -ss.eta} if ss.sig.m % 2 else {}
    return {"I": ident, "-I": -ident, **odd}


def ad_surjectivity_witnesses(ss: SpinSpace) -> List[Report]:
    """Exhibit gamma-image witnesses hitting the generating reflections.

    The identity gets the identity witness, each frame reflection the element gamma(e_i), and for
    odd m the central inversion -id_V gets the product of all m of them.  Ad is multiplicative, so
    that product maps to the product of the Ad(gamma(e_i)), which is read off them.
    """
    m = ss.sig.m
    identity = adjoint_matrix(ss, ExactMatrix.identity(ss.dim)).mat.is_identity()
    results = [report("identity-witness", ss.sig, identity, witness="I")]
    adjoints = _adjoints(ss, "gamma")
    for i, g in enumerate(adjoints):
        ok = g is not None and g.mat == _reflection(m, i)
        results.append(report(f"reflection-e{i + 1}-witness", ss.sig, ok,
                              witness=f"gamma(e{i + 1})"))
    if m % 2 == 1:
        ok = None not in adjoints and (reduce(mul, (g.mat for g in adjoints)).scalar_value()
                                       == MINUS_ONE)
        results.append(report("central-inversion-witness", ss.sig, ok,
                              witness="product of gamma(e_i)"))
    return results


def _sampled_kinds_are_lipschitz(ss: SpinSpace) -> bool:
    """Certificate that every factor ``sample_lipschitz`` draws on ss is
    Lipschitz: each frame vector and Gamma are, and eta commutes with V."""
    return (None not in _adjoints(ss, "frame") and is_lipschitz(ss, ss.gamma)
            and in_kernel_k(ss, ss.eta))


def verify_spinor_groups(group: FrameGroup, seed: int, kappa_pairs: int = 20) -> List[Report]:
    """The group checks of ``verify``, in the order it prints them: frame group order 2^(m+1), the
    extension diagram, the surjectivity witnesses and, for odd m, a plain-Ad kernel of size 4 and
    kappa(ab) = kappa(a) kappa(b) on ``kappa_pairs`` Lipschitz pairs drawn from
    random.Random(seed), all on the group's spin space.

    The sampled elements are not tested for membership one by one.  The Lipschitz group is closed
    under products: if a and b are invertible and conjugate V into V by real matrices, so does ab,
    by their product.  A sample is a product of factors of three kinds: nonzero scalars c I, which
    fix V; frame-group elements +-v_A, signed products of frame vectors read off the blade table;
    and odd elements (lam P+ + mu P-) Gamma a with a in the frame group.  The scalar
    pair lam P+ + mu P- lies in span{I, eta}, so it commutes with V once eta does; a.inverse()
    raises on a singular sample, so when the inverse exists every factor is invertible, and a
    scalar pair that is invertible and commutes with V is Lipschitz.  So one certificate per run --
    each frame vector and Gamma Lipschitz, and eta in K(h) -- makes every sample Lipschitz, and
    kappa is read off its conjugation alone.  A failed certificate, or a ValueError while sampling
    or reading kappa, fails the check.  A failing order check names the order it found; a failing
    kernel check, the central elements it found; a failing kappa check, its certificate or its
    first failing pair and any error text.
    """
    ss = group.ss
    sig = ss.sig
    order_ok = group.order == 2 << sig.m
    reports = [report("frame-group-order", sig, order_ok, counterexample=None if order_ok else
                      f"order {group.order}, expected {2 << sig.m}")]
    reports.extend(verify_extension_diagram(group))
    reports.extend(ad_surjectivity_witnesses(ss))
    if sig.m % 2:
        ok = len(plain_ad_kernel(group)) == 4
        found = [] if ok else [name for name, g in _central_candidates(ss).items()
                               if g in group and in_kernel_k(ss, g)]
        reports.append(report("plain-ad-kernel-size-4", sig, ok, counterexample=None if ok else
                              "central elements found: " + (", ".join(found) or "-")))
        bad = _kappa_counterexample(group, random.Random(seed), kappa_pairs)
        reports.append(report("kappa-homomorphism-sampled", sig, bad is None, counterexample=bad))
    return reports


def _kappa_counterexample(group: FrameGroup, rng: random.Random, pairs: int) -> Optional[str]:
    """None if kappa(ab) == kappa(a) kappa(b) on ``pairs`` sampled pairs of certified Lipschitz
    elements, with (ab)^-1 = b^-1 a^-1; else the failed certificate or the first failing pair."""
    ss = group.ss
    if not _sampled_kinds_are_lipschitz(ss):
        return "sampled factor kinds not certified Lipschitz"
    for i in range(pairs):
        try:
            a, b = sample_lipschitz(group, rng), sample_lipschitz(group, rng)
            inv_a, inv_b = a.inverse(), b.inverse()
            if _kappa(ss, a * b, inv_b * inv_a) != _kappa(ss, a, inv_a) * _kappa(ss, b, inv_b):
                return f"pair {i}"
        except ValueError as exc:
            return f"pair {i}: {exc}"
    return None


# -- seeded sampling of Lipschitz elements ------------------------------------

_SCALAR_GRID = (
    sc(1), sc(-1), sc(2), sc(-2), sc(3),
    ExactScalar(1, 1), ExactScalar(0, 1), ExactScalar(0, -1),
    ExactScalar(2, -1), sc(1) / 2,
)


def _random_scalar(rng: random.Random) -> ExactScalar:
    return _SCALAR_GRID[rng.randrange(len(_SCALAR_GRID))]


def sample_lipschitz(group: FrameGroup, rng: random.Random) -> ExactMatrix:
    """Random guaranteed Lipschitz element of the group's spin space: a
    short product of scalars, group elements, and (odd m) odd elements,
    the factor kinds that ``verify_spinor_groups`` certifies once."""
    ss = group.ss
    out = ExactMatrix.identity(ss.dim)
    for _ in range(rng.randint(1, 3)):
        choice = rng.randrange(3 if ss.sig.m % 2 else 2)
        if choice == 0:
            out = out.scale(_random_scalar(rng))
        elif choice == 1:
            out = out * group.elements[rng.randrange(group.order)]
        else:
            a = group.elements[rng.randrange(group.order)]
            out = out * build_odd_element(ss, _random_scalar(rng), _random_scalar(rng), a)
    return out


def factor_scalar_times_pin(
    group: FrameGroup, a: ExactMatrix
) -> Optional[Tuple[ExactScalar, ExactMatrix]]:
    """Factor a = z * g with g in the frame group, searching the group."""
    for g in group.elements:
        z = (a * g.inverse()).scalar_value()
        if z is not None and not z.is_zero():
            return z, g
    return None

