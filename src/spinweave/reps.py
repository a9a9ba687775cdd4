"""Matrix representations of Clifford algebras and spin spaces.

The positive-definite ladder anchors at the 1x1 Pauli representation of
Cl(1,0) and alternates two exact steps, keeping every entry in Q(i):

  * odd m -> m+1: double the space, send the old generators to
    diag(s(v), -s(v)) and adjoin the swap block [[0,I],[I,0]];
  * even m -> m+1: adjoin the volume image scaled so the new generator
    squares to +1, then fix the sign so the volume maps to +iota.

Mixed signatures multiply the last l generator images by i.  Cartan
representations are assembled block-diagonally from the Pauli one, and
Weyl halves are read off the blocks of the Dirac representation, on which
the normalised volume involution is [[0, -cI], [cI, 0]].
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .clifford import CliffordElement, Signature, volume
from .linalg import ExactMatrix, _add_row, _wrap
from .reports import (
    CARTAN, DIRAC, KINDS, PAULI, PAULI_TWISTED, WEYL_MINUS, WEYL_PLUS, Record, Report, report,
)
from .scalars import HALF, ExactScalar, I, MINUS_ONE, ONE, ZERO, _reduce, _sum_products

EVEN = "even"
ODD = "odd"
NEITHER = "neither"


class Representation(Record, frozen=False, eq=False):
    """Images of an orthonormal frame under a spinor representation.

    For the Weyl kinds the stored images are those of the even-subalgebra generators e_i e_m (which
    square to -h_i h_m); vector images cannot exist on a half-spinor space.
    """

    __slots__ = ("sig", "kind", "images", "dim", "_blade_cache")

    def __init__(self, sig: Signature, kind: str, images: Tuple[ExactMatrix, ...], dim: int):
        self.sig = sig
        self.kind = kind
        self.images = images
        self.dim = dim
        self._blade_cache: Dict[int, ExactMatrix] = {0: ExactMatrix.identity(dim)}

    def h_values(self) -> List[int]:
        """Expected generator squares for the stored images."""
        if self.kind in (WEYL_PLUS, WEYL_MINUS):
            hm = self.sig.h(self.sig.m - 1)
            return [-self.sig.h(i) * hm for i in range(self.sig.m - 1)]
        return [self.sig.h(i) for i in range(self.sig.m)]

    def image(self, x: CliffordElement) -> ExactMatrix:
        """Image of a Clifford element (full-algebra kinds only)."""
        if self.kind in (WEYL_PLUS, WEYL_MINUS):
            raise ValueError("Weyl kinds do not represent the full algebra")
        if x.sig != self.sig:
            raise ValueError(f"element of {x.sig} fed to a {self.sig} representation")
        memo = self._blade_cache
        return ExactMatrix.combination(
            self.dim, ((coeff, _blade(self.images, memo, mask)) for mask, coeff in x.terms.items()))


def _blade(gens: Sequence, memo: Dict[int, object], mask: int):
    """The blade v_A = v_low v_(A - low) of the generators, low the lowest bit of A, memoised in
    memo, which holds the identity at mask 0.  The Clifford relations make it the product of the
    v_i, i in A, in increasing order (Lawson-Michelsohn I.5)."""
    out = memo.get(mask)
    if out is None:
        low = mask & -mask
        out = memo[mask] = gens[low.bit_length() - 1] * _blade(gens, memo, mask ^ low)
    return out


def _frame_volume(frame: Sequence[ExactMatrix]) -> Tuple[ExactMatrix, ExactScalar]:
    """The volume image eta (product of the frame images) and iota, the
    scalar with iota^2 = eta^2 = +-1."""
    eta = frame[0]
    for v in frame[1:]:
        eta = eta * v
    square = (eta * eta).scalar_value()
    if square == ONE:
        return eta, ONE
    if square == MINUS_ONE:
        return eta, I
    raise ValueError("frame volume does not square to +-1")


def _cartan_blocks(sigma: Sequence[ExactMatrix]) -> Tuple[ExactMatrix, ...]:
    """diag(s, -s) for each Pauli image s."""
    z = ExactMatrix.zeros(sigma[0].n)
    return tuple(ExactMatrix.block2(s, z, z, -s) for s in sigma)


@lru_cache(maxsize=None)
def _pauli_positive(m: int) -> Tuple[ExactMatrix, ...]:
    """Pauli images for Cl(m,0), m odd: the Dirac images of Cl(m-1,0), with volume eta, and
    eta/iota.  Their volume maps to +iota with no sign to fix: eta (eta/iota) = iota I."""
    assert m % 2 == 1
    if m == 1:
        return (ExactMatrix([[ONE]]),)
    dirac = _dirac_positive(m - 1)
    eta, iota = _frame_volume(dirac)
    return dirac + (eta.scale(iota.inverse()),)


@lru_cache(maxsize=None)
def _dirac_positive(m: int) -> Tuple[ExactMatrix, ...]:
    """Dirac images for Cl(m,0), m even: swap block first, then Cartan blocks."""
    assert m % 2 == 0 and m >= 2
    sigma = _pauli_positive(m - 1)
    z, i = ExactMatrix.zeros(sigma[0].n), ExactMatrix.identity(sigma[0].n)
    return (ExactMatrix.block2(z, i, i, z),) + _cartan_blocks(sigma)


def _fix_pauli_normalisation(images: Tuple[ExactMatrix, ...]) -> Tuple[ExactMatrix, ...]:
    """Negate the last image if the volume maps to -iota instead of +iota."""
    eta, iota = _frame_volume(images)
    value = eta.scalar_value()
    if value == iota:
        return images
    if value == -iota:
        return images[:-1] + (-images[-1],)
    raise AssertionError("Pauli volume image is not scalar")


def _mixed_images(sig: Signature, positive: Tuple[ExactMatrix, ...]) -> Tuple[ExactMatrix, ...]:
    """Multiply the last l images by i so they square to -1."""
    out = list(positive)
    for idx in range(sig.k, sig.m):
        out[idx] = out[idx].scale(I)
    return tuple(out)


def build_rep(sig: Signature, kind: str) -> Representation:
    """Construct the requested spinor representation for the signature."""
    if kind not in KINDS:
        raise ValueError(f"unknown representation kind {kind!r}")
    m = sig.m
    odd = m % 2 == 1
    if kind in (PAULI, PAULI_TWISTED, CARTAN) and not odd:
        raise ValueError(f"{kind} needs odd m, got {sig}")
    if kind in (DIRAC, WEYL_PLUS, WEYL_MINUS) and odd:
        raise ValueError(f"{kind} needs even m, got {sig}")

    if kind in (PAULI, PAULI_TWISTED):
        images = _fix_pauli_normalisation(_mixed_images(sig, _pauli_positive(m)))
        if kind == PAULI_TWISTED:
            images = tuple(-g for g in images)
        return Representation(sig, kind, images, images[0].n)

    if kind == CARTAN:
        images = _cartan_blocks(build_rep(sig, PAULI).images)
        return Representation(sig, kind, images, images[0].n)

    if kind == DIRAC:
        images = _mixed_images(sig, _dirac_positive(m))
        return Representation(sig, kind, images, images[0].n)

    images = _weyl_images(build_rep(sig, DIRAC).images, ONE if kind == WEYL_PLUS else MINUS_ONE)
    return Representation(sig, kind, images, images[0].n)


def _weyl_images(dirac: Sequence[ExactMatrix], eigenvalue: ExactScalar) -> Tuple[ExactMatrix, ...]:
    """Images of the even generators v_i v_m on the eigenvalue-eigenspace of
    the volume involution j = iota * eta of a Dirac frame of the ladder.

    The first Dirac image is a multiple of the swap block and the others are diag(s, -s), so j =
    [[0, -cI], [cI, 0]] with c = j[n, 0], and c^2 = -1 as j^2 = I.  j (x, y) = lambda (x, y) means
    x = -c lambda y, so the canonical kernel basis of j - lambda I (pivots in the upper half, free
    columns in the lower) is (-c lambda e_k, e_k), and a vector of the eigenspace has its lower
    half as coordinates.  An even generator g = [[g11, g12], [g21, g22]] commutes with j, so it
    maps (-c lambda e_k, e_k) into the eigenspace, and its restriction is the lower half of that
    image: -c lambda g21 + g22, one sum per lower row and no solve.  The block form of j is checked
    exactly, and a frame without it raises.
    """
    n = dirac[0].n // 2
    eta, iota = _frame_volume(dirac)
    j = eta.scale(iota)
    c = j[n, 0]
    z, ident = ExactMatrix.zeros(n), ExactMatrix.identity(n)
    if j != ExactMatrix.block2(z, ident.scale(-c), ident.scale(c), z):
        raise ValueError("Dirac volume involution is not [[0, -cI], [cI, 0]]")
    lower = -c * eigenvalue
    images = []
    for v in dirac[:-1]:
        rows = (v * dirac[-1]).sparse_rows[n:]
        images.append(_wrap(n, tuple(_sum_products((
            (lower, [e for e in row if e[0] < n]),
            (ONE, [(col - n, x) for col, x in row if col >= n]),
        )) for row in rows)))
    return tuple(images)


def verify_clifford(rep: Representation) -> Report:
    """Exact check of every anticommutator identity the images must satisfy;
    the counterexample lists the first three failing (i, j) pairs."""
    h = rep.h_values()
    n = len(rep.images)
    failures = []
    for i in range(n):
        for j in range(i, n):
            lhs = rep.images[i] * rep.images[j] + rep.images[j] * rep.images[i]
            if lhs.scalar_value() != (2 * h[i] if i == j else 0):
                failures.append((i, j))
    return report(f"clifford-relations-{rep.kind}", rep.sig, not failures,
                  counterexample=str(failures[:3]) if failures else None)


# -- commutant, anticommutant and intertwiners: the Reynolds projection ------


def commutant(frame: Sequence[ExactMatrix]) -> List[ExactMatrix]:
    """Basis of the algebra of matrices commuting with every frame matrix:
    the intertwiners from the frame to itself."""
    return _intertwiner_space(frame, frame)[0]


def anticommutant(frame: Sequence[ExactMatrix]) -> List[ExactMatrix]:
    """Basis of the space of matrices anticommuting with every frame matrix:
    the intertwiners from the frame to its negative."""
    return _intertwiner_space(frame, frame, flip=True)[0]


_PHASE = {(1, 0, 0, 0, 1): 0, (0, 1, 0, 0, 1): 1, (-1, 0, 0, 0, 1): 2, (0, -1, 0, 0, 1): 3}


def _unit_form(v: ExactMatrix) -> Optional[Tuple[tuple, tuple]]:
    """(sigma, psi) with v e_c = i^psi[c] e_sigma[c] if v has one entry from {+-1, +-i} per row
    and column, else None: the integer form that ``_orbit_basis`` reads."""
    sigma, psi = [None] * v.n, [0] * v.n
    for r, row in enumerate(v.sparse_rows):
        c, x = row[0] if len(row) == 1 else (0, ZERO)
        k = _PHASE.get((x.p, x.q, x.r, x.s, x.den))
        if k is None or sigma[c] is not None:
            return None
        sigma[c], psi[c] = r, k
    return tuple(sigma), tuple(psi)


@lru_cache(maxsize=2)
def _blade_table(frame: Tuple[ExactMatrix, ...]) -> tuple:
    """(blades, squares, traces, forms) of a frame: its blades ``_blade`` in mask order; the
    c_i = v_i^2; the traces tr v_A; and each blade's ``_unit_form`` if the frame is unit-monomial
    (every canonical frame), else None.  A frame that breaks the Clifford relations raises
    ValueError: a zero or non-scalar square, or v_j v_i != -v_i v_j for some i < j, that is
    (v_i v_j)^2 = -v_i v_j v_j v_i != -c_i c_j.  Two are kept, for the two frames of one
    ``_intertwiner_space``; each ``verify`` and ``examples`` path reads one frame per signature."""
    memo = {0: ExactMatrix.identity(frame[0].n)}
    blades = [_blade(frame, memo, mask) for mask in range(1 << len(frame))]
    squares = tuple((v * v).scalar_value() for v in frame)
    for j, c in enumerate(squares):
        pairs = (blades[1 << i | 1 << j] for i in range(j))
        if not c or any((b * b).scalar_value() != -squares[i] * c for i, b in enumerate(pairs)):
            raise ValueError(f"frame vector e{j + 1} breaks the Clifford relations")
    forms = [_unit_form(b) for b in blades]
    return blades, squares, [b.trace() for b in blades], None if None in forms else forms


def _matrix(n: int, entries) -> ExactMatrix:
    """The n x n matrix of (row-major position, value) entries in position order."""
    rows = [[] for _ in range(n)]
    for pos, x in entries:
        rows[pos // n].append((pos % n, x))
    return _wrap(n, tuple(map(tuple, rows)))


def _orbit_basis(w_forms, v_forms, signs, count, n: int) -> List[ExactMatrix]:
    """P(E_rc) once per orbit of positions until count, on integer phases: w_A E_rc v_A^-1 is the
    unit i^(psi_w(r) - psi_v(c)) at (sigma_w(r), sigma_v(c)).  The blades are a group up to sign,
    so P(w_B E_rc v_B^-1) = eps_B P(E_rc) covers the orbit of (r, c).  Orbits are disjoint, so the
    nonzero P(E_rc) are independent; each is scaled to 1 at its last nonzero position."""
    seen, found = bytearray(n * n), []
    for start in range(n * n if count else 0):
        if seen[start]:
            continue
        r, c = divmod(start, n)
        acc: Dict[int, List[int]] = {}
        for (ws, wp), (vs, vp), sign in zip(w_forms, v_forms, signs):
            acc.setdefault(ws[r] * n + vs[c], [0, 0, 0, 0])[(wp[r] - vp[c] + 2 * sign) & 3] += 1
        for pos in acc:
            seen[pos] = 1
        entries = [(pos, a - x, b - y)
                   for pos, (a, b, x, y) in sorted(acc.items()) if a != x or b != y]
        found += [entries] if entries else []
        if len(found) == count:
            break
    return [_matrix(n, ((pos, _reduce(x * p + y * q, y * p - x * q, 0, 0, p * p + q * q))
                        for pos, x, y in entries))  # (x + y i) / (p + q i)
            for entries in sorted(found, key=lambda e: e[-1][0]) for _, p, q in entries[-1:]]


def _reduced_basis(w_blades, v_blades, signs, count, n: int) -> List[ExactMatrix]:
    """P(E_rc) on matrix blades in row-major order until the rank reaches count,
    each reduced by ``_add_row`` on reversed positions, so a row is 1 at its last
    nonzero position and 0 at the others'.  Per blade, one inverse, and per unit
    the nonzeros of column r of w_A times those of row c of v_A^-1: n^2 if dense."""
    last, pivots = n * n - 1, {}
    w_cols = [(-w if sign else w).transpose().sparse_rows for w, sign in zip(w_blades, signs)]
    v_rows = [v.inverse().sparse_rows for v in v_blades]
    for start in range(n * n if count else 0):
        r, c = divmod(start, n)
        _add_row(pivots, _sum_products(
            (x, [(last - r2 * n - c2, y) for c2, y in v_row[c]])
            for w_col, v_row in zip(w_cols, v_rows) for r2, x in w_col[r]))
        if len(pivots) == count:
            break
    return [_matrix(n, sorted((last - j, x) for j, x in pivots[col].items()))
            for col in sorted(pivots, reverse=True)]


def _intertwiner_space(source: Sequence[ExactMatrix], target: Sequence[ExactMatrix],
                       flip: bool = False) -> Tuple[List[ExactMatrix], ExactScalar]:
    """Canonical basis of {X : X v_i = (-1)^flip w_i X} for the source frame v
    and the target frame w, and its dimension by the character count.

    The space is the image of the Reynolds projection (Serre 2.6)
    P(X) = 2^-m sum_A eps_A w_A X v_A^-1, eps_A = (-1)^|A| if flip, else 1: w_i w_A and v_i v_A
    are the same multiple of w_{A xor i} and v_{A xor i}, and eps flips with |A|, so P maps into
    the space and fixes it.  So the P(E_rc) span it, and its dimension is the trace of P,
    2^-m sum_A eps_A tr(w_A) tr(v_A^-1) with v_A^-1 = v_A / v_A^2 (Serre 2.3), on a degenerate
    frame too, where the mask products meet each group element equally often.  Frames with
    different squares give X c_i = X v_i^2 = w_i^2 X = c'_i X, so X = 0.  Each basis vector is 1 at
    its last nonzero position f and 0 at the others' f (the free columns of the reduced echelon
    form of the space's linear system), in increasing f.
    """
    if not source or len(source) != len(target) or source[0].n != target[0].n:
        raise ValueError("the frames must be nonempty and of one length and size")
    v_blades, squares, v_traces, v_forms = _blade_table(tuple(source))
    w_blades, w_squares, w_traces, w_forms = _blade_table(tuple(target))
    if squares != w_squares:
        return [], ZERO
    signs = [flip and bin(mask).count("1") & 1 for mask in range(len(v_blades))]
    count = sum(((-tw if sign else tw) * tv / (v * v).scalar_value()
                 for sign, tw, tv, v in zip(signs, w_traces, v_traces, v_blades) if tw and tv),
                ZERO) / len(v_blades)
    if v_forms and w_forms:
        return _orbit_basis(w_forms, v_forms, signs, count, source[0].n), count
    return _reduced_basis(w_blades, v_blades, signs, count, source[0].n), count


class Intertwiner(Record):
    __slots__ = ("matrix", "invertible")

    def __init__(self, matrix: ExactMatrix, invertible: bool):
        self._assign(matrix, invertible)


def invertible_intertwiner(
    images1: Sequence[ExactMatrix], images2: Sequence[ExactMatrix]
) -> Optional[ExactMatrix]:
    """First invertible a with a x = y a for every paired (x, y), taken
    from the span candidates of the canonical intertwiner basis, or None."""
    for cand in _span_candidates(_intertwiner_space(images1, images2)[0]):
        try:
            cand.inverse()
            return cand
        except ValueError:
            pass
    return None


def find_intertwiner(r1: Representation, r2: Representation) -> Optional[Intertwiner]:
    """Invertible a with a r1(e_i) = r2(e_i) a, if one exists."""
    if r1.dim != r2.dim or len(r1.images) != len(r2.images):
        return None
    cand = invertible_intertwiner(r1.images, r2.images)
    return None if cand is None else Intertwiner(cand, True)


# -- gamma element and spin spaces --------------------------------------------


def _span_candidates(basis: Sequence[ExactMatrix]):
    """Deterministic candidates from a span for ``invertible_intertwiner`` and ``choose_gamma``:
    the basis, then b_i + c * b_j for i < j over the coefficients 1, -1, i, -i."""
    yield from basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            for coeff in (ONE, MINUS_ONE, I, -I):
                yield basis[i] + basis[j].scale(coeff)


def choose_gamma(frame: Sequence[ExactMatrix]) -> ExactMatrix:
    """Deterministic element of the anticommutant A(h) with square -I, in closed form on any frame;
    eta = v_1...v_m is the frame volume, with eta^2 = iota^2 I.

    Even m: v_i passes the m - 1 other vectors of eta, each anticommuting with it, so eta
    anticommutes with every v_i, and ((i/iota) eta)^2 = -I.  A(h) is the line through eta, so Gamma
    is (i/iota) eta with its sign fixed by the leading-sign rule.  No solve is needed.

    Odd m: eta commutes with every v_i, and A(h) = Gamma0 span{I, eta} for any
    Gamma0 in A(h) with square -I.  Gamma0 anticommutes with eta (an odd
    product of frame vectors), so b = Gamma0 (x + y eta) has the scalar square
    b^2 = -(x^2 - iota^2 y^2) I: b -> b^2 is a nondegenerate quadratic form
    on A(h).  So if the canonical basis vectors b1, b2 are both isotropic,
    b1 + b2 is not.  Take b the first span candidate (b1, b2, b1 + b2, ...)
    with b^2 = s I, s != 0; on a spin space it is one of the first three.
    Let r = -1/s and c = x I + y eta with x = (1 + r)/2 and
    y = (1 - r)/(2 iota).  b anticommutes with eta, so
    (b c)^2 = b^2 (x - y eta)(x + y eta) = s (x^2 - iota^2 y^2) = s r = -I.
    On a canonical Cartan frame b1 and b2 are isotropic, b = b1 + b2 is the
    swap block and s = 1, so Gamma = swap eta/iota = [[0,-I],[I,0]].
    A frame without a 2-dimensional A(h) or an anisotropic b is not a spin
    space, and RuntimeError is raised.
    """
    eta, iota = _frame_volume(frame)
    if len(frame) % 2 == 0:
        gamma = eta.scale(I / iota)  # nonzero, as eta^2 = iota^2 I
        return gamma if gamma.first_nonzero().leads_positive() else -gamma
    basis = anticommutant(frame)
    if len(basis) != 2:
        raise RuntimeError("no anticommuting square root of -I found (invalid spin space)")
    for b in _span_candidates(basis):
        s = (b * b).scalar_value()
        if s:  # None off the scalars, zero on an isotropic b
            break
    else:
        raise RuntimeError("no anticommuting square root of -I found (invalid spin space)")
    r = MINUS_ONE / s
    c = ExactMatrix.combination(eta.n, [((ONE + r) * HALF, ExactMatrix.identity(eta.n)),
                                        ((ONE - r) * HALF / iota, eta)])
    return b * c


class SpinSpace(Record, frozen=False, eq=False):
    """Matrix data of a spin space: frame images, volume, and gamma element."""

    __slots__ = ("sig", "rep", "frame", "eta", "iota", "gamma", "_cache")

    def __init__(self, sig: Signature, rep: Representation, frame: Tuple[ExactMatrix, ...],
                 eta: ExactMatrix, iota: ExactScalar, gamma: ExactMatrix):
        self.sig = sig
        self.rep = rep
        self.frame = frame
        self.eta = eta
        self.iota = iota
        self.gamma = gamma
        self._cache: Dict[str, object] = {}

    @property
    def dim(self) -> int:
        return self.frame[0].n

    @property
    def gamma_inv(self) -> ExactMatrix:
        return self.memo("gamma-inv", self.gamma.inverse)

    def memo(self, key: str, build: Callable[[], object]):
        """build() under key, built on first use; the one store of what is derived from the space:
        Gamma's inverse and map, frame duals, isotropic pair, adjoints and frame group."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def include(self, x: CliffordElement) -> ExactMatrix:
        """Image of a Clifford element under the inclusion representation."""
        return self.rep.image(x)


@lru_cache(maxsize=1)
def spin_space(sig: Signature) -> SpinSpace:
    """Canonical spin space: Dirac for even m, Cartan for odd m.  Only the last one is kept, with
    all its derived data (``SpinSpace.memo``): a ``verify`` sweep never returns to a signature."""
    rep = build_rep(sig, DIRAC if sig.m % 2 == 0 else CARTAN)
    return _spin_space_from(rep)


def _spin_space_from(rep: Representation) -> SpinSpace:
    eta, iota = _frame_volume(rep.images)
    return SpinSpace(rep.sig, rep, rep.images, eta, iota, choose_gamma(rep.images))


def _alpha_counterexample(ss: SpinSpace) -> Optional[str]:
    """The first x of 1, e1..em with include(alpha(x)) != gamma^-1 include(x) gamma, or None.

    Both sides are unital algebra morphisms of the Clifford algebra: alpha
    and include are, and conjugation by gamma is an automorphism.  The unit
    and e_1..e_m generate the algebra, and two morphisms that agree on
    generators agree everywhere, so checking those m + 1 elements is complete.
    """
    for x in ([CliffordElement.scalar(ss.sig, 1)]
              + [CliffordElement.generator(ss.sig, i) for i in range(ss.sig.m)]):
        if ss.include(x.alpha()) != ss.gamma_inv * ss.include(x) * ss.gamma:
            return f"fails at {x}"
    return None


def verify_spin_space(ss: SpinSpace) -> List[Report]:
    """The spin-space checks of ``verify``, in the order it prints them: dim K(h) and dim A(h) are
    2 for odd m and 1 for even m, as the length of the projection basis and as the character count,
    eta^2 = iota^2, gamma^2 = -I, and alpha is conjugation by gamma.  A failing check names what it
    found: the basis length and count, the square, or the first of 1, e1..em that alpha moves."""
    expected = 2 if ss.sig.m % 2 else 1
    found = {}
    for name, flip in (("commutant", False), ("anticommutant", True)):
        basis, count = _intertwiner_space(ss.frame, ss.frame, flip)
        found[f"{name}-dimension"] = None if len(basis) == count == expected else (
            f"basis length {len(basis)}, count {count}, expected {expected}")
    for check, name, x, want in (("volume-square", "eta", ss.eta, ss.iota * ss.iota),
                                 ("gamma-square", "Gamma", ss.gamma, MINUS_ONE)):
        square = (x * x).scalar_value()
        found[check] = None if square == want else (
            f"{name}^2 = {'a non-scalar matrix' if square is None else square}, expected {want}")
    found["alpha-is-gamma-conjugation"] = _alpha_counterexample(ss)
    return [report(name, ss.sig, bad is None, counterexample=bad) for name, bad in found.items()]


def gamma_map(ss: SpinSpace, x: CliffordElement) -> ExactMatrix:
    """Algebra morphism extending v -> gamma * v on the spin space: the image
    of x under the representation with generator images gamma * v_i, built
    on first use and kept on the spin space."""
    return ss.memo("gamma-rep", lambda: Representation(
        ss.sig, ss.rep.kind, tuple(ss.gamma * v for v in ss.frame), ss.dim)).image(x)


def _parity(x: ExactMatrix, y: ExactMatrix) -> str:
    """EVEN if x == y, ODD if x == -y, else NEITHER."""
    return EVEN if x == y else ODD if x == -y else NEITHER


def grading_of(a: ExactMatrix, ss: SpinSpace) -> str:
    """Parity of a matrix in the volume grading: even, odd, or neither."""
    return _parity(a * ss.eta, ss.eta * a)


def cartan_projectors(ss: SpinSpace) -> Tuple[ExactMatrix, ExactMatrix]:
    """Projectors (I +- iota*gamma(eta))/2 cutting out the two Pauli pieces.

    They commute with every image of the even subalgebra (in both the
    inclusion and gamma forms) and are swapped by odd inclusion images,
    which is how the Clifford action moves between the two halves.
    """
    if ss.sig.m % 2 == 0:
        raise ValueError("Cartan projectors need odd m")
    vol = volume(ss.sig)
    return _projector_pair(gamma_map(ss, vol.eta).scale(ss.iota))


def decompose_even_restriction(ss: SpinSpace) -> Tuple[ExactMatrix, ExactMatrix]:
    """Projectors (I +- iota*eta)/2 built from the inclusion volume.

    For even m these cut out the half-spinor (Weyl) subspaces; for odd m they are invariant under
    the whole inclusion image and are swapped by the odd gamma-form images.
    """
    return _projector_pair(ss.eta.scale(ss.iota))


def _projector_pair(j: ExactMatrix) -> Tuple[ExactMatrix, ExactMatrix]:
    """(I + j)/2 and (I - j)/2 for an involution j."""
    ident = ExactMatrix.identity(j.n)
    return (ident + j).scale(HALF), (ident - j).scale(HALF)
