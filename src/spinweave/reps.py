"""Matrix representations of Clifford algebras and spin spaces.

The positive-definite ladder anchors at the 1x1 Pauli representation of
Cl(1,0) and alternates two exact steps, keeping every entry in Q(i):

  * odd m -> m+1: double the space, send the old generators to
    diag(s(v), -s(v)) and adjoin the swap block [[0,I],[I,0]];
  * even m -> m+1: adjoin the volume image scaled so the new generator
    squares to +1, then fix the sign so the volume maps to +iota.

Mixed signatures multiply the last l generator images by i.  Cartan
representations are assembled block-diagonally from the Pauli one, and
Weyl halves are cut out of the Dirac representation by the normalised
volume involution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .clifford import CliffordElement, Signature, volume
from .linalg import ExactMatrix, expand_in_basis, nullspace_sparse, vector_to_matrix
from .scalars import ExactScalar, I, MINUS_ONE, ONE, ZERO

PAULI = "pauli"
PAULI_TWISTED = "pauli_twisted"
DIRAC = "dirac"
CARTAN = "cartan"
WEYL_PLUS = "weyl+"
WEYL_MINUS = "weyl-"

KINDS = (PAULI, PAULI_TWISTED, DIRAC, CARTAN, WEYL_PLUS, WEYL_MINUS)

EVEN = "even"
ODD = "odd"
NEITHER = "neither"


@dataclass(eq=False)
class Representation:
    """Images of an orthonormal frame under a spinor representation.

    For the Weyl kinds the stored images are those of the even-subalgebra
    generators e_i e_m (which square to -h_i h_m); vector images cannot
    exist on a half-spinor space.
    """

    sig: Signature
    kind: str
    images: Tuple[ExactMatrix, ...]
    dim: int
    _blade_cache: Dict[int, ExactMatrix] = field(default_factory=dict, repr=False)

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
        out = ExactMatrix.zeros(self.dim)
        for mask, coeff in x.terms.items():
            out = out + self._blade_image(mask).scale(coeff)
        return out

    def _blade_image(self, mask: int) -> ExactMatrix:
        cached = self._blade_cache.get(mask)
        if cached is not None:
            return cached
        if mask == 0:
            out = ExactMatrix.identity(self.dim)
        else:
            low = mask & -mask
            out = self.images[low.bit_length() - 1] * self._blade_image(mask ^ low)
        self._blade_cache[mask] = out
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


def _swap_block(n: int) -> ExactMatrix:
    z, i = ExactMatrix.zeros(n), ExactMatrix.identity(n)
    return ExactMatrix.block2(z, i, i, z)


@lru_cache(maxsize=None)
def _pauli_positive(m: int) -> Tuple[ExactMatrix, ...]:
    """Pauli images for Cl(m,0), m odd, normalised so the volume maps to +iota."""
    assert m % 2 == 1
    if m == 1:
        return (ExactMatrix([[ONE]]),)
    dirac = _dirac_positive(m - 1)
    eta, iota = _frame_volume(dirac)
    last = eta.scale(iota.inverse())
    images = dirac + (last,)
    images = _fix_pauli_normalisation(images)
    return images


@lru_cache(maxsize=None)
def _dirac_positive(m: int) -> Tuple[ExactMatrix, ...]:
    """Dirac images for Cl(m,0), m even: swap block first, then Cartan blocks."""
    assert m % 2 == 0 and m >= 2
    sigma = _pauli_positive(m - 1)
    n = sigma[0].n
    z = ExactMatrix.zeros(n)
    first = _swap_block(n)
    rest = tuple(ExactMatrix.block2(s, z, z, -s) for s in sigma)
    return (first,) + rest


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
        sigma = _fix_pauli_normalisation(_mixed_images(sig, _pauli_positive(m)))
        n = sigma[0].n
        z = ExactMatrix.zeros(n)
        images = tuple(ExactMatrix.block2(s, z, z, -s) for s in sigma)
        return Representation(sig, kind, images, 2 * n)

    if kind == DIRAC:
        images = _mixed_images(sig, _dirac_positive(m))
        return Representation(sig, kind, images, images[0].n)

    # Weyl halves of the Dirac representation
    dirac = build_rep(sig, DIRAC)
    eta, iota = _frame_volume(dirac.images)
    j = eta.scale(iota)  # involution whose eigenspaces are the half-spinor spaces
    want = ONE if kind == WEYL_PLUS else MINUS_ONE
    basis = _eigenspace_basis(j, want)
    even_gens = [dirac.images[i] * dirac.images[m - 1] for i in range(m - 1)]
    images = tuple(_restrict(g, basis) for g in even_gens)
    return Representation(sig, kind, images, len(basis))


def _eigenspace_basis(j: ExactMatrix, eigenvalue: ExactScalar) -> List[List[ExactScalar]]:
    rows = []
    for r, entries in enumerate(j.sparse_rows):
        row = dict(entries)
        diagonal = row.get(r, ZERO) - eigenvalue
        if diagonal.is_zero():
            row.pop(r, None)
        else:
            row[r] = diagonal
        if row:
            rows.append(row)
    return nullspace_sparse(rows, j.n)


def _restrict(op: ExactMatrix, basis: List[List[ExactScalar]]) -> ExactMatrix:
    """Matrix of an operator on an invariant subspace in the given basis."""
    cols = []
    for vec in basis:
        image = []
        for row in op.sparse_rows:
            acc = ZERO
            for c, x in row:
                if not vec[c].is_zero():
                    acc = acc + x * vec[c]
            image.append(acc)
        coords = expand_in_basis(basis, image)
        if coords is None:
            raise ValueError("subspace is not invariant under the operator")
        cols.append(coords)
    return ExactMatrix(cols).transpose()


@dataclass(eq=False)
class VerifyReport:
    """Outcome of the exact Clifford-relation sweep for one representation."""

    sig: Signature
    kind: str
    failures: List[Tuple[int, int]]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_clifford(rep: Representation) -> VerifyReport:
    """Exact check of every anticommutator identity the images must satisfy."""
    h = rep.h_values()
    n = len(rep.images)
    failures = []
    ident = ExactMatrix.identity(rep.dim)
    for i in range(n):
        for j in range(i, n):
            lhs = rep.images[i] * rep.images[j] + rep.images[j] * rep.images[i]
            rhs = ident.scale(2 * h[i]) if i == j else ExactMatrix.zeros(rep.dim)
            if lhs != rhs:
                failures.append((i, j))
    return VerifyReport(rep.sig, rep.kind, failures)


# ---------------------------------------------------------------------------
# commutant / anticommutant
# ---------------------------------------------------------------------------


def _centraliser_basis(frame: Sequence[ExactMatrix], sign: int) -> List[ExactMatrix]:
    """Basis of {w : w v = sign * v w for every frame matrix v}: the
    intertwiners from the frame to the frame (sign +1) or to its negative."""
    if not frame:
        raise ValueError("empty frame")
    targets = frame if sign > 0 else [-v for v in frame]
    return _intertwiner_space(frame, targets)


def commutant(frame: Sequence[ExactMatrix]) -> List[ExactMatrix]:
    """Basis of the algebra of matrices commuting with every frame matrix."""
    return _centraliser_basis(frame, +1)


def anticommutant(frame: Sequence[ExactMatrix]) -> List[ExactMatrix]:
    """Basis of the space of matrices anticommuting with every frame matrix."""
    return _centraliser_basis(frame, -1)


# ---------------------------------------------------------------------------
# gamma element and spin spaces
# ---------------------------------------------------------------------------


def _is_cartan_block_frame(frame: Sequence[ExactMatrix]) -> bool:
    n = frame[0].n
    if n % 2:
        return False
    half = n // 2
    for v in frame:
        # each top row stays in the left half and reappears negated, shifted
        # by half, as the matching bottom row
        for top, bottom in zip(v.sparse_rows[:half], v.sparse_rows[half:]):
            if any(c >= half for c, _ in top):
                return False
            if bottom != tuple((c + half, -x) for c, x in top):
                return False
    return True


def _sign_normalised(w: ExactMatrix) -> ExactMatrix:
    lead = w.first_nonzero()
    if lead is None:
        raise ValueError("zero candidate")
    return w if lead.leads_positive() else -w


def choose_gamma(frame: Sequence[ExactMatrix]) -> ExactMatrix:
    """Deterministic element of the anticommutant with square -I.

    Frames in canonical Cartan block form get the literal swap block
    [[0,-I],[I,0]]; otherwise candidates are scaled from the canonical
    anticommutant basis and the leading-sign rule fixes the overall sign.
    """
    n = frame[0].n
    m = len(frame)
    if m % 2 == 1 and _is_cartan_block_frame(frame):
        half = n // 2
        z, ident = ExactMatrix.zeros(half), ExactMatrix.identity(half)
        return ExactMatrix.block2(z, -ident, ident, z)
    basis = anticommutant(frame)
    candidates: List[ExactMatrix] = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            for coeff in (ONE, MINUS_ONE, I, -I):
                candidates.append(basis[i] + basis[j].scale(coeff))
    for cand in candidates:
        square = (cand * cand).scalar_value()
        if square is None or square.is_zero():
            continue
        scale = (MINUS_ONE / square).sqrt()
        if scale is None:
            continue
        return _sign_normalised(cand.scale(scale))
    raise RuntimeError("no anticommuting square root of -I found (invalid spin space)")


@dataclass(eq=False)
class SpinSpace:
    """Matrix data of a spin space: frame images, volume, and gamma element."""

    sig: Signature
    rep: Representation
    frame: Tuple[ExactMatrix, ...]
    eta: ExactMatrix
    iota: ExactScalar
    gamma: ExactMatrix
    _gamma_cache: Dict[int, ExactMatrix] = field(default_factory=dict, repr=False)
    _gamma_inv: Optional[ExactMatrix] = field(default=None, repr=False)
    _probes: Dict[str, tuple] = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.frame[0].n

    @property
    def gamma_inv(self) -> ExactMatrix:
        if self._gamma_inv is None:
            self._gamma_inv = self.gamma.inverse()
        return self._gamma_inv

    def include(self, x: CliffordElement) -> ExactMatrix:
        """Image of a Clifford element under the inclusion representation."""
        return self.rep.image(x)

    def pauli_block(self, a: ExactMatrix) -> ExactMatrix:
        """Top-left block of a canonical Cartan-form matrix (the sigma image)."""
        if self.sig.m % 2 == 0:
            raise ValueError("pauli blocks only exist for odd m")
        half = self.dim // 2
        return ExactMatrix.from_sparse_rows(
            [[(c, x) for c, x in row if c < half] for row in a.sparse_rows[:half]]
        )


@lru_cache(maxsize=None)
def spin_space(sig: Signature) -> SpinSpace:
    """Canonical spin space: Dirac for even m, Cartan for odd m."""
    rep = build_rep(sig, DIRAC if sig.m % 2 == 0 else CARTAN)
    return _spin_space_from(rep, rep.images)


def _spin_space_from(rep: Representation, frame: Sequence[ExactMatrix]) -> SpinSpace:
    eta, iota = _frame_volume(frame)
    gamma = choose_gamma(frame)
    ss = SpinSpace(rep.sig, rep, tuple(frame), eta, iota, gamma)
    assert (gamma * gamma).scalar_value() == MINUS_ONE
    return ss


def conjugate_spin_space(ss: SpinSpace, a: ExactMatrix) -> SpinSpace:
    """Spin space with frame a v a^-1; used to exercise non-canonical frames."""
    inv = a.inverse()
    frame = tuple(a * v * inv for v in ss.frame)
    rep = Representation(ss.sig, ss.rep.kind, frame, ss.dim)
    return _spin_space_from(rep, frame)


def gamma_map(ss: SpinSpace, x: CliffordElement) -> ExactMatrix:
    """Algebra morphism extending v -> gamma * v on the spin space."""
    if x.sig != ss.sig:
        raise ValueError(f"element of {x.sig} fed to a {ss.sig} spin space")
    out = ExactMatrix.zeros(ss.dim)
    for mask, coeff in x.terms.items():
        out = out + _gamma_blade(ss, mask).scale(coeff)
    return out


def _gamma_blade(ss: SpinSpace, mask: int) -> ExactMatrix:
    cached = ss._gamma_cache.get(mask)
    if cached is not None:
        return cached
    if mask == 0:
        out = ExactMatrix.identity(ss.dim)
    else:
        low = mask & -mask
        out = (ss.gamma * ss.frame[low.bit_length() - 1]) * _gamma_blade(ss, mask ^ low)
    ss._gamma_cache[mask] = out
    return out


def grading_of(a: ExactMatrix, ss: SpinSpace) -> str:
    """Parity of a matrix in the volume grading: even, odd, or neither."""
    left = a * ss.eta
    right = ss.eta * a
    if left == right:
        return EVEN
    if left == -right:
        return ODD
    return NEITHER


def cartan_projectors(ss: SpinSpace) -> Tuple[ExactMatrix, ExactMatrix]:
    """Projectors (I +- iota*gamma(eta))/2 cutting out the two Pauli pieces.

    They commute with every image of the even subalgebra (in both the
    inclusion and gamma forms) and are swapped by odd inclusion images,
    which is how the Clifford action moves between the two halves.
    """
    if ss.sig.m % 2 == 0:
        raise ValueError("Cartan projectors need odd m")
    vol = volume(ss.sig)
    j = gamma_map(ss, vol.eta).scale(ss.iota)
    half = ExactScalar(1) / 2
    ident = ExactMatrix.identity(ss.dim)
    return (ident + j).scale(half), (ident - j).scale(half)


def decompose_even_restriction(ss: SpinSpace) -> Tuple[ExactMatrix, ExactMatrix]:
    """Projectors (I +- iota*eta)/2 built from the inclusion volume.

    For even m these cut out the half-spinor (Weyl) subspaces; for odd m
    they are invariant under the whole inclusion image and are swapped
    by the odd gamma-form images.
    """
    j = ss.eta.scale(ss.iota)
    half = ExactScalar(1) / 2
    ident = ExactMatrix.identity(ss.dim)
    return (ident + j).scale(half), (ident - j).scale(half)


# ---------------------------------------------------------------------------
# intertwiners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Intertwiner:
    matrix: ExactMatrix
    invertible: bool


def _intertwiner_space(
    images1: Sequence[ExactMatrix], images2: Sequence[ExactMatrix]
) -> List[ExactMatrix]:
    """Basis of {a : a x = y a for every paired (x, y)}."""
    n = images1[0].n
    rows = []
    for x, y in zip(images1, images2):
        x_cols = x.transpose().sparse_rows
        for r in range(n):
            for c in range(n):
                # (a x - y a)[r,c] = sum_s a[r,s] x[s,c] - y[r,s] a[s,c] = 0
                row: Dict[int, ExactScalar] = {r * n + s: xsc for s, xsc in x_cols[c]}
                for s, yrs in y.sparse_rows[r]:
                    key = s * n + c
                    row[key] = row.get(key, ZERO) - yrs
                row = {k: v for k, v in row.items() if not v.is_zero()}
                if row:
                    rows.append(row)
    return [vector_to_matrix(vec, n) for vec in nullspace_sparse(rows, n * n)]


def _first_invertible(basis: List[ExactMatrix]) -> Optional[ExactMatrix]:
    """Deterministic invertible element of a span: basis vectors first,
    then pairwise combinations over a small coefficient grid."""
    for b in basis:
        try:
            b.inverse()
            return b
        except ValueError:
            pass
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            for coeff in (ONE, MINUS_ONE, I, -I):
                cand = basis[i] + basis[j].scale(coeff)
                try:
                    cand.inverse()
                    return cand
                except ValueError:
                    continue
    return None


def find_intertwiner(r1: Representation, r2: Representation) -> Optional[Intertwiner]:
    """Invertible a with a r1(e_i) = r2(e_i) a, if one exists."""
    if r1.dim != r2.dim or len(r1.images) != len(r2.images):
        return None
    basis = _intertwiner_space(r1.images, r2.images)
    if not basis:
        return None
    cand = _first_invertible(basis)
    if cand is None:
        return None
    return Intertwiner(cand, True)
