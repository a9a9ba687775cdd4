"""Pointwise verification of concrete spinor-module constructions.

Every statement checked here is pointwise-algebraic, so exact rational
sampling verifies it without calculus: rational sphere points come from
stereographic projection, tangent vectors from exact orthogonal
projection, and all operator identities are checked entrywise over the
exact scalar field.

Samples are integer forms x = X / D, y = Y / E (D, E > 0).  The sphere,
projective and quadric maps are linear in each vector, so the checks run
on Gaussian-integer numerators N = k tau, k > 0: tau^2 = c I iff
N^2 = k^2 c I.  Only the public sample records hold Fractions.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import lcm
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .clifford import CliffordElement, Signature, _nonzero_terms, volume
from .linalg import ExactMatrix, _wrap
from .reports import Record, Report, report
from .reps import DIRAC, PAULI, Representation, SpinSpace, build_rep, invertible_intertwiner
from .scalars import HALF, ExactScalar, I, ONE, SQRT2, ZERO, _sum_products, sc

if TYPE_CHECKING:
    from fractions import Fraction

CE = CliffordElement

# (X, D, Y, E): the point X / D of a sphere and the tangent vector Y / E there
Form = Tuple[List[int], int, List[int], int]


# -- rational sphere sampling -------------------------------------------------


def _over_lcm(ratios: Sequence[Tuple[int, int]]) -> Tuple[List[int], int]:
    """N and B with N_i / B = a_i / b_i for the (a, b) ratios, B the lcm of the b."""
    den = lcm(*(b for _, b in ratios))
    return [a * (den // b) for a, b in ratios], den


def _integers(values: Sequence) -> Tuple[List[int], int]:
    """N and B with N_i / B = values_i, for int or Fraction values."""
    return _over_lcm([v.as_integer_ratio() for v in values])


def _check_point(xs: Sequence[int], d: int) -> None:
    """|x| = 1 for x = X / D, on integers: |X|^2 = D^2."""
    if sum(a * a for a in xs) != d * d:
        raise ValueError("sphere point does not have unit norm")


def _check_tangent(xs: Sequence[int], ys: Sequence[int]) -> None:
    """x.y = 0 for x = X / D and y = Y / E, on integers: X.Y = 0."""
    if len(ys) != len(xs):
        raise ValueError("tangent vector has wrong length")
    if sum(a * b for a, b in zip(xs, ys)):
        raise ValueError("tangent vector is not orthogonal to the point")


class RationalSpherePoint(Record):
    """Point of S^m with exactly unit rational coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Tuple[Fraction, ...]):
        _check_point(*_integers(coords))
        self._assign(coords)

    @property
    def m(self) -> int:
        return len(self.coords) - 1

    def antipode(self) -> "RationalSpherePoint":
        return RationalSpherePoint(tuple(-c for c in self.coords))


class TangentPair(Record):
    """Sphere point with a rational tangent vector (exact orthogonality)."""

    __slots__ = ("point", "y")

    def __init__(self, point: RationalSpherePoint, y: Tuple[Fraction, ...]):
        _check_tangent(_integers(point.coords)[0], _integers(y)[0])
        self._assign(point, y)

    def antipode(self) -> "TangentPair":
        return TangentPair(self.point.antipode(), tuple(-c for c in self.y))

    def norm_squared(self) -> Fraction:
        return sum(c * c for c in self.y)


def _form(pair: TangentPair) -> Form:
    return (*_integers(pair.point.coords), *_integers(pair.y))


def _point(xs: Sequence[int], d: int) -> RationalSpherePoint:
    from fractions import Fraction

    return RationalSpherePoint(tuple(Fraction(x, d) for x in xs))


def _pair(form: Form) -> TangentPair:
    from fractions import Fraction

    xs, d, ys, e = form
    return TangentPair(_point(xs, d), tuple(Fraction(y, e) for y in ys))


def _projection(ratios: Sequence[Tuple[int, int]]) -> Tuple[List[int], int]:
    """Inverse stereographic projection on integers: X and D with x = X / D,
    X = (2 B P, B^2 - |P|^2) and D = B^2 + |P|^2 for parameters P / B."""
    nums, den = _over_lcm(ratios)
    norm = sum(p * p for p in nums)
    return [2 * den * p for p in nums] + [den * den - norm], den * den + norm


def stereographic(params: Sequence[Fraction]) -> RationalSpherePoint:
    """Inverse stereographic projection; zero parameters hit the north pole."""
    from fractions import Fraction

    return _point(*_projection([Fraction(p).as_integer_ratio() for p in params]))


def _random_ratio(rng: random.Random) -> Tuple[int, int]:
    return rng.randint(-9, 9), rng.randint(1, 9)


def sample_sphere_points(m: int, count: int, seed: int) -> List[RationalSpherePoint]:
    if m < 1:
        raise ValueError("sphere dimension must be positive")
    rng = random.Random(seed)
    return [_point(*_projection([_random_ratio(rng) for _ in range(m)])) for _ in range(count)]


def _tangent_forms(m: int, count: int, seed: int) -> List[Form]:
    """Seeded tangent pairs of S^m as checked integer forms (X, D, Y, E):
    x = X / D from _projection and v = V / C, so the tangent part
    y = v - (x.v) x is (D^2 V - (X.V) X) / (C D^2); y = 0 is redrawn."""
    if m < 1:
        raise ValueError("sphere dimension must be positive")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        xs, d = _projection([_random_ratio(rng) for _ in range(m)])
        vs, c = _over_lcm([_random_ratio(rng) for _ in range(m + 1)])
        dot = sum(a * b for a, b in zip(xs, vs))
        ys = [d * d * b - dot * a for a, b in zip(xs, vs)]
        if not any(ys):
            continue
        _check_point(xs, d)
        _check_tangent(xs, ys)
        out.append((xs, d, ys, c * d * d))
    return out


def sample_tangent_pairs(m: int, count: int, seed: int) -> List[TangentPair]:
    """The records of _tangent_forms(m, count, seed)."""
    return [_pair(form) for form in _tangent_forms(m, count, seed)]


# -- sphere and projective-space Clifford maps --------------------------------


def sphere_representation(m: int) -> Representation:
    """Representation of Cl(m+1,0) whose even part carries the sphere map:
    Pauli for m even, Dirac for m odd."""
    sig = Signature(m + 1, 0)
    return build_rep(sig, PAULI if m % 2 == 0 else DIRAC)


def _sphere_numerator(xs: Sequence[int], ys: Sequence[int], rep: Representation) -> ExactMatrix:
    """N = theta(i X Y) = D E tau(X / D, Y / E), since x y is bilinear, for a
    definite signature: X Y = X.Y + sum_{a<b} (X_a Y_b - X_b Y_a) e_a e_b."""
    terms = {0: I * sum(a * b for a, b in zip(xs, ys))}
    for a, (xa, ya) in enumerate(zip(xs, ys)):
        for b in range(a + 1, len(xs)):
            terms[1 << a | 1 << b] = I * (xa * ys[b] - xs[b] * ya)
    return rep.image(CE(rep.sig, terms))


def sphere_tau(m: int, pair: TangentPair, rep: Representation) -> ExactMatrix:
    """Clifford map of the round sphere: (x, y) -> i * theta(x y) = theta(i x y)."""
    if pair.point.m != m or rep.sig != Signature(m + 1, 0):
        raise ValueError("pair or representation does not match the sphere dimension")
    xs, d, ys, e = _form(pair)
    return _sphere_numerator(xs, ys, rep).scale(ONE / (d * e))


def projective_tau(m: int, sign: int, pair: TangentPair, rep: Representation) -> ExactMatrix:
    """The two projective-space Clifford maps: +-i * theta(x y)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = sphere_tau(m, pair, rep)
    return out if sign > 0 else -out


def sphere_example_check(m: int, samples: int, seed: int) -> Report:
    """tau(x, y)^2 = |y|^2 at seeded tangent pairs of S^m."""
    return _square_check("sphere", m, samples, seed)


def projective_example_check(m: int, samples: int, seed: int) -> Report:
    """The RP^m maps +-tau at seeded tangent pairs: antipodally invariant,
    the two signs opposite, and tau^2 = |y|^2.

    Only the square can fail, so this is the sphere check's loop.
    projective_tau(m, -1, .) is -projective_tau(m, 1, .) by definition, and
    (-tau)^2 = tau^2.  The antipode (-x, -y) has the Clifford product
    (-x)(-y), whose coefficients (-a)(-b) = ab are the canonical scalars of
    x y, so tau(-x, -y) is the matrix tau(x, y) and tau descends to RP^m.
    """
    return _square_check("projective", m, samples, seed)


def _square_check(name: str, m: int, samples: int, seed: int) -> Report:
    """tau^2 = |y|^2 I at each seeded form, checked as N^2 = D^2 |Y|^2 I for
    the numerator N = D E tau: (D E)^2 |y|^2 = D^2 |Y|^2, and D E > 0."""
    rep = sphere_representation(m)
    failures = 0
    for xs, d, ys, _ in _tangent_forms(m, samples, seed):
        n = _sphere_numerator(xs, ys, rep)
        if (n * n).scalar_value() != d * d * sum(y * y for y in ys):
            failures += 1
    return report(f"{name}-clifford-property", f"m={m}", failures == 0,
                  counterexample=f"{failures} failures" if failures else None)


# -- exterior-algebra module --------------------------------------------------


class ExteriorElement(Record, frozen=False, eq=False):
    """Element of the exterior algebra on m covectors, sparse over subsets."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Optional[Dict[int, ExactScalar]] = None):
        self.m = m
        self.terms = _nonzero_terms(terms, m, "basis form mask outside the exterior algebra")

    @classmethod
    def basis_form(cls, m: int, mask: int) -> "ExteriorElement":
        return cls(m, {mask: ONE})

    @classmethod
    def zero(cls, m: int) -> "ExteriorElement":
        return cls(m)

    def __add__(self, other: "ExteriorElement") -> "ExteriorElement":
        if other.m != self.m:
            raise ValueError("dimension mismatch")
        pairs = ((ONE, self.terms.items()), (ONE, other.terms.items()))
        return ExteriorElement(self.m, dict(_sum_products(pairs)))

    def scale(self, factor) -> "ExteriorElement":
        factor = sc(factor)
        return ExteriorElement(self.m, {k: v * factor for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, ExteriorElement) and self.m == other.m and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms


# (i, contraction value, wedge value) of each covector i with a nonzero coefficient
Slots = List[Tuple[int, ExactScalar, ExactScalar]]


def _basis_form_image(mask: int, slots: Slots) -> List[Tuple[int, ExactScalar]]:
    """tau(omega_mask) as (mask, value) pairs, one per slot.

    ``slots`` lists (i, contract, wedge) for every covector i with a nonzero coefficient.  Covector
    i contracts omega_mask when slot i is filled and wedges into it when slot i is empty; either
    way the image is omega_(mask ^ 2^i), with the sign (-1)^(filled slots before i).  The masks are
    distinct, so no two pairs share a basis form.
    """
    out = []
    for i, contract, wedge in slots:
        bit = 1 << i
        x = contract if mask & bit else wedge
        out.append((mask ^ bit, -x if (mask & (bit - 1)).bit_count() & 1 else x))
    return out


def _act(m: int, slots: Slots, omega: ExteriorElement) -> ExteriorElement:
    pairs = ((c, _basis_form_image(mask, slots)) for mask, c in omega.terms.items())
    return ExteriorElement(m, dict(_sum_products(pairs)))


def _operator(m: int, slots: Slots) -> ExactMatrix:
    """tau on the 2^m basis forms: row A holds the terms of tau(omega_A).

    The rows are canonical: every value is a signed nonzero slot value,
    and the columns are distinct and sorted.
    """
    return _wrap(1 << m, tuple(
        tuple(sorted(_basis_form_image(mask, slots))) for mask in range(1 << m)
    ))


def _exterior_slots(v: Sequence, h: Signature) -> Slots:
    if len(v) != h.m:
        raise ValueError("dimension mismatch")
    coeffs = [sc(c) for c in v]
    return [(i, c, c * sc(h.h(i))) for i, c in enumerate(coeffs) if not c.is_zero()]


def exterior_tau(v: Sequence, omega: ExteriorElement, h: Signature) -> ExteriorElement:
    """Clifford action on forms: contraction plus metric wedge.

    tau(v) w = v . w + g(v) ^ w  squares to h(v) times the identity.
    """
    if omega.m != h.m:
        raise ValueError("dimension mismatch")
    return _act(h.m, _exterior_slots(v, h), omega)


def exterior_operator(v: Sequence, h: Signature) -> ExactMatrix:
    """exterior_tau(v, ., h) as a matrix: row A holds tau(v) omega_A."""
    return _operator(h.m, _exterior_slots(v, h))


def exterior_example_check(h: Signature) -> Report:
    """tau(e_i)^2 = h_i on every basis form, for every frame vector e_i.

    Row A of T = tau(e_i) holds tau(omega_A), so by linearity row A of T * T holds
    tau(tau(omega_A)), and row A of h_i * I holds h_i * omega_A.  The one matrix equality T * T ==
    h_i * I is therefore the statement on every basis form.  The record names the definite Cl(m,0)
    m=<m>, as the CLI prints it.
    """
    ok = True
    for i in range(h.m):
        t = exterior_operator([1 if j == i else 0 for j in range(h.m)], h)
        if (t * t).scalar_value() != h.h(i):
            ok = False
    return report("exterior-clifford-property", f"m={h.m}" if h.l == 0 else h, ok)


def _hermitean_slots(n: Sequence, d: int) -> Slots:
    """Slots of (n + conj(n)) / sqrt2: conjugate contraction plus wedge, on Gaussian values."""
    if len(n) != d:
        raise ValueError("dimension mismatch")
    coeffs = [sc(c) for c in n]
    for c in coeffs:
        if not c.is_gaussian():
            raise ValueError("eigenspace coordinates must be complex rationals")
    return [(i, c.conjugate(), c) for i, c in enumerate(coeffs) if not c.is_zero()]


def hermitean_tau(n: Sequence, omega: ExteriorElement) -> ExteriorElement:
    """Clifford action of n + conj(n) on the exterior algebra of the
    i-eigenspace model: sqrt2 * (conjugate contraction + wedge)."""
    return _act(omega.m, _hermitean_slots(n, omega.m), omega).scale(SQRT2)


def hermitean_operator(n: Sequence) -> ExactMatrix:
    """hermitean_tau(n, .) as a matrix on the 2^d basis forms, d = len(n):
    row A holds tau(n) omega_A."""
    return _operator(len(n), _hermitean_slots(n, len(n))).scale(SQRT2)


def hermitean_h_value(n: Sequence) -> ExactScalar:
    """Quadratic form of the real vector n + conj(n): 2 * |n|^2."""
    acc = ZERO
    for c in n:
        c = sc(c)
        acc = acc + c.conjugate() * c
    return acc + acc


def hermitean_example_check(d: int, samples: int, seed: int) -> Report:
    """tau(n)^2 = 2|n|^2 on every basis form, at seeded nonzero n in Q(i)^d.

    As in exterior_example_check, T * T == h * I for the operator T = tau(n) and h = 2|n|^2 is the
    statement on every basis form, row by row.  T = sqrt2 * S for the operator S on the Gaussian
    slots, so T * T = 2 S * S, and T * T == h * I holds exactly when S * S == |n|^2 * I: the check
    squares S, whose entries are Gaussian rationals.
    """
    rng = random.Random(seed)
    ok = True
    for _ in range(samples):
        n = [ExactScalar(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(d)]
        if all(c.is_zero() for c in n):
            continue
        s = _operator(d, _hermitean_slots(n, d))
        if (s * s).scalar_value() != hermitean_h_value(n) * HALF:
            ok = False
    return report("hermitean-clifford-property", f"d={d}", ok)


# -- the projective quadric (S^1 x S^2)/Z2 ------------------------------------


class QuadricPoint(Record):
    """Sample of the quadric with tangent data: x on the circle S^1 in R^2,
    y on the sphere S^2 in R^3."""

    __slots__ = ("x", "y")

    def __init__(self, x: TangentPair, y: TangentPair):
        self._assign(x, y)

    def antipode(self) -> "QuadricPoint":
        return QuadricPoint(self.x.antipode(), self.y.antipode())


_SIG2 = Signature(2, 0)
_SIG3 = Signature(3, 0)


@lru_cache(maxsize=None)
def _quadric_reps() -> Tuple[Representation, Representation, CliffordElement]:
    """theta of Cl(2,0), sigma of Cl(3,0) and the volume element omega of Cl(3,0)."""
    return build_rep(_SIG2, DIRAC), build_rep(_SIG3, PAULI), volume(_SIG3).eta


def _quadric_tau_numerator(fx: Form, fy: Form) -> ExactMatrix:
    """N_tau = D2 L tau, L = lcm(E1, E2), for the circle form
    fx = (X1, D1, Y1, E1) and the sphere form fy = (X2, D2, Y2, E2).

    tau = theta(xi) (x) sigma(i*y*omega) + 1 (x) sigma(i*y*t) for the circle's tangent vector xi,
    the sphere point y and its tangent vector t: the i, folded into y before the images, normalises
    the squares to +g. sigma is the S^2 sphere representation, so sigma(i*y*t) is the S^2 sphere
    map.  Each term is bilinear, so D2 L tau is theta(Y1 L/E1) (x) sigma(i X2 omega) + 1 (x)
    sigma(i X2 Y2 L/E2).
    """
    _, _, y1, e1 = fx
    x2, _, y2, e2 = fy
    big = lcm(e1, e2)
    theta, sigma, omega = _quadric_reps()
    xi = CE.vector(_SIG2, [c * (big // e1) for c in y1])
    iy = CE.vector(_SIG3, [sc(c) * I for c in x2])
    first = ExactMatrix.kron(theta.image(xi), sigma.image(iy * omega))
    second = _sphere_numerator(x2, [c * (big // e2) for c in y2], sigma)
    return first + ExactMatrix.kron(ExactMatrix.identity(2), second)


def _quadric_varpi_numerator(fx: Form, fy: Form) -> ExactMatrix:
    """N_varpi = D1 D2 varpi = theta(X1) (x) sigma(-i X2 omega), bilinear in
    the circle point x = X1 / D1 and the sphere point y = X2 / D2.

    The -i factor normalises sigma of the odd vector y out of the even
    image sigma(y*omega); the product of the two odd slots is antipodally
    invariant and anticommutes with the Clifford action.
    """
    theta, sigma, omega = _quadric_reps()
    x = CE.vector(_SIG2, fx[0])
    y = CE.vector(_SIG3, [-sc(c) * I for c in fy[0]])
    return ExactMatrix.kron(theta.image(x), sigma.image(y * omega))


def quadric_tau(p: QuadricPoint) -> ExactMatrix:
    """Clifford action on S1 (x) S2 for the product metric, N_tau / (D2 L)."""
    fx, fy = _form(p.x), _form(p.y)
    return _quadric_tau_numerator(fx, fy).scale(ONE / (fy[1] * lcm(fx[3], fy[3])))


def quadric_varpi(p: QuadricPoint) -> ExactMatrix:
    """Involution splitting the quadric module, N_varpi / (D1 D2)."""
    fx, fy = _form(p.x), _form(p.y)
    return _quadric_varpi_numerator(fx, fy).scale(ONE / (fx[1] * fy[1]))


def _quadric_forms(count: int, seed: int) -> List[Tuple[Form, Form]]:
    """Seeded (circle form, sphere form) samples of the quadric."""
    return list(zip(_tangent_forms(1, count, seed), _tangent_forms(2, count, seed + 1)))


def sample_quadric_points(count: int, seed: int) -> List[QuadricPoint]:
    """The records of the samples ``quadric_example_check(count, seed)`` checks."""
    return [QuadricPoint(_pair(fx), _pair(fy)) for fx, fy in _quadric_forms(count, seed)]


def quadric_example_check(samples: int, seed: int) -> Report:
    """Exact pointwise checks at ``samples`` seeded points: involution,
    anticommutation, Clifford property for the product metric, antipodal
    invariance, projector swap.  The counterexample is the first failure.

    The first three run on the numerators N_varpi = D1 D2 varpi and
    N_tau = D2 L tau, L = lcm(E1, E2), whose scales are positive integers:
    varpi^2 = I iff N_varpi^2 = (D1 D2)^2 I; tau varpi = -varpi tau iff
    N_tau N_varpi = -N_varpi N_tau, both sides being D1 D2^2 L times the
    original; and tau^2 = g I with g = |Y1|^2/E1^2 + |Y2|^2/E2^2 iff
    N_tau^2 = (D2 L)^2 g I, an integer multiple of I.

    The last two hold by construction and are not recomputed.  The antipode negates x, y and both
    tangent vectors.  Each term of tau and varpi is a Clifford product, or a Kronecker product of
    images, of two of them, so its coefficients (-a)(-b) = ab are the same canonical scalars.  tau
    (I + varpi)/2 = (I - varpi)/2 tau expands to tau varpi = -varpi tau, the anticommutation
    checked on the same sample before it, so it could only ever add a later failure.
    """
    failures = []
    for idx, (fx, fy) in enumerate(_quadric_forms(samples, seed)):
        (_, d1, y1, e1), (_, d2, y2, e2) = fx, fy
        tau = _quadric_tau_numerator(fx, fy)
        varpi = _quadric_varpi_numerator(fx, fy)
        if (varpi * varpi).scalar_value() != (d1 * d2) ** 2:
            failures.append(f"sample {idx}: varpi is not involutive")
        if not varpi.anticommutes_with(tau):
            failures.append(f"sample {idx}: varpi does not anticommute with tau")
        scale = lcm(e1, e2)
        # (D2 L)^2 g with L = lcm(E1, E2) and g = |Y1|^2 / E1^2 + |Y2|^2 / E2^2
        g = d2 * d2 * (sum(c * c for c in y1) * (scale // e1) ** 2
                       + sum(c * c for c in y2) * (scale // e2) ** 2)
        if (tau * tau).scalar_value() != g:
            failures.append(f"sample {idx}: Clifford property fails")
    return report("quadric-pointwise-checks", None, not failures,
                  counterexample=failures[0] if failures else None)


# -- associated-bundle well-definedness ---------------------------------------


def associated_tau_welldefined(ss: SpinSpace) -> Report:
    """The twisting identity making the associated Clifford action well
    defined: Gamma * Ad~(a^-1)(v) * a^-1 = a^-1 * Gamma * v for every
    frame-group element a and frame vector v, certified on the frame.

    The identity says that Gamma^-1 a Gamma is the grade involution alpha(a) on the frame group
    {+-v_A}.  Both sides are multiplicative, and alpha(+-v_A) = (-1)^|A| (+-v_A), so they agree on
    the whole group iff they agree on the frame: iff Gamma v_i = -v_i Gamma for i = 1..m, with
    Gamma invertible.  The negative control follows: without Gamma the identity would need Gamma^-1
    v_1 Gamma = v_1, yet it is -v_1.  The counterexample names the first frame vector Gamma does
    not anticommute with.
    """
    failure = next((f"vector e{i + 1}" for i, v in enumerate(ss.frame)
                    if not ss.gamma.anticommutes_with(v)), None)
    if failure is None and ss.gamma.rank() < ss.dim:
        failure = "Gamma is not invertible"
    return report("associated-welldefined", ss.sig, failure is None, counterexample=failure)


# -- spin-space morphisms -----------------------------------------------------


def spin_space_morphisms(ss1: SpinSpace, ss2: SpinSpace) -> Optional[ExactMatrix]:
    """Invertible a with a v_i a^-1 = w_i for the frames v of ss1 and w of
    ss2, or None: a morphism realising the identity isometry.

    Two spin spaces of one signature and dimension are isomorphic Clifford modules.  At even m each
    is the irreducible module.  At odd m each holds both irreducible modules once, because Gamma
    swaps the eigenspaces of eta.  So the identity isometry is realised whenever any isometry of
    the frames is, and the intertwiner of the two frames is the morphism.
    """
    if ss1.dim != ss2.dim or ss1.sig != ss2.sig:
        return None
    return invertible_intertwiner(ss1.frame, ss2.frame)
