"""Blade-basis model of the real Clifford algebra Cl(k,l).

Elements are sparse maps from blade bitmasks to exact scalars.  Bit j of
a mask stands for the generator e_{j+1}; the first k generators square
to +1 and the last l to -1.  Increasing index order is the canonical
blade order and every product is normalised to it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from .reports import Record
from .scalars import ExactScalar, I, ONE, ZERO, _sum_products, sc


class Signature(Record):
    """Quadratic-form signature (k, l): k generators square to +1, l to -1."""

    __slots__ = ("k", "l")

    def __init__(self, k: int, l: int):
        if k < 0 or l < 0 or k + l < 1:
            raise ValueError(
                f"invalid signature ({k},{l}): k and l must be non-negative with k + l >= 1"
            )
        self._assign(k, l)

    @property
    def m(self) -> int:
        return self.k + self.l

    @property
    def nu(self) -> int:
        """Integer part of (m+1)/2; spinor spaces have dimension 2**nu."""
        return (self.m + 1) // 2

    def h(self, i: int) -> int:
        """Square of generator i (0-based): +1 or -1."""
        if not 0 <= i < self.m:
            raise IndexError(f"generator index {i} out of range for {self}")
        return 1 if i < self.k else -1

    def __str__(self):
        return f"Cl({self.k},{self.l})"


def blade_mul(a: int, b: int, sig: Signature) -> Tuple[int, int]:
    """Product of two basis blades: (symmetric-difference mask, sign).

    The sign collects one transposition per pair (i in a, j in b) with
    j < i, plus the square of every common generator.
    """
    full = (1 << sig.m) - 1
    if a & ~full or b & ~full or a < 0 or b < 0:
        raise ValueError("blade mask outside the algebra")
    swaps = 0
    x = a >> 1
    while x:
        swaps += (x & b).bit_count()
        x >>= 1
    sign = -1 if swaps & 1 else 1
    common = a & b
    while common:
        low = common & -common
        if low.bit_length() - 1 >= sig.k:
            sign = -sign
        common ^= low
    return a ^ b, sign


def _nonzero_terms(terms: Optional[Dict], m: int, message: str) -> Dict[int, ExactScalar]:
    """The nonzero coefficients of terms, coerced by ``sc``; ValueError(message) off range(2^m)."""
    pruned: Dict[int, ExactScalar] = {}
    if terms:
        size = 1 << m
        for mask, coeff in terms.items():
            if not 0 <= mask < size:
                raise ValueError(message)
            coeff = sc(coeff)
            if not coeff.is_zero():
                pruned[mask] = coeff
    return pruned


class CliffordElement:
    """Sparse element of Cl(k,l); zero coefficients are never stored."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: Signature, terms: Optional[Dict[int, ExactScalar]] = None):
        self.sig = sig
        self.terms = _nonzero_terms(terms, sig.m, "blade mask outside the algebra")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "CliffordElement":
        return cls(sig)

    @classmethod
    def scalar(cls, sig: Signature, value) -> "CliffordElement":
        return cls(sig, {0: sc(value)})

    @classmethod
    def generator(cls, sig: Signature, i: int) -> "CliffordElement":
        """e_{i+1} for 0 <= i < m."""
        if not 0 <= i < sig.m:
            raise IndexError(f"no generator {i} in {sig}")
        return cls(sig, {1 << i: ONE})

    @classmethod
    def blade(cls, sig: Signature, mask: int, coeff=1) -> "CliffordElement":
        return cls(sig, {mask: sc(coeff)})

    @classmethod
    def vector(cls, sig: Signature, coords: Sequence) -> "CliffordElement":
        if len(coords) != sig.m:
            raise ValueError("coordinate count does not match signature")
        return cls(sig, {1 << i: sc(c) for i, c in enumerate(coords)})

    # -- linear structure --------------------------------------------------

    def _check(self, other: "CliffordElement"):
        if self.sig != other.sig:
            raise ValueError(f"signature mismatch: {self.sig} vs {other.sig}")

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._check(other)
        pairs = ((ONE, self.terms.items()), (ONE, other.terms.items()))
        return CliffordElement(self.sig, dict(_sum_products(pairs)))

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (-other)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.sig, {m: -c for m, c in self.terms.items()})

    def scale(self, factor) -> "CliffordElement":
        factor = sc(factor)
        return CliffordElement(self.sig, {m: c * factor for m, c in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, CliffordElement):
            return NotImplemented
        return self.scale(other)

    # -- multiplication ----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            return self.scale(other)
        self._check(other)
        sig = self.sig
        pairs = []
        for ma, ca in self.terms.items():
            by_sign = {1: [], -1: []}
            for mb, cb in other.terms.items():
                mask, sign = blade_mul(ma, mb, sig)
                by_sign[sign].append((mask, cb))
            pairs += ((ca, by_sign[1]), (-ca, by_sign[-1]))
        return CliffordElement(sig, dict(_sum_products(pairs)))

    # -- grading -----------------------------------------------------------

    def alpha(self) -> "CliffordElement":
        """Grade involution: negates odd blades (extends v -> -v)."""
        return CliffordElement(
            self.sig,
            {m: (-c if m.bit_count() & 1 else c) for m, c in self.terms.items()},
        )

    def even_odd_split(self) -> Tuple["CliffordElement", "CliffordElement"]:
        even = {m: c for m, c in self.terms.items() if not m.bit_count() & 1}
        odd = {m: c for m, c in self.terms.items() if m.bit_count() & 1}
        return CliffordElement(self.sig, even), CliffordElement(self.sig, odd)

    def is_even(self) -> bool:
        return all(not m.bit_count() & 1 for m in self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mask: int) -> ExactScalar:
        return self.terms.get(mask, ZERO)

    def scalar_part(self) -> ExactScalar:
        return self.terms.get(0, ZERO)

    def blades(self) -> Iterable[Tuple[int, ExactScalar]]:
        return sorted(self.terms.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __hash__(self):
        return hash((self.sig, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mask, coeff in self.blades():
            name = "".join(f"e{i + 1}" for i in range(self.sig.m) if mask >> i & 1) or "1"
            cs = str(coeff)
            if name == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(name)
            elif cs == "-1":
                parts.append("-" + name)
            elif any(op in cs[1:] for op in "+-"):
                parts.append(f"({cs})*{name}")
            else:
                parts.append(f"{cs}*{name}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


class VolumeElement(Record):
    """The blade e_1...e_m together with iota normalising eta^2 = iota^2."""

    __slots__ = ("eta", "iota")

    def __init__(self, eta: CliffordElement, iota: ExactScalar):
        self._assign(eta, iota)


def volume(sig: Signature) -> VolumeElement:
    eta = CliffordElement.blade(sig, (1 << sig.m) - 1)
    square = (eta * eta).scalar_part()
    if square == ONE:
        iota = ONE
    elif square == -ONE:
        iota = I
    else:  # pragma: no cover - impossible for unit blades
        raise AssertionError(f"volume element squared to {square}")
    return VolumeElement(eta, iota)


def iso_im(x: CliffordElement, target: Optional[Signature] = None) -> CliffordElement:
    """Dimension-shift isomorphism into the even subalgebra one step up.

    Maps Cl(0,m) into the even part of the target algebra (default Cl(0,m+1)) by sending each
    generator e_j to e_j e_{m+1}.  Also accepts the positive-definite target Cl(m+1,0); either way
    the generator images square to -1, so the map is an algebra morphism.
    """
    sig = x.sig
    if sig.k != 0:
        raise ValueError(f"iso_im expects an element of Cl(0,m), got {sig}")
    m = sig.m
    if target is None:
        target = Signature(0, m + 1)
    if target.m != m + 1 or target not in (Signature(0, m + 1), Signature(m + 1, 0)):
        raise ValueError(f"target {target} is not a definite signature one dimension up")
    images = [CliffordElement(target, {(1 << j) | (1 << m): ONE}) for j in range(m)]
    out = CliffordElement.zero(target)
    for mask, coeff in x.terms.items():
        term = CliffordElement.scalar(target, coeff)
        for j in range(m):
            if mask >> j & 1:
                term = term * images[j]
        out = out + term
    return out
