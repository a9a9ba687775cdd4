"""Exact arithmetic in the number field Q(i, sqrt(2)).

Every scalar in the library is a rational combination of the basis
{1, i, sqrt2, i*sqrt2}.  This is the smallest field containing all the
constants the constructions need (i for gamma matrices and volume
normalisation, sqrt2 for the almost-Hermitean module), so a single
kernel serves everything.  No floating point anywhere.

A value is stored fraction-free as four integers over one shared
denominator, (p + q*i + r*sqrt2 + s*i*sqrt2) / den, in canonical form:
den > 0 and gcd(p, q, r, s, den) = 1, so zero is (0, 0, 0, 0, 1) and
equal values have equal fields.  The ring operations work on the ints
and normalise with a single gcd, skipped when the denominator is 1.

Matrix, Clifford and exterior products and sums run on one kernel:
``_accumulate`` adds the products into raw integer cells and ``_collect``
reduces each nonzero cell once.  A cell holds the exact sum over a
positive denominator and the canonical form is unique, so the result has
the same five ints as adding canonical ExactScalar products one by one.
"""

from __future__ import annotations

import sys
from math import gcd, lcm


def _rational(x) -> bool:
    """An int (bool too) or a fractions.Fraction, the rationals the field takes.
    A Fraction exists only once fractions is loaded, so its class is read from
    sys.modules, and neither fractions nor numbers is imported."""
    return isinstance(x, (int, getattr(sys.modules.get("fractions"), "Fraction", int)))


def _fraction(*args):
    """fractions.Fraction(*args).  The first call imports fractions (which loads decimal) and
    rebinds this name to Fraction itself, so a process that never builds a Fraction never loads
    them, and later calls cost what a direct Fraction call does."""
    global _fraction
    from fractions import Fraction

    _fraction = Fraction
    return Fraction(*args)


def _gmul(a, b, c, d):  # (a+bi)(c+di)
    return a * c - b * d, a * d + b * c


def _sign_with_sqrt2(x: int, y: int) -> int:
    """Exact sign of x + y*sqrt2 for integers x, y."""
    if x >= 0 and y >= 0:
        return 1 if x or y else 0
    if x <= 0 and y <= 0:
        return -1
    # mixed signs: compare x^2 against 2 y^2 (never equal for nonzero x, y)
    if x * x > 2 * y * y:
        return 1 if x > 0 else -1
    return 1 if y > 0 else -1


class _View:
    """A read-only attribute computed by get(obj).  A descriptor rather than a property:
    perfbench/tracer.py times every property as layer work, but reads the coordinate views and
    ``ExactMatrix.rows`` from its own hooks, whose cost it keeps out of the layer times."""

    __slots__ = ("get",)

    def __init__(self, get):
        self.get = get

    def __get__(self, obj, owner=None):
        return self if obj is None else self.get(obj)


class ExactScalar:
    """Element (p + q*i + r*sqrt2 + s*i*sqrt2) / den in canonical form.

    The rational coordinates a + b*i + c*sqrt2 + d*i*sqrt2 are readable
    as the Fraction attributes ``a``, ``b``, ``c``, ``d``.
    """

    __slots__ = ("p", "q", "r", "s", "den")

    def __init__(self, a=0, b=0, c=0, d=0):
        coords = (a, b, c, d)
        for x in coords:
            if not _rational(x):
                raise TypeError(f"cannot coerce {type(x).__name__} into Q(i, sqrt2)")
        # the lcm of reduced denominators leaves the five ints coprime
        den = lcm(*(x.denominator for x in coords))
        self.p, self.q, self.r, self.s = (x.numerator * (den // x.denominator) for x in coords)
        self.den = den

    a = _View(lambda x: _fraction(x.p, x.den))
    b = _View(lambda x: _fraction(x.q, x.den))
    c = _View(lambda x: _fraction(x.r, x.den))
    d = _View(lambda x: _fraction(x.s, x.den))

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.p or self.q or self.r or self.s)

    def is_rational(self) -> bool:
        return not (self.q or self.r or self.s)

    def is_real(self) -> bool:
        """True iff the value lies in R (i.e. in Q(sqrt2))."""
        return not (self.q or self.s)

    def is_gaussian(self) -> bool:
        """True iff the value lies in Q(i)."""
        return not (self.r or self.s)

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        if type(other) is not ExactScalar:
            if not _rational(other):
                return NotImplemented
            other = sc(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            p, q, r, s = self.p + other.p, self.q + other.q, self.r + other.r, self.s + other.s
            if d1 == 1:
                return _make(p, q, r, s, 1)
            return _reduce(p, q, r, s, d1)
        return _reduce(
            self.p * d2 + other.p * d1,
            self.q * d2 + other.q * d1,
            self.r * d2 + other.r * d1,
            self.s * d2 + other.s * d1,
            d1 * d2,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "ExactScalar":
        if type(other) is not ExactScalar:
            if not _rational(other):
                return NotImplemented
            other = sc(other)
        return self + -other

    def __rsub__(self, other) -> "ExactScalar":
        return sc(other).__sub__(self)

    def __neg__(self) -> "ExactScalar":
        return _make(-self.p, -self.q, -self.r, -self.s, self.den)

    def __mul__(self, other) -> "ExactScalar":
        if type(other) is not ExactScalar:
            if not _rational(other):
                return NotImplemented
            other = sc(other)
        # write self = (X1 + Y1*sqrt2)/d1, other = (X2 + Y2*sqrt2)/d2 with
        # Gaussian integers X = p + q*i, Y = r + s*i
        p1, q1, r1, s1 = self.p, self.q, self.r, self.s
        p2, q2, r2, s2 = other.p, other.q, other.r, other.s
        den = self.den * other.den
        if not (r1 or s1 or r2 or s2):
            # fast path: both Gaussian
            p, q = p1 * p2 - q1 * q2, p1 * q2 + q1 * p2
            if den == 1:
                return _make(p, q, 0, 0, 1)
            g = gcd(p, q, den)
            if g == 1:
                return _make(p, q, 0, 0, den)
            return _make(p // g, q // g, 0, 0, den // g)
        # X1 X2 + 2 Y1 Y2  +  (X1 Y2 + Y1 X2) sqrt2
        p = p1 * p2 - q1 * q2 + 2 * (r1 * r2 - s1 * s2)
        q = p1 * q2 + q1 * p2 + 2 * (r1 * s2 + s1 * r2)
        r = p1 * r2 - q1 * s2 + r1 * p2 - s1 * q2
        s = p1 * s2 + q1 * r2 + r1 * q2 + s1 * p2
        if den == 1:
            return _make(p, q, r, s, 1)
        return _reduce(p, q, r, s, den)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(i, sqrt2)")
        p, q, r, s, den = self.p, self.q, self.r, self.s, self.den
        if not (r or s):
            # den / (p + q i) = den (p - q i) / (p^2 + q^2)
            return _reduce(den * p, -den * q, 0, 0, p * p + q * q)
        # den / (X + Y sqrt2) = den (X - Y sqrt2) conj(W) / |W|^2 with the
        # Gaussian integer W = X^2 - 2 Y^2, nonzero since sqrt2 is not a
        # Gaussian rational.
        wa = p * p - q * q - 2 * (r * r - s * s)
        wb = 2 * (p * q - 2 * r * s)
        xa, xb = _gmul(p, q, wa, -wb)
        ya, yb = _gmul(r, s, wa, -wb)
        return _reduce(den * xa, den * xb, -den * ya, -den * yb, wa * wa + wb * wb)

    def __truediv__(self, other) -> "ExactScalar":
        return self * sc(other).inverse()

    def __rtruediv__(self, other) -> "ExactScalar":
        return sc(other) * self.inverse()

    def __pow__(self, n: int) -> "ExactScalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "ExactScalar":
        """Complex conjugation (fixes sqrt2)."""
        return _make(self.p, -self.q, self.r, -self.s, self.den)

    # -- order-flavoured helpers ----------------------------------------

    def real_sign(self) -> int:
        """Exact sign of the real part a + c*sqrt2 (requires is_real data only)."""
        return _sign_with_sqrt2(self.p, self.r)

    def imag_sign(self) -> int:
        """Exact sign of the imaginary part b + d*sqrt2."""
        return _sign_with_sqrt2(self.q, self.s)

    def leads_positive(self) -> bool:
        """Sign rule used to fix overall sign freedom: Re > 0, else Im > 0."""
        rs = self.real_sign()
        if rs != 0:
            return rs > 0
        return self.imag_sign() > 0

    # -- equality / hashing / display ------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not ExactScalar:
            if not _rational(other):
                return NotImplemented
            other = sc(other)
        return (
            self.p == other.p
            and self.q == other.q
            and self.r == other.r
            and self.s == other.s
            and self.den == other.den
        )

    def __hash__(self):
        if self.q or self.r or self.s:
            return hash((self.p, self.q, self.r, self.s, self.den))
        # rational values hash like the equal int / Fraction
        return hash(self.p) if self.den == 1 else hash(_fraction(self.p, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"ExactScalar({self!s})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for coeff, unit in zip(self.to_json(), ("", "i", "sqrt2", "i*sqrt2")):
            if coeff == "0":
                continue
            if unit == "":
                parts.append(coeff)
            elif coeff == "1":
                parts.append(unit)
            elif coeff == "-1":
                parts.append("-" + unit)
            else:
                parts.append(f"{coeff}*{unit}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    # -- serialization ----------------------------------------------------

    def to_json(self):
        """The strings of the Fractions a, b, c, d, built without loading fractions."""
        out = []
        for num in (self.p, self.q, self.r, self.s):
            g = gcd(num, self.den)
            out.append(str(num // g) if g == self.den else f"{num // g}/{self.den // g}")
        return out

    @classmethod
    def from_json(cls, data) -> "ExactScalar":
        if not (isinstance(data, list) and len(data) == 4 and all(isinstance(s, str) for s in data)):
            raise ValueError(f"a scalar is a list of four coordinate strings, got {data!r}")
        coords = []
        for k, s in enumerate(data):
            try:
                coords.append(_fraction(s))
            except ZeroDivisionError:
                raise ValueError(f"scalar coordinate {k} ({s!r}) has a zero denominator") from None
        return cls(*coords)


_new = object.__new__


def _make(p: int, q: int, r: int, s: int, den: int) -> ExactScalar:
    """Wrap five ints already in canonical form."""
    x = _new(ExactScalar)
    x.p = p
    x.q = q
    x.r = r
    x.s = s
    x.den = den
    return x


def _reduce(p: int, q: int, r: int, s: int, den: int) -> ExactScalar:
    """Canonical form of (p + q*i + r*sqrt2 + s*i*sqrt2) / den for den > 0."""
    g = gcd(p, q, r, s, den)
    if g == 1:
        return _make(p, q, r, s, den)
    return _make(p // g, q // g, r // g, s // g, den // g)


def _accumulate(acc: dict, x: ExactScalar, terms) -> None:
    """Add x * y into acc[key] for each (key, y) in terms, on raw integers.

    A cell is a list [p, q, r, s, den], den > 0, not reduced.  Equal
    denominators add numerators; unequal ones rescale both sides to the lcm.
    """
    p1, q1, r1, s1, d1 = x.p, x.q, x.r, x.s, x.den
    gaussian = not (r1 or s1)
    for key, y in terms:
        p2, q2, r2, s2 = y.p, y.q, y.r, y.s
        if gaussian and not (r2 or s2):
            p, q, r, s = p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, 0, 0
        else:
            p = p1 * p2 - q1 * q2 + 2 * (r1 * r2 - s1 * s2)
            q = p1 * q2 + q1 * p2 + 2 * (r1 * s2 + s1 * r2)
            r = p1 * r2 - q1 * s2 + r1 * p2 - s1 * q2
            s = p1 * s2 + q1 * r2 + r1 * q2 + s1 * p2
        den = d1 * y.den
        cell = acc.get(key)
        if cell is None:
            acc[key] = [p, q, r, s, den]
        elif cell[4] == den:
            acc[key] = [cell[0] + p, cell[1] + q, cell[2] + r, cell[3] + s, den]
        else:
            big = lcm(cell[4], den)
            a, b = big // cell[4], big // den
            acc[key] = [cell[0] * a + p * b, cell[1] * a + q * b,
                        cell[2] * a + r * b, cell[3] * a + s * b, big]


def _collect(acc: dict) -> tuple:
    """The nonzero cells of acc as (key, canonical ExactScalar) pairs in key
    order: one ``_reduce`` per cell, none over 1 (exact: see the module)."""
    out = []
    for key, (p, q, r, s, den) in sorted(acc.items()):
        if p or q or r or s:
            out.append((key, _make(p, q, r, s, 1) if den == 1 else _reduce(p, q, r, s, den)))
    return tuple(out)


def _sum_products(pairs) -> tuple:
    """Per key, the sum of x * y over the (x, terms) pairs and the (key, y) in terms."""
    acc: dict = {}
    for x, terms in pairs:
        _accumulate(acc, x, terms)
    return _collect(acc)


def sc(x) -> ExactScalar:
    """Coerce an int, Fraction, or ExactScalar into the field."""
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 0, 0, 1)
    if _rational(x):
        return _make(x.numerator, 0, 0, 0, x.denominator)
    raise TypeError(f"cannot coerce {type(x).__name__} into Q(i, sqrt2)")


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
MINUS_ONE = ExactScalar(-1)
HALF = _make(1, 0, 0, 0, 2)
I = ExactScalar(0, 1)
SQRT2 = ExactScalar(0, 0, 1)
