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
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional, Union

Rat = Union[int, Fraction]

_F0 = Fraction(0)


def _gmul(a, b, c, d):
    # (a+bi)(c+di)
    return a * c - b * d, a * d + b * c


def _rat_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None."""
    if q < 0:
        return None
    if q == 0:
        return _F0
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


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


class _Coordinate:
    """Read-only Fraction view of one integer coordinate over the shared
    denominator.

    A descriptor rather than a property: perfbench/tracer.py times every
    property as scalar work, but reads these coordinates from its own
    hooks, whose cost it keeps out of the layer times.
    """

    __slots__ = ("field",)

    def __init__(self, field: str):
        self.field = field

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        den = obj.den
        value = getattr(obj, self.field)
        return Fraction(value) if den == 1 else Fraction(value, den)


class ExactScalar:
    """Element (p + q*i + r*sqrt2 + s*i*sqrt2) / den in canonical form.

    The rational coordinates a + b*i + c*sqrt2 + d*i*sqrt2 are readable
    as the Fraction attributes ``a``, ``b``, ``c``, ``d``.
    """

    __slots__ = ("p", "q", "r", "s", "den")

    def __init__(self, a: Rat = 0, b: Rat = 0, c: Rat = 0, d: Rat = 0):
        coords = [Fraction(x) for x in (a, b, c, d)]
        # the lcm of reduced denominators leaves the five ints coprime
        den = lcm(*(x.denominator for x in coords))
        self.p, self.q, self.r, self.s = (x.numerator * (den // x.denominator) for x in coords)
        self.den = den

    a = _Coordinate("p")
    b = _Coordinate("q")
    c = _Coordinate("r")
    d = _Coordinate("s")

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
            if not isinstance(other, (int, Fraction)):
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
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = sc(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            p, q, r, s = self.p - other.p, self.q - other.q, self.r - other.r, self.s - other.s
            if d1 == 1:
                return _make(p, q, r, s, 1)
            return _reduce(p, q, r, s, d1)
        return _reduce(
            self.p * d2 - other.p * d1,
            self.q * d2 - other.q * d1,
            self.r * d2 - other.r * d1,
            self.s * d2 - other.s * d1,
            d1 * d2,
        )

    def __rsub__(self, other) -> "ExactScalar":
        return sc(other).__sub__(self)

    def __neg__(self) -> "ExactScalar":
        return _make(-self.p, -self.q, -self.r, -self.s, self.den)

    def __mul__(self, other) -> "ExactScalar":
        if type(other) is not ExactScalar:
            if not isinstance(other, (int, Fraction)):
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

    def sqrt(self) -> Optional["ExactScalar"]:
        """A square root inside Q(i, sqrt2) if one exists, else None."""
        if self.is_zero():
            return ZERO
        # target (u + v*sqrt2)^2 with Gaussian u, v:
        #   u^2 + 2 v^2 = p,  2 u v = q   where self = p + q*sqrt2.
        p = (self.a, self.b)
        q = (self.c, self.d)
        if q == (_F0, _F0):
            r = _gauss_sqrt(p)
            if r is not None:
                return ExactScalar(r[0], r[1], 0, 0)
            half = _gauss_sqrt((p[0] / 2, p[1] / 2))
            if half is not None:
                return ExactScalar(0, 0, half[0], half[1])
            return None
        # u != 0; u^2 solves 2 t^2 - 2 p t + q^2/2... derived from
        # t + q^2/(4t) = p with t = u^2:  4 t^2 - 4 p t + q^2 = 0.
        disc = _gauss_sqrt(_gsub(_gmul(p[0], p[1], p[0], p[1]), _gscale(_gmul(q[0], q[1], q[0], q[1]), 2)))
        if disc is None:
            return None
        for sign in (1, -1):
            t = _gscale(_gadd(p, _gscale(disc, sign)), Fraction(1, 2))
            u = _gauss_sqrt(t)
            if u is None or u == (_F0, _F0):
                continue
            inv2u = _gauss_inv(_gscale(u, 2))
            v = _gmul(q[0], q[1], inv2u[0], inv2u[1])
            cand = ExactScalar(u[0], u[1], v[0], v[1])
            if cand * cand == self:
                return cand
        return None

    # -- equality / hashing / display ------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not ExactScalar:
            if not isinstance(other, (int, Fraction)):
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
        return hash(self.p) if self.den == 1 else hash(Fraction(self.p, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"ExactScalar({self!s})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for coeff, unit in ((self.a, ""), (self.b, "i"), (self.c, "sqrt2"), (self.d, "i*sqrt2")):
            if coeff == 0:
                continue
            if unit == "":
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(unit)
            elif coeff == -1:
                parts.append("-" + unit)
            else:
                parts.append(f"{coeff}*{unit}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return [str(self.a), str(self.b), str(self.c), str(self.d)]

    @classmethod
    def from_json(cls, data) -> "ExactScalar":
        return cls(*(Fraction(s) for s in data))


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


def _gadd(x, y):
    return x[0] + y[0], x[1] + y[1]


def _gsub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _gscale(x, s):
    return x[0] * s, x[1] * s


def _gauss_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return x[0] / n, -x[1] / n


def _gauss_sqrt(w) -> Optional[tuple]:
    """Square root of a Gaussian rational as a Gaussian rational, or None."""
    s, t = w
    if t == 0:
        r = _rat_sqrt(s)
        if r is not None:
            return (r, _F0)
        r = _rat_sqrt(-s)
        if r is not None:
            return (_F0, r)
        return None
    # (g + hi)^2 = s + ti:  g^2 = (s + |w|)/2 with |w| = sqrt(s^2+t^2)
    mod = _rat_sqrt(s * s + t * t)
    if mod is None:
        return None
    g = _rat_sqrt((s + mod) / 2)
    if g is None or g == 0:
        return None
    h = t / (2 * g)
    if g * g - h * h == s and 2 * g * h == t:
        return (g, h)
    return None


def sc(x) -> ExactScalar:
    """Coerce an int, Fraction, or ExactScalar into the field."""
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 0, 0, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, 0, 0, x.denominator)
    raise TypeError(f"cannot coerce {type(x).__name__} into Q(i, sqrt2)")


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
TWO = ExactScalar(2)
MINUS_ONE = ExactScalar(-1)
HALF = ExactScalar(Fraction(1, 2))
I = ExactScalar(0, 1)
MINUS_I = ExactScalar(0, -1)
SQRT2 = ExactScalar(0, 0, 1)
