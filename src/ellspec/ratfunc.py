"""The field Q(t) as reduced fractions of integer polynomials.

Canonical form: numerator and denominator are coprime in Z[t] (integer
contents coprime and primitive parts coprime) and the denominator has a
positive leading coefficient.  This makes equality a structural check.
A fraction n/1 already has this form, so Z[t] enters Q(t) with no gcd.
Sums and products of canonical fractions follow Henrici (Knuth, TAOCP 2,
4.5.1): they cancel the gcds of the small parts before multiplying and
are already canonical, so they skip the constructor's full gcd.  Each gcd
comes with its cofactors (intpoly._gcd_cofactors): no part is divided.
"""

from __future__ import annotations

from fractions import Fraction

from .intpoly import _ONE, IntPoly, _gcd_cofactors, _power, poly_gcd

__all__ = ["RatFunc", "poly_gcd"]  # poly_gcd is not called here; bench/tests reads it


class RatFunc:
    """Immutable element of Q(t)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        """num / den for num, den in Z[t] (int or IntPoly), reduced: n/1 as it
        is, else both parts divided by their gcd, which takes 0/d to 0/1."""
        n = IntPoly.coerce(num)
        d = IntPoly.coerce(den)
        if d.is_zero:
            raise ZeroDivisionError("zero denominator in Q(t)")
        if d != 1:
            _, n, d = _gcd_cofactors(n, d)
            if d.lc < 0:
                n, d = -n, -d
        self.num = n
        self.den = d

    @classmethod
    def _reduced(cls, n: IntPoly, d: IntPoly) -> "RatFunc":
        """n / d for coprime n, d in Z[t] with d nonzero: only the sign of
        d is fixed, so the parts must already be coprime."""
        if d.lc < 0:
            n, d = -n, -d
        f = object.__new__(cls)
        f.num = n
        f.den = d
        return f

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def as_fraction(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        return Fraction(self.num.lc, self.den.lc)

    def as_poly(self) -> IntPoly:
        """The underlying Z[t] element; raises when not integral."""
        if self.den != 1:
            raise ValueError(f"{self} is not in Z[t]")
        return self.num

    # -- field operations ------------------------------------------------

    @classmethod
    def _coerce(cls, other) -> "RatFunc":
        """An int, Fraction, IntPoly or RatFunc as an element of Q(t)."""
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Fraction):
            # already in lowest terms, with a positive denominator
            return cls._reduced(IntPoly.const(other.numerator), IntPoly.const(other.denominator))
        if isinstance(other, (int, IntPoly)):
            return cls._reduced(IntPoly.coerce(other), _ONE)  # n/1 is canonical
        raise TypeError(f"cannot interpret {other!r} as an element of Q(t)")

    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return _sum(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._reduced(-self.num, self.den)

    def __sub__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return _sum(self.num, self.den, -other.num, other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return _prod(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero in Q(t)")
        return _prod(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return (1 / self) ** (-e)
        return _power(self, e, RatFunc(1))

    def __eq__(self, other) -> bool:
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # the hash of the IntPoly, int or Fraction it equals, if any
        if self.den == 1:
            return hash(self.num)
        if self.is_constant:
            return hash(self.as_fraction())
        return hash((self.num, self.den))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t0) -> Fraction | None:
        """Exact value at t0, or None at a pole."""
        d = self.den(t0)
        if d == 0:
            return None
        return self.num(t0) / d

    # -- printing ---------------------------------------------------------------

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _sum(a: IntPoly, b: IntPoly, c: IntPoly, d: IntPoly) -> RatFunc:
    """a/b + c/d for canonical a/b and c/d.  With d1 = gcd(b, d), the sum
    is t / ((b/d1) d) for t = a (d/d1) + c (b/d1), and t shares with that
    denominator only the factors it shares with d1 (Henrici).  With
    e = gcd(t, d1), d/e is (d1/e)(d/d1), a product of two cofactors."""
    if b == 1:
        return RatFunc._reduced(a * d + c, d)
    if d == 1:
        return RatFunc._reduced(a + c * b, b)
    d1, b, dd = _gcd_cofactors(b, d)
    t = a * dd + c * b
    if d1 != 1:
        e, t, d1 = _gcd_cofactors(t, d1)
        if e != 1:
            d = d1 * dd
    return RatFunc._reduced(t, b * d)


def _prod(a: IntPoly, b: IntPoly, c: IntPoly, d: IntPoly) -> RatFunc:
    """(a/b)(c/d) for coprime a, b and coprime c, d with d nonzero: the
    cross gcds gcd(a, d) and gcd(c, b) are divided out before multiplying
    (Henrici), and a square (a/b)^2 is already coprime."""
    if a is c and b is d:
        return RatFunc._reduced(a * a, b * b)
    if d != 1:
        _, a, d = _gcd_cofactors(a, d)
    if b != 1:
        _, c, b = _gcd_cofactors(c, b)
    return RatFunc._reduced(a * c, b * d)


def _common_den(values) -> IntPoly:
    """The lcm of the denominators of the RatFunc values (1 for none)."""
    den = _ONE
    for c in values:
        if c.den != 1 and c.den != den:
            den = c.den if den == 1 else den * _gcd_cofactors(den, c.den)[2]
    return den
