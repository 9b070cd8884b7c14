"""Weierstrass cubics y^2 = x^3 + A x^2 + B x + C and their group law.

Generic over an exact field: coefficients and point coordinates are
either Fraction (curves over Q) or RatFunc (curves over Q(t)).  Points
are affine pairs plus an explicit neutral element O; everything is
exact, no projective coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .factorize import _mignotte_bound
from .intmath import as_rational
from .intpoly import (
    IntPoly,
    _exact_quotient,
    _from_balanced_digits,
    _horner_homogeneous,
    _power,
    cubic_discriminant,
)
from .ratfunc import RatFunc, _common_den

__all__ = ["Point", "Curve", "SingularCurveError", "OffCurveError"]


class SingularCurveError(ValueError):
    """Raised for models whose cubic has a vanishing discriminant."""

    def __init__(self, discriminant):
        self.discriminant = discriminant
        super().__init__(f"singular model: discriminant {discriminant} vanishes")


class OffCurveError(ValueError):
    """Raised when a point does not satisfy the curve equation."""


@dataclass(frozen=True)
class Point:
    """Affine point (x, y) or the neutral element O (x is None).

    `_proven_on` is the Curve object that proved the point lies on it, or
    None.  Only Curve sets it (Curve.point and the group law), and it takes
    no part in equality, hashing or printing.
    """

    x: object = None
    y: object = None
    _proven_on: object = field(default=None, init=False, compare=False, repr=False)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __str__(self) -> str:
        if self.is_infinity:
            return "O"
        return f"({self.x}, {self.y})"


O = Point()


class Curve:
    """Nonsingular cubic y^2 = x^3 + A x^2 + B x + C over Q(t) when a
    coefficient is an IntPoly or RatFunc, else over Q.  Coefficients and
    point coordinates enter that field once, here.  Over Q(t), x = X/u^2,
    y = Y/u^3 for u = scale, the lcm of the denominators, maps it onto the
    integral model Y^2 = X^3 + u^2A X^2 + u^4B X + u^6C, an isomorphism
    also at each t0 with u(t0) != 0 (Silverman, AEC III.1), which the
    criteria, the discriminant and the 2-torsion share."""

    def __init__(self, A, B, C):
        over_qt = any(isinstance(c, (IntPoly, RatFunc)) for c in (A, B, C))
        self.field = "Q(t)" if over_qt else "Q"
        self._element = RatFunc._coerce if over_qt else as_rational
        self.A, self.B, self.C = (self._element(c) for c in (A, B, C))
        self.split_roots = None
        model = (self.A, self.B, self.C)
        if over_qt:
            self.scale = _common_den(model)
            model = self._model = tuple(self._scaled(f, k) for k, f in zip((2, 4, 6), model))
        self.disc_cubic = cubic_discriminant(*model)  # over Q(t), u^12 times the cubic's
        if not self.disc_cubic:
            raise SingularCurveError(self.disc_cubic)

    # -- constructors --------------------------------------------------

    @classmethod
    def from_roots(cls, e1, e2, e3) -> "Curve":
        """y^2 = (x - e1)(x - e2)(x - e3) over Q(t).  With e_i = n_i / D over
        D = lcm(d1, d2, d3), A, B and C are -s1 / D, s2 / D^2 and -s3 / D^3 for
        the elementary symmetric polynomials s_k of n1, n2, n3, each reduced once."""
        roots = tuple(RatFunc._coerce(e) for e in (e1, e2, e3))
        D = _common_den(roots)
        n1, n2, n3 = (e.num if D == 1 else e.num * _exact_quotient(D, e.den) for e in roots)
        n12 = n1 * n2
        curve = cls(
            RatFunc(-(n1 + n2 + n3), D),
            RatFunc(n12 + (n1 + n2) * n3, D * D),
            RatFunc(-(n12 * n3), D * D * D),
        )
        curve.split_roots = roots
        return curve

    # -- coefficient access --------------------------------------------

    def coeff_polys(self) -> tuple[IntPoly, IntPoly, IntPoly]:
        """The integral model (u^2A, u^4B, u^6C) (see Curve); raises over Q."""
        if self.field != "Q(t)":
            raise ValueError("curve is not defined over Q(t)")
        return self._model

    def discriminant_poly(self) -> IntPoly:
        """The integral model's discriminant, u^12 times the cubic's."""
        self.coeff_polys()
        return self.disc_cubic

    def split_root_polys(self) -> tuple[IntPoly, IntPoly, IntPoly]:
        """The roots u^2 e_i of the integral model, in Z[t]."""
        if self.split_roots is None:
            raise ValueError("curve has no recorded split roots")
        return tuple(self._scaled(e, 2) for e in self.split_roots)  # type: ignore[return-value]

    def _scaled(self, f: RatFunc, k: int) -> IntPoly:
        """u^k f in Z[t] for u = scale, where den(f) divides u^k: f.num when u = 1."""
        return f.num if self.scale == 1 else _exact_quotient(self.scale**k * f.num, f.den)

    # -- equation and membership ----------------------------------------

    def rhs(self, x):
        return x * x * x + self.A * x * x + self.B * x + self.C

    def contains(self, P: Point) -> bool:
        if P.is_infinity:
            return True
        return P.y * P.y == self.rhs(P.x)

    def point(self, x, y) -> Point:
        """The affine point (x, y) with its coordinates taken into the
        curve's field, checked once against the equation and marked as
        proven on this curve object, so that the group law never checks it
        again.  Over Q a coordinate must be an int or Fraction, over Q(t)
        an int, Fraction, IntPoly or RatFunc; anything else, such as a
        float, raises TypeError, and an off-curve pair OffCurveError."""
        x, y = self._element(x), self._element(y)
        P = Point(x, y)
        if not self.contains(P):
            raise OffCurveError(f"point {P} is not on {self}")
        return self._proven(x, y)

    def _proven(self, x, y) -> Point:
        """(x, y) marked as proven on this curve; the caller guarantees
        that it satisfies the equation."""
        P = Point(x, y)
        object.__setattr__(P, "_proven_on", self)
        return P

    def _require(self, P: Point) -> Point:
        """P as a point proven on this curve: P itself when it is O or this
        curve object proved it, else a checked copy (see point)."""
        if P._proven_on is self or P.is_infinity:
            return P
        return self.point(P.x, P.y)

    # -- group law: every result is proven on self --------------------------

    def neg(self, P: Point) -> Point:
        P = self._require(P)
        if P.is_infinity:
            return P
        return self._proven(P.x, -P.y)

    def add(self, P: Point, Q: Point) -> Point:
        doubling = P is Q
        P = self._require(P)
        Q = P if doubling else self._require(Q)
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        if P.x == Q.x:
            if P.y == -Q.y:
                return O
            # doubling (P == Q; y != 0 since the model is nonsingular)
            slope = (3 * P.x * P.x + 2 * self.A * P.x + self.B) / (2 * P.y)
        else:
            slope = (Q.y - P.y) / (Q.x - P.x)
        x3 = slope * slope - self.A - P.x - Q.x
        y3 = slope * (P.x - x3) - P.y
        return self._proven(x3, y3)

    def sub(self, P: Point, Q: Point) -> Point:
        return self.add(P, self.neg(Q))

    def scalar_mul(self, m: int, P: Point) -> Point:
        P = self._require(P)
        if m < 0:
            m, P = -m, self.neg(P)
        return _power(P, m, O, self.add)

    # -- torsion ---------------------------------------------------------

    def two_torsion(self) -> list[Point]:
        """O plus (e, 0) per rational root e of the cubic; over Q(t), e = X/u^2 per root X of the model."""
        if self.field == "Q":
            roots = _q_cubic_roots(self.A, self.B, self.C)
        else:
            roots = [RatFunc(X, self.scale**2) for X in _qt_cubic_roots(*self._model)]
        zero = self._element(0)
        return [O] + [self._proven(e, zero) for e in roots]

    def __str__(self) -> str:
        return f"y^2 = x^3 + ({self.A})*x^2 + ({self.B})*x + ({self.C})"

    def __repr__(self) -> str:
        return f"Curve[{self.field}]({self})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Curve):
            return NotImplemented
        return (self.field, self.A, self.B, self.C) == (other.field, other.A, other.B, other.C)

    def __hash__(self) -> int:
        return hash((self.field, self.A, self.B, self.C))


# ---------------------------------------------------------------------------
# Rational roots of monic cubics over the two coefficient fields.
# ---------------------------------------------------------------------------


# A root bound of more than this many bits starts Newton from the crossings
# of the halved problem, a smaller one from the ends of the bracket.
_HALVED_START_BITS = 64


def _int_cubic_roots(a: int, b: int, c: int) -> list[int]:
    """Distinct integer roots, ascending, of y^3 + a y^2 + b y + c."""
    return [y for y in _cubic_crossings(a, b, c) if ((y + a) * y + b) * y + c == 0]


def _cubic_crossings(a: int, b: int, c: int) -> list[int]:
    """On each monotone piece of f(y) = y^3 + a y^2 + b y + c whose sign
    changes, ascending, the least integer y with sign * f(y) >= 0; every
    integer root of f is one of them.

    Every root y has |y| <= 2 max(|a|, |b|^(1/2), |c|^(1/3)) (Fujiwara,
    1916), which is below M = 2^(K+1) for K the least integer with |a|,
    |b|^(1/2) and |c|^(1/3) all below 2^K.  With s = isqrt(a^2 - 3b) the
    integers y split into 3y < -a - s, -a - s <= 3y <= -a + s and
    3y > -a + s; the critical points (-a -+ sqrt(a^2 - 3b))/3 lie in the
    middle part, so the cubic is strictly monotone on each part.  When
    a^2 - 3b <= 0 it is monotone throughout.

    Each crossing is bracketed in [lo, hi] by a safeguarded Newton
    iteration in exact integers.  The first probe is a crossing of the
    cubic with the low halves of the coefficients cut (a >> k, b >> 2k,
    c >> 3k for k = K/2), scaled back by 2^k, when it lies in the bracket:
    its roots are those of f scaled down by 2^k, up to rounding, so Newton
    starts with about K/2 correct bits.  Each later probe is x - f(x)//f'(x)
    from the end x of the bracket with the smaller |f| (the integer below
    x when that step is 0), while it lies inside the bracket; otherwise,
    and after a probe that left more than half of the bracket, the
    midpoint.  So the bracket at least halves every two probes, and near a
    simple root it closes after a few probes at full precision.
    """

    def f(y: int) -> int:
        return ((y + a) * y + b) * y + c

    def df(y: int) -> int:
        return (3 * y + 2 * a) * y + b

    K = max(abs(a).bit_length(), (abs(b).bit_length() + 1) // 2, (abs(c).bit_length() + 2) // 3)
    M = 2 << K
    disc = a * a - 3 * b
    if disc <= 0:
        pieces = [(-M, M, 1)]
    else:
        s = math.isqrt(disc)
        pieces = [
            (-M, (-a - s - 1) // 3, 1),
            (-((a + s) // 3), (-a + s) // 3, -1),
            (-((a - s - 1) // 3), M, 1),
        ]
    k = K // 2 if K > _HALVED_START_BITS else 0
    guesses = [y << k for y in _cubic_crossings(a >> k, b >> 2 * k, c >> 3 * k)] if k else []
    crossings = []
    for lo, hi, sign in pieces:
        lo, hi = max(lo, -M), min(hi, M)
        if lo > hi:
            continue
        f_hi, f_lo = f(hi), None  # f at hi and at lo - 1, once probed
        if sign * f_hi < 0:
            continue
        z = next((g for g in guesses if lo <= g < hi), None)
        newton = True
        while lo < hi:
            if newton:
                width = hi - lo
                if z is None:
                    x, fx = (lo - 1, f_lo) if f_lo is not None and abs(f_lo) < abs(f_hi) else (hi, f_hi)
                    dx = df(x)
                    z = x - (fx // dx or 1) if dx else lo - 1
            if not newton or not lo <= z < hi:
                z = (lo + hi) // 2
            fz = f(z)
            if sign * fz >= 0:
                hi, f_hi = z, fz
            else:
                lo, f_lo = z + 1, fz
            z = None
            newton = not newton or hi - lo <= width // 2
        crossings.append(lo)
    return crossings


def _q_cubic_roots(A: Fraction, B: Fraction, C: Fraction) -> list[Fraction]:
    """Distinct rational roots, ascending, of x^3 + A x^2 + B x + C.

    With d the lcm of the denominators, y = d x is a root of the monic
    y^3 + dA y^2 + d^2B y + d^3C over Z, so y is an integer.
    """
    d = math.lcm(A.denominator, B.denominator, C.denominator)
    ys = _int_cubic_roots(int(d * A), int(d * d * B), int(d**3 * C))
    return [Fraction(y, d) for y in ys]


def _qt_cubic_roots(A: IntPoly, B: IntPoly, C: IntPoly) -> list[IntPoly]:
    """Roots in Q(t) of monic x^3 + A x^2 + B x + C with Z[t] coefficients.

    Such roots are integral over Z[t], hence lie in Z[t], and each nonzero
    one divides L, the first nonzero coefficient among C, B, A.  So its
    coefficients are at most the Mignotte bound M of L, and it is rebuilt
    from its value at N = 2M + 1 as balanced base-N digits; substitution
    rejects the integer roots of the evaluated cubic that come from no
    root in Z[t].
    """
    L = next(f for f in (C, B, A) if not f.is_zero)
    N = 2 * _mignotte_bound(L) + 1
    roots: list[IntPoly] = []
    for rho in _int_cubic_roots(*(_horner_homogeneous(f.coeffs, N, 1) for f in (A, B, C))):
        r = _from_balanced_digits(rho, N)
        if r * r * r + A * r * r + B * r + C == 0:
            roots.append(r)
    return roots
