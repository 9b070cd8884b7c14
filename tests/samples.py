"""Shared random-sample constructions for the test suite, and the check
that a point's coordinates lie in its curve's field.

Curves with known rational points are built directly: either by solving
the 3x3 linear system that forces the cubic through three chosen points,
or by choosing the model so a chosen x-coordinate works out.
"""

import random
from fractions import Fraction

from ellspec.curves import Curve, Point
from ellspec.intmath import exact_isqrt
from ellspec.intpoly import IntPoly, squarefree_decompose
from ellspec.ratfunc import RatFunc

T = IntPoly.monomial(1, 1)


def in_field(curve, P) -> bool:
    """Whether P is O or both its coordinates have the type of the curve's
    field: Fraction over Q, RatFunc over Q(t)."""
    field = RatFunc if curve.field == "Q(t)" else Fraction
    return P.is_infinity or (type(P.x) is field and type(P.y) is field)


def is_square_poly(p: IntPoly) -> bool:
    """p is a square in Z[t]: zero, or a positive unit, a square content
    and even multiplicities in its squarefree decomposition."""
    if p.is_zero:
        return True
    unit, content, parts = squarefree_decompose(p)
    return unit == 1 and exact_isqrt(content) is not None and all(m % 2 == 0 for _, m in parts)


def curve_through(points):
    """Curve y^2 = x^3 + Ax^2 + Bx + C through three affine points with
    distinct x-coordinates (Cramer's rule; works over Q and Q(t))."""
    (x1, y1), (x2, y2), (x3, y3) = points
    r1 = y1 * y1 - x1 * x1 * x1
    r2 = y2 * y2 - x2 * x2 * x2
    r3 = y3 * y3 - x3 * x3 * x3
    one = x1 - x1 + 1  # multiplicative identity of whichever field x1 lives in

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    M = [[x1 * x1, x1, one], [x2 * x2, x2, one], [x3 * x3, x3, one]]
    d = det3(M)
    if not d:
        raise ValueError("degenerate point configuration")
    A = det3([[r1, x1, one], [r2, x2, one], [r3, x3, one]]) / d
    B = det3([[x1 * x1, r1, one], [x2 * x2, r2, one], [x3 * x3, r3, one]]) / d
    C = det3([[x1 * x1, x1, r1], [x2 * x2, x2, r2], [x3 * x3, x3, r3]]) / d
    return Curve(A, B, C)


def random_q_curve_with_points(rng: random.Random):
    """(curve over Q, [P1, P2, P3]) with all three points on the curve."""
    while True:
        xs = rng.sample(range(-12, 13), 3)
        ys = [rng.randint(1, 12) for _ in range(3)]
        pts = [(Fraction(x), Fraction(y)) for x, y in zip(xs, ys)]
        try:
            curve = curve_through(pts)
        except (ValueError, ZeroDivisionError):
            continue
        return curve, [Point(x, y) for x, y in pts]


def _small_poly(rng: random.Random, max_deg=2, max_coeff=4):
    return IntPoly([rng.randint(-max_coeff, max_coeff) for _ in range(max_deg + 1)])


def random_qt_curve_with_points(rng: random.Random):
    """(curve over Q(t), [P1, P2, P3]), nonsingular, through the points."""
    while True:
        xs = []
        while len(xs) < 3:
            x = _small_poly(rng, max_deg=1)
            if all(x != seen for seen in xs):
                xs.append(x)
        ys = [_small_poly(rng, max_deg=1) + rng.randint(1, 3) for _ in range(3)]
        pts = [(RatFunc(x), RatFunc(y)) for x, y in zip(xs, ys)]
        try:
            curve = curve_through(pts)
        except (ValueError, ZeroDivisionError):
            continue
        return curve, [Point(x, y) for x, y in pts]


def random_split_curve_with_point(rng: random.Random):
    """Fully split curve over Q(t) plus a non-torsion rational point.

    With e3 = x0 - (x0-e1)(x0-e2)*w^2 the value (x0-e1)(x0-e2)(x0-e3)
    is the square of (x0-e1)(x0-e2)*w, so (x0, that product*w) works.
    """
    while True:
        e1 = _small_poly(rng, max_deg=1, max_coeff=3)
        e2 = _small_poly(rng, max_deg=1, max_coeff=3)
        x0 = _small_poly(rng, max_deg=1, max_coeff=3)
        w = _small_poly(rng, max_deg=1, max_coeff=2)
        if w.is_zero or x0 == e1 or x0 == e2:
            continue
        e3 = x0 - (x0 - e1) * (x0 - e2) * w**2
        if e3 == e1 or e3 == e2 or e1 == e2:
            continue
        y0 = (x0 - e1) * (x0 - e2) * w
        try:
            curve = Curve.from_roots(RatFunc(e1), RatFunc(e2), RatFunc(e3))
        except ValueError:
            continue
        P = Point(RatFunc(x0), RatFunc(y0))
        assert curve.contains(P)
        return curve, P


def random_c0_curve_with_point(rng: random.Random):
    """Curve y^2 = x^3 + Ax^2 + Bx over Q(t) (C = 0, B != 0) plus a point:
    B = x0*u^2 - x0^2 - A*x0 makes (x0, x0*u) satisfy the equation."""
    while True:
        A = _small_poly(rng, max_deg=2, max_coeff=3)
        x0 = _small_poly(rng, max_deg=1, max_coeff=3)
        u = _small_poly(rng, max_deg=1, max_coeff=3)
        if x0.is_zero or u.is_zero:
            continue
        B = u * u * x0 - x0 * x0 - A * x0
        if B.is_zero:
            continue
        try:
            curve = Curve(RatFunc(A), RatFunc(B), RatFunc(0))
        except ValueError:
            continue
        P = Point(RatFunc(x0), RatFunc(x0 * u))
        assert curve.contains(P)
        return curve, P


def integral_model(curve: Curve) -> Curve:
    """The model y^2 = x^3 + dA x^2 + d^2B x + d^3C over Z[t], with d the
    product of the denominators of A, B and C."""
    d = curve.A.den * curve.B.den * curve.C.den
    A, B, C = (RatFunc(d**k * f.num, f.den) for k, f in ((1, curve.A), (2, curve.B), (3, curve.C)))
    return Curve(A, B, C)


def random_two_torsion_curve(rng: random.Random) -> Curve:
    """y^2 = (x - r)(x^2 + p x + q) with r, p, q in Z[t]: the cubic has the
    root r in Z[t], so every specialized cubic has the rational root r(t0)."""
    while True:
        r, p, q = (_small_poly(rng, max_deg=d, max_coeff=3) for d in (1, 1, 2))
        try:
            return Curve(RatFunc(p - r), RatFunc(q - p * r), RatFunc(-(q * r)))
        except ValueError:  # singular
            continue


def sample_curve(kind: str, rng: random.Random) -> Curve:
    """A random curve over Z[t] of one kind: "split", "C=0", "general", or
    "two_torsion" (a root in Z[t])."""
    if kind == "split":
        return random_split_curve_with_point(rng)[0]
    if kind == "C=0":
        return random_c0_curve_with_point(rng)[0]
    if kind == "two_torsion":
        return random_two_torsion_curve(rng)
    return integral_model(random_qt_curve_with_points(rng)[0])
