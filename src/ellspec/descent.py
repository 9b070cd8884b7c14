"""2-descent apparatus: square classes, the three descent homomorphisms
on a split curve, and the 2-isogeny pair between y^2 = x^3 + A x^2 + B x
and its dual y^2 = x^3 - 2A x^2 + (A^2 - 4B) x.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import Curve, O, Point
from .intpoly import IntPoly, poly_sqrt, squarefree_part
from .ratfunc import RatFunc

__all__ = [
    "SquareClass",
    "square_class_rep",
    "theta",
    "in_double",
    "divisibility_bound",
    "dual_curve",
    "isogeny_phi",
    "isogeny_psi",
]


@dataclass(frozen=True)
class SquareClass:
    """An element of Q(t)^x modulo squares, held by its squarefree
    representative in Z[t] (canonical sign from the squarefree part)."""

    representative: IntPoly

    def __post_init__(self):
        if self.representative.is_zero:
            raise ValueError("zero has no square class")

    @property
    def is_trivial(self) -> bool:
        return self.representative == IntPoly.const(1)

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return SquareClass(squarefree_part(self.representative * other.representative))

    def same_class(self, other: "SquareClass") -> bool:
        """Class equality: r1/r2 is a square in Q(t) exactly when r1 * r2
        is a square in Z[t] (no factoring)."""
        return poly_sqrt(self.representative * other.representative) is not None

    def __str__(self) -> str:
        return str(self.representative)


def square_class_rep(x: RatFunc) -> IntPoly:
    """Squarefree representative in Z[t] of a nonzero element of Q(t)."""
    if x.is_zero:
        raise ValueError("zero has no square class")
    return squarefree_part(x.num * x.den)


def theta(curve: Curve, i: int, P: Point) -> SquareClass:
    """Descent homomorphism attached to the i-th root (i in 1..3):
    the square class of x(P) - e_i, with the usual conventions at O and
    at the 2-torsion point (e_i, 0)."""
    roots = curve.split_root_polys()
    if i not in (1, 2, 3):
        raise ValueError("root index must be 1, 2 or 3")
    P = curve._require(P)
    if P.is_infinity:
        return SquareClass(IntPoly.const(1))
    delta = P.x - RatFunc(roots[i - 1])
    if delta.is_zero:
        return SquareClass(squarefree_part(divisibility_bound(curve, i)))
    return SquareClass(square_class_rep(delta))


def in_double(curve: Curve, P: Point) -> bool:
    """True iff P lies in 2E(Q(t)): all three descent classes trivial."""
    return all(theta(curve, i, P).is_trivial for i in (1, 2, 3))


def divisibility_bound(curve: Curve, i: int) -> IntPoly:
    """The product (e_j - e_i)(e_k - e_i) that every descent
    representative s_i divides."""
    roots = curve.split_root_polys()
    if i not in (1, 2, 3):
        raise ValueError("root index must be 1, 2 or 3")
    e = roots[i - 1]
    j, k = [m for m in (0, 1, 2) if m != i - 1]
    return (roots[j] - e) * (roots[k] - e)


def _shape_2torsion(curve: Curve):
    """Require the model y^2 = x^3 + A x^2 + B x (C = 0; nonsingular, so B != 0)."""
    if curve.C:
        raise ValueError("model must have C = 0, i.e. carry the 2-torsion point (0,0)")
    return curve.A, curve.B


def dual_curve(curve: Curve) -> Curve:
    """The 2-isogenous curve y^2 = x^3 - 2A x^2 + (A^2 - 4B) x."""
    A, B = _shape_2torsion(curve)
    return Curve(-2 * A, A * A - 4 * B, curve.C)


def isogeny_phi(curve: Curve, P: Point) -> Point:
    """Degree-2 isogeny to the dual curve; kernel {O, (0,0)} maps to O."""
    A, B = _shape_2torsion(curve)
    P = curve._require(P)
    if P.is_infinity or not P.x:
        return O
    x, y = P.x, P.y
    return Point(y * y / (x * x), y * (x * x - B) / (x * x))


def isogeny_psi(curve: Curve, Pbar: Point) -> Point:
    """Dual isogeny back from dual_curve(curve), psi(phi(P)) = 2P: phi of the
    dual curve, onto y^2 = x^3 + 4A x^2 + 16B x, then (x, y) -> (x/4, y/8)."""
    image = isogeny_phi(dual_curve(curve), Pbar)
    if image.is_infinity:
        return O
    return curve._proven(image.x / 4, image.y / 8)
