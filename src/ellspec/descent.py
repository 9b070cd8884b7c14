"""The 2-isogeny pair between y^2 = x^3 + A x^2 + B x and its dual
y^2 = x^3 - 2A x^2 + (A^2 - 4B) x.
"""

from __future__ import annotations

from .curves import Curve, O, Point

__all__ = ["dual_curve", "isogeny_phi", "isogeny_psi"]


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
