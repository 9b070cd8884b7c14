"""The specialization homomorphism: evaluate a curve over Q(t) and its
points at a rational t0 (poles map to the neutral element), plus an
exhaustive bounded relation search used to exhibit non-injectivity.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .curves import Curve, O, Point, SingularCurveError
from .intmath import as_rational

__all__ = [
    "specialize_curve",
    "specialize_point",
    "homomorphism_check",
    "relation_search",
]


def specialize_curve(curve: Curve, t0) -> Curve:
    """Evaluate a model over Q(t) at t0; requires a nonsingular
    specialization."""
    t0 = as_rational(t0)
    if curve.field != "Q(t)":
        raise ValueError("curve is not defined over Q(t)")
    values = [v(t0) for v in (curve.A, curve.B, curve.C)]
    if any(v is None for v in values):
        raise ValueError(f"a coefficient has a pole at t0={t0}")
    try:
        return Curve(*values)
    except SingularCurveError:
        raise ValueError(f"discriminant vanishes at t0={t0}: specialization singular") from None


def specialize_point(curve: Curve, P: Point, t0) -> Point:
    """sigma_{t0}(P): coordinate evaluation, with poles mapping to O."""
    t0 = as_rational(t0)
    return _image(curve, specialize_curve(curve, t0), P, t0)


def _image(curve: Curve, target: Curve, P: Point, t0: Fraction) -> Point:
    """sigma_{t0}(P) on target = specialize_curve(curve, t0).  Evaluation
    at a t0 where x, y, A, B and C have no pole is a ring homomorphism, so
    the image of a point on curve lies on target without a check."""
    if P.is_infinity:
        return O
    P = curve._require(P)
    x, y = P.x(t0), P.y(t0)
    if x is None or y is None:
        return O
    return target._proven(x, y)


def homomorphism_check(curve: Curve, P: Point, Q: Point, t0) -> bool:
    """sigma(P + Q) == sigma(P) + sigma(Q), both sides computed independently."""
    t0 = as_rational(t0)
    target = specialize_curve(curve, t0)
    lhs = _image(curve, target, curve.add(P, Q), t0)
    rhs = target.add(_image(curve, target, P, t0), _image(curve, target, Q, t0))
    return lhs == rhs


def relation_search(
    curve: Curve, points: list[Point], bound: int
) -> tuple[int, ...] | None:
    """Smallest nonzero integer relation sum(m_i * P_i) = O with
    |m_i| <= bound.

    Minimal by max-norm; ties broken by scanning each coordinate in the
    order 0, 1, -1, 2, -2, ...  Exhaustive over the integer box;
    exponential in len(points), which stays tiny here.  None means no
    relation in the box, not independence.  An empty list of points has
    no nonzero relation at all, so it gives None too.
    """
    if not points:
        return None
    points = [curve._require(P) for P in points]
    multiples: list[dict[int, Point]] = []
    for P in points:
        table = {0: O}
        acc = O
        for m in range(1, bound + 1):
            acc = curve.add(acc, P)
            table[m] = acc
            table[-m] = curve.neg(acc)
        multiples.append(table)

    k = len(points)
    for norm in range(1, bound + 1):
        coeff_order = [0]
        for m in range(1, norm + 1):
            coeff_order.extend((m, -m))
        for combo in itertools.product(coeff_order, repeat=k):
            if max(abs(m) for m in combo) != norm:
                continue
            total = O
            for table, m in zip(multiples, combo):
                total = curve.add(total, table[m])
            if total == O:
                return combo
    return None
