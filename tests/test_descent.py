import random

import pytest

from ellspec.curves import Curve, O, Point
from ellspec.descent import dual_curve, isogeny_phi, isogeny_psi
from ellspec.intpoly import IntPoly
from ellspec.ratfunc import RatFunc
from samples import in_field, is_square_poly, random_c0_curve_with_point

T = IntPoly.monomial(1, 1)
t = RatFunc(T)


def test_dual_curve_model():
    curve = Curve(t, RatFunc(T**2 + 1), RatFunc(0))
    dual = dual_curve(curve)
    assert dual.A == -2 * t
    assert dual.B == t * t - 4 * RatFunc(T**2 + 1)
    assert dual.C == RatFunc(0)
    with pytest.raises(ValueError):
        dual_curve(Curve(RatFunc(0), RatFunc(-1), RatFunc(1)))  # C != 0


def test_isogeny_kernel():
    rng = random.Random(59)
    curve, _ = random_c0_curve_with_point(rng)
    zero = Point(RatFunc(0), RatFunc(0))
    assert isogeny_phi(curve, zero) == O
    assert isogeny_phi(curve, O) == O


def test_isogeny_composition_is_doubling():
    rng = random.Random(60)
    for _ in range(25):
        curve, P = random_c0_curve_with_point(rng)
        dual = dual_curve(curve)
        image = isogeny_phi(curve, P)
        assert dual.contains(image)
        assert isogeny_psi(curve, image) == curve.scalar_mul(2, P), (curve, P)


def test_isogeny_is_homomorphism():
    rng = random.Random(61)
    for _ in range(10):
        curve, P = random_c0_curve_with_point(rng)
        dual = dual_curve(curve)
        twoP = curve.scalar_mul(2, P)
        lhs = isogeny_phi(curve, curve.add(P, twoP))
        rhs = dual.add(isogeny_phi(curve, P), isogeny_phi(curve, twoP))
        assert lhs == rhs
        assert in_field(dual, lhs) and in_field(dual, rhs)


def test_phi_image_criterion():
    # points of the dual curve with square x-coordinate are phi-images
    rng = random.Random(62)
    hits = 0
    for _ in range(25):
        curve, P = random_c0_curve_with_point(rng)
        image = isogeny_phi(curve, P)
        if image.is_infinity:
            continue
        assert is_square_poly(image.x.num * image.x.den)  # y^2/x^2 by construction
        hits += 1
    assert hits > 0


def test_psi_of_phi_is_proven_on_the_curve(monkeypatch):
    # psi is phi of the dual curve, so it checks its input on the dual
    # once; its scaled result lies on curve by construction and is not
    # checked again by the group law.
    rng = random.Random(63)
    for _ in range(10):
        curve, P = random_c0_curve_with_point(rng)
        P = curve.point(P.x, P.y)
        image = isogeny_phi(curve, P)
        calls = []
        contains = Curve.contains
        monkeypatch.setattr(Curve, "contains", lambda self, Q: calls.append(Q) or contains(self, Q))
        back = isogeny_psi(curve, image)
        threeP = curve.add(back, P)
        monkeypatch.undo()
        assert len(calls) == 1
        assert in_field(curve, back) and curve.contains(back)
        assert threeP == curve.scalar_mul(3, P)


def test_psi_over_q():
    # y^2 = x^3 + 5x^2 + 4x = x(x + 1)(x + 4) through (-2, 2)
    curve = Curve(5, 4, 0)
    P = curve.point(-2, 2)
    twoP = isogeny_psi(curve, isogeny_phi(curve, P))
    assert twoP == curve.scalar_mul(2, P) and in_field(curve, twoP)
    assert isogeny_psi(curve, O) == O
    assert isogeny_psi(curve, Point(0, 0)) == O
