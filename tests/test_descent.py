import random

import pytest

from ellspec.curves import Curve, O, Point
from ellspec.descent import (
    SquareClass,
    divisibility_bound,
    dual_curve,
    in_double,
    isogeny_phi,
    isogeny_psi,
    square_class_rep,
    theta,
)
from ellspec.intpoly import IntPoly, squarefree_part
from ellspec.ratfunc import RatFunc
from samples import in_field, random_c0_curve_with_point, random_split_curve_with_point

T = IntPoly.monomial(1, 1)
t = RatFunc(T)


def test_square_class_rep():
    assert square_class_rep(RatFunc(4 * (T - 1) ** 2)) == IntPoly.const(1)
    assert square_class_rep(RatFunc(2 * T, T + 1)) == 2 * T * (T + 1)
    assert square_class_rep(RatFunc(-9)) == IntPoly.const(-1)
    with pytest.raises(ValueError):
        square_class_rep(RatFunc(0))


def test_zero_has_no_square_class():
    with pytest.raises(ValueError, match="zero has no square class"):
        SquareClass(IntPoly())


def test_square_class_equality_without_factoring():
    a = SquareClass(2 * T)
    b = SquareClass(2 * T * (T + 1) ** 2)  # not squarefree, same class anyway
    assert a.same_class(b)
    assert not a.same_class(SquareClass(T))
    assert (a * a).is_trivial


def test_theta_conventions():
    curve = Curve.from_roots(RatFunc(0), t, 7 * t + 1)
    assert theta(curve, 1, O).is_trivial
    # at the 2-torsion point (e1, 0) the first class is (e2-e1)(e3-e1)
    T1 = Point(RatFunc(0), RatFunc(0))
    expected = squarefree_part(T * (7 * T + 1))
    assert theta(curve, 1, T1).representative == expected
    # elsewhere it's just the class of x - e1
    P = Point(t, RatFunc(0))
    assert theta(curve, 2, T1).representative == square_class_rep(RatFunc(0) - t)


def _points_on(curve, P):
    """A handful of points built from P and the 2-torsion."""
    tors = curve.two_torsion()
    pts = [P, curve.neg(P), curve.scalar_mul(2, P)]
    for Q in tors:
        pts.append(curve.add(P, Q))
    pts.extend(tors)
    return pts


def test_theta_is_a_homomorphism():
    rng = random.Random(55)
    checked = 0
    while checked < 50:
        curve, P = random_split_curve_with_point(rng)
        pts = _points_on(curve, P)
        A = rng.choice(pts)
        B = rng.choice(pts)
        S = curve.add(A, B)
        for i in (1, 2, 3):
            lhs = theta(curve, i, S)
            rhs = theta(curve, i, A) * theta(curve, i, B)
            assert lhs.same_class(rhs), (curve, A, B, i)
        checked += 1


def test_product_of_classes_is_square():
    rng = random.Random(56)
    for _ in range(50):
        curve, P = random_split_curve_with_point(rng)
        Q = rng.choice(_points_on(curve, P))
        prod = IntPoly.const(1)
        for i in (1, 2, 3):
            prod = prod * theta(curve, i, Q).representative
        assert squarefree_part(prod) == IntPoly.const(1), (curve, Q)


def test_representatives_divide_the_root_differences():
    rng = random.Random(57)
    for _ in range(50):
        curve, P = random_split_curve_with_point(rng)
        for Q in _points_on(curve, P):
            for i in (1, 2, 3):
                s = theta(curve, i, Q).representative
                bound = divisibility_bound(curve, i)
                assert s.divides(bound) or (-s).divides(bound), (curve, Q, i)


def test_in_double_detects_doubles():
    rng = random.Random(58)
    found_nontrivial = 0
    for _ in range(20):
        curve, P = random_split_curve_with_point(rng)
        twoP = curve.scalar_mul(2, P)
        assert in_double(curve, twoP)
        if not in_double(curve, P):
            found_nontrivial += 1
    assert found_nontrivial > 0  # the sampler does produce non-doubles


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
        assert image.x.is_square()  # y^2/x^2 by construction
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
