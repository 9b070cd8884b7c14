import random
from fractions import Fraction

import pytest

from ellspec.curves import Curve, O, Point
from ellspec.intpoly import IntPoly
from ellspec.parsing import parse_curve
from ellspec.ratfunc import RatFunc
from ellspec.specialize import (
    homomorphism_check,
    relation_search,
    specialize_curve,
    specialize_point,
)
from samples import in_field, random_qt_curve_with_points

T = IntPoly.monomial(1, 1)
t = RatFunc(T)


def test_specialize_curve():
    curve = parse_curve("y^2 = x^3 + t^2*x^2 - x")
    spec = specialize_curve(curve, 3)
    assert (spec.A, spec.B, spec.C) == (9, -1, 0)
    assert spec.field == "Q"
    with pytest.raises(ValueError, match="not defined over Q\\(t\\)"):
        specialize_curve(spec, 3)


def test_specialize_curve_rejects_singular_fibers(monkeypatch):
    """The specialized curve decides a singular fibre: the discriminant over
    Q(t), an IntPoly of the integral model, is never evaluated at t0."""
    evaluated = []
    for cls in (RatFunc, IntPoly):
        def recording_call(f, t0, call=cls.__call__):
            evaluated.append(f)
            return call(f, t0)

        monkeypatch.setattr(cls, "__call__", recording_call)
    for curve in (Curve.from_roots(RatFunc(0), t, 2 * t), parse_curve("y^2 = x^3 + t*x")):
        with pytest.raises(ValueError, match="^discriminant vanishes at t0=0: specialization singular$"):
            specialize_curve(curve, 0)
        assert evaluated and not any(f is curve.disc_cubic for f in evaluated)


def test_specialize_point_basics():
    curve = parse_curve("y^2 = x^3 + t^2*x^2 - x")
    P = Point(RatFunc(1), t)
    assert specialize_point(curve, P, 3) == Point(Fraction(1), Fraction(3))
    assert specialize_point(curve, O, 3) == O


def test_pole_maps_to_neutral_element():
    curve = parse_curve("y^2 = x^3 + t^2*x^2 - x")
    twoP = curve.scalar_mul(2, Point(RatFunc(1), t))  # x(2P) = 1/t^2
    assert specialize_point(curve, twoP, 0) == O
    assert specialize_point(curve, twoP, 3) != O


def test_homomorphism_property_on_samples():
    rng = random.Random(77)
    for _ in range(15):
        curve, (P, Q, _) = random_qt_curve_with_points(rng)
        for t0 in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)):
            if not curve.disc_cubic(t0):  # singular fiber or coefficient pole
                continue
            assert homomorphism_check(curve, P, Q, t0)
            # images are marked proven unchecked, so check them here
            target = specialize_curve(curve, t0)
            for T in (P, Q, curve.add(P, Q)):
                image = specialize_point(curve, T, t0)
                assert target.contains(image) and in_field(target, image)


def test_relation_search_finds_obvious_relation():
    curve = Curve(Fraction(0), Fraction(-1), Fraction(1))
    P = Point(Fraction(1), Fraction(1))
    rel = relation_search(curve, [P, curve.neg(P)], 3)
    assert rel == (1, 1)


def test_relation_search_torsion():
    curve = Curve(Fraction(0), Fraction(-1), Fraction(0))
    T2 = Point(Fraction(1), Fraction(0))
    assert relation_search(curve, [T2], 3) == (2,)


def test_relation_search_no_relation_in_box():
    # independent generators of y^2 = x^3 - x + 1 stay unrelated in a tiny box
    curve = Curve(Fraction(0), Fraction(-1), Fraction(1))
    P = Point(Fraction(1), Fraction(1))
    twoP = curve.scalar_mul(2, P)
    assert relation_search(curve, [P], 3) is None
    rel = relation_search(curve, [P, twoP], 3)
    assert rel == (2, -1)


def test_relation_search_without_points_finds_none():
    curve = Curve(Fraction(0), Fraction(-1), Fraction(1))
    assert relation_search(curve, [], 3) is None


def test_relation_search_validates_points():
    curve = Curve(Fraction(0), Fraction(-1), Fraction(1))
    with pytest.raises(ValueError):
        relation_search(curve, [Point(Fraction(5), Fraction(5))], 2)


def test_relation_search_builds_each_table_with_one_chain(monkeypatch):
    # P, 2P, 3P by three additions and their negatives by negation, then
    # one addition onto O for each of the six candidates (1), (-1), ..., (-3)
    curve = Curve(Fraction(0), Fraction(-1), Fraction(1))
    P = curve.point(1, 1)
    calls = []
    add = Curve.add
    monkeypatch.setattr(Curve, "add", lambda self, A, B: calls.append(1) or add(self, A, B))
    assert relation_search(curve, [P], 3) is None
    assert len(calls) == 9
