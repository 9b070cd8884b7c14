import random
import time
from fractions import Fraction

import pytest

from ellspec import ratfunc
from ellspec.curves import Curve, O, OffCurveError, Point, SingularCurveError, _qt_cubic_roots
from ellspec.intpoly import IntPoly, cubic_discriminant
from ellspec.parsing import parse_curve
from ellspec.ratfunc import RatFunc
from samples import (
    in_field,
    random_q_curve_with_points,
    random_qt_curve_with_points,
    random_split_curve_with_point,
)

T = IntPoly.monomial(1, 1)
t = RatFunc(T)


def test_singular_models_rejected():
    with pytest.raises(SingularCurveError):
        Curve(Fraction(0), Fraction(0), Fraction(0))  # y^2 = x^3
    with pytest.raises(SingularCurveError):
        Curve(RatFunc(0), -3 * t * t, 2 * t * t * t)  # (x-t)^2(x+2t)
    with pytest.raises(SingularCurveError):
        Curve(t, 0, 0)  # x^2(x+t): C = 0 forces B != 0


def test_membership_enforced():
    curve = Curve(Fraction(0), Fraction(-1), Fraction(0))  # y^2 = x^3 - x
    assert curve.contains(Point(Fraction(0), Fraction(0)))
    assert curve.contains(O)
    with pytest.raises(OffCurveError):
        curve.add(Point(Fraction(2), Fraction(1)), O)


def count_contains(monkeypatch) -> list:
    """Record every Curve.contains call from now on."""
    calls = []
    contains = Curve.contains
    monkeypatch.setattr(Curve, "contains", lambda self, P: calls.append(P) or contains(self, P))
    return calls


def test_float_coordinates_rejected():
    curve = Curve(Fraction(0), Fraction(-1), Fraction(1))  # y^2 = x^3 - x + 1
    with pytest.raises(TypeError):
        curve.add(Point(1.0, 1.0), Point(1.0, 1.0))
    with pytest.raises(TypeError):
        curve.point(1.0, 1.0)
    with pytest.raises(TypeError):
        curve.point(Fraction(1), 1.0)
    with pytest.raises(TypeError):
        curve.scalar_mul(2, Point(Fraction(1), 1.0))
    with pytest.raises(TypeError):
        curve.point(IntPoly.const(1), Fraction(1))  # Z[t] is not in Q


def test_int_coordinates_enter_q_as_fractions():
    curve = Curve(0, -1, 1)  # y^2 = x^3 - x + 1
    for P, Q in [(curve.point(1, 1), curve.point(0, 1)), (Point(1, 1), Point(0, 1))]:
        S = curve.add(P, Q)
        assert S == Point(Fraction(-1), Fraction(-1))
        # -1.0 == Fraction(-1), so only the type tells a float apart
        assert type(S.x) is Fraction and type(S.y) is Fraction


def test_int_poly_coordinates_enter_q_t_as_ratfuncs():
    curve = Curve(t * t, RatFunc(-1), RatFunc(0))  # y^2 = x^3 + t^2 x^2 - x
    S = curve.add(Point(IntPoly.const(1), T), Point(IntPoly.const(-1), T))
    assert S == curve.add(Point(RatFunc(1), t), Point(RatFunc(-1), t))
    assert S == Point(-t * t, -t) and in_field(curve, S)


def test_point_checks_the_equation_once(monkeypatch):
    curve = Curve(Fraction(0), Fraction(-1), Fraction(1))
    with pytest.raises(OffCurveError):
        curve.point(Fraction(2), Fraction(1))
    calls = count_contains(monkeypatch)
    P = curve.point(1, Fraction(1))  # ints are exact
    assert len(calls) == 1
    curve.add(P, P)
    curve.neg(P)
    curve.scalar_mul(-3, P)
    assert len(calls) == 1


def test_proof_mark_is_invisible():
    curve = Curve(Fraction(0), Fraction(-1), Fraction(1))
    proven = curve.point(Fraction(1), Fraction(1))
    plain = Point(Fraction(1), Fraction(1))
    assert proven == plain and hash(proven) == hash(plain)
    assert (str(proven), repr(proven)) == (str(plain), repr(plain))
    assert curve.add(proven, proven) == curve.add(plain, plain)
    with pytest.raises(TypeError):
        Point(Fraction(1), Fraction(1), curve)  # the mark is not a constructor argument


def test_proof_does_not_carry_to_another_curve(monkeypatch):
    curve = Curve(Fraction(0), Fraction(-1), Fraction(1))  # (1, 1) is on it
    other = Curve(Fraction(0), Fraction(-1), Fraction(2))  # (1, 1) is not
    P = curve.point(Fraction(1), Fraction(1))
    with pytest.raises(OffCurveError):
        other.add(P, P)
    with pytest.raises(OffCurveError):
        other.scalar_mul(2, P)
    # an equal model built again is another curve object: it checks P
    # where P enters, once for a doubling, and trusts its own sum
    same = Curve(Fraction(0), Fraction(-1), Fraction(1))
    calls = count_contains(monkeypatch)
    twoP = same.add(P, P)
    assert len(calls) == 1
    same.add(twoP, twoP)
    assert len(calls) == 1


def test_scalar_mul_checks_an_unproven_point_once(monkeypatch):
    curve = Curve(Fraction(0), Fraction(-1), Fraction(1))
    P = Point(Fraction(1), Fraction(1))
    calls = count_contains(monkeypatch)
    fiveP = curve.scalar_mul(5, P)
    assert calls == [P]
    calls.clear()
    assert curve.contains(fiveP)  # the oracle call is the only one
    assert len(calls) == 1


def test_group_identity_and_inverse():
    curve = Curve(Fraction(0), Fraction(-1), Fraction(1))  # y^2 = x^3 - x + 1
    P = Point(Fraction(1), Fraction(1))
    assert curve.add(P, O) == P
    assert curve.add(O, P) == P
    assert curve.add(P, curve.neg(P)) == O
    assert curve.scalar_mul(0, P) == O
    assert curve.scalar_mul(-3, P) == curve.neg(curve.scalar_mul(3, P))


def test_known_doubling():
    # on y^2 = x^3 + t^2 x^2 - x the double of (1, t) has x = 1/t^2
    curve = Curve(t * t, RatFunc(-1), RatFunc(0))
    P = Point(RatFunc(1), t)
    twoP = curve.scalar_mul(2, P)
    assert twoP.x == RatFunc(IntPoly.const(1), T**2)


def _assert_associative(curve, P, Q, R):
    """(P + Q) + R == P + (Q + R) and P + Q == Q + P, with every sum on the
    curve and in its field: the group law does not re-check its own
    results, so this does."""
    PQ, QR, QP = curve.add(P, Q), curve.add(Q, R), curve.add(Q, P)
    left, right = curve.add(PQ, R), curve.add(P, QR)
    for S in (PQ, QR, QP, left, right):
        assert curve.contains(S) and in_field(curve, S)
    assert left == right
    assert PQ == QP


def test_associativity_over_q():
    rng = random.Random(101)
    for _ in range(100):
        curve, (P, Q, R) = random_q_curve_with_points(rng)
        _assert_associative(curve, P, Q, R)


def test_associativity_over_qt():
    rng = random.Random(202)
    for _ in range(20):
        curve, (P, Q, R) = random_qt_curve_with_points(rng)
        _assert_associative(curve, P, Q, R)


def test_scalar_mul_agrees_with_repeated_addition():
    rng = random.Random(303)
    curve, (P, _, _) = random_q_curve_with_points(rng)
    acc = O
    for m in range(1, 8):
        acc = curve.add(acc, P)
        assert curve.contains(acc) and in_field(curve, acc)
        mP = curve.scalar_mul(m, P)
        assert mP == acc and in_field(curve, mP)


def test_scalar_mul_skips_the_unused_final_doubling(monkeypatch):
    rng = random.Random(304)
    curve, (P, _, _) = random_q_curve_with_points(rng)
    calls = []
    add = Curve.add
    monkeypatch.setattr(Curve, "add", lambda self, A, B: calls.append(1) or add(self, A, B))
    for m in (1, 2, 5, 8, 13):
        calls.clear()
        curve.scalar_mul(m, P)
        # one addition per set bit, one doubling per bit after the first
        assert len(calls) == bin(m).count("1") + m.bit_length() - 1, m


def test_two_torsion_over_q():
    curve = Curve(Fraction(0), Fraction(-1), Fraction(0))  # roots 0, 1, -1
    xs = {P.x for P in curve.two_torsion() if not P.is_infinity}
    assert xs == {0, 1, -1}
    for P in curve.two_torsion():
        assert in_field(curve, P)
        assert curve.add(P, P) == O

    curve2 = Curve(Fraction(0), Fraction(1), Fraction(0))  # x^3 + x: only x = 0
    assert len(curve2.two_torsion()) == 2


def test_two_torsion_over_qt():
    curve = Curve.from_roots(RatFunc(0), t, 7 * t + 1)
    xs = {P.x for P in curve.two_torsion() if not P.is_infinity}
    assert xs == {RatFunc(0), t, 7 * t + 1}
    assert all(in_field(curve, P) for P in curve.two_torsion())

    # x^3 + t^2 x^2 - x: quadratic factor x^2 + t^2 x - 1 has non-square
    # discriminant t^4 + 4, so only (0, 0) survives
    curve2 = Curve(t * t, RatFunc(-1), RatFunc(0))
    assert len(curve2.two_torsion()) == 2


def test_two_torsion_with_denominators():
    curve = parse_curve("y^2 = x^3 + (t/2)*x^2 + (-t^2/2)*x")
    xs = {P.x for P in curve.two_torsion() if not P.is_infinity}
    assert xs == {RatFunc(0), -t, t / 2}

    # x (x - 1/t)(x - t): a polynomial denominator
    curve2 = Curve.from_roots(RatFunc(0), 1 / t, t)
    xs = {P.x for P in curve2.two_torsion() if not P.is_infinity}
    assert xs == {RatFunc(0), 1 / t, t}
    for P in curve2.two_torsion():
        assert in_field(curve2, P)
        assert curve2.add(P, P) == O


def test_two_torsion_over_z_t_takes_no_gcd(monkeypatch):
    """With model denominator 1, the roots and the zero enter Q(t) as n/1."""
    curve = Curve(0, -(T * T), 0)  # x (x - t)(x + t)
    calls = []
    gcd = ratfunc._gcd_cofactors
    monkeypatch.setattr(ratfunc, "_gcd_cofactors", lambda a, b: calls.append((a, b)) or gcd(a, b))
    points = curve.two_torsion()
    assert {P.x for P in points[1:]} == {RatFunc(0), t, -t}
    assert {P.y for P in points[1:]} == {RatFunc(0)}
    assert calls == []


def test_from_roots_expansion():
    rng = random.Random(404)
    for _ in range(10):
        curve, P = random_split_curve_with_point(rng)
        e1, e2, e3 = curve.split_roots
        assert curve.rhs(P.x) == (P.x - e1) * (P.x - e2) * (P.x - e3)


@pytest.mark.parametrize(
    "roots",
    [(RatFunc(0), t, 7 * t + 1), (RatFunc(0), 1 / t, t), (t / 2, (t + 1) / (t - 1), -3 / (t * t + 1))],
    ids=["integral", "one-denominator", "three-denominators"],
)
def test_from_roots_reduces_each_coefficient_once(monkeypatch, roots):
    e1, e2, e3 = roots
    expected = (-(e1 + e2 + e3), e1 * e2 + e1 * e3 + e2 * e3, -(e1 * e2 * e3))
    calls = 0
    init = RatFunc.__init__

    def counting_init(self, *args):
        nonlocal calls
        calls += 1
        init(self, *args)

    monkeypatch.setattr(RatFunc, "__init__", counting_init)
    curve = Curve.from_roots(*roots)
    assert calls <= 4  # A, B, C and the discriminant
    assert (curve.A, curve.B, curve.C) == expected
    assert curve.split_roots == roots


@pytest.mark.parametrize(
    "build",
    [
        lambda: Curve(T + 1, 3 * T, T * T - 2),
        lambda: Curve.from_roots(RatFunc(0), t, 7 * t + 1),
    ],
    ids=["coefficients", "integral roots"],
)
def test_an_integral_model_takes_no_division(monkeypatch, build):
    """Over Z[t] the model is the numerators themselves: nothing is divided
    by a denominator of 1."""
    calls = []
    divmod_exact = IntPoly.divmod_exact
    monkeypatch.setattr(IntPoly, "divmod_exact", lambda self, d: calls.append(d) or divmod_exact(self, d))
    curve = build()
    assert calls == []
    assert curve.coeff_polys() == tuple(f.num for f in (curve.A, curve.B, curve.C))


def _field_discriminant(curve):
    """The cubic's discriminant spelled out in the coefficient field."""
    a, b, c = curve.A, curve.B, curve.C
    return 18 * a * b * c - 4 * a * a * a * c + a * a * b * b - 4 * b * b * b - 27 * c * c


def test_disc_cubic_matches_the_field_formula():
    rng = random.Random(505)
    curves = [random_q_curve_with_points(rng)[0] for _ in range(10)]
    curves += [random_qt_curve_with_points(rng)[0] for _ in range(10)]
    curves += [random_split_curve_with_point(rng)[0] for _ in range(5)]
    curves.append(parse_curve("y^2 = x^3 + (t/2)*x^2 + (-t^2/2)*x"))  # constant denominator
    curves.append(Curve.from_roots(RatFunc(0), 1 / t, t))  # polynomial denominator
    for curve in curves:
        # over Q(t) the discriminant is the integral model's, u^12 times the cubic's
        u12 = curve.scale**12 if curve.field == "Q(t)" else 1
        assert curve.disc_cubic == u12 * _field_discriminant(curve), curve


def _product_scaled(curve):
    """(disc_cubic, 2-torsion x-coordinates) from the model that scales x
    by the product d of the denominators of A, B and C."""
    d = curve.A.den * curve.B.den * curve.C.den
    scaled = [f * d**k for k, f in ((1, curve.A), (2, curve.B), (3, curve.C))]
    assert all(f.den == 1 for f in scaled)
    model = [f.num for f in scaled]
    return RatFunc(cubic_discriminant(*model), d**6), [RatFunc(X, d) for X in _qt_cubic_roots(*model)]


def test_the_lcm_model_agrees_with_the_product_scaled_one():
    rng = random.Random(3131)

    def poly(degree):
        return IntPoly([rng.randint(-3, 3) for _ in range(degree + 1)])

    curves = []
    while len(curves) < 30:
        common = poly(1)
        build = rng.choice([Curve.from_roots, lambda a, b, _: Curve(a, b, 0), Curve])
        try:
            curves.append(build(*(RatFunc(poly(2), common * poly(1)) for _ in range(3))))
        except (ValueError, ZeroDivisionError):  # a zero denominator or a singular model
            continue
    lcm_smaller = 0
    for curve in curves:
        disc, roots = _product_scaled(curve)
        assert curve.disc_cubic == curve.scale**12 * disc, curve
        points = curve.two_torsion()
        assert len(points) == len(roots) + 1
        assert {P.x for P in points[1:]} == set(roots)
        lcm_smaller += curve.scale.degree < (curve.A.den * curve.B.den * curve.C.den).degree
    assert lcm_smaller >= 10


def test_a_curve_over_large_shared_denominators_parses_quickly():
    """A, B and C have denominators of degrees 1000, 1000 and 999.  Their
    lcm u, of degree 1000, scales the model; their product, of degree
    2999, made the discriminant's reduction take seconds.  The model's
    discriminant is u^12 times the cubic's, of degree 4004 - 4000."""
    start = time.perf_counter()
    curve = parse_curve("e=(-t, -t/t^999/(t^2-6), -7)")
    assert time.perf_counter() - start < 0.5
    assert curve.scale.degree == 1000
    X1, X2, X3 = curve.split_root_polys()
    assert curve.disc_cubic == ((X1 - X2) * (X1 - X3) * (X2 - X3)) ** 2
    assert curve.disc_cubic.degree == 12004


def test_a_denominator_keeps_the_z_t_accessors_closed():
    """With a denominator the Z[t] accessors return the integral model for
    u = t: the roots t^2 e_i, (u^2A, u^4B, u^6C) and u^12 times the
    discriminant, all in Z[t]."""
    curve = Curve.from_roots(RatFunc(0), 1 / t, t)
    assert curve.scale == T
    assert curve.split_root_polys() == (IntPoly(), T, T**3)
    assert curve.coeff_polys() == (-(T + T**3), T**4, IntPoly())
    assert curve.discriminant_poly() == (T**12 * _field_discriminant(curve)).num
    assert curve.discriminant_poly() == (T * T**3 * (T**3 - T)) ** 2
    xs = {P.x for P in curve.two_torsion() if not P.is_infinity}
    assert xs == {RatFunc(0), 1 / t, t}

    integral = Curve.from_roots(RatFunc(0), t, 7 * t + 1)
    assert integral.scale == 1
    assert integral.discriminant_poly() == _field_discriminant(integral).num


def test_equal_values_hash_equal():
    pairs = [
        (Curve(0, -1, 1), Curve(RatFunc(0), RatFunc(-1), RatFunc(1))),  # Q and Q(t)
        (Point(Fraction(1), Fraction(1)), Point(RatFunc(1), RatFunc(1))),
        (IntPoly.const(3), 3),
        (IntPoly(), 0),
        (RatFunc(1, 2), Fraction(1, 2)),
        (RatFunc(-4), -4),
        (RatFunc(T), T),
        (RatFunc(T, 2), RatFunc(IntPoly([0, 3]), 6)),
    ]
    assert [a == b for a, b in pairs] == [False] + [True] * 7
    for a, b in pairs:
        assert (a == b) == (len({a, b}) == 1), (a, b)
