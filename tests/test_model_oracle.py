"""The integral model of a curve over Q(t) against sympy, used here only as
an oracle: for u the lcm of the denominators of A, B and C, coeff_polys is
(u^2A, u^4B, u^6C), discriminant_poly is u^12 times the cubic's
discriminant, and each 2-torsion x is X/u^2 for a root X of the model.
The criteria on the curve write the certificates of the criteria on that
model, written out by hand, byte for byte."""

import random
from fractions import Fraction

import pytest

from ellspec.conditions import Checker, certificate_to_json, check_condition, replay_certificate
from ellspec.curves import Curve, SingularCurveError
from ellspec.intpoly import IntPoly
from ellspec.ratfunc import RatFunc
from test_two_torsion_oracle import sympy_roots

sympy = pytest.importorskip("sympy")

_t, _x = sympy.symbols("t x")
T = IntPoly([0, 1])
# constant and polynomial denominators, with and without content
DENOMINATORS = [IntPoly([d]) for d in (1, 1, 2, 3, 6)] + [
    T, IntPoly([1, 1]), IntPoly([-3, 2]), IntPoly([1, 0, 1]), IntPoly([0, 0, 4]), IntPoly([-2, 0, 3])]
T0S = [Fraction(n, d) for n, d in [(0, 1), (1, 1), (-1, 1), (2, 1), (1, 2), (-3, 1), (3, 2), (-1, 3)]]


def _poly_expr(p: IntPoly):
    return sum(c * _t**i for i, c in enumerate(p.coeffs))


def _expr(f: RatFunc):
    return _poly_expr(f.num) / _poly_expr(f.den)


def _int_poly(expr) -> IntPoly:
    """expr, which must be a polynomial over Z in t, as an IntPoly."""
    poly = sympy.Poly(sympy.cancel(expr), _t)
    assert poly.domain == sympy.ZZ, expr
    return IntPoly(int(c) for c in reversed(poly.all_coeffs()))


def _random_fraction(rng: random.Random) -> RatFunc:
    num = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))])
    return RatFunc(num, rng.choice(DENOMINATORS))


def _random_curves(rng: random.Random, form: str, count: int) -> list[Curve]:
    """count nonsingular curves over Q(t): split, general or C = 0, with at
    least one denominator other than 1 among the coefficients."""
    curves = []
    while len(curves) < count:
        values = [_random_fraction(rng) for _ in range(3)]
        if form == "C=0":
            values[2] = RatFunc(0)
        try:
            curve = Curve.from_roots(*values) if form == "split" else Curve(*values)
        except SingularCurveError:
            continue
        if curve.scale != 1:
            curves.append(curve)
    return curves


def _sympy_model(curve: Curve):
    """(u, (u^2A, u^4B, u^6C), u^12 disc) by sympy, each polynomial an IntPoly."""
    dens = [sympy.Poly(sympy.together(sympy.cancel(_expr(f))).as_numer_denom()[1], _t)
            for f in (curve.A, curve.B, curve.C)]
    u = sympy.lcm(sympy.lcm(dens[0], dens[1]), dens[2]).as_expr()
    u = u if sympy.Poly(u, _t).LC() > 0 else -u
    A, B, C = (_expr(f) for f in (curve.A, curve.B, curve.C))
    model = tuple(_int_poly(u**k * f) for k, f in ((2, A), (4, B), (6, C)))
    disc = sympy.discriminant(_x**3 + A * _x**2 + B * _x + C, _x)
    return _int_poly(u), model, _int_poly(u**12 * disc)


def _scaled_roots(curve: Curve, u: IntPoly) -> tuple[IntPoly, ...]:
    """The roots u^2 e_i of a split curve's integral model, by sympy."""
    return tuple(_int_poly(_poly_expr(u) ** 2 * _expr(e)) for e in curve.split_roots)


def _hand_scaled(curve: Curve, u: IntPoly, model) -> Curve:
    """The integral model as a curve of its own: from the roots u^2 e_i for
    a split curve, else from (u^2A, u^4B, u^6C)."""
    return Curve(*model) if curve.split_roots is None else Curve.from_roots(*_scaled_roots(curve, u))


def _conditions(curve: Curve) -> list[str]:
    if curve.split_roots is not None:
        return ["A", "Aprime", "A1B"]
    return ["A1B", "scriptA"] if curve.C == 0 else ["A1B"]


@pytest.mark.parametrize("form", ["split", "general", "C=0"])
@pytest.mark.parametrize("seed", range(2))
def test_the_integral_model_matches_sympy(form, seed):
    for curve in _random_curves(random.Random(f"model {form} {seed}"), form, 4):
        u, model, disc = _sympy_model(curve)
        assert curve.scale == u
        assert curve.coeff_polys() == model
        assert curve.discriminant_poly() == disc
        xs = [P.x for P in curve.two_torsion() if not P.is_infinity]
        scaled = [u * u * x for x in xs]
        assert all(X.den == 1 for X in scaled)
        assert sorted(X.num.coeffs for X in scaled) == sorted(X.coeffs for X in sympy_roots(*model))
        if curve.split_roots is not None:
            assert curve.split_root_polys() == _scaled_roots(curve, u)
            assert len(xs) == 3


@pytest.mark.parametrize("form", ["split", "general", "C=0"])
def test_a_curve_and_its_hand_scaled_model_write_the_same_certificates(form):
    """At five t0 that are no poles, per criterion; scriptA refuses both
    alike when A^2 - 4B is a square.  At a pole check refuses the t0 and
    passes answers False."""
    for curve in _random_curves(random.Random(f"certificates {form}"), form, 3):
        u, model, _ = _sympy_model(curve)
        integral = _hand_scaled(curve, u, model)
        assert integral.scale == 1 and integral.coeff_polys() == model
        t0s = [t0 for t0 in T0S if u(t0) != 0][:5]
        assert len(t0s) == 5
        for condition in _conditions(curve):
            try:
                checker = Checker(curve, condition)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    Checker(integral, condition)
                continue
            for pole in (t0 for t0 in T0S if u(t0) == 0):
                with pytest.raises(ValueError, match=f"^t0={pole} is a pole of a coefficient of the curve$"):
                    checker.check(pole)
                assert not checker.passes(pole)
            for t0 in t0s:
                cert = certificate_to_json(check_condition(curve, condition, t0))
                assert cert == certificate_to_json(check_condition(integral, condition, t0))
                matches, _ = replay_certificate(cert)
                assert matches


def test_a_pole_of_a_coefficient_is_refused_by_check_and_fails_passes():
    curve = Curve(RatFunc(1, T), RatFunc(1), RatFunc(1))  # A = 1/t
    checker = Checker(curve, "A1B")
    assert checker.model == (T, T**4, T**6)
    with pytest.raises(ValueError, match=r"^t0=0 is a pole of a coefficient of the curve$"):
        checker.check(0)
    assert not checker.passes(0)
    assert checker.check(2).passed and checker.passes(2)
