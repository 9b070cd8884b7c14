"""Curve.two_torsion over Q(t) against sympy's factorization in Z[t][x],
used here only as an oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ellspec.curves import Curve, SingularCurveError
from ellspec.intpoly import IntPoly
from ellspec.ratfunc import RatFunc

sympy = pytest.importorskip("sympy")

_t, _x = sympy.symbols("t x")


def _expr(p: IntPoly):
    return sum(c * _t**i for i, c in enumerate(p.coeffs))


def sympy_roots(A: IntPoly, B: IntPoly, C: IntPoly) -> set[IntPoly]:
    """Roots r(t) from the factors of x^3 + A x^2 + B x + C that are linear in x."""
    cubic = _x**3 + _expr(A) * _x**2 + _expr(B) * _x + _expr(C)
    roots = set()
    for factor, _ in sympy.factor_list(cubic, _x, _t)[1]:
        linear = sympy.Poly(factor, _x)
        if linear.degree() == 1:
            lead, tail = linear.all_coeffs()
            root = sympy.Poly(sympy.expand(-tail / lead), _t, domain="ZZ")
            roots.add(IntPoly(int(c) for c in reversed(root.all_coeffs())))
    return roots


def polys(max_degree: int, max_bits: int):
    coeff = st.integers(1, max_bits).flatmap(lambda k: st.integers(-(2**k), 2**k))
    return st.builds(IntPoly, st.lists(coeff, max_size=max_degree + 1))


small = polys(3, 40)


@st.composite
def cubics(draw):
    """(A, B, C) of (x - r)(x^2 + p x + q): general, split or with C = 0."""
    kind = draw(st.sampled_from(["general", "split", "C=0", "split, C=0"]))
    r = IntPoly() if "C=0" in kind else draw(small)
    if "split" in kind:
        s, u = draw(small), draw(small)
        p, q = -(s + u), s * u
    else:
        p, q = draw(small), draw(small)
    return p - r, q - r * p, -(r * q)


@settings(max_examples=80, deadline=None)
@given(cubics())
@example((IntPoly([0, 0, 1]), IntPoly([-1]), IntPoly()))  # x^3 + t^2 x^2 - x
@example((IntPoly(), IntPoly([0, 0, 1]), IntPoly()))  # x(x^2 + t^2): B a square, no split
@example((IntPoly(), IntPoly([2**40]), IntPoly([0, 2**40 + 1])))  # constant B, linear C
# x(x^2 - t) evaluated at N = 9 has the integer roots 0 and +-3, but the
# constant 3 is not a root in Z[t]: substitution must reject it
@example((IntPoly(), IntPoly([0, -1]), IntPoly()))
def test_two_torsion_matches_sympy(abc):
    A, B, C = abc
    try:
        curve = Curve(RatFunc(A), RatFunc(B), RatFunc(C))
    except SingularCurveError:
        assume(False)
    found = [P.x.as_poly() for P in curve.two_torsion() if not P.is_infinity]
    assert len(found) == len(set(found))
    assert set(found) == sympy_roots(A, B, C)


def _ratfunc_expr(f: RatFunc):
    return _expr(f.num) / _expr(f.den)


def _qq_poly(p) -> RatFunc:
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(p, _t, domain="QQ").all_coeffs())]
    scale = math.lcm(*(c.denominator for c in coeffs))
    return RatFunc(IntPoly(int(c * scale) for c in coeffs), scale)


def _ratfunc(expr) -> RatFunc:
    num, den = sympy.fraction(sympy.cancel(expr))
    return _qq_poly(num) / _qq_poly(den)


def sympy_ratfunc_roots(A: RatFunc, B: RatFunc, C: RatFunc) -> set[RatFunc]:
    """Roots in Q(t) from the factors linear in x of the cubic with its
    denominators cleared."""
    cubic = _x**3 + _ratfunc_expr(A) * _x**2 + _ratfunc_expr(B) * _x + _ratfunc_expr(C)
    numerator = sympy.numer(sympy.together(cubic))
    roots = set()
    for factor, _ in sympy.factor_list(numerator, _x, _t)[1]:
        linear = sympy.Poly(factor, _x)
        if linear.degree() == 1:
            lead, tail = linear.all_coeffs()
            roots.add(_ratfunc(-tail / lead))
    return roots


denominators = st.one_of(
    st.integers(1, 12).map(IntPoly.const),
    st.sampled_from([IntPoly([0, 1]), IntPoly([1, 1]), IntPoly([-2, 0, 3])]),
)
fractions = st.builds(RatFunc, polys(2, 20), denominators)


@st.composite
def rational_cubics(draw):
    """(A, B, C) of (x - r)(x^2 + p x + q) with r, p, q in Q(t)."""
    kind = draw(st.sampled_from(["general", "split", "C=0"]))
    r = RatFunc(0) if kind == "C=0" else draw(fractions)
    if kind == "split":
        s, u = draw(fractions), draw(fractions)
        p, q = -(s + u), s * u
    else:
        p, q = draw(fractions), draw(fractions)
    return p - r, q - r * p, -(r * q)


@settings(max_examples=60, deadline=None)
@given(rational_cubics())
# x(x + t)(x - t/2), whose coefficients have the denominator 2
@example((RatFunc(IntPoly([0, 1]), 2), RatFunc(IntPoly([0, 0, -1]), 2), RatFunc(0)))
def test_two_torsion_with_rational_coefficients_matches_sympy(abc):
    try:
        curve = Curve(*abc)
    except SingularCurveError:
        assume(False)
    found = [P.x for P in curve.two_torsion() if not P.is_infinity]
    assert len(found) == len(set(found))
    assert set(found) == sympy_ratfunc_roots(*abc)
