"""Curve.two_torsion over Q(t) against sympy's factorization in Z[t][x],
used here only as an oracle."""

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
