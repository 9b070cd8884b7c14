"""The exact rational-root test for cubics against sympy's factorization
over Q, used here only as an oracle, and against rational_roots."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ellspec.curves import _int_cubic_roots, _q_cubic_roots
from ellspec.factorize import rational_roots
from ellspec.intpoly import IntPoly

sympy = pytest.importorskip("sympy")

_y = sympy.Symbol("y")


def sympy_roots(A, B, C) -> list[Fraction]:
    """Rational roots, ascending, from the linear factors of y^3 + A y^2 + B y + C."""
    coeffs = [sympy.Rational(Fraction(f).numerator, Fraction(f).denominator) for f in (1, A, B, C)]
    roots = []
    for factor, _ in sympy.Poly(coeffs, _y, domain="QQ").factor_list()[1]:
        if factor.degree() == 1:
            lead, tail = factor.all_coeffs()
            root = sympy.Rational(-tail, lead)
            roots.append(Fraction(int(root.p), int(root.q)))
    return sorted(roots)


def zassenhaus_roots(A, B, C) -> list[Fraction]:
    """rational_roots of the cubic with its denominators cleared."""
    A, B, C = Fraction(A), Fraction(B), Fraction(C)
    d = math.lcm(A.denominator, B.denominator, C.denominator)
    return rational_roots(IntPoly([int(C * d), int(B * d), int(A * d), d]))


def expand(r1, r2, r3):
    """(a, b, c) of (y - r1)(y - r2)(y - r3)."""
    return -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -(r1 * r2 * r3)


def ints(max_bits: int):
    return st.integers(1, max_bits).flatmap(lambda k: st.integers(-(2**k), 2**k))


@st.composite
def planted(draw, root, coeff):
    """A cubic with a planted root: three roots (distinct, double or
    triple), or one root times a random quadratic, optionally with c = 0."""
    kind = draw(st.sampled_from(["distinct", "double", "triple", "quadratic"]))
    r1 = draw(st.one_of(st.just(0), root))
    if kind == "quadratic":
        p, q = draw(coeff), draw(coeff)
        return -r1 + p, q - r1 * p, -r1 * q
    r2 = r1 if kind in ("double", "triple") else draw(root)
    r3 = r1 if kind == "triple" else draw(root)
    return expand(r1, r2, r3)


# (a, b, c) up to 2^200: planted roots of up to 66 bits, or random
# coefficients, which rarely have a root, or c = 0
int_cubics = st.one_of(
    planted(ints(66), ints(66)),
    st.tuples(ints(200), ints(200), ints(200)),
    st.tuples(ints(200), ints(200), st.just(0)),
)


@settings(max_examples=300, deadline=None)
@given(int_cubics)
# (y - k)^2 (y + 2k) = y^3 - 3k^2 y + 2k^3: the double root k is a critical
# point, on the boundary between two monotone pieces
@example((0, -3, 2))
@example((0, -3 * 5**2, -2 * 5**3))
@example((0, -3 * 2**120, 2 * 2**180))
# a^2 = 3b: one critical point; (y + 1)^3 + 8 has the root -3 and
# (y + 1)^3 the triple root -1
@example((3, 3, 9))
@example((3, 3, 1))
@example((0, 0, 0))  # y^3
@example((1, 1, 1))  # a^2 < 3b: monotone everywhere, root -1
@example((-6, 11, -6))  # roots 1, 2, 3 between and beside the critical points
# (y - 25)(y + 5)^2: the root 25 lies between 2^K = 16 and the bound M = 2^(K+1)
@example((-15, -225, -625))
def test_int_cubic_roots_match_sympy(abc):
    a, b, c = abc
    roots = _int_cubic_roots(a, b, c)
    assert all(isinstance(y, int) for y in roots)
    assert [Fraction(y) for y in roots] == sympy_roots(a, b, c) == zassenhaus_roots(a, b, c)


@st.composite
def fractions(draw, numerators):
    return Fraction(draw(numerators), draw(st.integers(1, 12)))


# (A, B, C) with denominators up to 12: planted rational roots, or random
rat_cubics = st.one_of(
    planted(fractions(ints(40)), fractions(ints(40))),
    st.tuples(fractions(ints(60)), fractions(ints(60)), fractions(ints(60))),
)


@settings(max_examples=200, deadline=None)
@given(rat_cubics)
@example((Fraction(0), Fraction(-3, 4), Fraction(-1, 4)))  # (y - 1)(y + 1/2)^2
@example((Fraction(1, 2), Fraction(1, 12), Fraction(1, 216)))  # (y + 1/6)^3
@example((Fraction(7, 12), Fraction(0), Fraction(0)))  # y^2 (y + 7/12)
def test_q_cubic_roots_match_sympy(ABC):
    A, B, C = ABC
    assert _q_cubic_roots(A, B, C) == sympy_roots(A, B, C) == zassenhaus_roots(A, B, C)
