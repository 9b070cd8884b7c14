"""The square kernel against sympy, used here only as an oracle.

squarefree_decompose is compared with sympy's sqf_list.  The scriptA
criterion, which needs exactly one rational 2-torsion point, is checked
to refuse a C = 0 curve exactly when A^2 - 4B is a square, read off
sympy's factor_list, a full factorization, so the oracle shares no code
with the program.  Inputs plant squares f^2 * c next to random
polynomials, with zero, constants, negative leading coefficients and
contents up to 2^64, and split quadratics x^2 + Ax + B next to sample
C = 0 curves.
"""

import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ellspec.conditions import Checker
from ellspec.curves import Curve, SingularCurveError
from ellspec.intpoly import IntPoly, squarefree_decompose
from samples import sample_curve

sympy = pytest.importorskip("sympy")

_t = sympy.Symbol("t")
T = IntPoly.monomial(1, 1)


def _sympy_poly(p: IntPoly):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], _t, domain="ZZ")


def _from_sympy(g) -> IntPoly:
    return IntPoly(int(c) for c in reversed(g.all_coeffs()))


def _sympy_is_square(p: IntPoly) -> bool:
    """p is a square in Z[t]: a square integer coefficient and even
    exponents in sympy's irreducible factorization."""
    if p.is_zero:
        return True
    coeff, factors = _sympy_poly(p).factor_list()
    return _is_square_int(int(coeff)) and all(e % 2 == 0 for _, e in factors)


def _is_square_int(n: int) -> bool:
    return n >= 0 and sympy.integer_nthroot(n, 2)[1]


small = st.lists(st.integers(-20, 20), max_size=5).map(IntPoly)
nonzero_small = small.filter(bool)
contents = st.one_of(
    st.integers(-50, 50),
    st.sampled_from([2**64, 2**64 - 1, -(2**64), 3**40, 9 * 4**31, (2**32 - 5) ** 2]),
)
squares = st.builds(lambda c, f: c * f * f, contents, small)
cofactors = st.one_of(st.just(IntPoly.const(1)), st.just(IntPoly.const(-1)), nonzero_small)
polys = st.one_of(small, squares, st.builds(lambda s, g: s * g, squares, cofactors))


@settings(deadline=None)
@given(polys)
@example(IntPoly())
@example(IntPoly.const(2**64))
@example(IntPoly.const(-4))
@example(-((T + 1) ** 2))
@example(2 * (T - 3) ** 4)
def test_squarefree_decompose_matches_sqf_list(p):
    if p.is_zero:
        with pytest.raises(ValueError):
            squarefree_decompose(p)
        return
    unit, content, parts = squarefree_decompose(p)
    coeff, sqf = _sympy_poly(p).sqf_list()
    assert unit * content == int(coeff) and content > 0
    assert sorted((str(d), m) for d, m in parts) == sorted(
        (str(_from_sympy(g)), m) for g, m in sqf
    )


SPLIT_MESSAGE = "A^2 - 4B is a square in Z[t]: the cubic splits; use condition A"


@st.composite
def c0_models(draw):
    """(A, B) of a sample C = 0 curve, or of x(x - r1)(x - r2) with r1, r2
    in Z[t], whose cubic splits unless the model is singular."""
    if draw(st.booleans()):
        A, B, _ = sample_curve("C=0", random.Random(draw(st.integers(0, 10**6)))).coeff_polys()
        return A, B
    r1, r2 = draw(small), draw(small)
    return -(r1 + r2), r1 * r2


@settings(deadline=None)
@given(c0_models())
@example((IntPoly(), -(T**2)))  # roots +-t
@example((3 * T, 2 * T**2))  # roots -t, -2t
@example((IntPoly(), -2 * T**2))  # A^2 - 4B = 8t^2, twice a square
@example((IntPoly(), (T + 1) ** 2))  # A^2 - 4B = -4(t+1)^2, negative leading coefficient
@example((-(T + 2**32), 2**32 * T))  # roots t and 2^32
def test_script_a_refuses_exactly_the_curves_whose_cubic_splits(AB):
    A, B = AB
    try:
        curve = Curve(A, B, IntPoly())
    except SingularCurveError:
        assume(False)
    if _sympy_is_square(A * A - 4 * B):
        with pytest.raises(ValueError) as refused:
            Checker(curve, "scriptA")
        assert str(refused.value) == SPLIT_MESSAGE
    else:
        assert Checker(curve, "scriptA").condition == "scriptA"
