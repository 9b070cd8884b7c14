"""The square kernel against sympy, used here only as an oracle.

squarefree_decompose is compared with sympy's sqf_list.  poly_sqrt is
compared with squareness read off sympy's factor_list, a full
factorization, so the oracle does not share the Yun decomposition under
test.  Inputs plant squares f^2 * c next to random polynomials, with
zero, constants, negative leading coefficients and contents up to 2^64.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from ellspec.intpoly import IntPoly, poly_sqrt, squarefree_decompose

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


@settings(deadline=None)
@given(polys)
@example(IntPoly())
@example(IntPoly.const(2**64))
@example(IntPoly.const(2**64 - 1))
@example(IntPoly.const(-1))
@example(-((T + 1) ** 2))
@example(2 * (T - 3) ** 2)
@example(9 * (2 * T + 1) ** 2 * (T - 1) ** 4)
def test_poly_sqrt_finds_a_root_exactly_for_squares(p):
    root = poly_sqrt(p)
    assert (root is not None) == _sympy_is_square(p)
    if root is not None:
        assert root * root == p
        assert root.is_zero or root.lc > 0
