"""RatFunc arithmetic against sympy's cancel in Q(t), used here only as an
oracle, and the canonical form of every result: numerator and denominator
coprime in Z[t], the denominator's leading coefficient positive."""

import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from ellspec.intpoly import IntPoly
from ellspec.ratfunc import RatFunc

sympy = pytest.importorskip("sympy")

_t = sympy.Symbol("t")

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def to_sympy(p: IntPoly):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], _t, domain="ZZ").as_expr()


def polys(max_degree: int, max_bits: int):
    coeff = st.integers(1, max_bits).flatmap(lambda k: st.integers(-(2**k), 2**k))
    return st.builds(IntPoly, st.lists(coeff, max_size=max_degree + 1))


nonzero = polys(5, 40).filter(bool)
# a factor shared by numerator and denominator gives the reduction work
common = polys(3, 8).filter(bool)
ratfuncs = st.builds(lambda n, d, g: RatFunc(n * g, d * g), polys(5, 40), nonzero, common)


@settings(max_examples=150, deadline=None)
@given(ratfuncs, ratfuncs, st.sampled_from(sorted(_OPS)))
@example(RatFunc(IntPoly([1, 1]), IntPoly([-1, 1])), RatFunc(IntPoly([1, 1]), IntPoly([-1, 1])), "-")
@example(RatFunc(IntPoly([2, 2])), RatFunc(IntPoly([0, -4])), "/")  # content and sign move
@example(RatFunc(IntPoly([1, 0, 1]), 3), RatFunc(0), "/")  # division by zero
def test_field_operations_match_sympy_cancel(f, g, op):
    if op == "/" and g.is_zero:
        with pytest.raises(ZeroDivisionError):
            f / g
        return
    h = _OPS[op](f, g)
    expected = sympy.cancel(
        _OPS[op](to_sympy(f.num) / to_sympy(f.den), to_sympy(g.num) / to_sympy(g.den))
    )
    p, q = sympy.fraction(expected)
    num, den = to_sympy(h.num), to_sympy(h.den)
    assert sympy.expand(num * q - den * p) == 0
    assert sympy.gcd(num, den) == 1 and h.den.lc > 0
