"""RatFunc arithmetic against sympy's cancel in Q(t), used here only as an
oracle, and the canonical form of every result: numerator and denominator
coprime in Z[t], the denominator's leading coefficient positive.  The
trusted constructor RatFunc._reduced, which fixes only the sign, is
reached only with coprime parts."""

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


# zero numerators and denominators +-1 reach both branches of the
# constructor: n/1 is stored as it is, anything else is reduced
nums = st.one_of(st.just(IntPoly()), polys(5, 40))
dens = st.one_of(st.sampled_from([IntPoly.const(1), IntPoly.const(-1)]), polys(5, 40).filter(bool))
# a factor shared by numerator and denominator gives the reduction work
common = st.one_of(st.just(IntPoly.const(1)), polys(3, 8).filter(bool))
ratfuncs = st.builds(lambda n, d, g: RatFunc(n * g, d * g), nums, dens, common)


def assert_canonical_and_equal(h: RatFunc, expected) -> None:
    """h equals sympy's cancelled expected, with coprime parts and lc(den) > 0."""
    p, q = sympy.fraction(sympy.cancel(expected))
    num, den = to_sympy(h.num), to_sympy(h.den)
    assert sympy.expand(num * q - den * p) == 0
    assert sympy.gcd(num, den) == 1 and h.den.lc > 0


@settings(max_examples=150, deadline=None)
@given(nums, dens, common)
@example(IntPoly(), IntPoly([1, -3]), IntPoly([1]))  # 0/d is 0/1
@example(IntPoly([0, 2, -1]), IntPoly([-1]), IntPoly([1]))  # n/-1 is -n/1
def test_construction_matches_sympy_cancel(n, d, g):
    assert_canonical_and_equal(RatFunc(n * g, d * g), to_sympy(n * g) / to_sympy(d * g))


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
    assert_canonical_and_equal(
        _OPS[op](f, g),
        _OPS[op](to_sympy(f.num) / to_sympy(f.den), to_sympy(g.num) / to_sympy(g.den)),
    )


@settings(max_examples=150, deadline=None)
@given(ratfuncs, ratfuncs, st.sampled_from(sorted(_OPS)))
@example(RatFunc(1, IntPoly([1, 1])), RatFunc(1, IntPoly([-1, 1])), "+")  # gcd(b, d) = 1
@example(RatFunc(1, IntPoly([-1, 0, 1])), RatFunc(IntPoly([0, 1]), IntPoly([-1, 0, 1])), "+")  # gcd(t, d1) = t + 1
@example(RatFunc(IntPoly([0, 1]), IntPoly([1, 1])), RatFunc(IntPoly([1, 1]), IntPoly([0, 1])), "*")
@example(RatFunc(IntPoly([0, 3])), RatFunc(IntPoly([0, -6])), "/")
def test_the_trusted_constructor_sees_only_coprime_parts(f, g, op):
    if op == "/" and g.is_zero:
        return
    seen = []
    trusted = RatFunc._reduced.__func__

    def checked(cls, n, d):
        seen.append((n, d))
        assert sympy.gcd(to_sympy(n), to_sympy(d)) == 1
        return trusted(cls, n, d)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RatFunc, "_reduced", classmethod(checked))
        h = _OPS[op](f, g)
    assert seen
    assert_canonical_and_equal(
        h, _OPS[op](to_sympy(f.num) / to_sympy(f.den), to_sympy(g.num) / to_sympy(g.den))
    )
