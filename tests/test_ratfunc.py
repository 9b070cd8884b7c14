import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ellspec.intpoly import IntPoly, _gcd_cofactors, poly_gcd
from ellspec.ratfunc import RatFunc

T = IntPoly.monomial(1, 1)
t = RatFunc(T)

small_polys = st.builds(IntPoly, st.lists(st.integers(-5, 5), max_size=4))
nonzero = small_polys.filter(lambda p: not p.is_zero)
ratfuncs = st.builds(RatFunc, small_polys, nonzero)
nonzero_ratfuncs = ratfuncs.filter(lambda f: not f.is_zero)


def test_canonical_form():
    f = RatFunc(T**2 - 1, T - 1)
    assert f.num == T + 1 and f.den == IntPoly.const(1)
    g = RatFunc(T, -2 * T)  # denominator lc made positive
    assert g.num == IntPoly.const(-1) and g.den == IntPoly.const(2)
    assert RatFunc(2 * T + 2, 4) == RatFunc(T + 1, 2)


def test_construction_multiplies_only_inside_the_gcd(monkeypatch):
    """RatFunc(n, d) makes as many IntPoly products as poly_gcd(n, d)."""
    n = (T + 1) * (T**2 - 3) * (2 * T - 5)
    d = (T + 1) * (T**3 + T + 7)
    calls = []
    mul = IntPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(IntPoly, "__mul__", counted)
    monkeypatch.setattr(IntPoly, "__rmul__", counted)
    poly_gcd(n, d)
    in_gcd = len(calls)
    calls.clear()
    RatFunc(n, d)
    assert len(calls) == in_gcd


def test_a_running_sum_takes_no_gcd_of_two_large_parts(monkeypatch):
    """1/(t+1) + ... + 1/(t+50): Henrici's sums take gcds of a denominator
    with a linear one, never of the two growing parts."""
    calls = []
    monkeypatch.setattr("ellspec.ratfunc._gcd_cofactors", lambda a, b: calls.append((a, b)) or _gcd_cofactors(a, b))
    total = RatFunc(0)
    for i in range(1, 51):
        total = total + 1 / (t + i)
    assert total.den.degree == 50 and total.num.degree == 49
    assert calls and all(min(a.degree, b.degree) < 2 for a, b in calls)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(T, IntPoly())


def test_coercion():
    for value in (Fraction(3, 4), t):
        with pytest.raises(TypeError):
            RatFunc(value)  # the constructor takes Z[t] parts only
    assert RatFunc._coerce(Fraction(3, 4)) == RatFunc(3, 4)
    assert Fraction(3, 4) + RatFunc(0) == RatFunc(3, 4)
    assert t + 1 == RatFunc(T + 1)
    assert 1 - t == RatFunc(1 - T)
    assert Fraction(1, 2) * t == RatFunc(T, 2)
    assert 6 / (t + 1) == RatFunc(IntPoly.const(6), T + 1)


@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_axioms_spot(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f - f == RatFunc(0)


@given(nonzero_ratfuncs)
def test_multiplicative_inverse(f):
    assert f * (1 / f) == RatFunc(1)


def test_evaluation_and_poles():
    f = RatFunc(T + 1, T - 2)
    assert f(Fraction(3)) == 4
    assert f(2) is None  # pole
    g = RatFunc(T**2 - 4, T - 2)  # reduces to t + 2, no pole at 2
    assert g(2) == 4


def test_as_poly_and_as_fraction():
    assert RatFunc(6, 4).as_fraction() == Fraction(3, 2)
    with pytest.raises(ValueError):
        t.as_fraction()


def test_constants():
    assert RatFunc(5, 3).is_constant
    assert not RatFunc(T, 3).is_constant
    assert RatFunc(0).is_zero


def test_a_fraction_over_one_takes_no_gcd(monkeypatch):
    calls = []
    monkeypatch.setattr("ellspec.ratfunc._gcd_cofactors", lambda a, b: calls.append((a, b)) or _gcd_cofactors(a, b))
    p = 3 * T**2 - 6 * T + 9
    for f in (RatFunc(p), RatFunc(p, 1), RatFunc._coerce(p)):
        assert (f.num, f.den) == (p, IntPoly.const(1))
    assert RatFunc._coerce(5).num == 5
    assert calls == []


@pytest.mark.parametrize(
    "num, den, expected",
    [
        (T**2 - 2, -1, (2 - T**2, 1)),
        (0, 1 - 3 * T, (0, 1)),
        (0, 1, (0, 1)),
        (0, -7, (0, 1)),
    ],
)
def test_every_other_fraction_reduces_to_the_canonical_form(num, den, expected):
    f = RatFunc(num, den)
    assert (f.num, f.den) == tuple(map(IntPoly.coerce, expected))


def test_a_sum_and_a_product_over_a_common_factor_divide_only_inside_gcdheu(monkeypatch):
    """Henrici's sum and product take the cofactors of their gcds, so the
    only divisions are GCDHEU's trial divisions of its candidate."""
    q = T**2 + T + 5
    f = RatFunc(T**3 + 2, q * (T**2 - 3))
    g = RatFunc(T**2 + 7, q * (T**2 + 2))  # gcd(b, d) = q
    h = RatFunc(q * (T**2 + 9), T**3 + 5)  # gcd(c, b) = q
    total = RatFunc((T**3 + 2) * (T**2 + 2) + (T**2 + 7) * (T**2 - 3), q * (T**2 - 3) * (T**2 + 2))
    product = RatFunc((T**3 + 2) * (T**2 + 9), (T**2 - 3) * (T**3 + 5))
    # u + v = 2q, so the sum's numerator shares q with gcd(b, d) = q again
    u, v = T**2 - 3, T**2 + 2 * T + 13
    parts, cancelled = (RatFunc(1, q * u), RatFunc(1, q * v)), RatFunc(2, u * v)
    callers = []
    divmod_exact = IntPoly.divmod_exact

    def recorded(self, d):
        callers.append(sys._getframe(1).f_code.co_name)
        return divmod_exact(self, d)

    monkeypatch.setattr(IntPoly, "divmod_exact", recorded)
    assert f + g == total
    assert parts[0] + parts[1] == cancelled
    assert f * h == product
    assert callers and set(callers) == {"_heu_gcd"}
