"""poly_gcd and its cofactors against sympy's gcd in Z[t], used here only
as an oracle."""

from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from ellspec import intpoly
from ellspec.intpoly import IntPoly, poly_gcd

sympy = pytest.importorskip("sympy")

_t = sympy.Symbol("t")


def sympy_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    pa = sympy.Poly(list(reversed(a.coeffs)) or [0], _t, domain="ZZ")
    pb = sympy.Poly(list(reversed(b.coeffs)) or [0], _t, domain="ZZ")
    return IntPoly(int(c) for c in reversed(pa.gcd(pb).all_coeffs()))


def assert_gcd_and_cofactors(f: IntPoly, h: IntPoly) -> None:
    """poly_gcd(f, h) is sympy's gcd, and so is the g of _gcd_cofactors,
    whose cofactors times g give f and h back."""
    assert poly_gcd(f, h) == sympy_gcd(f, h)
    g, qf, qh = intpoly._gcd_cofactors(f, h)
    assert g == sympy_gcd(f, h)
    assert (g * qf, g * qh) == (f, h)


def polys(max_degree: int, max_bits: int):
    coeff = st.integers(1, max_bits).flatmap(lambda k: st.integers(-(2**k), 2**k))
    return st.builds(IntPoly, st.lists(coeff, max_size=max_degree + 1))


# Products g*a, g*b of degree up to 60 with coefficients up to 2^200.
common = polys(30, 200)
cofactor = polys(30, 64)
scale = st.sampled_from([1, -1, 2, -6, 3 * 2**70])


@settings(max_examples=150, deadline=None)
@given(common, cofactor, cofactor, scale, scale)
@example(IntPoly([1, 1]), IntPoly([-31, 1]), IntPoly([1]), 1, 1)  # first xi is a root
# xi = 31 and gcd(31^2 + 31, 31 + 1) = 32 rebuilds t + 1, which divides
# only the second input: the trial division must reject it
@example(IntPoly([1]), IntPoly([31, 0, 1]), IntPoly([1, 1]), 1, 1)
@example(IntPoly([5]), IntPoly([1, 2]), IntPoly([3]), 1, -1)  # constant g*b
@example(IntPoly([3 * 2**199]), IntPoly([-(2**64)]), IntPoly([5]), 1, -6)  # both constant
@example(IntPoly([1, 0, 1]), IntPoly([0, -1]), IntPoly([2]), -4, 6)  # negative leading
# the two cases above with no linear input, so that GCDHEU, not the linear
# shortcut, meets them: xi = 31 is a root of the first input, and then
# gcd(31^2 + 31, 32 * 962) = 32 rebuilds t + 1, which divides only the second
@example(IntPoly([1, 0, 1]), IntPoly([-31, 1]), IntPoly([1]), 1, 1)
@example(IntPoly([1]), IntPoly([31, 0, 1]), IntPoly([1, 1, 1, 1]), 1, 1)
def test_gcd_matches_sympy(g, a, b, sa, sb):
    f = sa * g * a
    h = sb * g * b
    assert_gcd_and_cofactors(f, h)


@settings(max_examples=150, deadline=None)
@given(st.integers(-60, 60).filter(bool), st.integers(-60, 60), polys(20, 64), st.booleans(), scale,
       st.booleans())
@example(6, 4, IntPoly([2, 3]), False, 1, False)  # 6t + 4 and 3t + 2: content 2
@example(-1, 5, IntPoly([0, 0, 1]), True, -6, True)  # t^2 (5 - t) and 6(t - 5)
@example(3, 0, IntPoly([1, 0, 1]), False, 1, False)  # 3t: a root at 0 only
def test_gcd_with_a_linear_argument_matches_sympy(a, b, q, root, s, swap):
    """a*t + b against a random q, or against (a*t + b) q when root: the
    linear shortcut meets roots and non-roots, of either argument."""
    linear = IntPoly([b, a])
    f, h = s * linear, linear * q if root else q
    if swap:
        f, h = h, f
    assert_gcd_and_cofactors(f, h)


def test_a_linear_argument_takes_no_trial_division(monkeypatch):
    T = IntPoly.monomial(1, 1)
    b = IntPoly.const(1)
    for k in range(1, 51):
        b *= T + k
    calls = []
    divmod_exact = IntPoly.divmod_exact
    monkeypatch.setattr(IntPoly, "divmod_exact", lambda self, d: calls.append(d) or divmod_exact(self, d))
    assert poly_gcd(b, T + 7) == T + 7
    assert poly_gcd(-2 * T - 14, 3 * b) == T + 7
    assert poly_gcd(b, T + 51) == 1
    assert poly_gcd(2 * T + 1, b) == 1
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(common, cofactor, cofactor, scale, scale)
def test_prs_gcd_matches_sympy(g, a, b, sa, sb):
    f = sa * g * a
    h = sb * g * b
    with patch.object(intpoly, "_HEU_GCD_ROUNDS", 0):
        assert_gcd_and_cofactors(f, h)


@pytest.mark.parametrize(
    "f, h",
    [
        (IntPoly([6, 6]), IntPoly([4, 4])),  # content-only difference
        (IntPoly([-12]), IntPoly([0, 0, 18])),
        (IntPoly(), IntPoly([-3, 0, -9])),
        (IntPoly([0, -2]), IntPoly()),
        (IntPoly(), IntPoly()),
    ],
)
def test_content_and_zero_cases_match_sympy(f, h):
    assert_gcd_and_cofactors(f, h)


def test_prs_fallback_gives_identical_result(monkeypatch):
    T = IntPoly.monomial(1, 1)
    g = 3 * (T**7 - 5 * T**3 + 2**90) * (T**2 + T + 1)
    f = g * (2 * T**5 + 7)
    h = -g * (T**4 - 3 * T + 11) * 10
    heuristic = poly_gcd(f, h)

    prs_calls = []
    prs = intpoly._prs_gcd
    monkeypatch.setattr(intpoly, "_HEU_GCD_ROUNDS", 0)
    monkeypatch.setattr(intpoly, "_prs_gcd", lambda a, b: prs_calls.append(1) or prs(a, b))
    assert poly_gcd(f, h) == heuristic == sympy_gcd(f, h)
    assert prs_calls == [1]


def test_cofactors_over_a_content_ratio_of_one_take_no_product(monkeypatch):
    """Primitive inputs with a common factor: GCDHEU's quotients are the
    cofactors as they are, and g is h itself, with no product by 1."""
    T = IntPoly.monomial(1, 1)
    g, qf, qh = T**2 + 3 * T - 5, T**3 - 2, 2 * T**2 + 7
    f, h = g * qf, g * qh
    linear, coprime = 3 * T + 1, 5 * T**2 + 2
    calls = []
    mul = IntPoly.__mul__
    counted = lambda self, other: calls.append(other) or mul(self, other)
    monkeypatch.setattr(IntPoly, "__mul__", counted)
    monkeypatch.setattr(IntPoly, "__rmul__", counted)
    assert intpoly._gcd_cofactors(f, h) == (g, qf, qh)
    assert intpoly._gcd_cofactors(linear, coprime) == (1, linear, coprime)
    assert calls == []
