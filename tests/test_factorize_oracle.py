"""factor against sympy's factor_list in Z[t], used here only as an oracle.

Inputs are built from planted factors: linear ones, quadratics and cubics
(mostly irreducible), repeated factors, large contents, and factors that
two inputs share.  Besides each factorization, the union of two inputs'
distinct content primes and irreducible factors must be those of their
product: the criteria build a target's divisors from its pieces that way.
A few explicit inputs make sure that Hensel lifting splits more than once
and that recombination has modular factors to merge.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ellspec import factorize
from ellspec.factorize import factor
from ellspec.intpoly import IntPoly
from ellspec.mestre import twist_polynomial

sympy = pytest.importorskip("sympy")

_t = sympy.Symbol("t")


def sympy_factor(p: IntPoly) -> tuple[int, dict[int, int], dict[IntPoly, int]]:
    """(unit, content primes, irreducible factors) with each factor's
    leading coefficient made positive."""
    coeff, factors = sympy.Poly(list(reversed(p.coeffs)), _t, domain="ZZ").factor_list()
    unit, polys = (1 if coeff > 0 else -1), {}
    for g, e in factors:
        g = IntPoly(int(c) for c in reversed(g.all_coeffs()))
        if g.lc < 0:
            g, unit = -g, unit * (-1) ** e
        polys[g] = polys.get(g, 0) + e
    return unit, {int(q): e for q, e in sympy.factorint(abs(int(coeff))).items()}, polys


def _coeffs(degree: int):
    return st.tuples(
        st.integers(1, 30), *[st.integers(-40, 40)] * degree
    ).map(lambda c: IntPoly(reversed(c)))


planted = st.tuples(st.one_of(_coeffs(1), _coeffs(2), _coeffs(3)), st.integers(1, 3))
contents = st.one_of(
    st.integers(-(10**12), 10**12).filter(bool),
    st.sampled_from([2**61 - 1, -(3**40), 2**64 * 3 * (10**9 + 7), -(6**25) * 101]),
)


def _build(content: int, factors) -> IntPoly:
    return math.prod((g**e for g, e in factors), start=IntPoly.const(content))


def _checked_factor(p: IntPoly):
    fac = factor(p)
    unit, primes, polys = sympy_factor(p)
    assert fac.unit == unit
    assert dict(fac.content_primes) == primes
    assert dict(fac.poly_factors) == polys
    assert len(polys) == len(fac.poly_factors)
    assert all(g.content() == 1 and g.lc > 0 for g, _ in fac.poly_factors)
    return fac


@settings(max_examples=60, deadline=None)
@given(
    st.lists(planted, max_size=2),
    st.lists(planted, min_size=1, max_size=3),
    st.lists(planted, max_size=3),
    contents,
    contents,
)
@example([], [(IntPoly([1, 0, 0, 0, 1]), 1)], [(IntPoly([2, 0, 1]), 2)], 1, -2)  # t^4 + 1
@example([(IntPoly([1, 1]), 2)], [(IntPoly([-1, 1]), 1)], [(IntPoly([1, 1]), 1)], 6, 6)
@example([], [(IntPoly([1, 2, 1]), 1), (IntPoly([0, 3]), 2)], [], -(2**61 - 1), 1)  # (t+1)^2, 3t
def test_factor_matches_sympy(shared, own_f, own_g, content_f, content_g):
    f = _build(content_f, shared + own_f)
    g = _build(content_g, shared + own_g)
    facs = [_checked_factor(f), _checked_factor(g)]
    product = sympy_factor(f * g)
    assert {q for fac in facs for q, _ in fac.content_primes} == set(product[1])
    assert {h for fac in facs for h, _ in fac.poly_factors} == set(product[2])


_T = IntPoly([0, 1])


@pytest.mark.parametrize(
    "p, lifted_factors",
    [
        ((2 * _T - 1) * (3 * _T + 1) * (5 * _T - 2) * (7 * _T + 3), 4),
        ((3 * _T + 2) * (_T**4 - 10 * _T**2 + 1), 3),
        (twist_polynomial(2, 12), 5),
    ],
    ids=["four non-monic linear factors", "quartic that splits mod every prime", "twist (2,12)"],
)
def test_lifting_and_recombination_match_sympy(monkeypatch, p, lifted_factors):
    """The first lift starts from at least lifted_factors modular factors:
    a Hensel tree of depth >= 2, and in the last two inputs more modular
    factors than factors over Z, so that recombination has to merge some."""
    lift, calls = factorize._hensel_lift, []

    def recording(prime, pl, f, mod_factors):
        calls.append(len(mod_factors))
        return lift(prime, pl, f, mod_factors)

    monkeypatch.setattr(factorize, "_hensel_lift", recording)
    _checked_factor(p)
    assert calls[0] >= lifted_factors
