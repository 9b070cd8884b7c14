"""factor against sympy's factor_list in Z[t], used here only as an oracle.

Inputs are built from planted factors: linear ones, quadratics and cubics
(mostly irreducible), repeated factors, large contents, and factors that
two inputs share.  Besides each factorization, the union of two inputs'
distinct content primes and irreducible factors must be those of their
product: the criteria build a target's divisors from its pieces that way.
A few explicit inputs make sure that Hensel lifting splits more than once
and that recombination has modular factors to merge.  The Swinnerton-Dyer
polynomials, built here by resultants, split into many modular factors
modulo every prime and so try recombination hardest; the one of degree 64
must end in the subset budget, also through the CLI.
"""

import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from ellspec import factorize
from ellspec.factorize import factor
from ellspec.intmath import FactorBudgetError
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
    assert factor(p) is fac  # a memo hit, equal to factoring afresh
    assert factor.__wrapped__(p) == fac
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


def swinnerton_dyer(k: int) -> IntPoly:
    """Minimal polynomial of sqrt(2) + sqrt(3) + ... over the first k primes,
    of degree 2^k: repeated resultants res_y(p(t - y), y^2 - q)."""
    y, p = sympy.Symbol("y"), _t
    for q in sympy.primerange(2, sympy.prime(k) + 1):
        p = sympy.resultant(p.subs(_t, _t - y), y**2 - q, y)
    return IntPoly(int(c) for c in reversed(sympy.Poly(p, _t).all_coeffs()))


@pytest.mark.parametrize(
    "p, lifted_factors",
    [
        ((2 * _T - 1) * (3 * _T + 1) * (5 * _T - 2) * (7 * _T + 3), 4),
        ((3 * _T + 2) * (_T**4 - 10 * _T**2 + 1), 3),
        (twist_polynomial(2, 12), 5),
        (_T * (_T**4 - 10 * _T**2 + 1) * (2 * _T**2 - 3) * (_T**4 - 14 * _T**2 + 9), 6),
        (swinnerton_dyer(4), 8),
        (swinnerton_dyer(5), 16),
        (_T * swinnerton_dyer(4), 9),
        (_T * swinnerton_dyer(5), 17),
    ],
    ids=[
        "four non-monic linear factors",
        "quartic that splits mod every prime",
        "twist (2,12)",
        "t times two such quartics and 2t^2 - 3",
        "SD16",
        "SD32",
        "t*SD16",
        "t*SD32",
    ],
)
def test_lifting_and_recombination_match_sympy(monkeypatch, p, lifted_factors):
    """The first lift starts from at least lifted_factors modular factors:
    a Hensel tree of depth >= 2, and from the second input on more modular
    factors than factors over Z, so that recombination has to merge some
    or, for the irreducible Swinnerton-Dyer polynomials, to try every
    subset up to half of them.  Three inputs vanish at 0, and 2t^2 - 3 has
    a negative constant term, so the constant-term test meets f(0) = 0
    and both signs."""
    lift, calls = factorize._hensel_lift, []

    def recording(prime, pl, f, mod_factors):
        calls.append(len(mod_factors))
        return lift(prime, pl, f, mod_factors)

    monkeypatch.setattr(factorize, "_hensel_lift", recording)
    _checked_factor(p)
    assert calls[0] >= lifted_factors


def test_recombination_raises_past_its_budget(monkeypatch):
    monkeypatch.setattr(factorize, "_RECOMBINATION_BUDGET", 100)
    with pytest.raises(FactorBudgetError, match="8 modular factors .* budget of 100 subsets"):
        factor(swinnerton_dyer(4))  # 8 modular factors, 162 subsets


def test_a_budget_error_is_not_memoized():
    sd64 = swinnerton_dyer(6)
    for _ in range(2):
        with pytest.raises(FactorBudgetError, match="32 modular factors"):
            factor(sd64)
    assert factor.cache_info().currsize == 0


def test_cli_factor_of_sd64_exits_2_on_the_budget():
    src = os.path.dirname(os.path.dirname(factorize.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ellspec", "factor", str(swinnerton_dyer(6))],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    assert f"budget of {factorize._RECOMBINATION_BUDGET} subsets" in proc.stderr
    assert "Traceback" not in proc.stderr
