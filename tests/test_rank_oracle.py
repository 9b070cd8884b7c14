"""Checker.passes, the rank test over F_2, against the enumeration of every
divisor in Checker.check, and find_t0 against a search loop written here
over Checker.check.

Random checkers come from the sample curves of each kind, among them
curves whose cubic has a root in Z[t].  Planted
targets put chosen values at t0: products that are squares up to sign and
content primes, values that share a large prime, square base elements 4
and 9*q^2, and odd-degree factors at a t0 with denominator m > 1.  Last,
a composite listed as a content prime: the rank test still fails where a
true divisor is a square, and check raises on the listed pass.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ellspec import conditions, factorize, intmath
from ellspec.conditions import (
    BudgetExhausted,
    Checker,
    SearchBudget,
    _cubic_has_qt_root,
    certificate_to_json,
    check_condition,
    find_t0,
    replay_certificate,
    t0_candidates,
)
from ellspec.curves import Curve
from ellspec.factorize import factor
from ellspec.intpoly import IntPoly
from ellspec.parsing import parse_curve
from samples import sample_curve

T = IntPoly.monomial(1, 1)
P61 = 2**61 - 1  # a prime
Q = 10007  # a prime


_CASES = [("split", "A"), ("split", "Aprime"), ("split", "A1B"), ("C=0", "scriptA"),
          ("C=0", "A1B"), ("general", "A1B"), ("two_torsion", "A1B")]


def _checker(kind: str, condition: str, seed: int) -> Checker:
    rng = random.Random(f"{kind} {condition} {seed}")
    while True:
        try:
            return Checker(sample_curve(kind, rng), condition)
        except ValueError:  # scriptA on a curve whose cubic splits
            continue


rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(_CASES), st.integers(0, 10**6), st.lists(rationals, min_size=1, max_size=8))
def test_rank_test_agrees_with_enumeration_on_random_checkers(case, seed, t0s):
    checker = _checker(*case, seed)
    for t0 in t0s:
        assert checker.passes(t0) == checker.check(t0).passed


def _planted_checker(pieces: list[IntPoly]) -> Checker:
    """A checker whose one target is the product of `pieces`.  The curve
    y^2 = x^3 + x has a constant discriminant and no nonconstant target
    of its own, so the verdict at every t0 is the planted target's."""
    checker = Checker(parse_curve("y^2 = x^3 + x"), "scriptA")
    assert checker.targets == []
    facs = [factor(p) for p in pieces]
    checker.targets = [("planted",
                        list(dict.fromkeys(g for fac in facs for g, _ in fac.poly_factors)),
                        list(dict.fromkeys(q for fac in facs for q, _ in fac.content_primes)))]
    return checker


# Each planted case with its verdict: the product of the pieces, then t0.
PLANTED = [
    # a product that is a square up to sign and content primes: at 0 the
    # factors take 14 and -21, and -6 * 14 * (-21) = 42^2
    ([6 * (T + 14) * (T - 21)], Fraction(0), False),
    # each value alone is a square up to the content primes 2 and 3
    ([6 * (T + 2) * (T + 3)], Fraction(0), False),
    # 3 * (t + 1) at 2 is 9
    ([3 * (T + 1)], Fraction(2), False),
    # values sharing the large prime P61: 2*P61 and 3*P61 are independent
    ([(T + 2 * P61) * (T + 3 * P61)], Fraction(0), True),
    # P61 and 4*P61: the base {P61, 4} has the square element 4
    ([(T + P61) * (T + 4 * P61)], Fraction(0), False),
    # 45*q^2 and 5: the base {5, 9*q^2} has the square element 9*q^2
    ([(T + 45 * Q**2) * (T + 5)], Fraction(0), False),
    ([(T + 45 * Q**2) * (T + 7)], Fraction(0), True),
    # odd degree at m = 2: t at 1/2 is 1/2, not a square
    ([T * (T**2 + 3)], Fraction(1, 2), True),
    ([T], Fraction(1, 2), True),
    # ... but 2t at 1/2 is 1
    ([2 * T], Fraction(1, 2), False),
    # t + 1 and t^2 - t + 1 at 1/2 are 3/2 and 3/4, in the classes of 6
    # and 3; the content 3 makes 3 * (t^2 - t + 1) a square there
    ([(T + 1) * (T**2 - T + 1)], Fraction(1, 2), True),
    ([(T + 1) * (T**2 - T + 1), IntPoly.const(3)], Fraction(1, 2), False),
    # a factor that vanishes at t0
    ([(T - 3) * (T + 5)], Fraction(3), False),
    # signs: -(t - 5) at 1 is 4
    ([T - 5], Fraction(1), False),
    ([-(T - 5) * (T + 2)], Fraction(0), True),
]


@pytest.mark.parametrize("pieces,t0,verdict", PLANTED)
def test_planted_targets(pieces, t0, verdict):
    checker = _planted_checker(pieces)
    assert checker.check(t0).passed is verdict
    assert checker.passes(t0) is verdict


linear = st.builds(
    lambda a, b: a * T + b,
    st.integers(1, 3),
    st.one_of(st.integers(-30, 30), st.sampled_from([P61, 2 * P61, -3 * P61, 4 * Q**2, 45 * Q**2])),
)
quadratic = st.builds(lambda b, c: T**2 + b * T + c, st.integers(-5, 5), st.integers(-9, 9))
contents = st.sampled_from([1, -1, 2, -3, 4, 6, 9, -10, 12, 30, P61])
# pieces: a content times a product of factors, and up to two constants
targets = st.builds(
    lambda c, fs, extra: [math.prod(fs, start=IntPoly.const(c))] + extra,
    contents,
    st.lists(st.one_of(linear, quadratic), min_size=1, max_size=4),
    st.lists(st.sampled_from([IntPoly.const(k) for k in (2, 3, 5, -7)]), max_size=2),
)


@settings(deadline=None, max_examples=150)
@given(targets, st.lists(st.one_of(rationals, st.sampled_from([Fraction(0), Fraction(1, 2)])),
                         min_size=1, max_size=6))
@example([6 * (T + 14) * (T - 21)], [Fraction(0)])
@example([(T + 2 * P61) * (T + 3 * P61) * (T + 6 * P61)], [Fraction(0)])
@example([(T + P61) * (T + 4 * P61)], [Fraction(0)])
@example([(T + 45 * Q**2) * (T + 5)], [Fraction(0)])
@example([T * (T + 1) * (T**2 + 3)], [Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)])
def test_rank_test_agrees_with_enumeration_on_planted_targets(pieces, t0s):
    checker = _planted_checker(pieces)
    for t0 in t0s:
        assert checker.passes(t0) == checker.check(t0).passed


# -- find_t0 against a search over check ---------------------------------------


def _reference_search(curve: Curve, condition: str, budget: SearchBudget) -> str:
    """The certificate of the first candidate whose full report passes, or
    the message of the exhausted search."""
    checker = Checker(curve, condition)
    for t0 in t0_candidates(budget):
        report = checker.check(t0)
        if report.passed:
            return certificate_to_json(report)
    return f"no t0 passing condition {condition} within {budget} (not a disproof)"


def _search(curve: Curve, condition: str, budget: SearchBudget) -> str:
    try:
        return certificate_to_json(find_t0(curve, condition, budget))
    except BudgetExhausted as exc:
        return str(exc)


BUDGETS = [SearchBudget(0, 0), SearchBudget(2, 2), SearchBudget(6, 3), SearchBudget(30, 6)]


@pytest.mark.parametrize("kind,condition", _CASES)
def test_find_t0_equals_a_search_over_check(kind, condition):
    for seed in range(4):
        checker = _checker(kind, condition, seed)
        for budget in BUDGETS:
            assert _search(checker.curve, condition, budget) == _reference_search(
                checker.curve, condition, budget
            )


def test_two_torsion_curves_fail_the_cubic_test_everywhere():
    t0s = list(t0_candidates(SearchBudget(6, 3)))
    for seed in range(6):
        checker = _checker("two_torsion", "A1B", seed)
        assert _cubic_has_qt_root(checker.curve)
        for t0 in t0s:
            report = checker.check(t0)
            assert report.discriminant_value == 0 or report.subresults["B"] is False
        with pytest.raises(BudgetExhausted):
            find_t0(checker.curve, "A1B", SearchBudget(6, 3))


def _watch_a_search(monkeypatch) -> dict[str, list]:
    """Record every factor call, Checker.passes call, candidate drawn and
    Curve.two_torsion call from here on."""
    calls = {"factor": [], "passes": [], "t0 drawn": [], "two_torsion": []}
    factor, passes, candidates, two_torsion = (
        factorize.factor, Checker.passes, t0_candidates, Curve.two_torsion)

    def drawn(budget):
        for t0 in candidates(budget):
            calls["t0 drawn"].append(t0)
            yield t0

    counted_factor = lambda p: calls["factor"].append(p) or factor(p)
    monkeypatch.setattr(factorize, "factor", counted_factor)
    monkeypatch.setattr(conditions, "factor", counted_factor)
    monkeypatch.setattr(Checker, "passes",
                        lambda self, t0: calls["passes"].append(t0) or passes(self, t0))
    monkeypatch.setattr(conditions, "t0_candidates", drawn)
    monkeypatch.setattr(Curve, "two_torsion",
                        lambda self: calls["two_torsion"].append(self) or two_torsion(self))
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_a1b_on_a_root_in_qt_exhausts_before_it_factors(monkeypatch, seed):
    curve = _checker("two_torsion", "A1B", seed).curve
    expected = {budget: _reference_search(curve, "A1B", budget) for budget in BUDGETS}
    calls = _watch_a_search(monkeypatch)
    for budget in BUDGETS:
        factor.cache_clear()
        for seen in calls.values():
            seen.clear()
        with pytest.raises(BudgetExhausted) as exc:
            find_t0(curve, "A1B", budget)
        assert str(exc.value) == expected[budget]
        assert calls == {"factor": [], "passes": [], "t0 drawn": [], "two_torsion": [curve]}


def test_a_bad_condition_or_model_still_raises_its_value_error_first(monkeypatch):
    """A curve over Q is refused before anything is factored, and an
    unknown condition before the model.  A curve over Q(t) off Z[t], such
    as A = t/2, is no bad model: it runs on its integral model."""
    root_0_off_z_t = parse_curve("A=t/2; B=t; C=0")
    root_1_over_q = Curve(0, -1, 0)
    with pytest.raises(ValueError) as exc:
        Checker(root_1_over_q, "A1B")
    error = str(exc.value)
    assert error == "curve is not defined over Q(t)"
    assert Checker(root_0_off_z_t, "A1B").model == (IntPoly([0, 2]), IntPoly([0, 16]), IntPoly())
    calls = _watch_a_search(monkeypatch)
    for budget in BUDGETS:
        with pytest.raises(ValueError) as exc:
            find_t0(root_1_over_q, "A1B", budget)
        assert type(exc.value) is ValueError and str(exc.value) == error
        for curve in (root_0_off_z_t, root_1_over_q):
            # an unknown condition comes before the model
            with pytest.raises(ValueError) as exc:
                find_t0(curve, "a1b", budget)
            assert str(exc.value) == ("unknown condition 'a1b'; "
                                      "choose from ('A', 'Aprime', 'scriptA', 'A1B')")
    assert calls["factor"] == calls["passes"] == calls["t0 drawn"] == []


def test_only_the_search_looks_for_a_root_in_qt(monkeypatch):
    """A1B asks Curve.two_torsion once per search and never in a report;
    scriptA never asks it: its Checker reads the one-torsion hypothesis
    from the factorization of A^2 - 4B that it holds."""
    calls = []
    two_torsion = Curve.two_torsion
    monkeypatch.setattr(Curve, "two_torsion", lambda self: calls.append(self) or two_torsion(self))
    curve = parse_curve("y^2 = x^3 + t*x^2 + x + t")  # the root -t
    with pytest.raises(BudgetExhausted):
        find_t0(curve, "A1B", SearchBudget(6, 3))
    assert len(calls) == 1
    find_t0(parse_curve("e=(0, t, 7*t+1)"), "A", SearchBudget(30, 6))
    assert len(calls) == 1

    for text, condition, per_checker in [("y^2 = x^3 + t*x^2 + x + t", "A1B", 0),
                                         ("y^2 = x^3 - x + t^2", "A1B", 0),
                                         ("y^2 = x^3 + t^2*x^2 - x", "scriptA", 0)]:
        calls.clear()
        for t0 in (0, 2, Fraction(-3, 5)):
            report = check_condition(parse_curve(text), condition, t0)
            assert len(calls) == per_checker
            matches, _ = replay_certificate(certificate_to_json(report))
            assert matches
            assert len(calls) == per_checker
        Checker(parse_curve(text), condition)
        assert len(calls) == 2 * per_checker


def test_a_returned_report_that_fails_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr(Checker, "passes", lambda self, t0: True)
    curve = parse_curve("y^2 = x^3 + t^2*x^2 - x")
    assert not check_condition(curve, "scriptA", 0).passed
    with pytest.raises(AssertionError, match="disagree at t0=0"):
        find_t0(curve, "scriptA", SearchBudget(3, 2))


# -- a composite listed as a content prime --------------------------------------
#
# factor_int proves nothing above 3.3 * 10^24, where a strong pseudoprime
# can pass Miller-Rabin.  The listed divisors then miss the true primes of
# the content, so a listed pass can be wrong; W is taken from the content
# by gcds, so the rank test is not.


def test_a_composite_listed_as_a_prime_does_not_make_a_target_pass():
    checker = _planted_checker([T])
    [(label, factors, _)] = checker.targets
    checker.targets = [(label, factors, [P61 * Q])]
    # P61 * t divides P61 * Q * t and is P61^2 at P61, but only t and
    # P61 * Q * t are listed, and neither is a square there
    assert not checker.passes(P61)
    with pytest.raises(AssertionError, match=f"disagree at t0={P61}"):
        checker.check(P61)
    assert checker.passes(P61 + 2) and checker.check(P61 + 2).passed


PSEUDOPRIME = 10000019 * 10000079


@pytest.mark.parametrize("condition", ["A", "Aprime"])
def test_a_pseudoprime_content_fails_where_its_factor_squares(monkeypatch, condition):
    is_probable_prime = intmath.is_probable_prime
    monkeypatch.setattr(intmath, "is_probable_prime",
                        lambda n: n == PSEUDOPRIME or is_probable_prime(n))
    checker = Checker(parse_curve(f"e=(0, {PSEUDOPRIME}*t, t + 1)"), condition)
    assert checker.targets[0][2] == [PSEUDOPRIME]
    # the divisor 10000019 * t takes the value 10000019^2 at t0 = 10000019
    assert not checker.passes(10000019)
    with pytest.raises(AssertionError, match="disagree at t0=10000019"):
        checker.check(10000019)
