"""Built-in verification suite of known worked examples.

Each check recomputes a published-style result from scratch with the
library and compares exactly.  The CLI exposes this as `verify-paper`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import mestre
from .conditions import Checker, SearchBudget, check_condition, find_t0
from .curves import Point
from .factorize import factor
from .intpoly import IntPoly
from .parsing import parse_curve, parse_poly
from .ratfunc import RatFunc
from .specialize import relation_search, specialize_curve, specialize_point

__all__ = ["GoldenResult", "run_golden_suite"]


@dataclass(frozen=True)
class GoldenResult:
    name: str
    passed: bool
    detail: str


def _check(name, passed, detail="") -> GoldenResult:
    return GoldenResult(name, bool(passed), detail)


def _separation_example() -> list[GoldenResult]:
    curve = parse_curve("e=(0, t, 7*t+1)")
    t0 = Fraction(1, 21)
    a = check_condition(curve, "A", t0)
    ap = check_condition(curve, "Aprime", t0)
    results = [
        _check("split criterion passes at t0=1/21 on e=(0,t,7t+1)", a.passed),
        _check("triple-product variant fails at the same t0", not ap.passed),
    ]
    witness_vals = {w.value for w in ap.witnesses}
    results.append(
        _check(
            "failing witness value is exactly 4/49 = (2/7)^2",
            Fraction(4, 49) in witness_vals,
            f"witness values: {sorted(witness_vals)}",
        )
    )
    return results


def _rank_one_family() -> list[GoldenResult]:
    curve = parse_curve("y^2 = x^3 + t^2*x^2 - x")
    results = []
    checker = Checker(curve, "scriptA")
    for t0 in (0, 1, -1):
        rep = checker.check(t0)
        results.append(
            _check(f"one-torsion criterion fails at t0={t0} on y^2=x^3+t^2x^2-x", not rep.passed)
        )
    hit = find_t0(curve, "scriptA", SearchBudget(int_bound=50, rat_height=2))
    results.append(_check("first passing t0 in search order is 2", hit.t0 == 2))
    # kernel at the bad value t0=0: 2P specializes to O while 2P != O
    t = RatFunc(IntPoly.monomial(1, 1))
    P = Point(RatFunc(1), t)
    twoP = curve.scalar_mul(2, P)
    results.append(
        _check(
            "doubling of (1,t) specializes to O at t0=0 but is nonzero over Q(t)",
            (not twoP.is_infinity) and specialize_point(curve, twoP, 0).is_infinity,
        )
    )
    return results


_BREMNER = (
    "y^2 = x^3 - 2*(5*(2*t^2-2*t+1)*(t^2-2*t+2) - 2*(t^2-1)^2)*x^2"
    " + 25*(2*t^2-2*t+1)^2*(t^2-2*t+2)^2*x"
)


def _two_descent_example() -> list[GoldenResult]:
    curve = parse_curve(_BREMNER)
    expected = (
        -(2**8)
        * 5**4
        * parse_poly("(t-1)^2*(t+1)^2*(9*t^4-30*t^3+47*t^2-30*t+9)"
                     "*(t^2-2*t+2)^4*(2*t^2-2*t+1)^4")
    )
    disc16 = 16 * curve.discriminant_poly()
    results = [
        _check("displayed discriminant product matches exactly", disc16 == expected)
    ]
    rep = check_condition(curve, "scriptA", Fraction(5, 2))
    results.append(_check("one-torsion criterion passes at t0=5/2", rep.passed))
    return results


def _diagnostic_counterexamples() -> list[GoldenResult]:
    results = []
    curve = parse_curve("y^2 = x^3 - x + t^2")
    checker = Checker(curve, "A1B")
    for t0 in (1, -1, Fraction(1, 2), Fraction(-1, 2)):
        rep = checker.check(t0)
        results.append(
            _check(
                f"discriminant diagnostic passes at t0={t0} on y^2=x^3-x+t^2",
                rep.passed and not rep.certifying,
            )
        )
    spec = specialize_curve(curve, 1)
    t = RatFunc(IntPoly.monomial(1, 1))
    images = [
        specialize_point(curve, Point(RatFunc(0), t), 1),
        specialize_point(curve, Point(RatFunc(1), t), 1),
    ]
    rel = relation_search(spec, images, 20)
    results.append(
        _check(
            "bounded search exhibits a nonzero relation among the images at t0=1",
            rel is not None,
            f"relation: {rel}",
        )
    )
    curve2 = parse_curve("y^2 = x^3 - t^2*x + 1")
    rep2 = check_condition(curve2, "A1B", 0)
    results.append(
        _check(
            "divisor subcheck passes at t0=0 on y^2=x^3-t^2x+1",
            rep2.subresults.get("A1") is True,
        )
    )
    return results


def _twist_factorization() -> list[GoldenResult]:
    g = mestre.twist_polynomial(2, 12)
    fac = factor(g)
    expected_factors = {
        parse_poly("t^2+1"),
        parse_poly("3*t^4+2*t^2+2"),
        parse_poly("3*t^4+4*t^2+3"),
        parse_poly("2*t^4+2*t^2+3"),
    }
    got = {p for p, _ in fac.poly_factors}
    ok = (
        fac.unit == -1
        and dict(fac.content_primes) == {2: 6, 3: 1}
        and got == expected_factors
        and all(e == 1 for _, e in fac.poly_factors)
        and fac.recompose() == g
    )
    return [_check("degree-14 twist polynomial factors as displayed", ok)]


def _twist_degrees() -> list[GoldenResult]:
    results = []
    for a, b in ((1, 1), (2, 12)):
        inst = mestre.build(a, b)
        dP = mestre.morphism_degree(inst, inst.P)
        dQ = mestre.morphism_degree(inst, inst.Q)
        dPQ = mestre.morphism_degree(inst, inst.curve.add(inst.P, inst.Q))
        dPmQ = mestre.morphism_degree(inst, inst.curve.sub(inst.P, inst.Q))
        pair = mestre.pairing(inst, inst.P, inst.Q)
        results.append(
            _check(
                f"(a,b)=({a},{b}): degrees 4,4,8,8 and pairing 0",
                dP == dQ == 4 and dPQ == dPmQ == 8 and pair == 0,
                f"got {dP},{dQ},{dPQ},{dPmQ}, pairing {pair}",
            )
        )
    inst = mestre.build(2, 12)
    rep = mestre.injectivity_report(inst, 4)
    results.append(
        _check(
            "(a,b)=(2,12): certifying criterion passes at t0=4",
            rep.certifying and rep.passed,
            f"condition {rep.condition}",
        )
    )
    return results


def run_golden_suite() -> list[GoldenResult]:
    out: list[GoldenResult] = []
    out.extend(_separation_example())
    out.extend(_rank_one_family())
    out.extend(_two_descent_example())
    out.extend(_diagnostic_counterexamples())
    out.extend(_twist_factorization())
    out.extend(_twist_degrees())
    return out
