import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ellspec import conditions, mestre
from ellspec.conditions import certificate_to_json, check_condition
from ellspec.curves import Curve, O, Point
from ellspec.factorize import factor
from ellspec.intpoly import IntPoly, squarefree_decompose
from ellspec.parsing import parse_poly
from ellspec.ratfunc import RatFunc

T = IntPoly.monomial(1, 1)


def test_twist_polynomial_shape():
    g = mestre.twist_polynomial(2, 12)
    assert g.degree == 14
    assert g.lc == -3456
    unit, _, parts = squarefree_decompose(g)
    assert all(m == 1 for _, m in parts)


def test_twist_polynomial_known_factorization():
    fac = factor(mestre.twist_polynomial(2, 12))
    assert fac.unit == -1
    assert dict(fac.content_primes) == {2: 6, 3: 1}
    assert {p for p, _ in fac.poly_factors} == {
        parse_poly("t^2+1"),
        parse_poly("3*t^4+2*t^2+2"),
        parse_poly("3*t^4+4*t^2+3"),
        parse_poly("2*t^4+2*t^2+3"),
    }


def test_build_validates_parameters():
    with pytest.raises(ValueError):
        mestre.build(0, 5)
    with pytest.raises(ValueError):
        mestre.build(5, 0)
    # 4a^3 + 27b^2 = 0: the base curve x^3 + ax + b has a double root
    for a, b in ((-3, 2), (Fraction(-3, 4), Fraction(1, 4))):
        with pytest.raises(ValueError, match="singular base curve"):
            mestre.build(a, b)


def test_build_puts_points_on_curve():
    inst = mestre.build(1, 1)
    assert inst.curve.contains(inst.P)
    assert inst.curve.contains(inst.Q)
    assert inst.P != inst.Q


# mP + nQ for m, n >= 0 and 2 <= m^2 + n^2 <= 5, each one addition of
# points already computed: (sum, left summand, right summand)
_CHAIN = (
    ((1, 1), (1, 0), (0, 1)),
    ((2, 0), (1, 0), (1, 0)),
    ((0, 2), (0, 1), (0, 1)),
    ((2, 1), (2, 0), (0, 1)),
    ((1, 2), (0, 2), (1, 0)),
)


def test_points_are_checked_once_where_they_enter(monkeypatch):
    calls = []
    contains = Curve.contains
    monkeypatch.setattr(Curve, "contains", lambda self, P: calls.append(P) or contains(self, P))
    inst = mestre.build(1, 1)
    assert calls == [inst.P, inst.Q]
    points = {(1, 0): inst.P, (0, 1): inst.Q}
    for total, left, right in _CHAIN:
        points[total] = inst.curve.add(points[left], points[right])
        m, n = total
        assert mestre.morphism_degree(inst, points[total]) == 4 * (m * m + n * n)
    assert len(calls) == 2


def test_rational_parameters_are_rescaled():
    inst = mestre.build(Fraction(1, 16), Fraction(1, 2))
    # u = 2 clears both denominators: a*u^4 = 1, b*u^6 = 32
    assert inst.scale == 2
    assert (inst.a, inst.b) == (1, 32)
    assert inst.curve.contains(inst.P)


def test_morphism_degrees():
    inst = mestre.build(1, 1)
    assert mestre.morphism_degree(inst, inst.P) == 4
    assert mestre.morphism_degree(inst, inst.Q) == 4
    assert mestre.morphism_degree(inst, inst.curve.add(inst.P, inst.Q)) == 8
    assert mestre.morphism_degree(inst, inst.curve.sub(inst.P, inst.Q)) == 8
    assert mestre.morphism_degree(inst, O) == 0


def _reduced_ratio_degree(inst, T) -> int:
    """The max of the degrees of the reduced x(T)/g; 0 for O and x = 0."""
    if T.is_infinity or T.x.is_zero:
        return 0
    ratio = T.x / RatFunc(inst.g)
    return max(ratio.num.degree, ratio.den.degree)


def test_morphism_degree_is_the_degree_of_the_reduced_ratio():
    for a, b in ((1, 1), (2, 12)):
        inst = mestre.build(a, b)
        curve = inst.curve
        points = {(1, 0): inst.P, (0, 1): inst.Q}
        for total, left, right in _CHAIN:
            points[total] = curve.add(points[left], points[right])
        for m, n in ((3, -1), (-2, 3), (1, -1)):
            points[m, n] = curve.add(curve.scalar_mul(m, inst.P), curve.scalar_mul(n, inst.Q))
        for T in [O, *curve.two_torsion(), *points.values()]:
            assert mestre.morphism_degree(inst, T) == _reduced_ratio_degree(inst, T)
        for (m, n), T in points.items():
            assert mestre.morphism_degree(inst, T) == 4 * (m * m + n * n)


def test_pairing_is_symmetric_and_even():
    inst = mestre.build(2, 12)
    P, Q = inst.P, inst.Q
    assert mestre.pairing(inst, P, Q) == mestre.pairing(inst, Q, P) == 0
    # <P, P> = deg(2P)/2 - deg(P) = half the parallelogram defect with itself
    assert mestre.pairing(inst, P, P) == Fraction(
        mestre.morphism_degree(inst, inst.curve.scalar_mul(2, P)), 2
    ) - mestre.morphism_degree(inst, P)


def test_scalar_mul_five_on_the_twist():
    inst = mestre.build(2, 12)
    curve, P = inst.curve, inst.P
    fourP = curve.add(curve.add(P, P), curve.add(P, P))
    fiveP = curve.scalar_mul(5, P)
    assert fiveP == curve.add(fourP, P)
    assert mestre.morphism_degree(inst, fiveP) == 100 == 4 * 5**2


def test_degree_parallelogram_on_samples():
    for a, b in ((1, 1), (2, 12), (-1, 3), (3, -2)):
        inst = mestre.build(a, b)
        dP = mestre.morphism_degree(inst, inst.P)
        dQ = mestre.morphism_degree(inst, inst.Q)
        assert dP == dQ == 4
        assert mestre.morphism_degree(inst, inst.curve.add(inst.P, inst.Q)) == 8
        assert mestre.pairing(inst, inst.P, inst.Q) == 0


def test_small_degree_exclusion():
    assert mestre.degree_obstruction(mestre.build(1, 1).g)
    assert not mestre.degree_obstruction(T**2 + 1)  # wrong degree
    assert not mestre.degree_obstruction(T**2 * (T**12 + 1))  # not squarefree


def test_injectivity_report_with_integer_root():
    # x^3 + 2x + 12 has the integer root -2: a certifying criterion applies
    inst = mestre.build(2, 12)
    rep = mestre.injectivity_report(inst, 4)
    assert rep.certifying and rep.passed
    assert rep.condition == "scriptA"


def test_two_torsion_on_the_twist():
    # x^3 + x + 1 has no rational root; x^3 + 2x + 12 has only -2
    for (a, b), expected in (((1, 1), [O]), ((2, 12), None)):
        inst = mestre.build(a, b)
        start = time.perf_counter()
        points = inst.curve.two_torsion()
        assert time.perf_counter() - start < 1.0
        if expected is None:
            expected = [O, Point(RatFunc(-2 * inst.g), RatFunc(0))]
        assert points == expected


def test_injectivity_report_on_a_split_member():
    # x^3 - 7x + 6 = (x - 1)(x - 2)(x + 3): the split criterion applies
    pytest.importorskip("sympy")
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from oracle import _coeffs, twist_model

    condition, _, roots = twist_model(-7, 6)
    rep = mestre.injectivity_report(mestre.build(-7, 6), 3)
    assert rep.condition == condition == "A"
    assert tuple(e.coeffs for e in rep.curve.split_root_polys()) == tuple(
        _coeffs(e) for e in roots
    )


def test_injectivity_report_without_rational_root():
    # x^3 + x + 1 is irreducible over Q: only the diagnostic is available
    inst = mestre.build(1, 1)
    rep = mestre.injectivity_report(inst, 5)
    assert not rep.certifying


@pytest.mark.parametrize("a,b,t0,condition", [(2, 12, 4, "scriptA"), (-7, 6, 3, "A"),
                                                (1, 1, 5, "A1B")])
def test_injectivity_report_builds_its_own_checker(a, b, t0, condition):
    rep = mestre.injectivity_report(mestre.build(a, b), t0)
    assert rep.condition == condition
    assert conditions._prepare.cache_info().currsize == 0
    assert certificate_to_json(rep) == certificate_to_json(
        check_condition(rep.curve, condition, t0)
    )


def test_generator_certificate_certified():
    inst = mestre.build(2, 12)
    conc = mestre.generator_certificate(inst, 4, 2, "declared external computation")
    assert conc.injectivity_mode == "certified"
    assert "equals 2" in conc.conclusion
    doc = json.loads(conc.to_json())
    assert doc["declared_rank"] == 2
    assert doc["injectivity_certificate"]["passed"] is True


def test_generator_certificate_declared():
    inst = mestre.build(1, 1)
    conc = mestre.generator_certificate(
        inst, 5, 2, "external rank computation", injectivity_source="external proof"
    )
    assert conc.injectivity_mode == "declared"
    assert "equals 2" in conc.conclusion
    assert any("external" in n for n in conc.notes)


@pytest.mark.parametrize(
    "a, b, t0, rank, source, message",
    [
        (2, 12, 4, -3, None, r"rank -3 at t0=4 is impossible: it is at least 2 \(injectivity: certified"),
        (1, 1, 5, -1, None, r"rank -1 at t0=5 is impossible: it is at least 0 \(injectivity: none"),
        (2, 12, 4, 1, None, r"rank 1 at t0=4 is impossible: it is at least 2 \(injectivity: certified"),
        (2, 12, 4, 0, None, r"rank 0 at t0=4 is impossible: it is at least 2 \(injectivity: certified"),
        (1, 1, 5, 1, "external proof", r"rank 1 at t0=5 is impossible: it is at least 2 \(injectivity: declared"),
    ],
    ids=["negative", "negative-without-injectivity", "1-certified", "0-certified", "1-declared"],
)
def test_generator_certificate_rejects_a_rank_that_contradicts_injectivity(
    a, b, t0, rank, source, message
):
    inst = mestre.build(a, b)
    with pytest.raises(ValueError, match=message):
        mestre.generator_certificate(inst, t0, rank, "x", injectivity_source=source)


def test_generator_certificate_insufficient_inputs():
    inst = mestre.build(1, 1)
    conc = mestre.generator_certificate(inst, 5, 2, "some source")
    assert conc.injectivity_mode == "none"
    assert "at least 2" in conc.conclusion
    conc1 = mestre.generator_certificate(inst, 5, 1, "some source")
    assert "declared specialized rank 1 gives rank <= 1" in conc1.conclusion  # no injectivity

    inst2 = mestre.build(2, 12)
    conc2 = mestre.generator_certificate(inst2, 4, 3, "some source")
    assert conc2.injectivity_mode == "certified"
    assert "at least 2" in conc2.conclusion  # wrong declared rank blocks equality
