import collections
import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest

from ellspec import conditions, mestre
from ellspec.conditions import (
    _TARGET_BUILDERS,
    BudgetExhausted,
    Checker,
    SearchBudget,
    certificate_to_json,
    check_condition,
    enumerate_divisors,
    find_t0,
    replay_certificate,
    t0_candidates,
)
from ellspec.curves import Curve, O, SingularCurveError
from ellspec.factorize import factor
from ellspec.intmath import factor_int, is_square_rat
from ellspec.intpoly import IntPoly, squarefree_decompose
from ellspec.parsing import ParseError, parse_curve
from ellspec.ratfunc import RatFunc
from ellspec.specialize import homomorphism_check, specialize_curve, specialize_point
from samples import (
    is_square_poly,
    random_c0_curve_with_point,
    random_split_curve_with_point,
    sample_curve,
)

T = IntPoly.monomial(1, 1)
t = RatFunc(T)


# -- divisor enumeration ----------------------------------------------------


def test_enumerate_divisors_simple():
    divs = set(enumerate_divisors(T * (T - 1)))
    expected = set()
    for h in (T, T - 1, T * (T - 1)):
        expected.update({h, -h})
    assert divs == expected


def test_enumerate_divisors_with_content_and_multiplicity():
    # 4(t-1)^2: content primes {2}, primitive part (t-1)^2
    divs = set(enumerate_divisors(4 * (T - 1) ** 2))
    expected = set()
    for h in (T - 1, 2 * (T - 1)):
        expected.update({h, -h})
    assert divs == expected


def test_enumerate_divisors_are_squarefree_nonconstant():
    target = -12 * T**2 * (T + 1) * (T**2 + 1) ** 3
    divs = enumerate_divisors(target)
    assert divs  # nonempty
    for h in divs:
        assert not h.is_constant
        # already a squarefree representative: squarefree content, every
        # factor once
        _, content, parts = squarefree_decompose(h)
        assert all(e == 1 for e in factor_int(content)[1].values())
        assert all(m == 1 for _, m in parts)
    # no two divisors share a square class: a/b is not a square in Q(t)
    for a, b in itertools.combinations(divs, 2):
        assert not is_square_poly(a * b)


def test_enumerate_divisors_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_divisors(IntPoly())


# -- the four criteria --------------------------------------------------------


def test_split_criterion_known_separation():
    curve = Curve.from_roots(RatFunc(0), t, 7 * t + 1)
    t0 = Fraction(1, 21)
    rep_a = check_condition(curve, "A", t0)
    rep_ap = check_condition(curve, "Aprime", t0)
    assert rep_a.passed and rep_a.certifying
    assert not rep_ap.passed
    w = rep_ap.witnesses[0]
    assert w.value == Fraction(4, 49)
    assert w.square_root == Fraction(2, 7)
    assert w.divisor == T * (6 * T + 1) * (7 * T + 1)


def _up_to_sign(polys) -> list:
    return sorted((p if p.lc > 0 else -p).coeffs for p in polys)


def test_split_targets_match_their_labels():
    curve = Curve.from_roots(RatFunc(0), t, 7 * t + 1)
    e = dict(zip(("e1", "e2", "e3"), curve.split_root_polys()))
    for condition in ("A", "Aprime"):
        for label, pieces in _TARGET_BUILDERS[condition](curve):
            named = [e[a] - e[b] for a, b in re.findall(r"\((e\d)-(e\d)\)", label)]
            assert _up_to_sign(pieces) == _up_to_sign(named), label


@pytest.mark.parametrize("condition", ["A", "Aprime"])
def test_split_targets_factor_each_root_difference_once(monkeypatch, condition):
    curve = Curve.from_roots(RatFunc(0), t, 7 * t + 1)
    e1, e2, e3 = curve.split_root_polys()
    factored = []
    monkeypatch.setattr(conditions, "factor", lambda p: factored.append(p) or factor(p))
    check_condition(curve, condition, Fraction(1, 21))
    assert _up_to_sign(factored) == _up_to_sign([e2 - e1, e3 - e1, e3 - e2])


_CHECKER_CASES = [("split", "A"), ("split", "Aprime"), ("split", "A1B"),
                  ("C=0", "scriptA"), ("C=0", "A1B"), ("general", "A1B")]


@pytest.mark.parametrize("kind,condition", _CHECKER_CASES)
def test_checker_factors_once_then_only_evaluates(monkeypatch, kind, condition):
    rng = random.Random(f"checker {kind} {condition}")
    t0s = [Fraction(n, d) for n in range(-2, 3) for d in (1, 2, 3, 5)]
    factored = []
    monkeypatch.setattr(conditions, "factor", lambda p: factored.append(p) or factor(p))
    built = 0
    while built < 3:
        curve = sample_curve(kind, rng)
        factored.clear()
        try:
            checker = Checker(curve, condition)
        except ValueError:  # scriptA on a curve whose cubic splits
            continue
        built += 1
        pieces = {p for _, pcs in _TARGET_BUILDERS[condition](curve)
                  if not all(q.is_constant for q in pcs) for p in pcs}
        assert sorted(p.coeffs for p in factored) == sorted(p.coeffs for p in pieces)
        factored.clear()
        reports = [checker.check(t0) for t0 in t0s]
        assert factored == []
        for t0, report in zip(t0s, reports):
            assert certificate_to_json(report) == certificate_to_json(
                check_condition(curve, condition, t0)
            )


def test_checker_looks_up_the_traced_functions_at_call_time(monkeypatch):
    """Count square tests and t0 candidates the way bench/tracing.py does,
    by replacing the conditions module's bindings after import."""
    counts = {"divisors": 0, "t0": 0}

    def counted_square(value):
        counts["divisors"] += 1
        return is_square_rat(value)

    def counted_candidates(*args, **kwargs):
        for t0 in t0_candidates(*args, **kwargs):
            counts["t0"] += 1
            yield t0

    curve = parse_curve("y^2 = x^3 + t^2*x^2 - x")
    checker = Checker(curve, "scriptA")
    monkeypatch.setattr(conditions, "is_square_rat", counted_square)
    monkeypatch.setattr(conditions, "t0_candidates", counted_candidates)
    report = checker.check(Fraction(7, 3))
    assert counts["divisors"] == len(report.checks) > 0
    budget = SearchBudget(int_bound=50, rat_height=2)
    found = find_t0(curve, "scriptA", budget)
    assert counts["t0"] == list(t0_candidates(budget)).index(found.t0) + 1 == 4
    counts["t0"] = 0
    with pytest.raises(BudgetExhausted):
        find_t0(curve, "scriptA", SearchBudget(int_bound=1, rat_height=1))
    assert counts["t0"] == len(list(t0_candidates(SearchBudget(int_bound=1, rat_height=1))))


def _count_listings(monkeypatch) -> list:
    """The first argument, the factor list, of every call to
    conditions._divisor_products."""
    calls = []
    divisor_products = conditions._divisor_products
    monkeypatch.setattr(conditions, "_divisor_products",
                        lambda *args: calls.append(args[0]) or divisor_products(*args))
    return calls


@pytest.mark.parametrize("kind,condition", _CHECKER_CASES)
def test_only_reports_list_divisors(monkeypatch, kind, condition):
    calls = _count_listings(monkeypatch)
    rng = random.Random(f"listings {kind} {condition}")
    t0s = [Fraction(n, d) for n in range(-2, 3) for d in (1, 3)]
    built = 0
    while built < 3:
        try:
            checker = Checker(sample_curve(kind, rng), condition)
        except ValueError:  # scriptA on a curve whose cubic splits
            continue
        built += 1
        for t0 in t0s:
            checker.passes(t0)
        assert calls == []
        listed = False
        for t0 in t0s:
            # the first nonsingular report lists each target once; later ones reuse it
            nonsingular = checker.check(t0).discriminant_value != 0
            first = nonsingular and not listed
            assert calls == ([factors for _, factors, _ in checker.targets] if first else [])
            listed |= nonsingular
            calls.clear()


def test_a_search_lists_divisors_only_for_the_t0_it_returns(monkeypatch):
    calls = _count_listings(monkeypatch)
    with pytest.raises(BudgetExhausted):  # the cubic has the root -t in Q(t)
        find_t0(parse_curve("y^2 = x^3 + t*x^2 + x + t"), "A1B", SearchBudget(30, 6))
    curve = parse_curve("y^2 = x^3 + t^2*x^2 - x")  # one nonconstant target, t^4 + 4
    with pytest.raises(BudgetExhausted):
        find_t0(curve, "scriptA", SearchBudget(int_bound=1, rat_height=1))
    assert calls == []
    assert find_t0(curve, "scriptA").t0 == 2
    assert len(calls) == 1
    calls.clear()
    assert find_t0(parse_curve("e=(0, t, 7*t+1)"), "A", SearchBudget(30, 6)).passed
    assert len(calls) == 3  # one per root-difference product


def test_the_divisor_cap_is_checked_before_anything_is_listed(monkeypatch):
    # B = t(t + 2) has 2 * 3 divisors and the irreducible A^2 - 4B =
    # -3t^2 - 6t + 1 has 2, so the report at t0 = 1 lists 8
    checker = Checker(parse_curve("y^2 = x^3 + (t + 1)*x^2 + (t^2 + 2*t)*x"), "scriptA")
    calls = _count_listings(monkeypatch)
    monkeypatch.setattr(conditions, "_DIVISOR_CAP", 8)
    report = checker.check(1)
    assert len(report.checks) == 8
    assert len(calls) == 2
    calls.clear()
    monkeypatch.setattr(conditions, "_DIVISOR_CAP", 7)
    with pytest.raises(ValueError, match=r"^condition scriptA at t0=1: the report would list "
                                         r"8 divisors, over the cap of 7$"):
        checker.check(1)
    assert checker.passes(1) is report.passed  # the verdict lists nothing
    assert calls == []


def test_strong_variant_implies_basic_one():
    # whenever Aprime passes, A must pass too (on a few sample points)
    curve = Curve.from_roots(RatFunc(0), t, 7 * t + 1)
    for t0 in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-5)):
        if check_condition(curve, "Aprime", t0).passed:
            assert check_condition(curve, "A", t0).passed


def test_one_torsion_criterion_known_values():
    curve = parse_curve("y^2 = x^3 + t^2*x^2 - x")
    for t0, expect in ((0, False), (1, False), (-1, False), (2, True)):
        assert check_condition(curve, "scriptA", t0).passed is expect


def test_one_torsion_rejects_wrong_shape():
    with pytest.raises(ValueError):
        check_condition(parse_curve("y^2 = x^3 - x + 1"), "scriptA", 2)
    # split quadratic part must be routed to condition A instead
    for text in ("y^2 = x^3 + 5*t*x^2 + 4*t^2*x", "y^2 = x^3 - t^2*x",
                 "y^2 = x^3 + 3*t*x^2 + 2*t^2*x"):
        with pytest.raises(ValueError) as refused:
            check_condition(parse_curve(text), "scriptA", 2)
        assert str(refused.value) == (
            "A^2 - 4B is a square in Z[t]: the cubic splits; use condition A"
        )


def _c0_models(rng: random.Random):
    """(shape, A, B) of C = 0 models y^2 = x^3 + A x^2 + B x.  With A = 2a
    and B = a^2 - d/4, A^2 - 4B is d: a square (s - u)^2 of the split
    shape, a constant square or non-square, 2 s^2 (a square in Q(t) but
    for its content), -s^2, or that of random A and B."""
    a, s, u = (IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]) for _ in range(3))
    k = rng.choice([1, 4, 9, 2, 3, -1, -4])
    yield "split", -(s + u), s * u
    yield "constant", 2 * a, a * a - k
    yield "constant square", 2 * a, a * a - k * k
    yield "twice a square", 2 * a, a * a - 2 * s * s
    yield "minus a square", 2 * a, a * a + s * s
    yield "random", *(IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]) for _ in range(2))


@pytest.mark.parametrize("seed", range(3))
def test_script_a_refuses_exactly_when_two_torsion_finds_three_points(monkeypatch, seed):
    """The scriptA Checker reads its hypothesis from the factorization of
    A^2 - 4B, or from exact_isqrt when that is constant, and agrees with
    Curve.two_torsion; it factors the nonconstant pieces of its targets and
    nothing else."""
    rng = random.Random(f"scriptA hypothesis {seed}")
    factored = []
    monkeypatch.setattr(conditions, "factor", lambda p: factored.append(p) or factor(p))
    seen = collections.Counter()
    for _ in range(40):
        for shape, A, B in _c0_models(rng):
            try:
                curve = Curve(A, B, IntPoly())
            except SingularCurveError:
                continue
            factored.clear()
            splits = len(curve.two_torsion()) != 2
            if splits:
                with pytest.raises(ValueError, match=r"^A\^2 - 4B is a square in Z\[t\]: the cubic splits"):
                    Checker(curve, "scriptA")
            else:
                Checker(curve, "scriptA")
            pieces = {p for p in (B, A * A - 4 * B) if not p.is_constant}
            assert sorted(p.coeffs for p in factored) == sorted(p.coeffs for p in pieces)
            seen[shape, splits] += 1
    assert {("split", True), ("constant", False), ("constant square", True), ("twice a square", False),
            ("minus a square", False), ("random", False)} <= set(seen)


def test_diagnostic_is_never_certifying():
    curve = parse_curve("y^2 = x^3 - x + t^2")
    rep = check_condition(curve, "A1B", 1)
    assert rep.passed and not rep.certifying
    assert rep.subresults == {"A1": True, "B": True}
    assert any("NOT" in note for note in rep.notes)


def test_diagnostic_subchecks_split():
    # at t0=0 the curve y^2 = x^3 - t^2 x + 1 has cubic x^3 + 1 with the
    # rational root -1, so the irreducibility subcheck fails alone
    rep = check_condition(parse_curve("y^2 = x^3 - t^2*x + 1"), "A1B", 0)
    assert rep.subresults["A1"] is True
    assert rep.subresults["B"] is False
    assert not rep.passed


def test_checker_reads_the_model_once(monkeypatch):
    curve = parse_curve("y^2 = x^3 - t^2*x + 1")
    checker = Checker(curve, "A1B")
    reads = []
    coeff_polys = Curve.coeff_polys
    monkeypatch.setattr(Curve, "coeff_polys", lambda self: reads.append(self) or coeff_polys(self))
    reports = [checker.check(t0) for t0 in range(-3, 4)]
    assert reads == []
    for t0, report in zip(range(-3, 4), reports):
        assert certificate_to_json(report) == certificate_to_json(check_condition(curve, "A1B", t0))


def test_singular_t0_always_fails():
    # roots 0, t, 2t collide at t0 = 0, so the specialization is singular
    rep = check_condition(Curve.from_roots(RatFunc(0), t, 2 * t), "A", 0)
    assert not rep.passed
    assert rep.discriminant_value == 0


def test_unknown_condition_rejected():
    curve = parse_curve("y^2 = x^3 - x + t^2")
    doc = json.loads(certificate_to_json(check_condition(curve, "A1B", 1)))
    doc["condition"] = "bogus"
    calls = [
        lambda: Checker(curve, "bogus"),
        lambda: check_condition(curve, "bogus", 1),
        lambda: find_t0(curve, "bogus", SearchBudget(3, 2)),
        lambda: replay_certificate(doc),
    ]
    message = "unknown condition 'bogus'; choose from ('A', 'Aprime', 'scriptA', 'A1B')"
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


_SPLIT = parse_curve("e=(0, t, 7*t+1)")


@pytest.mark.parametrize(
    "call",
    [
        lambda: Checker(_SPLIT, "A").check(0.1),
        lambda: check_condition(_SPLIT, "A", 0.1),
        lambda: specialize_curve(_SPLIT, 0.1),
        lambda: specialize_point(_SPLIT, O, 0.1),
        lambda: homomorphism_check(_SPLIT, O, O, 0.1),
        lambda: mestre.build(0.1, 12),
        lambda: mestre.build(2, 0.1),
        lambda: mestre.generator_certificate(mestre.build(2, 12), 0.1, 2, "declared"),
    ],
    ids=["check", "check_condition", "specialize_curve", "specialize_point",
         "homomorphism_check", "build a", "build b", "generator_certificate"],
)
def test_a_float_t0_is_rejected(call):
    # 0.1 is not 1/10: at its binary value criterion A passes, at 1/10 it fails
    with pytest.raises(TypeError):
        call()


# -- search -------------------------------------------------------------------


def test_t0_candidate_order():
    first = list(itertools.islice(t0_candidates(), 8))
    assert first == [0, 1, -1, 2, -2, 3, -3, 4]


def test_t0_candidates_include_rationals():
    budget = SearchBudget(int_bound=2, rat_height=3)
    vals = list(t0_candidates(budget))
    assert Fraction(1, 2) in vals and Fraction(-2, 3) in vals
    assert len(vals) == len(set(vals))  # no duplicates


def test_find_t0_returns_first_passer():
    curve = parse_curve("y^2 = x^3 + t^2*x^2 - x")
    rep = find_t0(curve, "scriptA")
    assert rep.t0 == 2 and rep.passed


def test_find_t0_budget_exhaustion():
    # every specialization of a constant-coefficient curve keeps the same
    # squarefree divisor values' square classes rarely; force exhaustion
    # with a tiny budget on a curve whose small t0 all fail
    curve = parse_curve("y^2 = x^3 + t^2*x^2 - x")
    with pytest.raises(BudgetExhausted):
        find_t0(curve, "scriptA", SearchBudget(int_bound=1, rat_height=1))


@pytest.mark.parametrize("bounds", [{"int_bound": -3}, {"rat_height": -1}])
def test_negative_search_bounds_are_rejected(bounds):
    # a negative int_bound would skip every integer but 0 without a word
    with pytest.raises(ValueError, match="nonnegative"):
        SearchBudget(**bounds)
    assert list(t0_candidates(SearchBudget(int_bound=0, rat_height=0))) == [0]


# -- certificates -------------------------------------------------------------


def test_certificate_round_trip():
    curve = parse_curve("y^2 = x^3 + t^2*x^2 - x")
    rep = check_condition(curve, "scriptA", 2)
    doc = certificate_to_json(rep)
    matches, fresh = replay_certificate(doc)
    assert matches
    assert fresh.passed == rep.passed
    # serialization is deterministic and idempotent under replay
    assert certificate_to_json(fresh) == doc


def test_certificate_round_trip_split_curve():
    curve = Curve.from_roots(RatFunc(0), t, 7 * t + 1)
    rep = check_condition(curve, "A", Fraction(1, 21))
    matches, fresh = replay_certificate(certificate_to_json(rep))
    assert matches and fresh.passed


@pytest.mark.parametrize(
    "cdoc, text",
    [
        ({"split_roots": ["0", "t", "7*t+1"]}, "e=(0, t, 7*t+1)"),
        ({"A": "t", "B": "t^2+1", "C": "3"}, "A=t; B=t^2+1; C=3"),
    ],
    ids=["split", "coefficients"],
)
def test_replayed_curve_is_built_like_a_parsed_one(monkeypatch, cdoc, text):
    calls = 0
    init = RatFunc.__init__

    def counting_init(self, *args):
        nonlocal calls
        calls += 1
        init(self, *args)

    monkeypatch.setattr(RatFunc, "__init__", counting_init)
    parsed = parse_curve(text)
    parsing_calls = calls
    calls = 0
    replayed = conditions._curve_from_json(cdoc)
    assert calls <= parsing_calls <= 7
    assert (replayed.A, replayed.B, replayed.C) == (parsed.A, parsed.B, parsed.C)
    assert replayed.split_roots == parsed.split_roots


def test_replayed_split_roots_must_be_polynomials():
    with pytest.raises(ParseError):
        conditions._curve_from_json({"split_roots": ["0", "1/t", "7*t+1"]})


def test_tampered_certificate_detected():
    curve = parse_curve("y^2 = x^3 + t^2*x^2 - x")
    doc = json.loads(certificate_to_json(check_condition(curve, "scriptA", 2)))
    doc["checks"][0]["square"] = not doc["checks"][0]["square"]
    matches, _ = replay_certificate(doc)
    assert not matches


def test_certificate_schema_guard():
    with pytest.raises(ValueError):
        replay_certificate({"schema": "something-else/9"})


@pytest.mark.parametrize(
    "text, condition, t0",
    [("e=(0, t, 7*t+1)", "A", Fraction(1, 21)), ("y^2 = x^3 + t^2*x^2 - x", "scriptA", 2),
     ("y^2 = x^3 + t*x + 1", "A1B", 3)],
    ids=["A", "scriptA", "A1B"],
)
def test_replay_asks_for_the_fields_a_certificate_has(text, condition, t0):
    report = check_condition(parse_curve(text), condition, t0)
    assert set(conditions._certificate_doc(report)) == conditions._FIELDS


@pytest.mark.parametrize(
    "removed, message",
    [(["checks"], "certificate lacks checks"),
     (["t0", "notes", "checks"], "certificate lacks checks, notes, t0")],
)
def test_replay_checks_its_fields_before_any_arithmetic(monkeypatch, removed, message):
    doc = json.loads(certificate_to_json(check_condition(_SPLIT, "A", Fraction(1, 21))))
    for key in removed:
        del doc[key]
    built = []
    init = Checker.__init__
    monkeypatch.setattr(Checker, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    with pytest.raises(ValueError) as info:
        replay_certificate(doc)
    assert str(info.value) == message
    assert built == []


# -- exactness spot check -----------------------------------------------------


def test_divisor_values_are_exact():
    curve = Curve.from_roots(RatFunc(0), t, 7 * t + 1)
    rep = check_condition(curve, "A", Fraction(1, 21))
    for chk in rep.checks:
        assert chk.value == chk.divisor(Fraction(1, 21))
        assert (chk.square_root is None) == (is_square_rat(chk.value) is None)


def _fraction_horner(h: IntPoly, t0: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(h.coeffs):
        acc = acc * t0 + c
    return acc


@pytest.mark.parametrize("kind", ["split", "C=0", "general"])
def test_divisor_values_are_divisors_at_t0(kind):
    rng = random.Random(f"divisor values {kind}")
    reports = []
    while len(reports) < 40:
        if kind == "split":
            curve, _ = random_split_curve_with_point(rng)
            condition = rng.choice(["A", "Aprime"])
        elif kind == "C=0":
            curve, _ = random_c0_curve_with_point(rng)
            condition = "scriptA"
        else:
            curve = sample_curve("general", rng)
            condition = "A1B"
        try:
            for t0 in (Fraction(2), Fraction(-3, 5), Fraction(7, 4)):
                rep = check_condition(curve, condition, t0)
                if rep.discriminant_value:  # every divisor, in enumeration order
                    targets = _TARGET_BUILDERS[condition](curve)
                    assert [c.divisor for c in rep.checks] == [
                        h for _, pieces in targets for h in enumerate_divisors(math.prod(pieces))
                    ]
                reports.append(rep)
            reports.append(find_t0(curve, condition, SearchBudget(8, 4)))
        except ValueError:  # scriptA on a curve whose cubic splits
            continue
        except BudgetExhausted:
            pass
    checks = [(rep.t0, chk) for rep in reports for chk in rep.checks]
    assert len(checks) > 100
    for t0, chk in checks:
        assert chk.value == chk.divisor(t0) == _fraction_horner(chk.divisor, t0)


# -- one preparation per curve and criterion -----------------------------------
#
# check_condition, and through it replay and mestre, share the Checker of a
# (condition, curve, split roots in order): its factored targets, its one
# divisor listing and each divisor's text.  find_t0 builds its own.

SHARED = [("A", "e=(0, t, 7*t+1)"), ("Aprime", "e=(0, t, 7*t+1)"),
          ("scriptA", "y^2 = x^3 + t^2*x^2 - x"), ("A1B", "y^2 = x^3 + (t^2 + 1)*x + t")]
SHARED_T0S = [Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3), Fraction(7)]


def _count_factoring(monkeypatch) -> list:
    """Every input of a factor call from conditions."""
    calls = []
    monkeypatch.setattr(conditions, "factor", lambda p: calls.append(p) or factor(p))
    return calls


@pytest.mark.parametrize("condition, text", SHARED)
def test_an_in_process_replay_lists_and_factors_nothing(monkeypatch, condition, text):
    curve = parse_curve(text)
    report = check_condition(curve, condition, Fraction(2))
    assert report.curve is curve
    listings, factored = _count_listings(monkeypatch), _count_factoring(monkeypatch)
    matches, fresh = replay_certificate(certificate_to_json(report))
    assert matches
    assert listings == factored == []
    assert fresh.curve == curve and fresh.curve is not curve  # the replay names its own curve


@pytest.mark.parametrize("condition, text", SHARED)
def test_certificates_from_a_shared_listing_equal_cold_ones(condition, text):
    warm = [certificate_to_json(check_condition(parse_curve(text), condition, t0))
            for t0 in SHARED_T0S]
    for t0, certificate in zip(SHARED_T0S, warm):
        conditions._prepare.cache_clear()
        factor.cache_clear()
        assert certificate_to_json(check_condition(parse_curve(text), condition, t0)) == certificate


@pytest.mark.parametrize("condition, text", SHARED)
def test_a_shared_checker_lists_once_for_every_t0(monkeypatch, condition, text):
    listings = _count_listings(monkeypatch)
    reports = [check_condition(parse_curve(text), condition, t0) for t0 in SHARED_T0S]
    assert all(report.discriminant_value for report in reports)
    checker = conditions._prepared(parse_curve(text), condition)
    assert listings == [factors for _, factors, _ in checker.targets]


@pytest.mark.parametrize("condition, text", SHARED)
def test_a_search_leaves_the_shared_checkers_alone(monkeypatch, condition, text):
    listings = _count_listings(monkeypatch)
    curve = parse_curve(text)
    found = find_t0(curve, condition, SearchBudget(30, 6))
    assert found.curve is curve
    assert conditions._prepare.cache_info().currsize == 0
    searched = len(listings)
    report = check_condition(parse_curve(text), condition, found.t0)
    assert certificate_to_json(report) == certificate_to_json(found)
    assert searched == len(listings) - searched > 0  # the search's own Checker listed once


@pytest.mark.parametrize("condition, text", SHARED)
def test_each_divisor_is_formatted_once_and_only_for_output(monkeypatch, condition, text):
    formatted = []
    format_ = IntPoly._format
    monkeypatch.setattr(IntPoly, "_format", lambda self: formatted.append(self) or format_(self))
    reports = [check_condition(parse_curve(text), condition, t0) for t0 in SHARED_T0S]
    assert formatted == []  # listing and evaluating write no text
    for report in reports:
        assert replay_certificate(certificate_to_json(report))[0]
        report.summary()
    divisors = {id(c.divisor): c.divisor for report in reports for c in report.checks}
    times = collections.Counter(id(p) for p in formatted)
    assert len(divisors) > 1
    assert all(times[key] == 1 for key in divisors)


def test_the_preparation_memo_is_small_and_keeps_no_error():
    assert conditions._prepare.cache_info().maxsize == conditions._PREPARED_MAX == 8
    split = parse_curve("y^2 = x^3 - t^2*x")
    for _ in range(2):
        with pytest.raises(ValueError, match="the cubic splits"):
            check_condition(split, "scriptA", 2)
    with pytest.raises(ValueError, match=r"^unknown condition \['A'\]"):
        check_condition(split, ["A"], 2)  # a name that does not hash
    assert conditions._prepare.cache_info().currsize == 0
    for n in range(conditions._PREPARED_MAX + 2):
        check_condition(parse_curve(f"e=(0, t, t+{n + 1})"), "A", 2)
    assert conditions._prepare.cache_info().currsize == conditions._PREPARED_MAX


def test_the_split_roots_in_order_are_part_of_the_key():
    first, second = parse_curve("e=(0, t, 7*t+1)"), parse_curve("e=(t, 0, 7*t+1)")
    assert first == second
    warm = [certificate_to_json(check_condition(c, "A", 2)) for c in (first, second)]
    assert warm[0] != warm[1]
    conditions._prepare.cache_clear()
    assert certificate_to_json(check_condition(second, "A", 2)) == warm[1]
    # the same cubic given by its coefficients has no split roots for A
    A, B, C = first.coeff_polys()
    with pytest.raises(ValueError, match="no recorded split roots"):
        check_condition(Curve(A, B, C), "A", 2)
