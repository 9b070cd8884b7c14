import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ellspec import parsing
from ellspec.curves import Curve, O
from ellspec.intpoly import IntPoly, _gcd_cofactors
from ellspec.parsing import (
    MAX_DEGREE,
    MAX_NESTING,
    ParseError,
    parse_curve,
    parse_point,
    parse_poly,
    parse_ratfunc,
)
from ellspec.ratfunc import RatFunc

T = IntPoly.monomial(1, 1)
t = RatFunc(T)


def test_parse_poly():
    assert parse_poly("t^2 - 2*t + 2") == T**2 - 2 * T + 2
    assert parse_poly("-(t+1)^3") == -((T + 1) ** 3)
    assert parse_poly("7") == IntPoly.const(7)
    assert parse_poly("t*(6*t+1)*(7*t+1)") == T * (6 * T + 1) * (7 * T + 1)


def test_parse_poly_rejects_non_integer():
    with pytest.raises(ParseError):
        parse_poly("t/2")
    with pytest.raises(ParseError):
        parse_poly("1/(t+1)")


def test_parse_ratfunc():
    assert parse_ratfunc("(t^2-1)/(t-1)") == t + 1
    assert parse_ratfunc("1/2") == RatFunc(1, 2)
    assert parse_ratfunc("-t^2/(t+1)") == RatFunc(-(T**2), T + 1)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_poly("t^")
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse_poly("t + ")
    with pytest.raises(ParseError):
        parse_poly("(t+1")
    with pytest.raises(ParseError):
        parse_poly("t~1")
    with pytest.raises(ParseError):
        parse_ratfunc("1/0")


def test_degree_limit():
    assert parse_poly("t^1000") == T**MAX_DEGREE
    assert parse_ratfunc("(1/t^500)^2") == 1 / t**1000
    # rejected before computing, at the exponent or the operator
    for text, position in [("t^1001", 2), ("(t^500)^3", 8), ("(1/t^500)/t^501", 9)]:
        with pytest.raises(ParseError) as exc:
            parse_ratfunc(text)
        assert exc.value.position == position
    with pytest.raises(ParseError):
        parse_curve("y^2 = x^3 + x^1001")


def test_sum_degree_limit():
    # the common denominator of a sum has the degree of the product of its
    # operands' denominators, counted before any cancellation
    assert parse_ratfunc("1/(t^500+1) + 1/(t^500+2)").den.degree == 1000
    with pytest.raises(ParseError) as exc:
        parse_ratfunc("1/(t^600+1) + 1/(t^600+2)")
    assert exc.value.position == 12
    with pytest.raises(ParseError):
        parse_ratfunc("(t^600+1)/(t^600+1) - 1/(t^600+2)")


def test_nesting_limit():
    deepest = "(" * MAX_NESTING + "t" + ")" * MAX_NESTING
    assert parse_poly(deepest) == T
    assert parse_poly("-" + deepest + "^2") == -(T**2)
    with pytest.raises(ParseError) as exc:
        parse_poly("(" + deepest + ")")
    assert exc.value.position == MAX_NESTING
    # a run of signs is read in a loop, not nested
    assert parse_poly("-" * 4001 + "t") == -T
    assert parse_poly("+-" * 2000 + "+t^2") == T**2


def test_long_sum_parses_quickly():
    n = 200
    start = time.perf_counter()
    f = parse_ratfunc(" + ".join(f"1/(t+{k})" for k in range(1, n + 1)))
    assert time.perf_counter() - start < 2.0
    assert f.den.degree == n
    assert f(Fraction(1)) == sum(Fraction(1, k + 1) for k in range(1, n + 1))


def _fraction_sum(n: int) -> str:
    return " + ".join(f"1/(t+{k})" for k in range(1, n + 1))


def test_a_long_sum_takes_no_gcd_of_two_large_parts(monkeypatch):
    """Each 1/(t+k) is held in Q(t) and added by Henrici's rule, so the
    running sum never meets a gcd of its whole numerator and denominator."""
    calls = []
    monkeypatch.setattr("ellspec.ratfunc._gcd_cofactors", lambda a, b: calls.append((a, b)) or _gcd_cofactors(a, b))
    f = parse_ratfunc(_fraction_sum(50))
    assert f.den.degree == 50 and f.num.degree == 49
    assert calls and all(min(a.degree, b.degree) < 2 for a, b in calls)


def test_a_sum_of_600_fractions_parses_in_a_bounded_time():
    src = os.path.dirname(os.path.dirname(parsing.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys\n"
        "from ellspec.parsing import parse_ratfunc\n"
        "print(parse_ratfunc(sys.stdin.read()).den.degree)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=_fraction_sum(600), env=env, capture_output=True, text=True, timeout=8,
    )
    assert (proc.returncode, proc.stdout) == (0, "600\n"), proc.stderr


@pytest.mark.parametrize(
    "text, bound",
    [
        ("A=-t + 6; B=t^2 - t + 10; C=-t^3 + t^2 + 5*t + 3", 24),
        ("e=(0, -t - 2, 3*t + 1)", 36),
        ("y^2 = x^3 + (t + 3)*x^2 + (-t^3 + 2*t^2 - 3*t + 4)*x", 24),
    ],
    ids=["coefficient form", "split form", "equation form"],
)
def test_parsing_a_curve_builds_few_polynomials(monkeypatch, text, bound):
    """The parser computes on coefficient lists and builds one IntPoly per
    output part; the rest is the curve's own model and discriminant."""
    built = 0
    init = IntPoly.__init__

    def counting_init(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(IntPoly, "__init__", counting_init)
    parse_curve(text)
    assert built <= bound


@pytest.mark.parametrize(
    "text",
    [
        "A=(t^2-1)/(t-1) - 3/2*t; B=(t+1)^3/(2*t) + t/(t+1); C=-1/(t^2+1) + 5",
        "y^2 = x^3 + (t/2 + 1)*x^2 - (x*(t-1) - 1/(t+1))*(x+1) + t^2/3",
    ],
    ids=["coefficient form", "equation form"],
)
def test_each_coefficient_is_reduced_once(monkeypatch, text):
    calls = 0
    init = RatFunc.__init__

    def counting_init(self, *args):
        nonlocal calls
        calls += 1
        init(self, *args)

    monkeypatch.setattr(RatFunc, "__init__", counting_init)
    curve = parse_curve(text)
    parsing_calls = calls
    calls = 0
    Curve(curve.A, curve.B, curve.C)  # what building the curve itself costs
    assert parsing_calls - calls <= 3


def test_parse_curve_split_form():
    curve = parse_curve("e=(0, t, 7*t+1)")
    assert curve.split_roots == (RatFunc(0), t, 7 * t + 1)
    with pytest.raises(ParseError):
        parse_curve("e=(0, t)")


def test_parse_curve_equation_form():
    curve = parse_curve("y^2 = x^3 + t^2*x^2 - x")
    assert (curve.A, curve.B, curve.C) == (t * t, RatFunc(-1), RatFunc(0))
    # x terms may appear in any order and combine
    curve2 = parse_curve("y^2 = x + x^3 - 2*x")
    assert (curve2.A, curve2.B, curve2.C) == (RatFunc(0), RatFunc(-1), RatFunc(0))
    with pytest.raises(ParseError):
        parse_curve("y^2 = x^2 + 1")  # not a cubic
    with pytest.raises(ParseError):
        parse_curve("y^2 = 2*x^3 + 1")  # not monic


def test_parse_curve_coefficient_form():
    curve = parse_curve("A=t^2; B=-1; C=0")
    assert (curve.A, curve.B, curve.C) == (t * t, RatFunc(-1), RatFunc(0))
    assert parse_curve("A=t^2, B=-1, C=0") == curve
    with pytest.raises(ParseError):
        parse_curve("A=1; B=2")
    with pytest.raises(ParseError):
        parse_curve("x^3 + 1")


@pytest.mark.parametrize(
    "text, position, message",
    [
        # a repeated coefficient, at its key
        ("A=t; B=1; A=2; C=3", 10, "coefficient 'A' given twice"),
        ("A=t, B=1, C=3, B=2", 15, "coefficient 'B' given twice"),
        ("A=t; C=1; B=2; C=3", 15, "coefficient 'C' given twice"),
        ("A=t; B=t^2+1 C=3", 13, "expected ';' or ','"),
        ("A=1; B=2", 8, "needs A, B and C"),
        ("A=1; D=2; C=3", 5, "expected a coefficient"),
        ("y^2 = x^3 + t*x + (", 19, "expected a number"),
        ("y^2 =  2*x^3 + 1", 7, "monic cubic"),
        ("e=(0, t)", 7, "expected ','"),
        ("  x^3 + 1", 2, "must start with"),
        ("e=(x, t, 1)", 3, "unexpected symbol 'x'"),  # x only after y^2 =
    ],
)
def test_curve_errors_point_into_the_whole_text(text, position, message):
    with pytest.raises(ParseError, match=message) as exc:
        parse_curve(text)
    assert exc.value.position == position


def test_whitespace_may_separate_any_two_tokens():
    assert parse_curve("e\t=\n(0,\tt , 7 * t+1)\n") == parse_curve("e=(0, t, 7*t+1)")
    assert parse_curve("y\n^ 2\t= x^3 - x") == parse_curve("y^2 = x^3 - x")
    assert parse_curve(" A\t= t ;\nB=1 ,C =0") == parse_curve("A=t; B=1; C=0")
    assert parse_point("\tO\n") == O


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_curve, "e=(0, t, 1)"),
        (parse_curve, "y^2 = x^3 - x"),
        (parse_curve, "A=t; B=1; C=0"),
        (parse_point, "(1, t)"),
        (parse_point, " O"),
    ],
)
def test_one_parser_reads_the_whole_text(monkeypatch, parse, text):
    read = []

    class Recording(parsing._Parser):
        def __init__(self, text):
            read.append(text)
            super().__init__(text)

    monkeypatch.setattr(parsing, "_Parser", Recording)
    parse(text)
    assert read == [text]


_VALID = [
    (parse_curve, "e=(0, t, 7*t+1)"),
    (parse_curve, "A=t^2; B=-1, C=(t+1)/2"),
    (parse_curve, " y^2 =\tx^3 + t^2*x^2 - 12*x "),
    (parse_point, "( (t^2-1)/(t+1) , -3/4 )"),
    (parse_poly, "  -(t+1)^3 + 12*t"),
]
# a valid text, its parser and an index at which to insert a '$'
_insertions = st.sampled_from(_VALID).flatmap(
    lambda case: st.tuples(*map(st.just, case), st.integers(0, len(case[1])))
)


@settings(max_examples=200, deadline=None)
@given(_insertions)
@example((parse_curve, "e=(0, t, 7*t+1)", 13))
@example((parse_poly, "t 1", 2))  # after a space
def test_a_bad_character_is_reported_at_its_index(insertion):
    parse, text, index = insertion
    with pytest.raises(ParseError, match=r"unexpected character '\$'") as exc:
        parse(text[:index] + "$" + text[index:])
    assert exc.value.position == index


@pytest.mark.parametrize(
    "text, character",
    [("t + \u0663", "\u0663"), ("\uff12*t", "\uff12"), ("t +\u00a01", "\xa0")],
)
def test_only_ascii_digits_and_spaces_are_read(text, character):
    # an Arabic-Indic three, a fullwidth two, a no-break space
    with pytest.raises(ParseError, match="unexpected character") as exc:
        parse_poly(text)
    assert exc.value.position == text.index(character)


def test_a_digit_run_over_the_int_limit_is_reported_at_its_offset():
    limit = sys.get_int_max_str_digits()
    assert parse_poly("t + " + "1" * limit) == T + int("1" * limit)
    with pytest.raises(ParseError, match=f"longer than {limit} digits") as exc:
        parse_poly("t + " + "1" * (limit + 1))
    assert exc.value.position == 4


def test_parse_point():
    assert parse_point("O") == O
    P = parse_point("(1, t)")
    assert (P.x, P.y) == (RatFunc(1), t)
    Q = parse_point("( (t^2-1)/(t+1) , -3/4 )")
    assert (Q.x, Q.y) == (t - 1, RatFunc(-3, 4))
    with pytest.raises(ParseError):
        parse_point("(1)")


def test_print_parse_round_trip():
    for text in ("t^3 - 2*t + 5", "-4*t^2", "42*t^14 + t"):
        p = parse_poly(text)
        assert parse_poly(str(p)) == p
    f = parse_ratfunc("(3*t+1)/(2*t^2-5)")
    assert parse_ratfunc(str(f)) == f
