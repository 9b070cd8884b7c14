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
    # a value is held in lowest terms, x-dependent or not: x^3*t/t has degree 3
    assert parse_curve("y^2 = x^3*t/t + t^1000").C == t**1000
    # rejected before computing, at the exponent or the operator
    for text, position in [("t^1001", 2), ("(t^500)^3", 8), ("(1/t^500)/t^501", 9)]:
        with pytest.raises(ParseError) as exc:
            parse_ratfunc(text)
        assert exc.value.position == position
    with pytest.raises(ParseError):
        parse_curve("y^2 = x^3 + x^1001")
    # a power of t or x is checked before it is built, at the same offsets
    for parse, text, message in [
        (parse_poly, "t^1001", "exponent 1001 exceeds the limit 1000 at offset 2"),
        (parse_poly, "t^1000*t", "degree 1001 exceeds the limit 1000 at offset 6"),
        (parse_curve, "y^2 = x^3 + x^1000*x", "degree 1001 exceeds the limit 1000 at offset 18"),
        (parse_poly, "x^3", "unexpected symbol 'x' at offset 0"),
        (parse_curve, "A=x^2; B=1; C=1", "unexpected symbol 'x' at offset 2"),
        (parse_curve, "e=(0, t, x^0)", "unexpected symbol 'x' at offset 9"),
    ]:
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse(text)


def test_sum_degree_limit():
    # a sum has the degree of the product of its operands' denominators,
    # counted before the sum cancels anything
    assert parse_ratfunc("1/(t^500+1) + 1/(t^500+2)").den.degree == 1000
    assert parse_curve("y^2 = x^3 + x/(t^500+1) + x/(t^500+2)").B.den.degree == 1000
    with pytest.raises(ParseError) as exc:
        parse_ratfunc("1/(t^600+1) + 1/(t^600+2)")
    assert exc.value.position == 12
    with pytest.raises(ParseError):
        parse_ratfunc("(t^600+1)/(t^600+1) - 1/(t^600+2)")
    # x-dependent fractions: each operand meets the lcm of the other's denominators
    for text, message in [
        ("y^2 = x^3 + x/(t^600+1) + x/(t^600+2)", "degree 1200 exceeds the limit 1000 at offset 24"),
        ("y^2 = x^3 + x^2/(t^600+1) - 1/(t^600+2)", "degree 1200 exceeds the limit 1000 at offset 26"),
        ("y^2 = x^3 + x/t^400 + x/t^700", "degree 1100 exceeds the limit 1000 at offset 20"),
        ("y^2 = (x/t^300)^3*t^900 + x/t^400 + x/t^600", "degree 1800 exceeds the limit 1000 at offset 17"),
    ]:
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_curve(text)


def test_product_degree_limit():
    # an x-dependent operand counts over the lcm of its coefficients'
    # denominators, whose degree a product's coefficients can reach
    curve = parse_curve("y^2 = x^3 + (x/(t^250+1) + 1/(t^250+2))*(x/(t^248+3) + 1/(t^248+4))")
    assert curve.B.den.degree == 996
    for text, degree, offset in [
        ("y^2 = x*(x/(t^500+1) + 1/(t^500+2))*((t^500+1)*x + 1/(t^500+3))", 1001, 7),
        ("y^2 = x^3 + (x/(t^250+1) + 1/(t^250+2))*(x^2/(t^250+3) + 1/(t^250+4))", 1003, 10),
        ("y^2 = (x/(t^500+1) + 1/(t^500+2))*((t^500+1)*x^2 + x/(t^500+3) + 1/(t^500+4))", 1500, 63),
        ("y^2 = (x^2/(t^200+1) + x/(t^200+2) + 1/(t^200+3))^2", 1200, 50),
    ]:
        with pytest.raises(ParseError, match=f"^degree {degree} exceeds the limit 1000 at offset {offset}$"):
            parse_curve(text)


_SMALL_LIMIT = 8
_terms = st.tuples(
    st.sampled_from(["1", "2", "t", "x", "x^2"]),
    st.sampled_from(["", "/t^2", "/(t+1)", "/(t^2-3)", "/(t^3+t+1)", "/(t^4-2*t+5)"]),
).map("".join)
_sums = st.lists(_terms, min_size=1, max_size=3).map(lambda terms: f"({' - '.join(terms)})")
_texts = st.one_of(
    st.lists(_sums, min_size=2, max_size=3).map(" * ".join),
    st.lists(_sums, min_size=2, max_size=3).map(" + ".join),
    st.tuples(_sums, st.integers(2, 4)).map(lambda p: f"{p[0]}^{p[1]}"),
    st.tuples(_sums, _sums).map(" / ".join),
)


@settings(max_examples=300, deadline=None)
@given(_texts)
@example("(2*x/(t^4-2*t+5) - x^2/t^2) * (x^2/(t^3+t+1) - x/(t^3+t+1) - 1/t^2)")
@example("(1/(t^4-2*t+5) - x/(t^2-3) - x^2/(t^3+t+1))^2")
def test_the_degree_limit_bounds_every_polynomial_computed(text):
    """With the limit lowered to 8, no polynomial in t that a parse builds,
    nor a degree in x, goes past it, whether the text parses or not."""
    built = []
    trusted, init, mul = IntPoly._trusted.__func__, IntPoly.__init__, parsing._mul

    def recorded_mul(f, g):  # packed or by an integer; RatFunc parts are recorded as IntPolys
        product = mul(f, g)
        built.extend(len(n) - 1 for n in [product, *product] if isinstance(n, list))
        return product

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parsing, "MAX_DEGREE", _SMALL_LIMIT)
        patch.setattr(parsing, "Curve", _RecordedCurve)
        patch.setattr(parsing, "_mul", recorded_mul)
        patch.setattr(IntPoly, "_trusted", classmethod(lambda cls, c: built.append(len(c) - 1) or trusted(cls, c)))
        patch.setattr(IntPoly, "__init__", lambda p, c=(): init(p, c) or built.append(p.degree))
        try:
            parse_curve(f"y^2 = x^3 + {text}")
        except ParseError:
            pass
    assert max(built, default=0) <= _SMALL_LIMIT


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


class _RecordedCurve:
    """Stands in for Curve, so only the parser's own arithmetic is counted."""

    def __init__(self, *coeffs):
        self.coeffs = coeffs

    @classmethod
    def from_roots(cls, *roots):
        return cls(*roots)


@pytest.mark.parametrize(
    "text",
    [
        "A=-t + 6; B=t^2 - t + 10; C=-(t - 1)^3 + t^2 + 5*t + 3",
        "e=(0, --t - 2, (3*t + 1)^2)",
        "y^2 = (x - t)^3 + (t + 3)*x^2 - -(-t^3 + 2*t^2 - 3*t + 4)*x",
    ],
    ids=["coefficient form", "split form", "equation form"],
)
def test_a_text_without_a_slash_does_no_arithmetic_in_q_t(monkeypatch, text):
    """Without a '/', a value stays on Z[t] int lists; only the output
    coefficients are built as RatFunc."""
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__"):
        op = getattr(RatFunc, name)
        monkeypatch.setattr(RatFunc, name, lambda a, b, op=op, name=name: calls.append(name) or op(a, b))
    monkeypatch.setattr(parsing, "Curve", _RecordedCurve)
    curve = parse_curve(text)
    assert calls == [] and all(isinstance(c, RatFunc) for c in curve.coeffs)
    parse_curve(text.replace("3", "3/1"))  # the same text with a '/' is counted
    assert "__truediv__" in calls


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
    # a power of t and a product by an integer, built without a packed product
    for text, expected in [
        ("t^0", IntPoly.const(1)),
        ("t^1", T),
        ("t^1000", T**1000),
        ("0*t^5", IntPoly()),
        ("-(t^3)", -(T**3)),
        ("2^3*t", 8 * T),
        ("t^2*-5 + t^0*7", -5 * T**2 + 7),
    ]:
        p = parse_poly(text)
        assert p == expected and parse_poly(str(p)) == p
    for text, coeffs in [
        ("y^2 = x^3 + 3*x^2*t^2 - x^0", (3 * t**2, 0, -1)),
        ("y^2 = x^1*x^2 - t*x^1 + 2^3", (0, -t, 8)),
    ]:
        curve = parse_curve(text)
        assert (curve.A, curve.B, curve.C) == tuple(map(RatFunc._coerce, coeffs))
        assert parse_curve(str(curve)) == curve
    f = parse_ratfunc("(3*t+1)/(2*t^2-5)")
    assert parse_ratfunc(str(f)) == f
