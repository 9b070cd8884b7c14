"""The parser against sympy's cancel of the same text, used here only as
an oracle: random expression trees in the grammar, printed with the
fewest parentheses the precedence rules allow."""

import pytest
from hypothesis import example, given, settings, strategies as st

from ellspec.curves import SingularCurveError
from ellspec.parsing import ParseError, parse_curve, parse_ratfunc

sympy = pytest.importorskip("sympy")

_t, _x = sympy.symbols("t x")

# Precedence of each node's printed form; a child with a lower one than
# its position needs is parenthesized.
_ATOM, _POW, _NEG, _MUL, _ADD = 5, 4, 3, 2, 1


def render(node) -> tuple[str, int]:
    kind = node[0]
    if kind == "leaf":
        return node[1], _ATOM
    if kind == "pow":
        base, prec = render(node[1])
        return f"{base if prec == _ATOM else f'({base})'}^{node[2]}", _POW
    if kind == "neg":
        inner, prec = render(node[1])
        return f"-{inner if prec >= _NEG else f'({inner})'}", _NEG
    op, level = {"add": ("+", _ADD), "sub": ("-", _ADD), "mul": ("*", _MUL), "div": ("/", _MUL)}[kind]
    (left, lp), (right, rp) = render(node[1]), render(node[2])
    left = left if lp >= level else f"({left})"
    right = right if rp > level else f"({right})"  # both operators are left-associative
    return f"{left} {op} {right}", level


def oracle(node):
    """sympy value of the tree, and whether some divisor in it is zero or
    depends on x (which the parser must reject)."""
    kind = node[0]
    if kind == "leaf":
        return sympy.sympify(node[1], locals={"t": _t, "x": _x}), False
    if kind in ("pow", "neg"):
        value, bad = oracle(node[1])
        return (value ** node[2] if kind == "pow" else -value), bad
    (a, bad_a), (b, bad_b) = oracle(node[1]), oracle(node[2])
    if kind == "div":
        b = sympy.cancel(b)
        if b == 0 or b.has(_x):
            return sympy.Integer(0), True
        return a / b, bad_a or bad_b
    return {"add": a + b, "sub": a - b, "mul": a * b}[kind], bad_a or bad_b


def to_sympy(f):
    poly = lambda p: sum(c * _t**i for i, c in enumerate(p.coeffs))
    return poly(f.num), poly(f.den)


def assert_equals_cancel(f, expected):
    num, den = to_sympy(f)
    p, q = sympy.fraction(sympy.cancel(expected))
    assert sympy.expand(num * q - den * p) == 0
    assert sympy.gcd(num, den) == 1 and f.den.lc > 0  # the canonical form


def trees(leaves):
    # a power's base is a leaf or a sum of two, which keeps every degree
    # far below the parser's limit
    small = leaves | st.tuples(st.sampled_from(["add", "sub"]), leaves, leaves)
    powers = st.tuples(st.just("pow"), small, st.integers(0, 4))

    def extend(children):
        return (
            st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), children, children)
            | st.tuples(st.just("neg"), children)
            | st.tuples(children, children).map(lambda ab: ("div", ("mul", ab[0], ab[1]), ab[1]))
        )

    # small sums such as t - t give zero divisors often enough
    return st.recursive(leaves | small | powers, extend, max_leaves=10)


_numbers = st.integers(0, 40) | st.sampled_from([0, 1, 2**64 + 13])
scalar_leaves = st.one_of(_numbers.map(str), st.just("t")).map(lambda s: ("leaf", s))
x_leaves = scalar_leaves | st.just(("leaf", "x"))


@settings(max_examples=200, deadline=None)
@given(trees(scalar_leaves))
@example(("div", ("sub", ("pow", ("leaf", "t"), 2), ("leaf", "1")), ("sub", ("leaf", "t"), ("leaf", "1"))))
@example(("div", ("leaf", "1"), ("sub", ("leaf", "t"), ("leaf", "t"))))  # division by zero
@example(("div", ("leaf", "0"), ("add", ("leaf", "t"), ("leaf", "1"))))  # zero over a nonconstant
# powers of t and products by an integer
@example(("add", ("pow", ("leaf", "t"), 0), ("pow", ("leaf", "t"), 1)))
@example(("sub", ("pow", ("leaf", "t"), 1000), ("mul", ("leaf", "0"), ("pow", ("leaf", "t"), 5))))
@example(("neg", ("pow", ("leaf", "t"), 3)))
@example(("mul", ("pow", ("leaf", "2"), 3), ("leaf", "t")))
def test_ratfunc_matches_sympy_cancel(tree):
    text, _ = render(tree)
    _, rejected = oracle(tree)
    if rejected:
        with pytest.raises(ParseError, match="division by zero"):
            parse_ratfunc(text)
        return
    f = parse_ratfunc(text)
    assert_equals_cancel(f, sympy.sympify(text.replace("^", "**"), locals={"t": _t}))
    assert parse_ratfunc(str(f)) == f


@settings(max_examples=150, deadline=None)
@given(trees(x_leaves))
@example(("mul", ("leaf", "x"), ("div", ("leaf", "t"), ("leaf", "2"))))
@example(("div", ("leaf", "t"), ("leaf", "x")))  # division by an x-dependent value
@example(("div", ("pow", ("leaf", "x"), 2), ("sub", ("leaf", "x"), ("leaf", "x"))))
# powers of x and t and products by an integer
@example(("add", ("mul", ("mul", ("leaf", "3"), ("pow", ("leaf", "x"), 2)), ("pow", ("leaf", "t"), 2)),
          ("pow", ("leaf", "x"), 0)))
@example(("pow", ("leaf", "x"), 3))
@example(("sub", ("mul", ("leaf", "x"), ("pow", ("leaf", "t"), 0)), ("mul", ("leaf", "0"), ("pow", ("leaf", "x"), 2))))
def test_curve_rhs_matches_sympy_cancel(tree):
    rest, _ = render(tree)
    text = f"y^2 = x^3 + {rest}"
    _, rejected = oracle(tree)
    if rejected:
        with pytest.raises(ParseError, match="division by"):
            parse_curve(text)
        return
    rhs = sympy.cancel(sympy.sympify(text.split("=")[1].replace("^", "**"), locals={"t": _t, "x": _x}))
    p, q = sympy.fraction(rhs)
    if sympy.degree(p, _x) != 3 or sympy.cancel(sympy.Poly(p, _x).LC() / q) != 1:
        with pytest.raises(ParseError, match="monic cubic"):
            parse_curve(text)
        return
    coeffs = [sympy.cancel(c / q) for c in reversed(sympy.Poly(p, _x).all_coeffs())]
    if sympy.discriminant(p, _x) == 0:
        with pytest.raises(SingularCurveError):
            parse_curve(text)
        return
    curve = parse_curve(text)
    for f, expected in zip((curve.C, curve.B, curve.A), coeffs):
        assert_equals_cancel(f, expected)
    assert parse_curve(str(curve)) == curve
