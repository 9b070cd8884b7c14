"""Text input for polynomials, rational functions, curves and points.

Grammar (also used by the printers, so parse-print-parse is a fixpoint):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')* base ('^' uint)?
    base   := uint | 't' | 'x' | '(' expr ')'

Values are built in Z[t] over one common denominator and each output
coefficient is reduced in Q(t) once, at the end.  Division is only
allowed by x-free subexpressions.  An exponent, a power, a product or a
sum whose degree in t or x, counted before cancellation, would exceed
MAX_DEGREE is rejected before it is computed, and so are parentheses
nested deeper than MAX_NESTING.  Each input is read as one token stream,
so every error offset indexes the whole text.  Curves accept three forms:
"e=(p1,p2,p3)" (split model), "A=...; B=...; C=..." with each key once,
and the equation form "y^2 = x^3 + ...".
"""

from __future__ import annotations

import re
import sys

from .curves import Curve, O, Point
from .intpoly import IntPoly, _mul_coeffs, _power, _trim
from .ratfunc import RatFunc

__all__ = ["ParseError", "parse_poly", "parse_ratfunc", "parse_curve", "parse_point"]

MAX_DEGREE = 1000
MAX_NESTING = 100
_ONE = IntPoly.const(1)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at offset {position}")


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[a-zA-Z])|(?P<op>[-+*/^(),=;])|(?P<bad>\S)|\Z)", re.ASCII
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """The one reader of the raw text: (kind, value, offset) per token, then
    'end'.  ASCII only; a digit run over Python's int conversion limit is an error."""
    tokens = []
    pos = 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        if kind is None:
            tokens.append(("end", None, len(text)))
            return tokens
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        if kind == "int" and 0 < (limit := sys.get_int_max_str_digits()) < len(m[kind]):
            raise ParseError(f"integer longer than {limit} digits", m.start(kind))
        tokens.append((kind, int(m[kind]) if kind == "int" else m[kind], m.start(kind)))
        pos = m.end()


class _XPoly:
    """Polynomial in x with Q(t) coefficients nums[i] / den, held as
    unreduced Z[t] data and used only while parsing."""

    __slots__ = ("nums", "den")

    def __init__(self, nums, den=_ONE):
        self.nums = _trim(list(nums))
        self.den = den

    def coeff(self, i: int) -> RatFunc:
        """The coefficient of x^i, reduced in Q(t)."""
        return RatFunc(self.nums[i] if i < len(self.nums) else IntPoly(), self.den)

    @property
    def degree(self) -> int:
        """Largest degree in x, or in t of a numerator or the denominator."""
        return max(len(self.nums) - 1, self.den.degree, *(n.degree for n in self.nums))

    def __add__(self, other):
        a = [n * other.den for n in self.nums]
        b = [n * self.den for n in other.nums]
        if len(a) < len(b):
            a, b = b, a
        return _XPoly([p + q for p, q in zip(a, b)] + a[len(b) :], self.den * other.den)

    def __neg__(self):
        return _XPoly([-n for n in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _XPoly(_mul_coeffs(self.nums, other.nums, IntPoly()), self.den * other.den)

    def __pow__(self, e: int):
        return _power(self, e, _XPoly([_ONE]))


def _check_degree(degree: int, pos: int) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds the limit {MAX_DEGREE}", pos)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.allow_x = False
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, *expected) -> bool:
        """Consume the next tokens when their (kind, value) pairs are expected."""
        n = len(expected)
        if [tok[:2] for tok in self.tokens[self.i : self.i + n]] != list(expected):
            return False
        self.i += n
        return True

    def expect_op(self, *ops: str):
        kind, value, pos = self.peek()
        if kind != "op" or value not in ops:
            raise ParseError(f"expected {' or '.join(map(repr, ops))}", pos)
        return self.advance()

    def expect_end(self) -> None:
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)

    # grammar ---------------------------------------------------------

    def parse_tuple(self, n: int) -> list[RatFunc]:
        """'(' expr (',' expr)* ')' with exactly n entries, each reduced."""
        self.expect_op("(")
        values = [self.parse_expr()]
        for _ in range(n - 1):
            self.expect_op(",")
            values.append(self.parse_expr())
        self.expect_op(")")
        return [v.coeff(0) for v in values]

    def parse_expr(self) -> _XPoly:
        value = self.parse_term()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op in "+-":
                self.advance()
                rhs = self.parse_term()
                _check_degree(max(value.degree + rhs.den.degree, rhs.degree + value.den.degree), pos)
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def parse_term(self) -> _XPoly:
        value = self.parse_factor()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op in "*/":
                self.advance()
                rhs = self.parse_factor()
                _check_degree(value.degree + rhs.degree, pos)
                if op == "*":
                    value = value * rhs
                else:
                    if len(rhs.nums) > 1:
                        raise ParseError("division by an x-dependent expression", pos)
                    if not rhs.nums:
                        raise ParseError("division by zero", pos)
                    value = value * _XPoly([rhs.den], rhs.nums[0])
            else:
                return value

    def parse_factor(self) -> _XPoly:
        negate = False
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            negate ^= self.advance()[1] == "-"
        base = self.parse_base()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, exp, pos = self.peek()
            if kind != "int":
                raise ParseError("expected a nonnegative integer exponent", pos)
            if exp > MAX_DEGREE:
                raise ParseError(f"exponent {exp} exceeds the limit {MAX_DEGREE}", pos)
            _check_degree(exp * base.degree, pos)
            self.advance()
            base = base**exp
        return -base if negate else base

    def parse_base(self) -> _XPoly:
        kind, value, pos = self.advance()
        if kind == "int":
            return _XPoly([IntPoly.const(value)])
        if kind == "name":
            if value == "t":
                return _XPoly([IntPoly.monomial(1, 1)])
            if value == "x" and self.allow_x:
                return _XPoly([IntPoly(), _ONE])
            raise ParseError(f"unexpected symbol {value!r}", pos)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError("expected a number, variable or parenthesis", pos)


def parse_ratfunc(text: str) -> RatFunc:
    """Parse an element of Q(t)."""
    parser = _Parser(text)
    value = parser.parse_expr()
    parser.expect_end()
    return value.coeff(0)


def parse_poly(text: str) -> IntPoly:
    """Parse an element of Z[t]; non-integer coefficients are rejected."""
    return _parse_integral(text).num


def _parse_integral(text: str) -> RatFunc:
    """An element of Z[t], parsed and kept as an element of Q(t)."""
    value = parse_ratfunc(text)
    if value.den != 1:
        raise ParseError(f"{text.strip()!r} is not a polynomial over Z", 0)
    return value


def parse_curve(text: str) -> Curve:
    """Parse a curve over Q(t) in e-list, coefficient, or equation form."""
    parser = _Parser(text)
    if parser.accept(("name", "e"), ("op", "=")):
        roots = parser.parse_tuple(3)
        parser.expect_end()
        return Curve.from_roots(*roots)
    if parser.accept(("name", "y"), ("op", "^"), ("int", 2), ("op", "=")):
        parser.allow_x = True
        start = parser.peek()[2]
        rhs = parser.parse_expr()
        parser.expect_end()
        if len(rhs.nums) != 4 or rhs.nums[3] != rhs.den:
            raise ParseError("right-hand side must be a monic cubic in x", start)
        return Curve(rhs.coeff(2), rhs.coeff(1), rhs.coeff(0))
    kind, key, pos = parser.peek()
    if (kind, key) != ("name", "A"):
        raise ParseError("curve must start with 'e=', 'A=' or 'y^2='", pos)
    values = {}
    while True:
        kind, key, pos = parser.advance()
        if kind != "name" or key not in ("A", "B", "C"):
            raise ParseError("expected a coefficient 'A', 'B' or 'C'", pos)
        if key in values:
            raise ParseError(f"coefficient {key!r} given twice", pos)
        parser.expect_op("=")
        values[key] = parser.parse_expr().coeff(0)
        if parser.peek()[0] == "end":
            break
        parser.expect_op(";", ",")
    if len(values) != 3:
        raise ParseError("coefficient form needs A, B and C", parser.peek()[2])
    return Curve(values["A"], values["B"], values["C"])


def parse_point(text: str) -> Point:
    """Parse a point: 'O' or '(x, y)' with Q(t) coordinates."""
    parser = _Parser(text)
    point = O if parser.accept(("name", "O")) else Point(*parser.parse_tuple(2))
    parser.expect_end()
    return point
