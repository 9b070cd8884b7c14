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
nested deeper than MAX_NESTING.  Curves accept three forms:
"e=(p1,p2,p3)" (split model), "A=...; B=...; C=..." and the equation
form "y^2 = x^3 + ...".
"""

from __future__ import annotations

import re

from .curves import Curve, O, Point
from .intpoly import IntPoly, _power
from .ratfunc import RatFunc

__all__ = ["ParseError", "parse_poly", "parse_ratfunc", "parse_curve", "parse_point"]

MAX_DEGREE = 1000
MAX_NESTING = 100
_ONE = IntPoly.const(1)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at offset {position}")


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-zA-Z])|([-+*/^(),=]))")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _XPoly:
    """Polynomial in x with Q(t) coefficients nums[i] / den, held as
    unreduced Z[t] data and used only while parsing."""

    __slots__ = ("nums", "den")

    def __init__(self, nums, den=_ONE):
        n = list(nums)
        while n and n[-1].is_zero:
            n.pop()
        self.nums = n
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
        out = [IntPoly()] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            for j, b in enumerate(other.nums):
                out[i + j] = out[i + j] + a * b
        return _XPoly(out, self.den * other.den)

    def __pow__(self, e: int):
        return _power(self, e, _XPoly([_ONE]))


def _check_degree(degree: int, pos: int) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds the limit {MAX_DEGREE}", pos)


class _Parser:
    def __init__(self, text: str, allow_x: bool = False):
        self.tokens = _tokenize(text)
        self.i = 0
        self.allow_x = allow_x
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def expect_end(self) -> None:
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)

    # grammar ---------------------------------------------------------

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
    if value.den != _ONE:
        raise ParseError(f"{text.strip()!r} is not a polynomial over Z", 0)
    return value


def parse_curve(text: str) -> Curve:
    """Parse a curve over Q(t) in e-list, coefficient, or equation form."""
    stripped = text.strip()
    compact = stripped.replace(" ", "")
    if compact.startswith("e="):
        parser = _Parser(stripped[stripped.index("=") + 1 :])
        parser.expect_op("(")
        roots = [parser.parse_expr()]
        while parser.peek()[:2] == ("op", ","):
            parser.advance()
            roots.append(parser.parse_expr())
        parser.expect_op(")")
        parser.expect_end()
        if len(roots) != 3:
            raise ParseError("split form needs exactly three roots", 0)
        return Curve.from_roots(*(r.coeff(0) for r in roots))
    if compact.startswith("y^2="):
        rhs_text = stripped.split("=", 1)[1]
        parser = _Parser(rhs_text, allow_x=True)
        rhs = parser.parse_expr()
        parser.expect_end()
        if len(rhs.nums) != 4 or rhs.nums[3] != rhs.den:
            raise ParseError("right-hand side must be a monic cubic in x", 0)
        return Curve(rhs.coeff(2), rhs.coeff(1), rhs.coeff(0))
    if compact.startswith("A="):
        parts = re.split(r"[;,]", stripped)
        values = {}
        for part in parts:
            if "=" not in part:
                raise ParseError(f"expected K=expr in {part.strip()!r}", 0)
            key, expr = part.split("=", 1)
            key = key.strip()
            if key not in ("A", "B", "C"):
                raise ParseError(f"unknown coefficient {key!r}", 0)
            values[key] = parse_ratfunc(expr)
        if set(values) != {"A", "B", "C"}:
            raise ParseError("coefficient form needs A, B and C", 0)
        return Curve(values["A"], values["B"], values["C"])
    raise ParseError(
        "curve must start with 'e=', 'A=' or 'y^2='", 0
    )


def parse_point(text: str) -> Point:
    """Parse a point: 'O' or '(x, y)' with Q(t) coordinates."""
    stripped = text.strip()
    if stripped == "O":
        return O
    parser = _Parser(stripped)
    parser.expect_op("(")
    x = parser.parse_expr()
    parser.expect_op(",")
    y = parser.parse_expr()
    parser.expect_op(")")
    parser.expect_end()
    return Point(x.coeff(0), y.coeff(0))
