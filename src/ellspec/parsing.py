"""Text input for polynomials, rational functions, curves and points.

Grammar (also used by the printers, so parse-print-parse is a fixpoint):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')* base ('^' uint)?
    base   := uint | 't' | 'x' | '(' expr ')'

Division is only allowed by x-free subexpressions.  An exponent, a power
or a product whose degree in t or x would exceed MAX_DEGREE is rejected
before it is computed.  Curves accept three
forms: "e=(p1,p2,p3)" (split model), "A=...; B=...; C=..." and the
equation form "y^2 = x^3 + ...".
"""

from __future__ import annotations

import re

from .curves import Curve, O, Point
from .intpoly import IntPoly
from .ratfunc import RatFunc

__all__ = ["ParseError", "parse_poly", "parse_ratfunc", "parse_curve", "parse_point"]

MAX_DEGREE = 1000


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
    """Polynomial in x with Q(t) coefficients, used only while parsing."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while c and c[-1].is_zero:
            c.pop()
        self.coeffs = c

    @classmethod
    def scalar(cls, value) -> "_XPoly":
        return cls([RatFunc._coerce(value)])

    @property
    def is_scalar(self) -> bool:
        return len(self.coeffs) <= 1

    def scalar_value(self) -> RatFunc:
        return self.coeffs[0] if self.coeffs else RatFunc(0)

    @property
    def degree(self) -> int:
        """Largest degree in x or in t of a numerator or denominator."""
        t_degree = max((max(c.num.degree, c.den.degree) for c in self.coeffs), default=0)
        return max(len(self.coeffs) - 1, t_degree)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        zero = RatFunc(0)
        get = lambda c, i: c[i] if i < len(c) else zero
        return _XPoly(get(self.coeffs, i) + get(other.coeffs, i) for i in range(n))

    def __neg__(self):
        return _XPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return _XPoly([])
        out = [RatFunc(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return _XPoly(out)

    def __pow__(self, e: int):
        result = _XPoly.scalar(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


def _check_degree(degree: int, pos: int) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds the limit {MAX_DEGREE}", pos)


class _Parser:
    def __init__(self, text: str, allow_x: bool = False):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.allow_x = allow_x

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

    def at_end(self) -> bool:
        return self.peek()[0] == "end"

    # grammar ---------------------------------------------------------

    def parse_expr(self) -> _XPoly:
        value = self.parse_term()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.advance()
                rhs = self.parse_term()
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
                    if not rhs.is_scalar:
                        raise ParseError("division by an x-dependent expression", pos)
                    divisor = rhs.scalar_value()
                    if divisor.is_zero:
                        raise ParseError("division by zero", pos)
                    value = value * _XPoly.scalar(1 / divisor)
            else:
                return value

    def parse_factor(self) -> _XPoly:
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.parse_factor()
        if kind == "op" and value == "+":
            self.advance()
            return self.parse_factor()
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
            return base**exp
        return base

    def parse_base(self) -> _XPoly:
        kind, value, pos = self.advance()
        if kind == "int":
            return _XPoly.scalar(value)
        if kind == "name":
            if value == "t":
                return _XPoly.scalar(RatFunc(IntPoly.monomial(1, 1)))
            if value == "x" and self.allow_x:
                return _XPoly([RatFunc(0), RatFunc(1)])
            raise ParseError(f"unexpected symbol {value!r}", pos)
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, variable or parenthesis", pos)


def _parse_scalar_expr(text: str) -> RatFunc:
    parser = _Parser(text)
    value = parser.parse_expr()
    if not parser.at_end():
        raise ParseError("trailing input", parser.peek()[2])
    return value.scalar_value()


def parse_ratfunc(text: str) -> RatFunc:
    """Parse an element of Q(t)."""
    return _parse_scalar_expr(text)


def parse_poly(text: str) -> IntPoly:
    """Parse an element of Z[t]; non-integer coefficients are rejected."""
    value = _parse_scalar_expr(text)
    try:
        return value.as_poly()
    except ValueError:
        raise ParseError(f"{text.strip()!r} is not a polynomial over Z", 0) from None


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
        if not parser.at_end():
            raise ParseError("trailing input", parser.peek()[2])
        if len(roots) != 3:
            raise ParseError("split form needs exactly three roots", 0)
        return Curve.from_roots(*(r.scalar_value() for r in roots))
    if compact.startswith("y^2="):
        rhs_text = stripped.split("=", 1)[1]
        parser = _Parser(rhs_text, allow_x=True)
        rhs = parser.parse_expr()
        if not parser.at_end():
            raise ParseError("trailing input", parser.peek()[2])
        coeffs = rhs.coeffs + [RatFunc(0)] * (4 - len(rhs.coeffs))
        if len(rhs.coeffs) != 4 or coeffs[3] != RatFunc(1):
            raise ParseError("right-hand side must be a monic cubic in x", 0)
        return Curve(coeffs[2], coeffs[1], coeffs[0])
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
    if not parser.at_end():
        raise ParseError("trailing input", parser.peek()[2])
    return Point(x.scalar_value(), y.scalar_value())
