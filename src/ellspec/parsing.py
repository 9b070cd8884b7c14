"""Text input for polynomials, rational functions, curves and points.

Grammar (also used by the printers, so parse-print-parse is a fixpoint):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('+'|'-')* base ('^' uint)?
    base   := uint | 't' | 'x' | '(' expr ')'

A value is a polynomial in x.  Until a '/' touches it, its coefficients
are Z[t] elements held as plain lists of ints, and each output coefficient
becomes one RatFunc n/1, which takes no gcd.  Two such values multiply as
one product of int lists, packed by x -> t^s; a product by an integer
scales the other value's coefficients instead, and a power t^k or x^k of
the bare variable is the monomial itself.  From the first '/' on, the
value and every value it meets are lists of RatFunc coefficients, whose
sums and products cancel small gcds as they go (Henrici), so a long sum of
fractions takes no large gcd.  Division is only allowed by x-free
subexpressions.  An exponent, a power, a product or a sum whose degree in
t or x would exceed MAX_DEGREE is rejected before it is computed, and so
are parentheses nested deeper than MAX_NESTING.  Each operand is counted over
the lcm of its coefficients' denominators, and a sum adds to each one's
degree that of the other's lcm, so every coefficient computed is bounded.
A sum of two int-list values needs no check: its degree is at most its
operands', which were bounded when they were built.  A product, one of a
power's too, whose work (see _mul_x and _mul) would pass MAX_PRODUCT_WORK
is rejected before it is computed, at the operator or exponent.
Each input is read as one token stream, so every error offset indexes the
whole text.  Curves accept three forms: "e=(p1,p2,p3)" (split model),
"A=...; B=...; C=..." with each key once, and "y^2 = x^3 + ...".
"""

from __future__ import annotations

import operator
import re
import sys

from .curves import Curve, O, Point
from .intpoly import IntPoly, _add_coeffs, _mul_coeffs, _power, _trim
from .ratfunc import RatFunc, _common_den

__all__ = ["ParseError", "parse_poly", "parse_ratfunc", "parse_curve", "parse_point"]

MAX_DEGREE = 1000
MAX_NESTING = 100
# Work one product of two values may take (see _mul_x and _mul): 2^21 products
# of ints take about 0.3 s, while the degree limit alone admits about 10^12.
MAX_PRODUCT_WORK = 2**21


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
    for m in _TOKEN_RE.finditer(text):  # every match starts where the last ended
        kind = m.lastgroup
        if kind is None:
            break
        value = m[kind]
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", m.start(kind))
        if kind == "int":
            if 0 < (limit := sys.get_int_max_str_digits()) < len(value):
                raise ParseError(f"integer longer than {limit} digits", m.start(kind))
            value = int(value)
        tokens.append((kind, value, m.start(kind)))
    tokens.append(("end", None, len(text)))
    return tokens


_ZERO_Q, _ONE_Q = RatFunc(0), RatFunc(1)


def _mul_x(f: list, g: list, pos: int) -> list:
    """Product of two polynomials in x over Z[t]: both are packed by x ->
    t^s, with s above every t-degree of the product, so one product of
    int lists computes it.  It takes a product of ints for each
    coefficient of f and each packed entry of g; more than
    MAX_PRODUCT_WORK of them is a ParseError at pos, raised before any."""
    if not f or not g:
        return []
    s = max(map(len, f)) + max(map(len, g))
    _check_work(sum(map(len, f)) * ((len(g) - 1) * s + len(g[-1])), pos)
    f, g = ([c for n in h[:-1] for c in n + [0] * (s - len(n))] + h[-1] for h in (f, g))
    packed = _mul_coeffs(f, g)
    return _trim([_trim(packed[i : i + s]) for i in range(0, len(packed), s)], [])


def _over_q(v) -> bool:
    """Whether v is held as RatFunc coefficients rather than Z[t] int lists."""
    return bool(v) and isinstance(v[0], RatFunc)


def _qt(v) -> list:
    """v as RatFunc coefficients: an int list n enters as n/1, with no gcd."""
    return v if _over_q(v) else [_ONE_Q * IntPoly(n) for n in v]


def _degrees(v) -> tuple[int, int]:
    """(degree, denominator degree) of v over the lcm L of its coefficients'
    denominators: the largest degree in x, or in t of L or a numerator over L."""
    if not _over_q(v):
        return max(len(v), 1, *map(len, v)) - 1, 0
    e = _common_den(v).degree
    return max(len(v) - 1, e, *(e + c.num.degree - c.den.degree for c in v)), e


def _coeff(v, i: int = 0) -> RatFunc:
    """The coefficient of x^i; an int list n becomes n/1, with no gcd."""
    if i >= len(v):
        return _ZERO_Q
    return v[i] if _over_q(v) else RatFunc(IntPoly(v[i]))


def _neg(v):
    return [-c for c in v] if _over_q(v) else [[-c for c in n] for n in v]


def _add(a, b):
    if _over_q(a) or _over_q(b):
        return _add_coeffs(_qt(a), _qt(b), operator.add, _ZERO_Q)
    return _add_coeffs(a, b, _add_coeffs, [])


def _check_work(work: int, pos: int) -> None:
    if work > MAX_PRODUCT_WORK:
        raise ParseError(f"product of {work} coefficient pairs exceeds the limit {MAX_PRODUCT_WORK}", pos)


def _mul(a, b, pos: int):
    """Product of two values for the operator or exponent at pos.  Over RatFunc
    its work, (sum |a_i.num|)(sum |b_j.num|) + (sum |a_i.den|)(sum |b_j.den|)
    for |p| the number of coefficients of p, is bounded as _mul_x's is."""
    if not (_over_q(a) or _over_q(b)):
        if len(b) == 1 == len(b[0]):
            a, b = b, a
        if len(a) == 1 == len(a[0]):  # an integer times b: no packing
            k = a[0][0]
            return [[k * c for c in n] for n in b]
        return _mul_x(a, b, pos)
    a, b = _qt(a), _qt(b)
    (an, ad), (bn, bd) = ((sum(len(c.num.coeffs) for c in v), sum(len(c.den.coeffs) for c in v)) for v in (a, b))
    _check_work(an * bn + ad * bd, pos)
    return _mul_coeffs(a, b, _ZERO_Q) if a and b else []


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
        return [_coeff(v) for v in values]

    def parse_expr(self):
        value = self.parse_term()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op in "+-":
                self.advance()
                rhs = self.parse_term()
                # a sum of Z[t] lists has no degree above its operands', which were bounded
                if _over_q(value) or _over_q(rhs):
                    (da, ea), (db, eb) = _degrees(value), _degrees(rhs)
                    _check_degree(max(da + eb, db + ea), pos)
                value = _add(value, rhs if op == "+" else _neg(rhs))
            else:
                return value

    def parse_term(self):
        value = self.parse_factor()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op in "*/":
                self.advance()
                rhs = self.parse_factor()
                _check_degree(_degrees(value)[0] + _degrees(rhs)[0], pos)
                if op == "*":
                    value = _mul(value, rhs, pos)
                    continue
                if len(rhs) > 1:
                    raise ParseError("division by an x-dependent expression", pos)
                if not rhs:
                    raise ParseError("division by zero", pos)
                d = _qt(rhs)[0]
                value = [c / d for c in _qt(value)]
            else:
                return value

    def parse_factor(self):
        negate = False
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            negate ^= self.advance()[1] == "-"
        variable = self.peek()[0] == "name"
        base = self.parse_base()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, exp, pos = self.peek()
            if kind != "int":
                raise ParseError("expected a nonnegative integer exponent", pos)
            if exp > MAX_DEGREE:
                raise ParseError(f"exponent {exp} exceeds the limit {MAX_DEGREE}", pos)
            _check_degree(exp * _degrees(base)[0], pos)
            self.advance()
            if not variable:
                base = _power(base, exp, [[1]], lambda a, b: _mul(a, b, pos))
            elif base == [[0, 1]]:  # t^exp
                base = [[0] * exp + [1]]
            else:  # x^exp
                base = [[]] * exp + [[1]]
        return _neg(base) if negate else base

    def parse_base(self):
        kind, value, pos = self.advance()
        if kind == "int":
            return [[value]] if value else []
        if kind == "name":
            if value == "t":
                return [[0, 1]]
            if value == "x" and self.allow_x:
                return [[], [1]]
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
    return _coeff(value)


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
        if len(rhs) != 4 or _coeff(rhs, 3) != 1:
            raise ParseError("right-hand side must be a monic cubic in x", start)
        return Curve(_coeff(rhs, 2), _coeff(rhs, 1), _coeff(rhs, 0))
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
        values[key] = _coeff(parser.parse_expr())
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
