"""Dense univariate polynomials over Z: the ring Z[t].

Coefficients are stored lowest degree first with no trailing zeros; the
zero polynomial is the empty coefficient tuple.  All divisor enumeration
for the injectivity criteria happens in this ring.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable

from .intmath import InvariantError

__all__ = [
    "IntPoly",
    "cubic_discriminant",
    "poly_gcd",
    "squarefree_decompose",
]


class IntPoly:
    """Immutable element of Z[t]."""

    __slots__ = ("_c", "_text")  # _text: str(self), set on the first call

    def __init__(self, coeffs: Iterable[int] = ()):
        c = _trim(list(coeffs))
        for x in c:
            if not isinstance(x, int):
                raise TypeError(f"integer coefficients required, got {x!r}")
        self._c = tuple(c)

    @classmethod
    def _trusted(cls, c: tuple[int, ...]) -> "IntPoly":
        """The IntPoly on c, an int tuple with no trailing zero, unchecked."""
        p = object.__new__(cls)
        p._c = c
        return p

    # -- constructors ------------------------------------------------

    @classmethod
    def const(cls, n: int) -> "IntPoly":
        return cls((n,))

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "IntPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        return cls([0] * exp + [coeff])

    @classmethod
    def coerce(cls, value) -> "IntPoly":
        if isinstance(value, IntPoly):
            return value
        if isinstance(value, int):
            return cls.const(value)
        raise TypeError(f"cannot coerce {value!r} to IntPoly")

    # -- basic queries -----------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._c

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._c) - 1

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self._c[-1] if self._c else 0

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_constant(self) -> bool:
        return len(self._c) <= 1

    def __bool__(self) -> bool:
        return bool(self._c)

    def __getitem__(self, i: int) -> int:
        return self._c[i] if 0 <= i < len(self._c) else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._c == ((other,) if other else ())
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        # a constant hashes as the int it equals (zero as 0)
        return hash(self._c) if len(self._c) > 1 else hash(self.lc)

    # -- ring operations ---------------------------------------------

    def __add__(self, other) -> "IntPoly":
        if not isinstance(other, (IntPoly, int)):
            return NotImplemented  # let richer rings (Q(t)) handle it
        return IntPoly._trusted(tuple(_add_coeffs(self._c, IntPoly.coerce(other)._c)))

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly._trusted(tuple(-x for x in self._c))

    def __sub__(self, other) -> "IntPoly":
        if not isinstance(other, (IntPoly, int)):
            return NotImplemented
        return self + (-IntPoly.coerce(other))

    def __rsub__(self, other) -> "IntPoly":
        if not isinstance(other, (IntPoly, int)):
            return NotImplemented
        return IntPoly.coerce(other) + (-self)

    def __mul__(self, other) -> "IntPoly":
        if not isinstance(other, (IntPoly, int)):
            return NotImplemented
        g = other._c if isinstance(other, IntPoly) else (other,) if other else ()
        # over Z a product of two nonzero leading coefficients is nonzero
        return IntPoly._trusted(tuple(_mul_coeffs(self._c, g)) if self._c and g else ())

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise ValueError("negative power in Z[t]")
        return _power(self, e, IntPoly.const(1))

    def derivative(self) -> "IntPoly":
        return IntPoly._trusted(tuple(i * self._c[i] for i in range(1, len(self._c))))

    # -- evaluation ---------------------------------------------------

    def __call__(self, t0) -> Fraction:
        """Exact value at a rational point n/m, as m^deg * self(n/m),
        an integer, over m^deg."""
        m = t0.denominator
        return Fraction(_horner_homogeneous(self._c, t0.numerator, m), m ** max(self.degree, 0))

    # -- content / primitive part --------------------------------------

    def content(self) -> int:
        """Positive gcd of the coefficients; rejects the zero polynomial."""
        if self.is_zero:
            raise ValueError("zero polynomial has no content")
        return math.gcd(*self._c)

    def primitive_part(self) -> "IntPoly":
        """self / content; the sign stays on the primitive part."""
        return self.content_and_primitive()[1]

    def content_and_primitive(self) -> tuple[int, "IntPoly"]:
        c = self.content()
        return c, self if c == 1 else IntPoly._trusted(tuple(x // c for x in self._c))

    # -- division -------------------------------------------------------

    def pseudo_divmod(self, d: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """q, r with lc(d)^(delta+1) * self = q*d + r, deg r < deg d and
        delta = max(deg self - deg d, -1): by definition the exact division
        of the scaled self by d (Knuth, TAOCP vol. 2, 4.6.1)."""
        return (self * d.lc ** max(self.degree - d.degree + 1, 0)).divmod_exact(d)

    def divmod_exact(self, d: "IntPoly") -> tuple["IntPoly", "IntPoly"] | None:
        """Quotient and remainder when division stays in Z[t]; None otherwise."""
        if d.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        r = list(self._c)
        q = [0] * max(self.degree - d.degree + 1, 0)
        dd = d.degree
        dl = d.lc
        while True:
            deg_r = len(_trim(r)) - 1
            if deg_r < dd:
                break
            if r[-1] % dl != 0:
                return None
            coef = r[-1] // dl
            q[deg_r - dd] = coef
            for i, dc in enumerate(d._c):
                r[deg_r - dd + i] -= coef * dc
        # the top of q is lc(self) / lc(d), and r was trimmed by the loop
        return IntPoly._trusted(tuple(q)), IntPoly._trusted(tuple(r))

    def exact_div(self, d: "IntPoly") -> "IntPoly":
        """Exact division in Z[t]; raises if d does not divide self."""
        qr = self.divmod_exact(d)
        if qr is None or not qr[1].is_zero:
            raise ValueError(f"{d} does not divide {self} in Z[t]")
        return qr[0]

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:
            self._text = self._format()
            return self._text

    def _format(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for e in range(self.degree, -1, -1):
            c = self[e]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            a = abs(c)
            if e == 0:
                body = str(a)
            elif e == 1:
                body = "t" if a == 1 else f"{a}*t"
            else:
                body = f"t^{e}" if a == 1 else f"{a}*t^{e}"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"IntPoly({self})"


_ONE = IntPoly._trusted((1,))


def _exact_quotient(n: IntPoly, d: IntPoly) -> IntPoly:
    """n / d where the caller knows that d divides n in Z[t].  A remainder
    is then a fault of the program, not of its input, so it raises
    InvariantError where the public exact_div raises ValueError."""
    try:
        return n.exact_div(d)
    except ValueError:
        raise InvariantError(f"a division in Z[t] known to be exact left a remainder "
                             f"(degree {n.degree} by degree {d.degree})") from None


def _trim(c: list, zero=0) -> list:
    """Drop the trailing zeros of a coefficient list in place, over any
    ring whose zero is `zero`; returns it."""
    while c and c[-1] == zero:
        c.pop()
    return c


def _add_coeffs(f, g, add=operator.add, zero=0) -> list:
    """Sum of two coefficient sequences, lowest degree first, over the ring
    whose sum is `add` and whose zero is `zero`; the result is trimmed."""
    if len(f) < len(g):
        f, g = g, f
    return _trim([*map(add, f, g), *f[len(g) :]], zero)


def _mul_coeffs(f, g, zero=0) -> list:
    """Schoolbook product of two coefficient sequences, lowest degree
    first, over any ring whose zero is `zero`; the result is not trimmed."""
    out = [zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _power(base, e: int, one, mul=operator.mul):
    """base**e for e >= 0 by square-and-multiply (Knuth, TAOCP 2, 4.6.3)
    under the associative product `mul` with identity `one`; nothing is
    squared after the top bit."""
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def cubic_discriminant(A, B, C):
    """Discriminant of x^3 + A x^2 + B x + C, computed in the ring of
    A, B and C: an IntPoly when one of them is an IntPoly and the others
    IntPolys or ints, otherwise in their own ring, a Fraction for
    coefficients in Q.  It is 18ABC - 4A^3C + A^2B^2 - 4B^3 - 27C^2,
    grouped as B^2 (A^2 - 4B) + C (18AB - 4A^3 - 27C) so that A^2 is
    formed once: ten products instead of fifteen.

    Over Z[t] the ten products are products of integers, by Kronecker
    substitution (von zur Gathen and Gerhard, Modern Computer Algebra,
    8.4).  With a, b and c the 1-norms of A, B and C, every coefficient
    of the discriminant is at most beta = 18abc + 4a^3c + a^2b^2 + 4b^3 +
    27c^2 in absolute value, since the 1-norm is subadditive and
    submultiplicative.  A, B and C are evaluated once at X = 2^k > 2 beta,
    and the integer discriminant of the three values is the discriminant's
    value at X.  Its coefficients lie in (-X/2, X/2), so they are the
    balanced base-X digits of that value, which are unique: the result is
    exact."""
    args = (A, B, C)
    if not (any(isinstance(f, IntPoly) for f in args) and all(isinstance(f, (IntPoly, int)) for f in args)):
        return _discriminant(A, B, C)
    cs = [IntPoly.coerce(f)._c for f in args]
    a, b, c = (sum(map(abs, f)) for f in cs)
    beta = 18 * a * b * c + 4 * a**3 * c + a * a * b * b + 4 * b**3 + 27 * c * c
    X = 1 << beta.bit_length() + 1
    return _from_balanced_digits(_discriminant(*(_horner_homogeneous(f, X, 1) for f in cs)), X)


def _discriminant(A, B, C):
    """The discriminant formula of cubic_discriminant, in the ring of A, B and C."""
    AA = A * A
    return B * B * (AA - 4 * B) + C * (18 * A * B - 4 * AA * A - 27 * C)


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """GCD in Z[t]: heuristic gcd (GCDHEU) with a primitive-PRS fallback.

    GCDHEU (Char, Geddes and Gonnet, J. Symb. Comp. 7, 1989) evaluates
    the primitive parts at an integer xi, takes the integer gcd of the
    two values and rebuilds a candidate from its balanced base-xi digits.
    A candidate is accepted only when it divides both primitive parts
    exactly; since xi >= 2*min(|a|_inf, |b|_inf) + 2 throughout, such a
    candidate is the gcd (Geddes, Czapor and Labahn, Thm 7.7), so the
    result is exact.  After _HEU_GCD_ROUNDS failed evaluation points the
    primitive Euclidean algorithm takes over.  A linear primitive part
    m*t + k takes neither: by Gauss's lemma it divides the other primitive
    part exactly when that vanishes at -k/m, one Horner evaluation.

    Result is canonical: positive leading coefficient, content equal to
    gcd of the contents.  A caller that divides by the gcd takes
    _gcd_cofactors instead, which returns the quotients too.
    """
    return _gcd_cofactors(a, b, cofactors=False)[0]


def _gcd_cofactors(a: IntPoly, b: IntPoly, cofactors=True) -> tuple[IntPoly, IntPoly, IntPoly]:
    """g = poly_gcd(a, b) with a/g and b/g (0 and 0 for a = b = 0), taken
    from what the gcd computes anyway: the quotients of GCDHEU's trial
    divisions, the primitive parts when those are coprime, or else one
    known-exact division; each times its content over c, unless that is 1.
    With cofactors False, those that would cost more are None."""
    if a.is_zero or b.is_zero:
        g = b if a.is_zero else a
        unit = IntPoly.const(-1 if g.lc < 0 else 1) if g else g
        return (-g if g.lc < 0 else g), (unit if b.is_zero else a), (unit if a.is_zero else b)
    if b.degree == 1 and a.degree != 1:  # the linear shortcut reads a
        g, qb, qa = _gcd_cofactors(b, a, cofactors)
        return g, qa, qb
    ca, pa = a.content_and_primitive()
    cb, pb = b.content_and_primitive()
    c = math.gcd(ca, cb)
    h, qa, qb = _ONE, pa, pb  # gcd(pa, pb), pa/h and pb/h
    if pa.degree == 1 and not pb.is_constant:
        k, m = pa._c  # pa = m*t + k
        if not _horner_homogeneous(pb._c, -k, m):
            h, qa = (pa, _ONE) if m > 0 else (-pa, -_ONE)
            qb = _exact_quotient(pb, h) if cofactors else None
    elif not (pa.is_constant or pb.is_constant):
        heu = _heu_gcd(pa, pb)
        if heu is None:
            h = _prs_gcd(pa, pb)
            heu = (h, _exact_quotient(pa, h), _exact_quotient(pb, h)) if cofactors else (h, None, None)
        h, qa, qb = heu
    if h == 1 and c == 1:
        return h, a, b
    g, ka, kb = (h if c == 1 else c * h), ca // c, cb // c  # no product by 1
    if not cofactors:
        return g, None, None
    return g, (qa if ka == 1 else ka * qa), (qb if kb == 1 else kb * qb)


_HEU_GCD_ROUNDS = 6


def _heu_gcd(pa: IntPoly, pb: IntPoly) -> tuple[IntPoly, IntPoly, IntPoly] | None:
    """(h, pa/h, pb/h) for the gcd h, with lc > 0, of nonconstant primitive
    pa and pb, the quotients from the trial divisions that verify h; None
    when no evaluation point in _HEU_GCD_ROUNDS rounds gave a verified h."""
    # Never start below 2*min norm + 2: that bound is what makes a
    # candidate dividing both inputs the gcd, not merely a common divisor.
    xi = 2 * min(max(map(abs, pa._c)), max(map(abs, pb._c))) + 29
    for _ in range(_HEU_GCD_ROUNDS):
        va = _horner_homogeneous(pa._c, xi, 1)
        vb = _horner_homogeneous(pb._c, xi, 1)
        if va and vb:
            h = _from_balanced_digits(math.gcd(va, vb), xi).primitive_part()
            if h.lc < 0:
                h = -h
            if h.is_constant:
                return h, pa, pb
            qa = pa.divmod_exact(h)
            qb = qa and not qa[1] and pb.divmod_exact(h)  # pb only when h | pa
            if qb and not qb[1]:
                return h, qa[0], qb[0]
        # sympy's growth schedule (dup_zz_heu_gcd): about xi**1.25
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _horner_homogeneous(coeffs: tuple[int, ...], n: int, m: int) -> int:
    """m^deg * g(n/m) for the g with these coefficients, deg = len - 1."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * n + c * scale
        scale *= m
    return acc


def _from_balanced_digits(n: int, base: int) -> IntPoly:
    """The polynomial whose coefficients are the balanced base-`base`
    digits of n (each in (-base/2, base/2]), so that its value at `base`
    is n.  A power of two as base takes masks and shifts for divmod."""
    shift = base - 1 - base // 2  # a digit is a remainder less the shift
    digits = []
    if base & (base - 1):
        while n:
            n, d = divmod(n + shift, base)
            digits.append(d - shift)
    else:
        mask, k = base - 1, base.bit_length() - 1
        while n:
            n += shift
            digits.append((n & mask) - shift)
            n >>= k
    return IntPoly._trusted(tuple(digits))  # the top digit is n's last, nonzero


def _prs_gcd(pa: IntPoly, pb: IntPoly) -> IntPoly:
    """Gcd of primitive pa, pb by the primitive Euclidean algorithm;
    positive leading coefficient.  Keeping only the primitive part of
    each pseudo-remainder drops the powers of lc(pb) it carries."""
    if pa.degree < pb.degree:
        pa, pb = pb, pa
    while not pb.is_zero:
        _, r = pa.pseudo_divmod(pb)
        pa, pb = pb, r.primitive_part() if r else r
    return pa if pa.lc > 0 else -pa


def squarefree_decompose(p: IntPoly) -> tuple[int, int, list[tuple[IntPoly, int]]]:
    """Yun decomposition: p = unit * content * prod d_i^(m_i).

    The d_i are primitive, squarefree, pairwise coprime, with positive
    leading coefficients; multiplicities are strictly increasing.  Step i
    takes a = gcd(b, d) with its cofactors b/a and d/a, the next b and c,
    so nothing is divided again; step 0, on f and f', yields no d_i.  On
    a squarefree f the gcd is 1 and its cofactors are f and f' themselves.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    content, f = p.content_and_primitive()
    unit = -1 if f.lc < 0 else 1
    b = -f if unit < 0 else f
    d, i = b.derivative(), 0
    out: list[tuple[IntPoly, int]] = []
    while b.degree > 0:
        a, b, c = _gcd_cofactors(b, d)
        if i and a.degree > 0:
            out.append((a, i))
        d = c - b.derivative()
        i += 1
    return unit, content, out
