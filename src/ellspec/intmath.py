"""Integer factorization, exact square tests in Q and the rank test of
square classes modulo W.

Python ints are already arbitrary precision and fractions.Fraction is an
exact rational in lowest terms with positive denominator, so those two
stdlib types serve as the big-integer and big-rational kernel.  This
module adds the number-theoretic operations the rest of the library
needs on top of them.
"""

from __future__ import annotations

import math
import random
import re
import sys
from fractions import Fraction

__all__ = [
    "is_probable_prime",
    "factor_int",
    "FactorBudgetError",
    "InvariantError",
    "exact_isqrt",
    "as_rational",
    "is_square_rat",
    "parse_rational",
    "rational_text",
]

_TRIAL_LIMIT = 10**6
# Pollard rho steps per factor_int call, shared by every cofactor it
# splits.  Rho needs about sqrt(p) steps to find a prime factor p, so this
# splits a product of two primes of up to about 10^10 (in 0.07 s).  A step
# is a product and a remainder mod the cofactor n, whose cost grows as the
# square of n's length: it counts max(1, bits(n)^2 // _RHO_WEIGHT_BITS^2),
# 1 up to 212 digits.  Running out takes 0.33 s at 40 digits, 0.87 s at
# 118, 1.4 s at 196 and under 0.6 s from 430 to 3,160 (2 vCPUs, Python 3.11).
_RHO_BUDGET = 2**19
_RHO_WEIGHT_BITS = 500

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin test to the 13 prime bases up to 41.  It proves n prime
    only below psi_13 ~ 3.3e24 (Sorenson and Webster, Math. Comp. 86, 2017);
    above that, True only says that n is a strong probable prime to them."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FactorBudgetError(ValueError):
    """A factorization ran past its budget: Pollard rho's _RHO_BUDGET steps,
    or the subsets of factorize._RECOMBINATION_BUDGET."""


class InvariantError(AssertionError):
    """An internal invariant broke: a fault of the program, not of its input.
    It is raised explicitly, so python -O keeps it, and it is an
    AssertionError, which the CLI maps to exit 3."""


def _pollard_rho(n: int, rng: random.Random, budget: int) -> tuple[int, int]:
    """Brent-cycle Pollard rho: a nontrivial factor of composite odd n and the
    steps left of `budget`, or FactorBudgetError rather than take more."""
    steps, weight = 0, max(1, n.bit_length() ** 2 // _RHO_WEIGHT_BITS**2)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            steps += 2 * r * weight  # this round's steps, at most
            if steps > budget:
                limit = sys.get_int_max_str_digits()  # 0: none; a digit is over 3 bits
                name = f"of {n.bit_length()} bits" if 0 < 3 * limit < n.bit_length() else n
                raise FactorBudgetError(f"no factor of the composite {name} within the "
                                        f"{_RHO_BUDGET} steps allowed per integer")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, budget - steps


def factor_int(n: int) -> tuple[int, dict[int, int]]:
    """Factor a nonzero integer into (sign, {prime: exponent}).

    Trial division up to 10**6, then Pollard rho for what remains; the
    contents met in practice only carry small primes.  Rho has _RHO_BUDGET
    steps for all of n, and a composite it cannot split within what is
    left raises FactorBudgetError.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    sign = 1 if n > 0 else -1
    n = abs(n)
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d <= _TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    if n > 1:
        stack = [n]
        rng = random.Random(0xE11)
        budget = _RHO_BUDGET
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_probable_prime(m):
                factors[m] = factors.get(m, 0) + 1
                continue
            root = exact_isqrt(m)
            if root is not None:
                stack.extend((root, root))
                continue
            g, budget = _pollard_rho(m, rng, budget)
            stack.extend((g, m // g))
    return sign, dict(sorted(factors.items()))


def exact_isqrt(n: int) -> int | None:
    """Integer square root when n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def _coprime_base(values: list[int]) -> list[int]:
    """Pairwise coprime integers > 1 of which each positive value is a
    product, found by gcds alone: a base element b and a new x with
    g = gcd(b, x) > 1 are replaced by g, b/g and x/g until nothing splits.
    (Bernstein, "Factoring into coprimes in essentially linear time",
    J. Algorithms 54, 2005, does this in essentially linear time; for the
    handful of values of one target this quadratic refinement suffices.)"""
    base: list[int] = []
    todo = [v for v in values if v > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(b, x)
            if g > 1:
                del base[i]
                todo.extend(y for y in (g, b // g, x // g) if y > 1)
                break
        else:
            base.append(x)
    return base


def _independent_mod_squares(values: list[int], w: int) -> bool:
    """Whether the classes of the nonzero integers `values` are linearly
    independent over F_2 in Q*/Q*^2 modulo W, the span of -1 and the
    primes of the positive integer w.

    Over a coprime base of w and the |v|, w is a product of base elements,
    so an element that shares a factor with w has all its primes in w and
    lies in W.  The other elements that are not squares have independent
    classes modulo W (each holds a prime to an odd power that neither w
    nor any other element holds), so a value's class is the row of
    exponent parities on them.  No prime of w is ever named, so the test
    needs no primality proof.  Each row is reduced by the earlier ones,
    kept in descending order so that their leading bits differ, and a row
    that reduces to zero is a dependency."""
    base = [b for b in _coprime_base([w, *map(abs, values)])
            if math.gcd(b, w) == 1 and exact_isqrt(b) is None]
    rows: list[int] = []
    for v in values:
        v = abs(v)
        row = 0
        for k, b in enumerate(base):
            while v % b == 0:
                v //= b
                row ^= 1 << k
        for r in rows:
            row = min(row, row ^ r)
        if not row:
            return False
        rows = sorted(rows + [row], reverse=True)
    return True


def as_rational(value: Fraction | int) -> Fraction:
    """An int or Fraction as a Fraction, a Fraction unchanged.  Anything
    else, such as a float, str or Decimal, raises TypeError: a float's
    exact binary value is not the rational it was written as."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"an int or Fraction is required, got {value!r}")


def is_square_rat(q: Fraction | int) -> Fraction | None:
    """Nonnegative square root of q when q is a square in Q, else None.

    Works on the reduced fraction directly; no factoring involved.
    """
    q = Fraction(q)
    rn = exact_isqrt(q.numerator)
    if rn is None:
        return None
    rd = exact_isqrt(q.denominator)
    if rd is None:
        return None
    return Fraction(rn, rd)


_RATIONAL_RE = re.compile(r"[+-]?([0-9]+)(?:/(0*[1-9][0-9]*))?")


def parse_rational(text: str) -> Fraction:
    """Parse 'a' or 'a/b' with b > 0 into an exact rational; any other
    form, such as '0.5' or '1e100', is rejected, and so is a digit run
    over Python's int conversion limit."""
    m = _RATIONAL_RE.fullmatch(text.strip())
    if not m:
        raise ValueError("not a rational number")
    if 0 < (limit := sys.get_int_max_str_digits()) < max(len(run or "") for run in m.groups()):
        raise ValueError(f"integer longer than {limit} digits")
    return Fraction(m[0])


def rational_text(value: object, name: str) -> str:
    """str(value) of a rational or of a polynomial over Z, or a ValueError
    that names the value and Python's int conversion limit when a number
    in value has more digits than that."""
    try:
        return str(value)
    except ValueError:
        raise ValueError(f"{name}: integer longer than {sys.get_int_max_str_digits()} digits") from None
