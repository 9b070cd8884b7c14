"""Irreducible factorization in Z[t].

Classical Zassenhaus: Yun squarefree decomposition, then distinct-degree
factorization modulo up to five small primes, whose counts of modular factors
choose the prime p.  Only p is split further, by Cantor-Zassenhaus
equal-degree factorization.  Hensel lifting to p^l above twice the Mignotte
bound follows, then subset recombination on the same residue lists mod p^l.
A subset is tried only when its constant term divides lc(f)*f(0) (Abbott,
Shoup and Zimmermann, ISSAC 2000), and an exact division in Z[t] proves its
product a factor.  Recombination is exponential in the number of modular
factors, so it visits at most _RECOMBINATION_BUDGET subsets and then raises
FactorBudgetError.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

from .intmath import FactorBudgetError, InvariantError, factor_int, is_probable_prime
from .intpoly import IntPoly, _mul_coeffs, _power, _trim, squarefree_decompose

__all__ = ["Factorization", "factor", "rational_roots"]

# Subsets that recombination may visit: the Swinnerton-Dyer polynomial of degree
# 32 (16 modular factors) needs 39,202, the one of degree 64 (32) about 2^31.
_RECOMBINATION_BUDGET = 2**17


# ---------------------------------------------------------------------------
# Residue lists: dense coefficient lists mod m, lowest degree first.  m is
# the prime p for GF(p)[t] and a power of p for Hensel lifting.
# ---------------------------------------------------------------------------


def _gf_from_poly(f: IntPoly, m: int) -> list[int]:
    return _trim([c % m for c in f.coeffs])


def _gf_to_poly_symmetric(f: list[int], m: int) -> IntPoly:
    half = m // 2
    return IntPoly(c - m if c > half else c for c in f)


def _gf_mul(f: list[int], g: list[int], m: int) -> list[int]:
    return _trim([c % m for c in _mul_coeffs(f, g)])


def _gf_add(f: list[int], g: list[int], m: int) -> list[int]:
    return _trim([(a + b) % m for a, b in itertools.zip_longest(f, g, fillvalue=0)])


def _gf_sub(f: list[int], g: list[int], m: int) -> list[int]:
    return _trim([(a - b) % m for a, b in itertools.zip_longest(f, g, fillvalue=0)])


def _gf_divmod(f: list[int], g: list[int], m: int) -> tuple[list[int], list[int]]:
    if not g:
        raise ZeroDivisionError
    r = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, m)
    q = [0] * max(len(f) - dg, 0)
    while len(_trim(r)) - 1 >= dg:
        dr = len(r) - 1
        c = r[-1] * inv % m
        q[dr - dg] = c
        for i in range(len(g)):
            r[dr - dg + i] = (r[dr - dg + i] - c * g[i]) % m
        _trim(r)
    return _trim(q), r


def _gf_rem(f: list[int], g: list[int], p: int) -> list[int]:
    return _gf_divmod(f, g, p)[1]


def _gf_monic(f: list[int], m: int) -> list[int]:
    if not f:
        return []
    inv = pow(f[-1], -1, m)
    return [c * inv % m for c in f]


def _gf_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    while g:
        f, g = g, _gf_rem(f, g, p)
    return _gf_monic(f, p)


def _gf_gcdex(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """Extended gcd: returns (s, t, h) with s*f + t*g = h, h monic."""
    r0, r1 = list(f), list(g)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, p), p)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
    if not r0:
        return [], [], []
    inv = pow(r0[-1], -1, p)
    scale = lambda h: [c * inv % p for c in h]
    return scale(s0), scale(t0), scale(r0)


def _gf_pow_mod(f: list[int], e: int, g: list[int], p: int) -> list[int]:
    return _power(_gf_rem(f, g, p), e, [1], lambda a, b: _gf_rem(_gf_mul(a, b, p), g, p))


def _gf_derivative(f: list[int], p: int) -> list[int]:
    return _trim([i * f[i] % p for i in range(1, len(f))])


def _gf_is_squarefree(f: list[int], p: int) -> bool:
    return len(_gf_gcd(f, _gf_derivative(f, p), p)) == 1


# ---------------------------------------------------------------------------
# Factorization of a monic squarefree polynomial over GF(p).
# ---------------------------------------------------------------------------


def _gf_distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Split monic squarefree f into products of irreducibles of equal degree."""
    out = []
    h = [0, 1]  # t
    v = list(f)
    d = 0
    while len(v) - 1 > 0:
        d += 1
        if 2 * d > len(v) - 1:
            out.append((v, len(v) - 1))
            break
        h = _gf_pow_mod(h, p, v, p)
        g = _gf_gcd(_gf_sub(h, [0, 1], p), v, p)
        if len(g) > 1:
            out.append((g, d))
            v = _gf_divmod(v, g, p)[0]
            h = _gf_rem(h, v, p)
    return out


def _gf_equal_degree(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus split of monic f into irreducibles of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) - 1 < 1:
            continue
        g = _gf_gcd(a, f, p)
        if len(g) > 1:
            split = g
        else:
            b = _gf_pow_mod(a, (p**d - 1) // 2, f, p)
            split = _gf_gcd(_gf_sub(b, [1], p), f, p)
        if 1 < len(split) < len(f):
            rest = _gf_divmod(f, split, p)[0]
            return _gf_equal_degree(split, d, p, rng) + _gf_equal_degree(rest, d, p, rng)


# ---------------------------------------------------------------------------
# Hensel lifting (von zur Gathen & Gerhard, chapter 15).
# ---------------------------------------------------------------------------


def _hensel_step(M, f, g, h, s, t):
    """Lift f = g*h, s*g + t*h = 1 from mod m to mod M, where M divides m**2
    (h monic; residue lists)."""
    e = _gf_sub(f, _gf_mul(g, h, M), M)
    q, r = _gf_divmod(_gf_mul(s, e, M), h, M)
    G = _gf_add(g, _gf_add(_gf_mul(t, e, M), _gf_mul(q, g, M), M), M)
    H = _gf_add(h, r, M)
    b = _gf_sub(_gf_add(_gf_mul(s, G, M), _gf_mul(t, H, M), M), [1], M)
    c, d = _gf_divmod(_gf_mul(s, b, M), H, M)
    S = _gf_sub(s, d, M)
    T = _gf_sub(t, _gf_add(_gf_mul(t, b, M), _gf_mul(c, G, M), M), M)
    return G, H, S, T


def _hensel_lift(p: int, pl: int, f: list[int], mod_factors: list[list[int]]) -> list[list[int]]:
    """Monic factors mod pl = p**l of the residue list f = lc(f) * prod(mod_factors)
    (mod p), each congruent to its modular factor mod p."""
    if len(mod_factors) == 1:
        return [_gf_monic(f, pl)]
    k = len(mod_factors) // 2
    g = [f[-1] % p]
    for fi in mod_factors[:k]:
        g = _gf_mul(g, fi, p)
    h = [1]
    for fi in mod_factors[k:]:
        h = _gf_mul(h, fi, p)
    s, t, one = _gf_gcdex(g, h, p)
    if one != [1]:
        raise InvariantError(f"Hensel factors are not coprime mod {p}")

    m = p
    while m < pl:
        m = min(m * m, pl)
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
    return _hensel_lift(p, pl, g, mod_factors[:k]) + _hensel_lift(p, pl, h, mod_factors[k:])


# ---------------------------------------------------------------------------
# Zassenhaus over Z.
# ---------------------------------------------------------------------------


def _primes_from(start: int):
    n = start
    while True:
        if is_probable_prime(n):
            yield n
        n += 1


def _mignotte_bound(f: IntPoly) -> int:
    n = f.degree
    A = max(abs(c) for c in f.coeffs)
    b = abs(f.lc)
    return (math.isqrt(n + 1) + 1) * 2**n * A * b


def _zassenhaus(f: IntPoly) -> list[IntPoly]:
    """Irreducible factors of a primitive squarefree f with lc > 0, deg >= 1."""
    n = f.degree
    if n == 1:
        return [f]

    lead = f.lc
    B = _mignotte_bound(f)

    candidates = []
    for p in _primes_from(3):
        if lead % p == 0:
            continue
        fp = _gf_from_poly(f, p)
        if not _gf_is_squarefree(fp, p):
            continue
        parts = _gf_distinct_degree(_gf_monic(fp, p), p)
        count = sum((len(g) - 1) // d for g, d in parts)
        candidates.append((count, p, parts))
        if count <= 3 or len(candidates) >= 5:
            break
    count, p, parts = min(candidates, key=lambda c: c[0])
    if count == 1:
        return [f]
    rng = random.Random(p * 1_000_003 + n + 1)  # n + 1 = length of the monic residue list
    mod_factors = sorted(h for g, d in parts for h in _gf_equal_degree(g, d, p, rng))

    pl = p
    while pl <= 2 * B:
        pl *= p

    lifted = _hensel_lift(p, pl, _gf_from_poly(f, pl), mod_factors)
    factors: list[IntPoly] = []
    visits = itertools.count(1)
    s = 1
    while 2 * s <= len(lifted):
        lead, f0 = f.lc, f[0]
        for S in itertools.combinations(range(len(lifted)), s):
            if next(visits) > _RECOMBINATION_BUDGET:
                raise FactorBudgetError(f"recombination of {len(mod_factors)} modular factors "
                                        f"ran past its budget of {_RECOMBINATION_BUDGET} subsets")
            c0 = math.prod((lifted[i][0] for i in S), start=lead) % pl
            c0 -= pl if c0 > pl // 2 else 0
            if f0 and (c0 == 0 or lead * f0 % c0):
                continue  # not a factor; while f(0) = 0, the factor t would fail this
            G = [lead % pl]
            for i in S:
                G = _gf_mul(G, lifted[i], pl)
            G = _gf_to_poly_symmetric(G, pl).primitive_part()
            qr = f.divmod_exact(G)
            if qr and qr[1].is_zero:
                factors.append(G)
                f = qr[0]
                lifted = [h for i, h in enumerate(lifted) if i not in S]
                break
        else:
            s += 1
    factors.append(f)
    return factors


# ---------------------------------------------------------------------------
# Public factorization interface.
# ---------------------------------------------------------------------------


def _poly_sort_key(p: IntPoly):
    return (p.degree, p.coeffs)


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization in Z[t].

    unit is +-1, content primes carry positive exponents, and the
    polynomial factors are primitive irreducible with positive leading
    coefficients; recomposition reproduces the input exactly.
    """

    unit: int
    content_primes: tuple[tuple[int, int], ...]
    poly_factors: tuple[tuple[IntPoly, int], ...]

    def recompose(self) -> IntPoly:
        powers = [q**e for q, e in self.content_primes] + [g**e for g, e in self.poly_factors]
        return math.prod(powers, start=IntPoly.const(self.unit))


@functools.lru_cache(maxsize=1024, typed=True)
def factor(p: IntPoly) -> Factorization:
    """Full irreducible factorization of a nonzero element of Z[t].

    Memoized per process on the 1024 most recently used inputs: an IntPoly is
    immutable and a Factorization frozen, so a replay after its check, or
    a later request about the same curve, factors nothing again.  typed
    keeps factor(5) an error, though IntPoly(5) equals and hashes as 5.
    Errors, FactorBudgetError among them, are not memoized."""
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit, content, squarefree_parts = squarefree_decompose(p)
    _, content_primes = factor_int(content)  # content >= 1, so its sign is 1

    poly_factors: list[tuple[IntPoly, int]] = []
    for part, mult in squarefree_parts:
        for g in _zassenhaus(part):
            poly_factors.append((g, mult))
    poly_factors.sort(key=lambda fm: _poly_sort_key(fm[0]))

    return Factorization(
        unit=unit,
        content_primes=tuple(content_primes.items()),
        poly_factors=tuple(poly_factors),
    )


def rational_roots(p: IntPoly) -> list:
    """All rational roots of a nonzero p, from its linear factors."""
    from fractions import Fraction

    if p.is_zero:
        raise ValueError("zero polynomial")
    roots = []
    for g, _ in factor(p).poly_factors:
        if g.degree == 1:
            roots.append(Fraction(-g[0], g[1]))
    return sorted(roots)
