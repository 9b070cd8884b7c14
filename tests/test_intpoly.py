import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ellspec import intpoly
from ellspec.intpoly import (
    IntPoly,
    cubic_discriminant,
    poly_gcd,
    squarefree_decompose,
)
from ellspec.parsing import parse_curve

T = IntPoly.monomial(1, 1)

small_polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=6))
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


def test_construction_normalizes_trailing_zeros():
    assert IntPoly([1, 2, 0, 0]) == IntPoly([1, 2])
    assert IntPoly([0, 0]).is_zero
    assert IntPoly().degree == -1
    assert IntPoly([0, 0, 3]).degree == 2


@pytest.mark.parametrize("coeffs", [[None], [""], [1, None]])
def test_non_integer_coefficients_are_rejected(coeffs):
    # a trailing None or "" must not be dropped as if it were a zero
    with pytest.raises(TypeError):
        IntPoly(coeffs)


def test_ring_basics():
    p = 2 * T**2 - 3 * T + 1  # (2t - 1)(t - 1)
    q = T - 1
    assert p == IntPoly([1, -3, 2])
    assert (p * q)(Fraction(5)) == p(5) * q(5)
    assert p - p == IntPoly()
    assert (T + 1) ** 3 == IntPoly([1, 3, 3, 1])


def test_evaluation_is_exact():
    p = 7 * T + 1
    assert p(Fraction(1, 21)) == Fraction(4, 3)
    assert (T**2 + 1)(Fraction(-2, 3)) == Fraction(13, 9)


def test_content_and_primitive_part():
    p = IntPoly([6, -12, 18])
    assert p.content() == 6
    assert p.primitive_part() == IntPoly([1, -2, 3])
    # sign convention: content positive, sign stays on the primitive part
    assert (-p).content() == 6
    assert (-p).primitive_part() == IntPoly([-1, 2, -3])


def _divides(d: IntPoly, p: IntPoly) -> bool:
    """d | p in Z[t], read off divmod_exact."""
    qr = p.divmod_exact(d)
    return qr is not None and qr[1].is_zero


def test_exact_division():
    p = (T - 1) * (2 * T + 3)
    assert p.exact_div(T - 1) == 2 * T + 3
    assert p.divmod_exact(T - 1) == (2 * T + 3, IntPoly())
    assert _divides(T - 1, p)
    assert not _divides(T + 1, p)
    with pytest.raises(ValueError):
        p.exact_div(T + 1)
    # divisibility in Z[t], not Q[t]: 2t+2 does not divide t^2-1
    assert not _divides(IntPoly([2, 2]), T**2 - 1)


@given(small_polys, nonzero_polys)
def test_divmod_exact_recomposes(p, d):
    qr = p.divmod_exact(d)
    if qr is not None:
        q, r = qr
        assert q * d + r == p
        assert r.is_zero or r.degree < d.degree


@pytest.mark.parametrize(
    "a, d",
    [
        (IntPoly([1, 2, 3, 4]), IntPoly([1, -3])),  # negative lc, delta = 2
        (IntPoly([0, 1, 0, 1]), IntPoly([2, 0, 2])),  # remainder 0 after one step
        (IntPoly([1, 2, 3]), IntPoly([4, 5, 6])),  # delta = 0
        (IntPoly([1, 2]), IntPoly([-1, 0, 3])),  # deg a < deg d
        (IntPoly(), IntPoly([2, 3])),
    ],
)
def test_pseudo_divmod_identity(a, d):
    q, r = a.pseudo_divmod(d)
    scale = d.lc ** max(a.degree - d.degree + 1, 0)
    assert scale * a == q * d + r
    assert r.degree < d.degree


@given(small_polys, nonzero_polys)
def test_pseudo_divmod_recomposes(a, d):
    q, r = a.pseudo_divmod(d)
    assert d.lc ** max(a.degree - d.degree + 1, 0) * a == q * d + r
    assert r.degree < d.degree


@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    assert _divides(g, p) and _divides(g, q)
    assert g.lc > 0


def test_gcd_known_values():
    assert poly_gcd((T - 1) * (T + 2), (T - 1) * (T - 5)) == T - 1
    assert poly_gcd(IntPoly([4]), IntPoly([6])) == IntPoly([2])
    assert poly_gcd(2 * (T + 1), 4 * (T + 1) ** 2) == 2 * (T + 1)


def test_squarefree_decompose_yun():
    p = -12 * (T - 1) ** 2 * (T + 3) * (T**2 + 1) ** 3
    unit, content, parts = squarefree_decompose(p)
    assert unit == -1
    assert content == 12
    assert sorted(parts, key=lambda x: x[1]) == [
        (T + 3, 1),
        (T - 1, 2),
        (T**2 + 1, 3),
    ]


@given(nonzero_polys)
def test_squarefree_decompose_recomposes(p):
    unit, content, parts = squarefree_decompose(p)
    prod = IntPoly.const(unit * content)
    for d, m in parts:
        prod = prod * d**m
    assert prod == p


def _ten_products(A, B, C):
    """The discriminant as ten products in the ring of A, B and C: the
    reference that the single integer product over Z[t] must agree with."""
    AA = A * A
    return B * B * (AA - 4 * B) + C * (18 * A * B - 4 * AA * A - 27 * C)


def _random_poly(rng, degree, bound, zeros=0.0):
    return IntPoly([0 if rng.random() < zeros else rng.randint(-bound, bound) for _ in range(degree + 1)])


def test_cubic_discriminant_matches_definition():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (Fraction(rng.randint(-8, 8)) for _ in range(3))
        A, B, C = IntPoly.const(int(a)), IntPoly.const(int(b)), IntPoly.const(int(c))
        expected = (
            18 * a * b * c - 4 * a**3 * c + a**2 * b**2 - 4 * b**3 - 27 * c**2
        )
        assert cubic_discriminant(A, B, C)(0) == expected
    cases = [
        # random, with zero coefficients and zero polynomials among them
        *([_random_poly(rng, rng.randint(-1, 6), 9, zeros=0.4) for _ in range(3)] for _ in range(40)),
        # degrees up to 60, coefficients up to 2^1000 of both signs
        *([_random_poly(rng, rng.randint(0, 60), 2**rng.choice([1, 64, 1000])) for _ in range(3)] for _ in range(12)),
        [_random_poly(rng, 1000, 9) for _ in range(3)],  # dense, degree 1000
        list(parse_curve("e=(-t, -t/t^999/(t^2-6), -7)")._model),  # sparse, degrees 1001, 2001, 2001
        [IntPoly(), IntPoly(), IntPoly()],
        [IntPoly(), -3 * T**5, IntPoly()],  # 108*t^15: a coefficient at the bound beta itself
        # ints among IntPolys
        [3, T**2 - 1, 0],
        [-(2**1000) * T, 0, 7],
        [0, -T, 2**300],
    ]
    for A, B, C in cases:
        D = cubic_discriminant(A, B, C)
        assert isinstance(D, IntPoly) and D == _ten_products(A, B, C)


def test_cubic_discriminant_matches_sympy():
    """Against sympy's discriminant of x^3 + Ax^2 + Bx + C, over Z[t] with
    A, B, C of degree up to 4 and over Q."""
    sympy = pytest.importorskip("sympy")
    t, x = sympy.symbols("t x")
    rng = random.Random(11)
    for _ in range(20):
        A, B, C = (IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]) for _ in range(3))
        A_, B_, C_ = (sum(c * t**i for i, c in enumerate(p.coeffs)) for p in (A, B, C))
        expected = sympy.Poly(sympy.discriminant(x**3 + A_ * x**2 + B_ * x + C_, x), t)
        assert cubic_discriminant(A, B, C) == IntPoly(int(c) for c in reversed(expected.all_coeffs()))
        a, b, c = (Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(3))
        a_, b_, c_ = map(sympy.Rational, (a, b, c))
        expected = sympy.discriminant(x**3 + a_ * x**2 + b_ * x + c_, x)
        assert cubic_discriminant(a, b, c) == Fraction(int(expected.p), int(expected.q))


def test_cubic_discriminant_vanishes_on_repeated_roots():
    # (x - t)^2 (x + 2t) = x^3 - 3t^2 x + 2t^3
    D = cubic_discriminant(IntPoly(), -3 * T**2, 2 * T**3)
    assert D.is_zero


def test_str_round_trips_through_parser():
    from ellspec.parsing import parse_poly

    for p in (T**3 - 2 * T + 5, -4 * T**2, IntPoly.const(-7), 42 * T**14 + T):
        assert parse_poly(str(p)) == p


@pytest.mark.parametrize(
    "p",
    [T**5 - 3 * T**2 + 7 * T + 11, -6 * (T**2 + 1), 2 * T + 3, (T**2 + 1) * (T**3 - T + 1)],
)
def test_squarefree_decompose_of_a_squarefree_polynomial_divides_nothing(monkeypatch, p):
    """Yun's first gcd is 1, so its cofactors are f and f' as they are, and
    the gcd of b with d = 0 is b itself: no division at all."""
    content, f = p.content_and_primitive()
    unit = 1 if f.lc > 0 else -1
    calls = []
    divmod_exact = IntPoly.divmod_exact
    monkeypatch.setattr(IntPoly, "divmod_exact", lambda self, d: calls.append(d) or divmod_exact(self, d))
    assert intpoly.squarefree_decompose(p) == (unit, content, [(unit * f, 1)])
    assert calls == []
