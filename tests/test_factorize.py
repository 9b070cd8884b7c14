import random
from fractions import Fraction

import pytest

from ellspec import conditions, factorize
from ellspec.conditions import certificate_to_json, check_condition, replay_certificate
from ellspec.factorize import _gf_mul, _gf_pow_mod, _gf_rem, factor, rational_roots
from ellspec.intpoly import IntPoly
from ellspec.mestre import twist_polynomial
from ellspec.parsing import parse_curve, parse_poly

T = IntPoly.monomial(1, 1)


def test_factor_constant_and_units():
    fac = factor(IntPoly.const(-12))
    assert fac.unit == -1
    assert fac.content_primes == ((2, 2), (3, 1))
    assert fac.poly_factors == ()
    assert fac.recompose() == IntPoly.const(-12)
    assert factor(IntPoly.const(1)).recompose() == IntPoly.const(1)


def test_factor_classic_identities():
    # t^4 + 4 = (t^2 - 2t + 2)(t^2 + 2t + 2)
    fac = factor(T**4 + 4)
    assert {p for p, _ in fac.poly_factors} == {
        parse_poly("t^2-2*t+2"),
        parse_poly("t^2+2*t+2"),
    }
    # cyclotomic-style split
    fac = factor(T**6 - 1)
    assert {p for p, _ in fac.poly_factors} == {
        T - 1,
        T + 1,
        T**2 + T + 1,
        T**2 - T + 1,
    }


def test_factor_with_multiplicities():
    p = -18 * (T - 1) ** 3 * (T**2 + 1) ** 2 * (2 * T + 3)
    fac = factor(p)
    assert fac.unit == -1
    assert dict(fac.content_primes) == {2: 1, 3: 2}
    assert dict(fac.poly_factors) == {T - 1: 3, T**2 + 1: 2, 2 * T + 3: 1}
    assert fac.recompose() == p


def test_factors_are_primitive_with_positive_lc():
    fac = factor(-6 * T**2 + 6)  # -6(t-1)(t+1)
    for g, _ in fac.poly_factors:
        assert g.content() == 1
        assert g.lc > 0


def is_irreducible(p):
    """The primitive part of p is irreducible: factor finds one factor, once."""
    return [m for _, m in factor(p).poly_factors] == [1]


def test_irreducibility():
    assert is_irreducible(T**2 + 1)
    assert is_irreducible(T**3 + T + 1)
    assert is_irreducible(2 * T + 3)
    assert not is_irreducible(T**2 - 1)
    assert not is_irreducible(T**4 + 4)
    assert not is_irreducible(IntPoly.const(5))


def test_irreducible_of_higher_degree():
    # Eisenstein at 2
    assert is_irreducible(T**7 + 2 * T + 2)
    # swinnerton-dyer style: minimal polynomial of sqrt(2)+sqrt(3)
    assert is_irreducible(T**4 - 10 * T**2 + 1)


def test_rational_roots():
    from fractions import Fraction

    p = (2 * T - 1) * (T + 3) * (T**2 + 1)
    assert set(rational_roots(p)) == {Fraction(1, 2), Fraction(-3)}
    assert rational_roots(T**2 + 1) == []


def random_poly(rng, max_deg=3, max_coeff=6):
    while True:
        p = IntPoly([rng.randint(-max_coeff, max_coeff) for _ in range(max_deg + 1)])
        if not p.is_zero and p.degree >= 1:
            return p


def test_factor_round_trip_bulk():
    """Build 500 random products, factor, and recompose exactly."""
    rng = random.Random(20260823)
    for trial in range(500):
        n_factors = rng.randint(1, 3)
        p = IntPoly.const(rng.choice([-6, -2, -1, 1, 2, 3, 4, 12]))
        for _ in range(n_factors):
            p = p * random_poly(rng) ** rng.randint(1, 2)
        fac = factor(p)
        assert fac.recompose() == p, f"trial {trial}: {p}"
        for g, _ in fac.poly_factors:
            assert is_irreducible(g), f"trial {trial}: reducible factor {g}"


def test_factorization_is_deterministic():
    p = (T**2 + T + 1) * (T**3 - 2) * (2 * T - 5) * 30
    assert factor(p) == factor(p)
    # the second call above is a memo hit; these two both factor
    assert factor.__wrapped__(p) == factor.__wrapped__(p)


def test_gf_pow_mod_agrees_with_repeated_multiplication():
    rng = random.Random(71)
    for _ in range(40):
        p = rng.choice([3, 5, 7, 11, 101])
        g = [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [rng.randrange(1, p)]
        f = [rng.randrange(p) for _ in range(rng.randint(0, 8))] + [rng.randrange(1, p)]
        naive = [1]  # f**e mod (g, p); deg g >= 1, so 1 is reduced
        for e in range(33):  # 0, 1 and the powers of two up to 32 included
            assert _gf_pow_mod(f, e, g, p) == naive, (f, e, g, p)
            naive = _gf_rem(_gf_mul(naive, f, p), g, p)


def test_gf_pow_mod_squares_nothing_after_the_top_bit(monkeypatch):
    calls = []
    monkeypatch.setattr(factorize, "_gf_mul", lambda f, g, m: calls.append(1) or _gf_mul(f, g, m))
    for e in (1, 2, 3, 7, 8, 13, 100, 2**10 + 1):
        calls.clear()
        _gf_pow_mod([2, 1], e, [1, 0, 0, 1], 7)  # (t + 2)**e mod (t^3 + 1, 7)
        # one product per set bit, one squaring per bit after the first
        assert len(calls) == bin(e).count("1") + e.bit_length() - 1, e


@pytest.mark.parametrize(
    "poly, primes",
    [(twist_polynomial(2, 12), {11}), (twist_polynomial(1, 1), {3}), (T**2 + 1, set())],
    ids=["g(2,12)", "g(1,1)", "t^2+1"],
)
def test_only_the_chosen_prime_is_split(monkeypatch, poly, primes):
    # distinct-degree counts choose the prime; t^2 + 1 is irreducible mod 3, so nothing splits
    seen = set()
    split = factorize._gf_equal_degree

    def recording(f, d, p, rng):
        seen.add(p)
        return split(f, d, p, rng)

    monkeypatch.setattr(factorize, "_gf_equal_degree", recording)
    assert factor(poly).recompose() == poly
    assert seen == primes


# -- the per-process memo ----------------------------------------------------


@pytest.mark.parametrize(
    "condition, text, t0",
    [
        ("A", "e=(0, t, 7*t+1)", Fraction(1, 21)),
        ("scriptA", "y^2 = x^3 + t^2*x^2 - x", Fraction(2)),
        ("A1B", "y^2 = x^3 + (t^2 + 1)*x + t", Fraction(3, 2)),
    ],
)
def test_an_in_process_replay_factors_nothing_again(monkeypatch, condition, text, t0):
    report = check_condition(parse_curve(text), condition, t0)
    calls = []
    for name in ("_zassenhaus", "squarefree_decompose"):
        original = getattr(factorize, name)
        monkeypatch.setattr(factorize, name, lambda p, _f=original, _n=name: calls.append(_n) or _f(p))
    matches, _ = replay_certificate(certificate_to_json(report))
    assert matches
    assert calls == []
    # the counters see a check that factors: the one after emptied memos
    factorize.factor.cache_clear()
    conditions._prepare.cache_clear()
    check_condition(parse_curve(text), condition, t0)
    assert {"_zassenhaus", "squarefree_decompose"} <= set(calls)


def test_an_equal_input_gets_the_memoized_factorization():
    p = 6 * (T**2 + 1) * (T - 3) ** 2
    fac = factor(p)
    assert factor(IntPoly(p.coeffs)) is fac
    assert factor.cache_info().maxsize == 1024


def test_an_int_is_refused_after_the_equal_constant_polynomial():
    assert factor(IntPoly.const(5)).content_primes == ((5, 1),)
    with pytest.raises(AttributeError):
        factor(5)  # IntPoly(5) == 5 and hashes as 5, but the memo is typed
    assert factor(IntPoly.const(1)).content_primes == ()
    with pytest.raises(AttributeError):
        factor(True)  # an untyped memo would return IntPoly(1)'s entry
