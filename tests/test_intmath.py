import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ellspec import intmath
from ellspec.intmath import (
    FactorBudgetError,
    as_rational,
    exact_isqrt,
    factor_int,
    is_probable_prime,
    is_square_rat,
    parse_rational,
)

KNOWN_PRIMES = [2, 3, 5, 7, 11, 101, 7919, 2**31 - 1, 2**61 - 1]
KNOWN_COMPOSITES = [1, 4, 561, 341, 1105, 2**32 + 1, 3215031751]


def test_primality_on_known_values():
    for p in KNOWN_PRIMES:
        assert is_probable_prime(p)
    for n in KNOWN_COMPOSITES:
        assert not is_probable_prime(n)


def test_factor_int_signs_and_recomposition():
    sign, fac = factor_int(-2**6 * 3 * 5**2)
    assert sign == -1
    assert fac == {2: 6, 3: 1, 5: 2}
    sign, fac = factor_int(1)
    assert sign == 1 and fac == {}


@given(st.integers(min_value=2, max_value=10**9))
def test_factor_int_recomposes(n):
    sign, fac = factor_int(n)
    assert sign == 1
    prod = 1
    for p, e in fac.items():
        assert is_probable_prime(p)
        prod *= p**e
    assert prod == n


def test_factor_int_large_semiprime():
    p, q = 1000003, 1000033
    sign, fac = factor_int(p * q)
    assert fac == {p: 1, q: 1}


def test_one_rho_budget_serves_every_cofactor_of_a_call(monkeypatch):
    primes = [1000003, 1000033, 1000037, 1000039]  # past trial division
    spent = []
    rho = intmath._pollard_rho

    def recording(m, rng, budget):
        g, left = rho(m, rng, budget)
        spent.append((budget, budget - left))
        return g, left

    monkeypatch.setattr(intmath, "_pollard_rho", recording)
    assert factor_int(math.prod(primes)) == (1, dict.fromkeys(primes, 1))
    assert [b for b, _ in spent] == [intmath._RHO_BUDGET - sum(s for _, s in spent[:i]) for i in range(3)]
    # a budget that each split fits into, but not the three together
    total = sum(s for _, s in spent)
    assert max(s for _, s in spent) < total - 1
    monkeypatch.setattr(intmath, "_RHO_BUDGET", total - 1)
    with pytest.raises(FactorBudgetError, match=f"within the {total - 1} steps allowed per integer"):
        factor_int(math.prod(primes))


def _rho_steps(n: int) -> int:
    g, left = intmath._pollard_rho(n, random.Random(0xE11), intmath._RHO_BUDGET)
    assert 1 < g < n and n % g == 0
    return intmath._RHO_BUDGET - left


@pytest.mark.parametrize("digits, weight", [(40, 1), (200, 1), (250, 2), (600, 15), (1200, 63)])
def test_a_rho_step_weighs_the_square_of_the_bit_length_over_500_squared(monkeypatch, digits, weight):
    # 1 up to 707 bits, about 212 digits
    n = 1000003 * (10 ** (digits - 7) + 1)
    assert len(str(n)) == digits
    weighted = _rho_steps(n)
    monkeypatch.setattr(intmath, "_RHO_WEIGHT_BITS", n.bit_length() + 1)  # every step weighs 1
    assert weighted == weight * _rho_steps(n)


def test_rho_out_of_steps_names_a_composite_past_the_digit_limit_by_its_bits():
    n = (10**2200 + 3) * (10**2200 + 7)
    with pytest.raises(ValueError, match="Exceeds the limit"):
        str(n)  # 4,401 digits, past Python's default limit of 4,300
    with pytest.raises(FactorBudgetError) as exc:
        intmath._pollard_rho(n, random.Random(0), 0)
    message = str(exc.value)
    assert message.startswith(f"no factor of the composite of {n.bit_length()} bits within the ")
    assert message.endswith(f" {intmath._RHO_BUDGET} steps allowed per integer")


@given(st.integers(min_value=0, max_value=10**18))
def test_exact_isqrt(n):
    r = exact_isqrt(n)
    if r is None:
        assert math.isqrt(n) ** 2 != n
    else:
        assert r * r == n


def test_as_rational():
    q = Fraction(1, 10)
    assert as_rational(q) is q
    assert as_rational(-7) == Fraction(-7) and type(as_rational(-7)) is Fraction
    for bad in (0.1, "1/10", Decimal("0.1")):
        with pytest.raises(TypeError):
            as_rational(bad)


def test_is_square_rat():
    assert is_square_rat(Fraction(4, 49)) == Fraction(2, 7)
    assert is_square_rat(Fraction(0)) == 0
    assert is_square_rat(Fraction(2)) is None
    assert is_square_rat(Fraction(-4)) is None
    assert is_square_rat(Fraction(9, 5)) is None


@given(st.fractions(min_value=Fraction(-100), max_value=Fraction(100)))
def test_is_square_rat_on_explicit_squares(q):
    assert is_square_rat(q * q) == abs(q)


def test_parse_rational():
    assert parse_rational("5/2") == Fraction(5, 2)
    assert parse_rational("-3") == -3
    assert parse_rational(" 1/21 ") == Fraction(1, 21)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    for text in ("x", "0.5", "1e3", "1/2/3", "1 / 2", "--1", "1_000"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_parse_rational_rejects_digit_runs_over_the_int_limit():
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 1)
    for text in (long, "-" + long, "1/" + long, long + "/3"):
        with pytest.raises(ValueError, match=f"^integer longer than {limit} digits$"):
            parse_rational(text)
    top, bottom = "1" * limit, "3" * limit
    assert parse_rational(f"{top}/{bottom}") == Fraction(int(top), int(bottom))
