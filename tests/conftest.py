"""factorize.factor and conditions._prepare are memoized per process, so a
test that watches the factorizer or the divisor listing at work, or
patches one of their helpers, would see an earlier test's memo instead.
Every test starts from empty memos."""

import pytest

from ellspec import conditions, factorize


@pytest.fixture(autouse=True)
def _empty_memos():
    factorize.factor.cache_clear()
    conditions._prepare.cache_clear()
