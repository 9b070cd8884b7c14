"""factorize.factor is memoized per process, so a test that watches the
factorizer at work, or patches one of its helpers, would see an earlier
test's memo instead.  Every test starts from an empty memo."""

import pytest

from ellspec import factorize


@pytest.fixture(autouse=True)
def _empty_factor_memo():
    factorize.factor.cache_clear()
