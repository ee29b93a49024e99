"""Fixtures shared by every test module."""

import pytest

from tatecalc import verify


@pytest.fixture(autouse=True)
def fresh_verdicts():
    """Each test computes its verdicts anew: a memo filled by another test, or
    before a test broke the engine by monkeypatch, would hand it the checks
    of the engine as it was then."""
    verify._checks.cache_clear()
    yield
    verify._checks.cache_clear()
