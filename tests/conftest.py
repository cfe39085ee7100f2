"""Hypothesis profiles: `tier1` draws the same examples on every run, `explore` fresh ones;
and the `forks` fixture, which counts the processes a test forks.

Set HYPOTHESIS_PROFILE=explore to draw new examples; a test's own settings,
such as its example count, hold under either profile.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def forks(monkeypatch):
    """Counts os.fork calls: a one-item list that holds the count."""
    count = [0]
    fork = os.fork

    def counted():
        count[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return count
