"""Hypothesis profiles: `tier1` draws the same examples on every run, `explore` fresh ones;
the `forks` fixture, which counts the processes a test forks; and
`assert_no_child_left` and `open_descriptors`, which tests that fork import from here.

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


def open_descriptors():
    """The count of this process's open file descriptors, or None where /proc has none."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def assert_no_child_left():
    """Fails if this process has a child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
