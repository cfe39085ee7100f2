"""Hypothesis profiles: `tier1` draws the same examples on every run, `explore` fresh ones.

Set HYPOTHESIS_PROFILE=explore to draw new examples; a test's own settings,
such as its example count, hold under either profile.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
