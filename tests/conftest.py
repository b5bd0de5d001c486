"""Shared test settings.

Property tests run under one registered hypothesis profile: examples are
derived from each test's source (``derandomize``), so every run draws the
same inputs, and the example count is bounded to keep the suite fast.
"""

from hypothesis import settings

settings.register_profile(
    "qsurf", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("qsurf")
