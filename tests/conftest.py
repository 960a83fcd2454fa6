"""Suite-wide test settings.

Every Hypothesis test runs under the ``tier1`` profile: examples are drawn
from a fixed seed, so a run cannot find a new failing draw by chance; no
test has a deadline, since a shared host's speed drifts; and the example
count is bounded, so the property tests keep the suite's time. A test's own
``@settings`` overrides these for that test.
"""
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=30)
settings.load_profile("tier1")
