"""Suite-wide test settings.

Every Hypothesis test runs under the ``tier1`` profile: examples are drawn
from a fixed seed, so a run cannot find a new failing draw by chance; no
test has a deadline, since a shared host's speed drifts; and the example
count is bounded, so the property tests keep the suite's time. A test's own
``@settings`` overrides these for that test.

Every test must also end with no thread alive that it did not find: a
thread left running would outlive the call that started it.
"""
import threading

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=30)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def no_thread_left_running():
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"test left threads running: {left}")
