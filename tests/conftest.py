import tracemalloc

import pytest


def _traced_peak(fn, *args, **kwargs):
    """Run fn and return its result with the peak bytes that tracemalloc
    saw allocated while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    """`traced_peak(fn, *args, **kwargs)` gives `(fn(...), peak bytes)`."""
    return _traced_peak
