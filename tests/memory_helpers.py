"""Peak traced memory of one call, for the suite's memory bounds."""

import tracemalloc


def traced_peak(fn):
    """Run ``fn()`` under tracemalloc and return its result and the peak
    number of bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
