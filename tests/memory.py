"""Memory measurement for the test suite."""

import tracemalloc


def numpy_peak(fn):
    """Peak bytes traced while fn() runs, above what was traced when it
    started; numpy reports every array buffer it allocates to tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
