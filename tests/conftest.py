"""Helpers shared by the test modules."""

import tracemalloc


def _traced_peak(fn, *args):
    """Peak bytes traced while ``fn(*args)`` runs, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result
