"""Helpers shared by several test modules."""

import tracemalloc

import pytest


def _traced_peak(call) -> int:
    """Peak bytes numpy and Python allocate beyond what is live, during call()."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
