"""Fixtures shared by the test modules."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from policycate import linear


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each pool that ``linear.fork_map`` starts, in order."""
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(linear, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` makes ``linear.fit_workers()`` return ``n`` for the rest of the test.

    Fits, sweeps and network scoring all read the count there, so one call
    sets it for every caller.
    """

    def set_count(n):
        monkeypatch.setattr(linear, "fit_workers", lambda: n)

    return set_count
