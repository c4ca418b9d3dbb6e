"""Fixtures shared by the test modules."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from policycate import selection


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each pool that ``selection.fork_map`` starts, in order."""
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(selection, "ProcessPoolExecutor", RecordingPool)
    return sizes
