"""Shared fixtures."""

import pytest

from sirb_lattice import cli, diagnostics


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool of diagnostics, the one every caller's jobs
    go through, by a stand-in that runs every task in this process, so no
    worker is ever started.  Returns the list of pool sizes requested, one
    per pool built."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(diagnostics, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the CPU count that the worker checks of cli and the pool sizes of
    diagnostics see; call the returned function with the count."""
    def set_count(count):
        monkeypatch.setattr(cli, "usable_cpus", lambda: count)
        monkeypatch.setattr(diagnostics, "usable_cpus", lambda: count)

    return set_count
