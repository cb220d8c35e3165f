"""Fixtures shared by the cell-map and classical-walk tests."""

import threading

import pytest

from mapwalk import cellmaps


@pytest.fixture
def driver_calls(monkeypatch):
    """For each ``parallel_map`` call of the point-map driver: the items it is given, the
    items it ran, sorted, and the number of threads it started."""
    calls, run_items, started = [], cellmaps.parallel_map, []

    class RecordingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def recording_parallel_map(fn, items):
        items, ran, before = list(items), [], len(started)

        def run(x):
            ran.append(x)
            return fn(x)

        try:
            return run_items(run, items)
        finally:
            calls.append((items, sorted(ran), len(started) - before))

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    monkeypatch.setattr(cellmaps, "parallel_map", recording_parallel_map)
    return calls
