import threading

import pytest

from qlogent import linalg as la


@pytest.fixture
def started_threads(monkeypatch):
    """List that collects every thread the CPU split (linalg._split_over_cpus) starts."""
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(la.threading, "Thread", CountingThread)
    return started
