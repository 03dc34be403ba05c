import threading

import numpy as np
import pytest

from qlogent import partitions as pt


@pytest.fixture
def started_threads(monkeypatch):
    """List that collects every thread the CPU split (partitions._split_over_cpus) starts."""
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(pt.threading, "Thread", CountingThread)
    return started


@pytest.fixture
def nearly_orthogonal_blocks():
    """Rank-1 projectors uu† and vv† that pass every PVM check but orthogonality: u is at
    15 degrees, w is u turned by 90 degrees, and v is w + 1.1e-9 u normalised."""
    t = np.radians(15)
    u, w = np.array([np.cos(t), np.sin(t)]), np.array([-np.sin(t), np.cos(t)])
    v = w + 1.1e-9 * u
    v /= np.linalg.norm(v)
    return np.stack([np.outer(u, u), np.outer(v, v)])
