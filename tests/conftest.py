import threading
import warnings

import numpy as np
import pytest

from qlogent import partitions as pt

# hypothesis imports its patch helper only when it reports a failing example, and with
# mypy_extensions installed that import warns; pyproject's filterwarnings = ["error"] turned
# the warning into an INTERNALERROR that hid the example. Imported once here, it is cached
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass


@pytest.fixture
def started_threads(monkeypatch):
    """List that collects every thread started through threading.Thread, such as the CPU
    split's (partitions._split_over_cpus)."""
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
