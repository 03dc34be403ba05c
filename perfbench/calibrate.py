"""Fixed reference loops of numpy work, independent of qlogent.

On a shared host, load from neighbouring machines slows whole stretches of a
run, often all of it, by a quarter or more. The worker times a reference loop
between every two timed ops; an op's latency divided by the loop's time beside
it, times the loop's REFERENCE_S, is the op's latency at the loop's reference
speed, a figure that such slowdowns move far less than the raw latency. Load
slows interpreter-bound and memory-bound code by different factors, so each
workload uses the loop whose work is most like its own:
  linalg  many small complex matrix products, Kronecker products and
          Hermitian eigensolves driven from Python, plus a few at d = 64, as
          qlogent's verify and file-analysis ops do
  arrays  whole-array passes over 200 000 floats, as qlogent's sampler makes
          over its millions of draws
The loops touch no qlogent code, so no change to qlogent can change them.
"""

from __future__ import annotations

import time

import numpy as np

# Each loop's time on a 2-vCPU shared x86 box (Intel Xeon, Python 3.11,
# numpy 2.4, OpenBLAS pinned to one thread) when its neighbours were quiet:
# the scale that turns the ratio of op time to loop time back into seconds.
REFERENCE_S = {"linalg": 0.0060, "arrays": 0.0048}

_rng = np.random.default_rng(20210805)
_SMALL = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_HERM = _SMALL @ _SMALL.conj().T
_LARGE = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_ARRAY = _rng.standard_normal(200_000)


def _linalg() -> None:
    m = _SMALL
    for _ in range(100):
        m = (m @ _SMALL) / np.trace(m @ m.conj().T).real ** 0.5
        np.kron(m[:2, :2], m[2:, 2:])
    for _ in range(10):
        np.linalg.eigvalsh(np.kron(_HERM[:2, :2], _HERM))
    for _ in range(4):
        np.linalg.eigvalsh(_LARGE @ _LARGE.conj().T)


def _arrays() -> None:
    for _ in range(4):
        np.sort(_ARRAY)


_LOOPS = {"linalg": _linalg, "arrays": _arrays}


def loop_seconds(kind: str) -> float:
    """Wall seconds of one pass of the named reference loop."""
    loop = _LOOPS[kind]
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start
