"""Host-speed correction for the end-to-end times.

The benchmark runs on a few vCPUs of a shared host. The same code, timed a
minute apart, can take half as long again, and the slowdown falls unevenly:
Python code that makes many small numpy calls slows most, LAPACK least.
Medians over a run remove short bursts but not these slow swings.

So a run also times fixed kernels that belong to the benchmark, not the
library, between jobs. Each job is tagged with the kernel whose kind of work
it does most. Its time is scaled by ``REFERENCE_S[kind] / median kernel time
in this run``, which gives what the job would take at the reference host
speed. The reference times are constants: a change to the library scales
its metrics exactly as it scales its wall time. The run record keeps the raw
times and the factors.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

import child

#: Bound before the traced run wraps ``numpy.linalg.svd``.
_svd = np.linalg.svd

_rng = np.random.default_rng(20110817)
_MATRIX = _rng.standard_normal((200, 200))
_OP = np.eye(4) * 0.5 + 0.02


def _numpy():
    """Small-array numpy in a Python loop: the sampler, the ladders' glue."""
    v = np.ones(4)
    for _ in range(1_500):
        v = _OP @ v
        v /= v.sum()
    return v


def _lapack():
    """One SVD of a 200 x 200 matrix, on one BLAS thread."""
    return _svd(_MATRIX, compute_uv=False)


def _stream():
    """Whole-array passes over 32 MB, allocated and freed each time: the
    validation scan's level arrays."""
    a = np.full(4_000_000, 1.5)
    a *= 2.0
    return float(a.sum())


def _spawn():
    """A Python child that imports numpy: the start-up of a CLI call."""
    child.run([sys.executable, "-c", "import numpy"], timeout_s=60, check=True)


#: kind -> (kernel, least seconds between two samples while jobs run)
KERNELS = {
    "numpy": (_numpy, 0.25),
    "lapack": (_lapack, 0.25),
    "stream": (_stream, 0.25),
    "spawn": (_spawn, 2.0),
}

#: Kernel times at the reference host speed, in seconds: typical run medians
#: on the machine described in README.md.
REFERENCE_S = {"numpy": 0.0082, "lapack": 0.0045, "stream": 0.0130, "spawn": 0.200}


class HostSpeed:
    """Times the kernels of the given kinds; gives each kind's factor."""

    def __init__(self, kinds):
        self.times = {k: [] for k in sorted(set(kinds))}
        self._last = dict.fromkeys(self.times, float("-inf"))

    def sample(self, kind: str) -> None:
        t = time.perf_counter()
        KERNELS[kind][0]()
        self.times[kind].append(time.perf_counter() - t)
        self._last[kind] = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample each kind whose interval has passed since its last sample."""
        for kind in self.times:
            if time.perf_counter() - self._last[kind] >= KERNELS[kind][1]:
                self.sample(kind)

    def factor(self, kind: str) -> float:
        return REFERENCE_S[kind] / statistics.median(self.times[kind])

    def medians(self) -> dict:
        return {k: statistics.median(v) for k, v in self.times.items()}
