"""The machine's speed while an op runs, from a fixed calibration kernel.

The benchmark was built on a shared 2-core host whose speed moves between
levels up to 1.8x apart, for seconds at a time, with no steal time to show
for it: process CPU time moves with wall time.  Medians over a run do not
remove that, because whole runs land on one level or the other.  So every
time metric is reported in reference seconds: the op's wall time scaled by
how much slower than ``REF_KERNEL_S`` a fixed kernel ran around and during
the op.

The kernel is no part of mesopt.  It mixes the kinds of work the workloads
do: a Python integer loop, small dense matmuls and one small sparse LU.  A
change to the program cannot change how long it takes, so a program that
gets faster or slower shows in reference seconds as it does in wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Kernel time at the reference speed: about the fastest level of the
#: 2-core Xeon host the benchmark was built on.
REF_KERNEL_S = 0.005
#: Wall seconds between kernel samples taken during an op.
SAMPLE_INTERVAL_S = 0.25


class Kernel:
    """The calibration kernel; build once, then call to time one pass."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        self._splu = splu
        self._dense = np.random.default_rng(0).random((60, 60))
        n = 22
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self._sparse = (sp.kron(eye, line) + sp.kron(line, eye)).tocsc()
        self()  # first calls load BLAS and SuperLU paths

    def __call__(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(20000):
            s += i * i % 7
        for _ in range(100):
            self._dense @ self._dense
        self._splu(self._sparse)
        return time.perf_counter() - t0


def ref_seconds(wall: float, kernel_samples: list[float]) -> float:
    """Wall time scaled to the reference speed."""
    return wall * REF_KERNEL_S / statistics.median(kernel_samples)


class Sampler:
    """Kernel samples on entry, every ``SAMPLE_INTERVAL_S`` inside, and on exit.

    The samples inside come from a timer signal.  ``busy`` is the time all
    samples took, to be taken out of the block's wall time.  A signal that
    arrives inside a long C call runs when the call returns, so a solve
    delays a sample but never splits it.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.samples: list[float] = []
        self.busy = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.kernel())
        self.busy += time.perf_counter() - t0

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False
