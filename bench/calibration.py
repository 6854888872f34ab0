"""Machine-speed calibration for the end-to-end timings.

On a shared host the speed of the benchmark's cores drifts by up to ~30%
for minutes at a time, and by less over a few seconds: every op of a
run, and a plain numpy kernel run beside it, slow down by about the same
factor.  A run of a few tens of seconds sits inside one slow or fast
period, so medians within a run cannot remove it.  Instead the timed loop
runs a small fixed kernel after every op (outside the op's time), and
each op's time is rescaled by

    factor = NOMINAL_S / median(the kernel samples nearest the op)

so it reads as the op's time on a machine where the kernel takes
``NOMINAL_S``.  The kernel is the work that dominates the workload at the
seed commit: a dense symmetric ``eigh`` for ``sweep``, ``protocol`` and
``oracle``, a complex ``exp`` over a large array for ``spectrum``.  The
set-up probes, which import the package and run one op, use all three
kernels, including a pure-Python loop.  The kernels are plain numpy and
Python; no program change can make them faster or slower, except one
that changes numpy's BLAS threading for the whole process.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_rng = np.random.default_rng(20240917)
_SYM = _rng.standard_normal((300, 300))
_SYM = _SYM + _SYM.T
_PHASES = _rng.standard_normal(200_000)


def _eigh():
    np.linalg.eigh(_SYM)


def _exp():
    np.exp(1j * _PHASES).sum()


def _loop():
    total = 0
    for i in range(200_000):
        total += i * i
    return total


KERNELS = {"eigh": _eigh, "exp": _exp, "loop": _loop}
# Median kernel seconds on the reference box (2 vCPUs of an x86-64 host,
# numpy with OpenBLAS, 2 BLAS threads); the reported timings are scaled to it.
NOMINAL_S = {"eigh": 0.010, "exp": 0.009, "loop": 0.016}

WORKLOAD_KERNELS = {"sweep": ("eigh",), "protocol": ("eigh",),
                    "oracle": ("eigh",), "spectrum": ("exp",)}
SETUP_KERNELS = ("eigh", "exp", "loop")
# An op's factor is the median of the 2 * 3 + 1 samples around it: the
# machine's speed changes within seconds as well as over minutes.
LOCAL_HALF_WINDOW = 3


class Calibration:
    """Samples of a kernel set's time, and the factor they give."""

    def __init__(self, kernels):
        self.kernels = tuple(kernels)
        self.nominal_s = sum(NOMINAL_S[k] for k in self.kernels)
        self.samples: list[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        for k in self.kernels:
            KERNELS[k]()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """NOMINAL_S / median sample: multiply a time by it to rescale."""
        return self.nominal_s / statistics.median(self.samples)

    def local_factors(self, half_window: int = LOCAL_HALF_WINDOW) -> list[float]:
        """One factor per sample, from the median of the samples at most
        ``half_window`` places away: with one sample after each op, the
        factor of op i is ``local_factors()[i]``."""
        n = len(self.samples)
        return [self.nominal_s / statistics.median(
                    self.samples[max(0, i - half_window):i + half_window + 1])
                for i in range(n)]
