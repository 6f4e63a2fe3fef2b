"""Host-speed calibration: a fixed kernel, timed between the benchmark's ops.

The benchmark runs on shared hosts where the same work runs up to 1.5x
slower for stretches of seconds to minutes, whatever the program does. A run
of 45 s cannot average that out. So before the first timed op and after
every one, outside the timed region, the run times a fixed kernel of numpy
and plain Python work that uses no confbands code. Each op's latency is
scaled by ``REF_S`` over the mean kernel time right before and right after
it: the op's latency at the host speed at which the kernel takes ``REF_S``.
A change to confbands moves the scaled times as much as the raw ones; a slow
stretch of the host moves both the op and the kernel, and mostly cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on an unloaded 2-core Xeon VM (Intel family 6 model 207) at one
# BLAS thread: the host speed the scaled times refer to.
REF_S = 0.0038
MIN_SAMPLES = 2


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(20240611)
        self._a = rng.standard_normal((200, 200))
        self._x = rng.standard_normal((1000, 40))
        self.batches: list[list[float]] = []

    def _kernel(self) -> float:
        for _ in range(5):
            self._a @ self._a
        np.sort(self._x, axis=0)
        np.linalg.qr(self._x)
        s = 0.0
        for j in range(20000):
            s += j * 0.5
        return s

    def sample(self, budget_s: float) -> None:
        """Time the kernel until the times add up to ``budget_s``, and at
        least ``MIN_SAMPLES`` times; they form one batch."""
        batch: list[float] = []
        while len(batch) < MIN_SAMPLES or sum(batch) < budget_s:
            t = time.perf_counter()
            self._kernel()
            batch.append(time.perf_counter() - t)
        self.batches.append(batch)

    def scale(self, latencies: list[float]) -> list[float]:
        """Latency ``i`` at the reference speed, from the batches taken
        right before it (``i``) and right after it (``i + 1``)."""
        if len(self.batches) != len(latencies) + 1:
            raise ValueError(f"{len(latencies)} latencies need {len(latencies) + 1} batches, "
                             f"not {len(self.batches)}")
        return [lat * REF_S / statistics.mean(before + after)
                for lat, before, after in zip(latencies, self.batches, self.batches[1:])]
