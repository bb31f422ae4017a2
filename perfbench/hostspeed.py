"""Host-speed probe: a fixed kernel timed next to the measured work.

On a shared VM the same code runs at a speed set by the neighbours'
load: a vCPU whose core or cache is busy elsewhere runs 20-50% slower,
and the share of time it spends so changes from minute to minute, so
two runs of the same code a few minutes apart disagree by more than
any bound a regression gate can use. The kernel below does the kinds of work the library does
(NumPy soft-max, scatter-add, gather, prefix sums, and a Python loop)
on fixed data, so its time tracks the host's speed and nothing of the
program under test. A timing is reported on the *reference host*: the
measured seconds times ``REFERENCE_S`` over the kernel's mean time next
to them. The mean, not the median: the host switches between a fast
and a slow state many times a second, and a timed operation's length
follows the share of time spent in the slow state, which the mean
tracks and the median only jumps with. The top and bottom tenth of the
samples are left out, so one sample caught by a rare stall cannot move
it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: The kernel's time on the reference host, about its uncontended time
#: on a 2-vCPU Intel Xeon 2.1 GHz VM.
REFERENCE_S = 0.005
SIZE = 60_000
ROUNDS = 8
LOOP = 40_000


class HostSpeed:
    """Samples of the kernel's time."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(SIZE)
        self._index = rng.integers(0, SIZE, size=SIZE)
        self._sums = np.zeros(SIZE)
        self._soft = np.empty(SIZE)
        self._gathered = np.empty(SIZE)
        self.samples: list[float] = []

    def _kernel(self) -> None:
        # Writes only into its own buffers: an allocation would time the
        # allocator's state, which the program under test leaves behind.
        values, index = self._values, self._index
        soft, gathered = self._soft, self._gathered
        for _ in range(ROUNDS):
            np.subtract(values, values.max(), out=soft)
            np.exp(soft, out=soft)
            np.add.at(self._sums, index[:6000], soft[:6000])
            np.take(values, index, out=gathered)
            np.multiply(gathered, soft, out=gathered)
            np.cumsum(gathered, out=gathered)
        total = 0
        for i in range(LOOP):
            total += i & 7

    def sample(self, times: int = 1) -> None:
        """Time the kernel ``times`` times, after one untimed call that
        brings its data back into cache."""
        self._kernel()
        for _ in range(times):
            start = perf_counter()
            self._kernel()
            self.samples.append(perf_counter() - start)

    def slowdown(self) -> float:
        """This host's kernel time over the reference host's: measured
        seconds divided by it are seconds on the reference host."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        kept = ordered[cut : len(ordered) - cut]
        return sum(kept) / len(kept) / REFERENCE_S
