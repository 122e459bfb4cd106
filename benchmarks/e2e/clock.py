"""Host seconds, corrected for the machine's momentary speed.

The boxes this benchmark runs on change speed under it: the same
deterministic pass takes 0.68 s in one second and 1.1 s in the next,
with no steal time reported (a noisy neighbour on the host). Medians do
not remove that, because the slow spells outlast a run. So every timed
segment is bracketed by a fixed calibration loop, and its wall seconds
are multiplied by ``REFERENCE_S / calibration seconds``: the seconds
the segment would have taken on this box at its undisturbed speed. The
correction is the benchmark's own code and never changes between the
two commits being compared, so a faster program still reads faster by
the same factor. README.md has the measurements behind this.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, List

#: What ``calibrate()`` takes on the box the sizes were frozen on, when
#: nothing disturbs it. Only fixes the unit; comparisons do not need it.
REFERENCE_S = 0.0265
#: A calibration this fresh is reused by the next segment.
FRESH_S = 0.005

def calibrate() -> float:
    """Seconds for a fixed blend of interpreter-bound and memory-bound work.

    Both halves are needed: a neighbour that saturates memory slows the
    numpy-heavy screens and sweeps by a third while a bytecode loop runs
    at full speed, and the other way round for the event-walk replays.
    No numpy here, so a worker can calibrate before it imports anything,
    and nothing is kept: the few MiB it touches are free again before
    the next pass, below the peak resident set of every workload.
    """
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    numbers = list(range(100_000, 0, -1))
    numbers.sort()
    total += sum(numbers)
    block = bytearray(2_000_000)
    for _ in range(8):
        total += bytes(block).count(1)
    return time.perf_counter() - start


class Clock:
    """Accumulates corrected seconds over ``segment()`` blocks."""

    def __init__(self) -> None:
        self.total = 0.0  # corrected seconds since reset()
        self.raw = 0.0  # uncorrected seconds since reset()
        self._samples: List[float] = []  # every calibration so far
        self._last_end = float("-inf")

    def _calibration(self, reuse: bool) -> float:
        """The seconds of a calibration, a fresh one unless one just ended."""
        if not (reuse and time.perf_counter() - self._last_end < FRESH_S):
            self._samples.append(calibrate())
            self._last_end = time.perf_counter()
        return self._samples[-1]

    def reset(self) -> None:
        self.total = self.raw = 0.0

    @property
    def spent(self) -> float:
        """Seconds spent calibrating, ever: not the program's time."""
        return sum(self._samples)

    def speed(self) -> float:
        """Mean machine speed over every calibration so far (1 = reference)."""
        return REFERENCE_S * len(self._samples) / self.spent

    @contextmanager
    def segment(self) -> Iterator[None]:
        before = self._calibration(reuse=True)
        start = time.perf_counter()
        try:
            yield
        finally:
            raw = time.perf_counter() - start
            after = self._calibration(reuse=False)
            self.raw += raw
            self.total += raw * REFERENCE_S / ((before + after) / 2)
