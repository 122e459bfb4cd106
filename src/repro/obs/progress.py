"""Stderr progress heartbeats for long Monte-Carlo runs.

The parallel runners accept a ``progress`` callback invoked after every
completed chunk with ``(done, total, losses)``. :class:`Heartbeat` is
the CLI's implementation: rate-limited lines on stderr with trials/sec,
an ETA extrapolated from the rate so far, and the loss count observed so
far — enough to tell a healthy long run from a hung one without
perturbing stdout (which stays parseable output only).

Two optional enrichments hook in without changing the three-argument
callback contract:

* :meth:`Heartbeat.on_phase` (wired to ``Telemetry.on_phase``) marks
  kernel phase boundaries.  The rate window restarts when the phase
  changes between calls, so an ETA is never extrapolated from a screen
  phase into a replay phase with a very different rate.
* :meth:`Heartbeat.note_ess` (fed by the fleet drain) adds the running
  effective-sample-size ratio to the line for importance-sampled runs.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional, TextIO


def _fmt_eta(seconds: float) -> str:
    if seconds < 0 or seconds != seconds:  # negative or NaN
        return "?"
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


class Heartbeat:
    """Rate-limited ``done/total`` progress lines on a stream."""

    def __init__(
        self,
        label: str = "trials",
        stream: Optional[TextIO] = None,
        min_interval_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self._clock = clock
        self._start: Optional[float] = None
        self._last_emit: float = -float("inf")
        self.emitted = 0
        self.ess_ratio: Optional[float] = None
        self._phase: Optional[str] = None
        self._window_phase: Optional[str] = None
        self._window_start: float = 0.0
        self._window_base: int = 0
        self._prev_time: float = 0.0
        self._prev_done: int = 0

    def on_phase(self, name: str) -> None:
        """Record the kernel phase now running (``Telemetry.on_phase``)."""
        self._phase = name

    def note_ess(self, ess_ratio: float) -> None:
        """Record the running ESS ratio (effective samples / done trials)."""
        self.ess_ratio = ess_ratio

    def __call__(self, done: int, total: int, losses: int) -> None:
        """The ``progress`` callback contract of the parallel runners."""
        now = self._clock()
        if self._start is None:
            self._start = now
            self._window_start = now
            self._window_base = 0
            self._window_phase = self._phase
        elif self._phase != self._window_phase:
            # The kernel crossed a phase boundary (e.g. screen -> replay)
            # since the window opened; the old rate does not predict the new
            # phase, so restart the window where the previous call left off.
            self._window_start = self._prev_time
            self._window_base = self._prev_done
            self._window_phase = self._phase
        self._prev_time = now
        self._prev_done = done
        finished = done >= total
        if not finished and now - self._last_emit < self.min_interval_s:
            return
        self._last_emit = now
        elapsed = max(now - self._window_start, 1e-9)
        rate = (done - self._window_base) / elapsed
        remaining = (total - done) / rate if rate > 0 else float("nan")
        ess = f", ESS {self.ess_ratio:.2f}" if self.ess_ratio is not None else ""
        self.stream.write(
            f"[repro] {done}/{total} {self.label} "
            f"({rate:.0f}/s, ETA {_fmt_eta(remaining)}, losses {losses}{ess})\n"
        )
        self.stream.flush()
        self.emitted += 1
