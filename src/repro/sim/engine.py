"""A minimal discrete-event simulation engine.

Deterministic, heap-ordered, with stable tie-breaking (events scheduled
earlier fire first at equal timestamps) so simulations are exactly
reproducible. :class:`FcfsServer` models a disk: a single server draining a
FIFO queue of fixed-service-time requests.

The hot path is allocation-lean: :class:`Event` handles carry ``__slots__``
and the heap holds plain ``(time, seq, event)`` tuples, so every heap
comparison is a C-level tuple comparison that never touches the event
object itself. A sorted arrival stream never enters the heap at all:
:meth:`Simulator.feed` hands it to the run loop as a list and a cursor.

Telemetry: a :class:`Simulator` counts scheduled / processed / cancelled
events into the ambient telemetry (a no-op unless a caller installed a
collecting one) at one flag check per event when disabled. Like the
planner's, these are machinery counts: a direct call (``repro rebuild
--rebuild-model event``) records them, a chunk, run under the disabled
ambient, never does.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.obs.telemetry import ambient


class Event:
    """A scheduled callback; the cancellable handle returned by ``schedule``."""

    __slots__ = ("time", "seq", "action", "cancelled")

    def __init__(self, time: float, seq: int, action: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.time, self.seq) == (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, seq={self.seq}, {state})"


class Simulator:
    """Run events in time order until the queue drains or a horizon hits."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._tel = ambient()
        self._feed_times: Sequence[float] = ()
        self._feed_action: Optional[Callable[[int], None]] = None
        self._fed = 0  # the feed's cursor: arrivals fired so far
        self._stopped = False

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule *action* at ``now + delay``; returns a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, action)
        heapq.heappush(self._queue, (time, seq, event))
        if self._tel.enabled:
            self._tel.count("engine.events_scheduled")
        return event

    def feed(
        self, times: Sequence[float], action: Callable[[int], None]
    ) -> None:
        """Feed a sorted arrival stream: ``action(i)`` fires at ``times[i]``.

        What ``len(times)`` ``schedule`` calls made before any other would
        do, without the closures or the heap entries: a fed arrival fires
        before every heap event with the same timestamp, and fed arrivals
        at equal times fire in index order. *times* are absolute and
        non-decreasing. Call before :meth:`run`.
        """
        if self._fed < len(self._feed_times):
            raise SimulationError("the previous feed has not drained")
        self._feed_times, self._feed_action, self._fed = times, action, 0
        if self._tel.enabled:
            self._tel.count("engine.events_scheduled", len(times))

    def stop(self) -> None:
        """Abandon all pending work: :meth:`run` returns after this action.

        The heap and the feed are dropped, not paused, so the simulator
        holds no callback (and no cycle through one) afterwards.
        """
        self._stopped = True
        self._queue.clear()
        self._feed_times, self._feed_action, self._fed = (), None, 0

    def cancel(self, event: Event) -> None:
        """Prevent a scheduled event from firing."""
        event.cancelled = True
        if self._tel.enabled:
            self._tel.count("engine.events_cancelled")

    def run(self, until: Optional[float] = None) -> int:
        """Process events (up to time *until*); returns events processed."""
        processed = 0
        queue = self._queue
        pop = heapq.heappop
        times, arrive = self._feed_times, self._feed_action
        n_fed = len(times)
        fed = self._fed
        next_fed = times[fed] if fed < n_fed else math.inf
        self._stopped = False
        while not self._stopped:
            time = queue[0][0] if queue else math.inf
            if next_fed <= time:  # a fed arrival wins the tie
                if fed == n_fed or (until is not None and next_fed > until):
                    break  # heap and feed both drained, or the horizon
                if next_fed < self.now:
                    raise SimulationError("fed arrivals are not sorted")
                self.now = next_fed
                self._fed = fed = fed + 1
                next_fed = times[fed] if fed < n_fed else math.inf
                arrive(fed - 1)
            else:
                if until is not None and time > until:
                    break
                event = pop(queue)[2]
                if event.cancelled:
                    continue
                if time < self.now:
                    raise SimulationError("event queue went backwards (bug)")
                self.now = time
                event.action()
            processed += 1
        drained = not queue and self._fed == len(self._feed_times)
        if until is not None and self.now < until and drained:
            self.now = until
        if self._tel.enabled:
            self._tel.count("engine.events_processed", processed)
        return processed

    @property
    def pending(self) -> int:
        queued = sum(1 for entry in self._queue if not entry[2].cancelled)
        return queued + len(self._feed_times) - self._fed


class FcfsServer:
    """A single FIFO server (one disk spindle) inside a :class:`Simulator`.

    Submit work with :meth:`submit`; the completion callback fires when the
    request reaches the head of the queue and its service time elapses.
    """

    __slots__ = ("sim", "name", "busy_until", "total_busy", "requests")

    def __init__(self, sim: Simulator, name: str = "server") -> None:
        self.sim = sim
        self.name = name
        self.busy_until = 0.0
        self.total_busy = 0.0
        self.requests = 0

    def submit(
        self, service_time: float, on_done: Callable[[], None]
    ) -> float:
        """Enqueue a request; returns the time its completion event fires."""
        if service_time < 0:
            raise SimulationError(
                f"{self.name}: negative service time {service_time}"
            )
        sim = self.sim
        start = self.busy_until
        if sim.now > start:
            start = sim.now
        done = start + service_time
        self.busy_until = done
        self.total_busy += service_time
        self.requests += 1
        return sim.schedule(done - sim.now, on_done).time

    def utilization(self, horizon: float) -> float:
        """Fraction of [0, horizon] this server spent busy."""
        if horizon <= 0:
            raise SimulationError("utilization needs a positive horizon")
        return min(1.0, self.total_busy / horizon)
