"""The one instrument: :class:`Telemetry`, two sections, one ambient.

::

    tel.count("lifecycle.failures")           # collected: metrics,
    tel.event("failure", t=time, trial=i)     # trace, sim-time events
    with tel.span("plan_recovery"): ...
    with tel.phase("replay"):                 # profiled: exclusive
        tel.tally("lifecycle.replays", n)     # phases, counters, series

The *collected* section (``enabled``) records what a run did; the
*profiled* one (``profiling``) where its wall clock went. Each is
switched on by the artifact that needs it (``--metrics-out`` /
``--trace-out``, ``--profile-out``), so profiling never turns on
narration. A name both documents carry (``lifecycle.trials``) is one
``count`` plus one ``tally``: a profile reads the same with or without
collection, and kernel-dependent path counters (``*.replays``) stay out
of the kernel-invariant metrics document. Every emitter of a section
that is off costs one attribute check, and the shared
:data:`NULL_TELEMETRY` (both off) is the default everywhere.

Kernels get their telemetry explicitly (``telemetry=``; the chunk driver
hands each chunk a private instance with the run's sections on and folds
it back in chunk order). Deep helpers (``plan_recovery``, the rebuild
memo, the ledger) read the ambient instance :func:`use_telemetry`
installs; the CLI installs its one instance there, and the chunk driver
runs every chunk under the disabled one.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

PROFILE_SCHEMA = "repro.profile/1"


class _NullSpan:
    """A reusable, do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _PhaseSpan:
    """Exclusive-time span: self-time excludes time spent in nested phases."""

    __slots__ = ("_tel", "_name", "_start", "_child_seconds")

    def __init__(self, tel: "Telemetry", name: str):
        self._tel, self._name = tel, name
        self._start = self._child_seconds = 0.0

    def __enter__(self):
        tel = self._tel
        if tel.on_phase is not None:
            tel.on_phase(self._name)
        tel._stack.append(self)
        self._start = tel._clock()
        return self

    def __exit__(self, *exc_info):
        tel = self._tel
        duration = tel._clock() - self._start
        stack = tel._stack
        stack.pop()
        entry = tel.phases.setdefault(self._name, [0, 0.0])
        entry[0] += 1
        entry[1] += duration - self._child_seconds
        if stack:
            stack[-1]._child_seconds += duration
        return False


class Telemetry:
    """Metrics + trace + events (collected) and phases + counters +
    series (profiled); either section, both or neither switched on.

    ``phases`` maps name -> ``[calls, exclusive_seconds]``: a ``sample``
    phase inside ``replay`` bills its time to ``sample`` only, so the
    seconds sum to the covered wall clock. ``counters`` and ``series``
    are pure functions of the trial mathematics, except the cache
    statistic ``mc.oracle_calls`` (exact at ``jobs=1`` only).
    """

    #: The pickled state: never the phase observer, open-phase stack or clock.
    _STATE = (
        "enabled", "metrics", "trace", "events",
        "profiling", "phases", "counters", "series", "memory_peak_kib",
    )
    __slots__ = _STATE + ("on_phase", "_stack", "_clock")

    def __init__(
        self,
        enabled: bool = True,
        profiling: bool = False,
        max_events: int = 50_000,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.trace = Tracer()
        self.events = EventLog(max_events=max_events)
        self.profiling = profiling
        self.phases: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.series: Dict[str, List[float]] = {}
        self.memory_peak_kib: Optional[float] = None
        #: Called with each phase's name on entry (the heartbeat's hook).
        self.on_phase: Optional[Callable[[str], None]] = None
        self._stack: List[_PhaseSpan] = []
        self._clock = clock

    # -- collected section (no-ops unless ``enabled``) ---------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment the named metrics counter."""
        if self.enabled:
            self.metrics.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Record into the named histogram."""
        if self.enabled:
            self.metrics.histogram(name).observe(value)

    def observe_many(self, name: str, values) -> None:
        """:meth:`observe` each of *values* (a no-op when empty)."""
        if self.enabled and len(values):
            self.metrics.histogram(name).observe_many(values)

    def event(self, kind: str, t: float, trial: Optional[int] = None, **fields) -> None:
        """Append a lifecycle event at sim-time *t*."""
        if self.enabled:
            self.events.emit(kind, t, trial=trial, **fields)

    def span(self, name: str, **args):
        """A tracing context manager (a shared null one when disabled)."""
        if self.enabled:
            return self.trace.span(name, **args)
        return _NULL_SPAN

    # -- profiled section (no-ops unless ``profiling``) --------------------
    def phase(self, name: str):
        """Context manager timing one phase; nested phases are exclusive."""
        if self.profiling:
            return _PhaseSpan(self, name)
        return _NULL_SPAN

    def tally(self, name: str, amount: float = 1) -> None:
        """Add *amount* to a named profile counter."""
        if self.profiling:
            self.counters[name] = self.counters.get(name, 0) + amount

    def record(self, name: str, value: float) -> None:
        """Append one point to a chunk-ordered series."""
        if self.profiling:
            self.series.setdefault(name, []).append(value)

    def capture_memory_peak(self) -> Optional[float]:
        """Record the tracemalloc peak (KiB) if tracing is active; for the
        top-level driver only (a worker's peak is not jobs-invariant)."""
        if not self.profiling or not tracemalloc.is_tracing():
            return None
        self.memory_peak_kib = tracemalloc.get_traced_memory()[1] / 1024.0
        return self.memory_peak_kib

    # -- merge -------------------------------------------------------------
    def merge_chunk(self, chunk: "Telemetry") -> None:
        """Fold in the sections *chunk* has on. Call in chunk order: series
        and the event log are order-sensitive."""
        if chunk.enabled:
            self.metrics.merge(chunk.metrics)
            self.events.merge(chunk.events)
            self.trace.merge(chunk.trace)
        if chunk.profiling:
            for name, (calls, seconds) in chunk.phases.items():
                entry = self.phases.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += seconds
            for name, amount in chunk.counters.items():
                self.counters[name] = self.counters.get(name, 0) + amount
            for name, values in chunk.series.items():
                self.series.setdefault(name, []).extend(values)

    # -- profile export ----------------------------------------------------
    def total_seconds(self) -> float:
        """Sum of exclusive seconds across all phases (covered wall clock)."""
        return sum(entry[1] for entry in self.phases.values())

    def phase_seconds(self) -> Dict[str, float]:
        """Exclusive seconds per phase, name-sorted (for ledger manifests)."""
        return {name: entry[1] for name, entry in sorted(self.phases.items())}

    def profile_dict(self) -> Dict[str, Any]:
        """The profile document, wall-clock measurements included."""
        doc = self.deterministic_dict()
        for name, entry in self.phases.items():
            doc["phases"][name]["seconds"] = entry[1]
        doc["memory_peak_kib"] = self.memory_peak_kib
        return doc

    def deterministic_dict(self) -> Dict[str, Any]:
        """The profile minus the clock: phase call counts, counters and
        chunk-ordered series, bit-identical for any ``--jobs``."""
        return {
            "schema": PROFILE_SCHEMA,
            "phases": {
                name: {"calls": int(entry[0])}
                for name, entry in sorted(self.phases.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "series": {
                name: list(values) for name, values in sorted(self.series.items())
            },
        }

    # -- pickling (chunk instances cross process boundaries) ---------------
    def __getstate__(self):
        return tuple(getattr(self, name) for name in self._STATE)

    def __setstate__(self, state) -> None:
        for name, value in zip(self._STATE, state):
            setattr(self, name, value)
        self.on_phase = None
        self._stack = []
        self._clock = time.perf_counter


#: The shared disabled instance; every emitter on it is a no-op.
NULL_TELEMETRY = Telemetry(enabled=False)

_ambient: Telemetry = NULL_TELEMETRY


def ambient() -> Telemetry:
    """The telemetry deep helpers record into (default: disabled)."""
    return _ambient


@contextmanager
def use_telemetry(telemetry: Optional[Telemetry]) -> Iterator[Telemetry]:
    """Install *telemetry* as ambient for the ``with`` block.

    ``None`` means "leave the current ambient in place" — this lets a
    kernel write ``with use_telemetry(explicit_or_none):`` without
    clobbering CLI-level ambient telemetry when it got no explicit one.
    """
    global _ambient
    if telemetry is None:
        yield _ambient
        return
    previous = _ambient
    _ambient = telemetry
    try:
        yield telemetry
    finally:
        _ambient = previous
