"""Low-overhead wall-clock phase profiler for the simulation kernels.

The telemetry layer (``repro.obs.telemetry``) records *what happened* inside a
simulation — per-trial spans, events, metrics.  This module records *where the
wall-clock went*: coarse kernel phases (``sample``/``screen``/``replay``/
``merge``), per-chunk counters (replay counts, dangerous missions), and
chunk-ordered series (ESS evolution, dangerous fraction).

Design constraints, in order of importance:

1. **Independent of telemetry.**  The vectorized kernels delegate to the
   event-driven walk when ``Telemetry.enabled`` is set; profiling must never
   flip that switch, so the profiler rides its own ambient channel.
2. **Near-zero cost when disabled.**  Every emitter is gated on a single
   attribute check, and ``phase()`` returns one shared reusable null span.
   Phases are coarse (a handful per chunk), never per-event.
3. **Deterministic content is jobs-invariant.**  Counters, series, and phase
   call counts are merged chunk-ordered (the same reorder-buffer contract as
   ``MetricsRegistry``), so ``deterministic_dict()`` is bit-identical for any
   ``--jobs``.  Wall-clock seconds and memory are real measurements and live
   only in ``to_dict()``.
"""

import time
import tracemalloc
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

PROFILE_SCHEMA = "repro.profile/1"

__all__ = [
    "PROFILE_SCHEMA",
    "PhaseProfiler",
    "NULL_PROFILER",
    "ambient_profiler",
    "use_profiler",
]


class _NullSpan:
    """Reusable no-op context manager returned by disabled profilers."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class _PhaseSpan:
    """Exclusive-time span: self-time excludes time spent in nested phases."""

    __slots__ = ("_profiler", "_name", "_start", "_child_seconds")

    def __init__(self, profiler: "PhaseProfiler", name: str):
        self._profiler = profiler
        self._name = name
        self._start = 0.0
        self._child_seconds = 0.0

    def __enter__(self):
        prof = self._profiler
        observer = prof.on_phase
        if observer is not None:
            observer(self._name)
        prof._stack.append(self)
        self._start = prof._clock()
        return self

    def __exit__(self, *exc_info):
        prof = self._profiler
        duration = prof._clock() - self._start
        stack = prof._stack
        stack.pop()
        entry = prof.phases.get(self._name)
        if entry is None:
            prof.phases[self._name] = [1, duration - self._child_seconds]
        else:
            entry[0] += 1
            entry[1] += duration - self._child_seconds
        if stack:
            stack[-1]._child_seconds += duration
        return False


class PhaseProfiler:
    """Accumulates phase durations, counters, and chunk-ordered series.

    ``phases`` maps phase name -> ``[calls, exclusive_seconds]``.  Exclusive
    means nested phases never double-count: a ``sample`` span inside a
    ``screen`` span bills its duration to ``sample`` only, so the per-phase
    seconds sum to the covered wall-clock.

    ``counters`` and ``series`` hold deterministic content only — values that
    are pure functions of the trial mathematics (replay counts, per-chunk ESS
    ratios), never of the clock. The one cache statistic, ``mc.oracle_calls``,
    is repeatable at ``jobs=1`` only: each worker keeps its own verdict memo.
    """

    __slots__ = (
        "enabled",
        "phases",
        "counters",
        "series",
        "memory_peak_kib",
        "on_phase",
        "_stack",
        "_clock",
    )

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.enabled = enabled
        self.phases: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.series: Dict[str, List[float]] = {}
        self.memory_peak_kib: Optional[float] = None
        self.on_phase: Optional[Callable[[str], None]] = None
        self._stack: List[_PhaseSpan] = []
        self._clock = clock

    # -- emitters (hot path: one attribute check when disabled) ------------

    def phase(self, name: str):
        """Context manager timing one phase; nested phases are exclusive."""
        if not self.enabled:
            return _NULL_SPAN
        return _PhaseSpan(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        """Add *amount* to a named run counter (no-op when disabled)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + amount

    def record(self, name: str, value: float) -> None:
        """Append one point to a chunk-ordered series."""
        if not self.enabled:
            return
        try:
            self.series[name].append(value)
        except KeyError:
            self.series[name] = [value]

    # -- merge + memory ----------------------------------------------------

    def merge_chunk(self, chunk: "PhaseProfiler") -> None:
        """Fold a per-chunk profiler in.  MUST be called in chunk order —
        series appends are order-sensitive; the callers route chunks through
        the same reorder buffer that keeps ``MetricsRegistry`` deterministic.
        """
        for name, (calls, seconds) in chunk.phases.items():
            entry = self.phases.get(name)
            if entry is None:
                self.phases[name] = [calls, seconds]
            else:
                entry[0] += calls
                entry[1] += seconds
        for name, amount in chunk.counters.items():
            self.counters[name] = self.counters.get(name, 0) + amount
        for name, values in chunk.series.items():
            try:
                self.series[name].extend(values)
            except KeyError:
                self.series[name] = list(values)

    def capture_memory_peak(self) -> Optional[float]:
        """Record the tracemalloc peak (KiB) if tracing is active.

        Run-level only: call from the top-level driver, never inside chunk
        workers (tracemalloc slows allocation ~2x and the peak would not be
        jobs-invariant anyway).
        """
        if not self.enabled or not tracemalloc.is_tracing():
            return None
        _current, peak = tracemalloc.get_traced_memory()
        self.memory_peak_kib = peak / 1024.0
        return self.memory_peak_kib

    # -- export ------------------------------------------------------------

    def total_seconds(self) -> float:
        """Sum of exclusive seconds across all phases (covered wall-clock)."""
        return sum(entry[1] for entry in self.phases.values())

    def phase_seconds(self) -> Dict[str, float]:
        """Exclusive seconds per phase, name-sorted (for ledger manifests)."""
        return {name: entry[1] for name, entry in sorted(self.phases.items())}

    def to_dict(self) -> Dict[str, Any]:
        """Full profile document, including wall-clock measurements."""
        return {
            "schema": PROFILE_SCHEMA,
            "phases": {
                name: {"calls": int(entry[0]), "seconds": entry[1]}
                for name, entry in sorted(self.phases.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "series": {
                name: list(values) for name, values in sorted(self.series.items())
            },
            "memory_peak_kib": self.memory_peak_kib,
        }

    def deterministic_dict(self) -> Dict[str, Any]:
        """The jobs-invariance contract: everything except the clock.

        Bit-identical for any ``--jobs`` — phase call counts, counters, and
        chunk-ordered series are pure functions of the trial mathematics.
        Wall seconds and memory peaks are real measurements and excluded,
        the same split ``MetricsRegistry`` (deterministic) vs the ``Tracer``
        (wall-stamped) makes.
        """
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

    # -- pickling (chunk profilers cross process boundaries) ---------------

    def __getstate__(self):
        return (
            self.enabled,
            self.phases,
            self.counters,
            self.series,
            self.memory_peak_kib,
        )

    def __setstate__(self, state):
        self.enabled, self.phases, self.counters, self.series, peak = state
        self.memory_peak_kib = peak
        self.on_phase = None  # observers never cross process boundaries
        self._stack = []
        self._clock = time.perf_counter


NULL_PROFILER = PhaseProfiler(enabled=False)

_ambient: PhaseProfiler = NULL_PROFILER


def ambient_profiler() -> PhaseProfiler:
    """The profiler in effect when none is passed explicitly."""
    return _ambient


@contextmanager
def use_profiler(profiler: Optional[PhaseProfiler]):
    """Install ``profiler`` as the ambient profiler for the block.

    ``None`` leaves the current ambient profiler in place (mirroring
    ``use_telemetry``), so call sites can thread an optional profiler
    without branching.
    """
    global _ambient
    if profiler is None:
        yield _ambient
        return
    previous = _ambient
    _ambient = profiler
    try:
        yield profiler
    finally:
        _ambient = previous
