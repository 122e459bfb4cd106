"""The telemetry facade: one object bundling metrics + trace + events.

Instrumented code takes (or looks up) a :class:`Telemetry` and calls the
convenience emitters::

    tel.count("lifecycle.failures")
    tel.observe("lifecycle.rebuild_hours", hours)
    tel.event("failure", t=time, trial=i, disk=d)
    with tel.span("plan_recovery", failed=len(failed)):
        ...

Every emitter is a no-op when ``tel.enabled`` is false, and the shared
:data:`NULL_TELEMETRY` singleton is the default everywhere, so the
instrumented hot paths cost one attribute check when telemetry is off —
measured at <1 % of lifecycle Monte-Carlo wall time (DESIGN.md records
the budget and the measurement).

Two wiring styles coexist:

* **Explicit** — the simulation kernels accept ``telemetry=`` so the
  parallel runner can hand each chunk a private collecting instance and
  merge the chunks deterministically.
* **Ambient** — deep helpers that would be noisy to thread a parameter
  through (``plan_recovery``, the rebuild memo, the bench runner) read
  the module-level ambient telemetry, which :func:`use_telemetry` swaps
  in scoped fashion. The CLI installs its collecting instance there, so
  direct calls are counted; the chunk driver runs every chunk under the
  disabled one, so a chunk's registry is its simulator's vocabulary.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


class _NullSpan:
    """A reusable, do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Telemetry:
    """Metrics + trace + events, collecting or disabled."""

    __slots__ = ("metrics", "trace", "events", "enabled")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
        enabled: bool = True,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace if trace is not None else Tracer()
        self.events = events if events is not None else EventLog()
        self.enabled = enabled

    @classmethod
    def collecting(
        cls, max_spans: int = 20_000, max_events: int = 50_000
    ) -> "Telemetry":
        """A fresh, enabled instance (what workers and the CLI build)."""
        return cls(
            MetricsRegistry(), Tracer(max_spans=max_spans),
            EventLog(max_events=max_events),
        )

    # -- emitters (no-ops when disabled) -----------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment the named counter (no-op when disabled)."""
        if self.enabled:
            self.metrics.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Record into the named histogram (no-op when disabled)."""
        if self.enabled:
            self.metrics.histogram(name).observe(value)

    def observe_many(self, name: str, values) -> None:
        """:meth:`observe` each of *values* (no-op when disabled or empty)."""
        if self.enabled and len(values):
            self.metrics.histogram(name).observe_many(values)

    def event(self, kind: str, t: float, trial: Optional[int] = None, **fields) -> None:
        """Append a lifecycle event at sim-time *t* (no-op when disabled)."""
        if self.enabled:
            self.events.emit(kind, t, trial=trial, **fields)

    def span(self, name: str, **args):
        """A tracing context manager (a shared null one when disabled)."""
        if self.enabled:
            return self.trace.span(name, **args)
        return _NULL_SPAN

    # -- merge -------------------------------------------------------------
    def merge_chunk(self, chunk: "Telemetry") -> None:
        """Fold one worker chunk in (call in chunk order for determinism)."""
        self.metrics.merge(chunk.metrics)
        self.events.merge(chunk.events)
        self.trace.merge(chunk.trace)


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
