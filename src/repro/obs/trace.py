"""Span-based tracing with Chrome-trace-viewer and JSONL export.

``with tracer.span("rebuild", disks=2):`` records one complete span
(name, wall-clock start, duration, nesting depth, process id, free-form
args). The buffer is bounded: once ``max_spans`` spans are held, further
spans are counted in ``dropped`` instead of stored, so tracing a
million-event simulation cannot exhaust memory.

Export formats:

* :meth:`Tracer.to_chrome` — the Chrome trace-event JSON object format
  (load the file at ``chrome://tracing`` or https://ui.perfetto.dev).
  Lifecycle events (:mod:`repro.obs.events`) ride along as instant
  events on a synthetic "sim-time" track, 1 ms per unit of ``t`` (an
  hour; serve's: a second), so failure/repair cascades are inspectable.
* :meth:`Tracer.to_jsonl` — one JSON object per line, for grep/jq.

Span timestamps are ``time.perf_counter()`` readings, which have an
arbitrary per-process origin: within one process spans are mutually
consistent; merged worker traces are aligned per-pid only. Wall clock is
inherently nondeterministic, which is why spans never feed the metrics
registry (whose contents are part of the determinism contract).
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, List, Optional

from repro.errors import TelemetryError

#: Document identifier stamped on serialized traces.
TRACE_SCHEMA = "repro.trace/1"

#: Sim-time units (hours; serve: seconds) -> chrome microseconds.
SIM_HOUR_US = 1000.0


class Span:
    """One completed (or in-flight) span."""

    __slots__ = ("name", "start_s", "dur_s", "depth", "pid", "args")

    def __init__(
        self,
        name: str,
        start_s: float,
        dur_s: float,
        depth: int,
        pid: int,
        args: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.start_s = start_s
        self.dur_s = dur_s
        self.depth = depth
        self.pid = pid
        self.args = args or {}

    def to_dict(self) -> dict:
        """The JSONL record shape (minus the ``record`` tag)."""
        return {
            "name": self.name,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "depth": self.depth,
            "pid": self.pid,
            "args": self.args,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Span":
        try:
            return cls(
                str(doc["name"]),
                float(doc["start_s"]),
                float(doc["dur_s"]),
                int(doc.get("depth", 0)),
                int(doc.get("pid", 0)),
                dict(doc.get("args", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(f"malformed span document: {exc}") from exc


class _SpanContext:
    """The context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_SpanContext":
        self._tracer._depth += 1
        self._start = self._tracer._clock()
        return self

    def __exit__(self, *exc_info) -> bool:
        end = self._tracer._clock()
        self._tracer._depth -= 1
        self._tracer._record(
            self._name, self._start, end - self._start,
            self._tracer._depth, self._args,
        )
        return False


class Tracer:
    """A bounded in-memory span collector."""

    def __init__(
        self,
        max_spans: int = 20_000,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if max_spans < 1:
            raise TelemetryError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self._clock = clock
        self._depth = 0

    def span(self, name: str, **args) -> _SpanContext:
        """Open a span; it records itself when the ``with`` block exits."""
        return _SpanContext(self, name, args)

    def _record(
        self, name: str, start: float, dur: float, depth: int, args: dict
    ) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(Span(name, start, dur, depth, os.getpid(), args))

    def merge(self, other: "Tracer") -> None:
        """Append *other*'s spans (callers merge chunks in chunk order)."""
        for span in other.spans:
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
            else:
                self.spans.append(span)
        self.dropped += other.dropped

    # -- export ------------------------------------------------------------
    def to_chrome(self, events=None) -> dict:
        """Chrome trace-event JSON (object format, ``X`` + ``i`` phases)."""
        trace_events = []
        for span in self.spans:
            trace_events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": span.start_s * 1e6,
                    "dur": span.dur_s * 1e6,
                    "pid": span.pid,
                    "tid": span.depth,
                    "args": span.args,
                }
            )
        if events is not None:
            for record in events.records:
                args = {
                    k: v for k, v in record.items() if k not in ("kind", "t")
                }
                trace_events.append(
                    {
                        "name": record["kind"],
                        "ph": "i",
                        "ts": record["t"] * SIM_HOUR_US,
                        "pid": 0,
                        "tid": "sim-time",
                        "s": "g",
                        "args": args,
                    }
                )
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "schema": TRACE_SCHEMA,
                "dropped_spans": self.dropped,
                "dropped_events": getattr(events, "dropped", 0),
            },
        }

    def to_jsonl(self, events=None) -> str:
        """One JSON object per line: spans, then sim-time events."""
        lines = [
            json.dumps({"record": "span", **span.to_dict()}, sort_keys=True)
            for span in self.spans
        ]
        if events is not None:
            lines.extend(
                json.dumps({"record": "event", **rec}, sort_keys=True)
                for rec in events.records
            )
        return "\n".join(lines) + ("\n" if lines else "")
