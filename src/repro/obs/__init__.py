"""``repro.obs`` — the telemetry layer (numpy is its one dependency).

Three cooperating pieces (full design in DESIGN.md, "Telemetry layer"):

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters and
  streaming histograms; picklable and mergeable, so each parallel
  worker collects locally and the parent merges chunk registries in
  chunk order (bit-identical for any worker count).
* :mod:`repro.obs.trace` — bounded span tracing with Chrome-trace-viewer
  and JSONL export (wall clock lives here, never in the registry).
* :mod:`repro.obs.events` — a structured, sim-time-stamped event log of
  lifecycle happenings (failure, repair start/abandon/complete,
  latent-error check, data loss).
* :mod:`repro.obs.prof` — :class:`PhaseProfiler`, a low-overhead
  wall-clock phase profiler for the vectorized kernels (sample/screen/
  replay/merge durations, replay counters, chunk-ordered ESS series);
  rides its own ambient channel (:func:`use_profiler`) so profiling
  never flips the telemetry-driven kernel delegation.
* :mod:`repro.obs.ledger` — :class:`RunLedger`, the append-only JSONL
  provenance ledger (``$REPRO_LEDGER``) behind ``repro runs``.

:class:`Telemetry` bundles the three behind no-op emitters
(:data:`NULL_TELEMETRY` is the default everywhere), and
:func:`use_telemetry`/:func:`ambient` provide scoped ambient wiring for
helpers too deep to thread a parameter through. :class:`Heartbeat`
implements the parallel runners' ``progress`` callback for stderr
liveness; :class:`StructuredEmitter` is the benchmarks' JSONL channel;
:func:`load_telemetry_file` validates saved artifacts for ``repro
report`` and CI.
"""

from repro.obs.emit import BENCH_JSONL_ENV, StructuredEmitter
from repro.obs.events import EVENT_KINDS, EventLog
from repro.obs.ledger import (
    REPRO_LEDGER_ENV,
    RunLedger,
    config_fingerprint,
    result_digest,
    run_manifest,
)
from repro.obs.metrics import (
    METRICS_SCHEMA,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.obs.prof import (
    NULL_PROFILER,
    PROFILE_SCHEMA,
    PhaseProfiler,
    ambient_profiler,
    use_profiler,
)
from repro.obs.progress import Heartbeat
from repro.obs.schema import (
    load_telemetry_file,
    validate_chrome_doc,
    validate_metrics_doc,
    validate_profile_doc,
    validate_trace_jsonl,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    ambient,
    use_telemetry,
)
from repro.obs.trace import TRACE_SCHEMA, Span, Tracer

__all__ = [
    "BENCH_JSONL_ENV",
    "EVENT_KINDS",
    "METRICS_SCHEMA",
    "NULL_PROFILER",
    "NULL_TELEMETRY",
    "PROFILE_SCHEMA",
    "REPRO_LEDGER_ENV",
    "TRACE_SCHEMA",
    "Counter",
    "EventLog",
    "Heartbeat",
    "Histogram",
    "MetricsRegistry",
    "PhaseProfiler",
    "RunLedger",
    "Span",
    "StructuredEmitter",
    "Telemetry",
    "Tracer",
    "ambient",
    "ambient_profiler",
    "config_fingerprint",
    "load_telemetry_file",
    "result_digest",
    "run_manifest",
    "use_profiler",
    "use_telemetry",
    "validate_chrome_doc",
    "validate_metrics_doc",
    "validate_profile_doc",
    "validate_trace_jsonl",
]
