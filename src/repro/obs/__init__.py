"""``repro.obs`` — the telemetry layer (numpy is its one dependency).

Full design in DESIGN.md, "Telemetry layer". One instrument,
:class:`Telemetry` (:mod:`repro.obs.telemetry`), has two sections, each
switched on by the artifact that needs it. The *collected* one bundles
three pieces behind no-op emitters:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters and
  streaming histograms; picklable and mergeable in chunk order
  (bit-identical for any worker count).
* :mod:`repro.obs.trace` — bounded span tracing with Chrome-trace-viewer
  and JSONL export (wall clock lives here, never in the registry).
* :mod:`repro.obs.events` — a sim-time-stamped log of lifecycle
  happenings (failure, repair start/abandon/complete, latent-error
  check, data loss).

The *profiled* one holds exclusive kernel phases, path counters and
chunk-ordered series. :data:`NULL_TELEMETRY` is the default everywhere;
:func:`use_telemetry`/:func:`ambient` wire helpers too deep to thread a
parameter through. Around it: :class:`RunLedger`, the ``$REPRO_LEDGER``
provenance ledger behind ``repro runs``; :class:`Heartbeat`, the stderr
``progress`` callback; :class:`StructuredEmitter`, the benchmarks' JSONL
channel; :func:`load_telemetry_file`, the artifact validator of ``repro
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
    PROFILE_SCHEMA,
    Telemetry,
    ambient,
    use_telemetry,
)
from repro.obs.trace import TRACE_SCHEMA, Span, Tracer

__all__ = [
    "BENCH_JSONL_ENV",
    "EVENT_KINDS",
    "METRICS_SCHEMA",
    "NULL_TELEMETRY",
    "PROFILE_SCHEMA",
    "REPRO_LEDGER_ENV",
    "TRACE_SCHEMA",
    "Counter",
    "EventLog",
    "Heartbeat",
    "Histogram",
    "MetricsRegistry",
    "RunLedger",
    "Span",
    "StructuredEmitter",
    "Telemetry",
    "Tracer",
    "ambient",
    "config_fingerprint",
    "load_telemetry_file",
    "result_digest",
    "run_manifest",
    "use_telemetry",
    "validate_chrome_doc",
    "validate_metrics_doc",
    "validate_profile_doc",
    "validate_trace_jsonl",
]
