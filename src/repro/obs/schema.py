"""Validation for saved telemetry artifacts (no external JSON-Schema dep).

Three on-disk shapes exist:

* **metrics documents** — ``{"schema": "repro.metrics/1", counters,
  histograms}``, written by ``--metrics-out`` and read back by ``repro
  report``.
* **profile documents** — ``{"schema": "repro.profile/1", phases,
  counters, series, memory_peak_kib}``, written by ``--profile-out``.
* **trace documents** — either Chrome trace-event JSON (an object with
  ``traceEvents`` and ``otherData.schema == "repro.trace/1"``, written
  by ``--trace-out file.json``) or JSONL (one span/event record per
  line, written by ``--trace-out file.jsonl``).

:func:`load_telemetry_file` sniffs the shape, validates it, and returns
``(kind, document)``; CI's smoke job and ``repro report --check`` both
go through it, so the schema the docs promise is the schema CI enforces.
"""

from __future__ import annotations

import json
import pathlib
from typing import Tuple, Union

from repro.errors import TelemetryError
from repro.obs.events import EVENT_KINDS
from repro.obs.metrics import METRICS_SCHEMA, MetricsRegistry
from repro.obs.telemetry import PROFILE_SCHEMA
from repro.obs.trace import TRACE_SCHEMA


def validate_metrics_doc(doc: object) -> None:
    """Raise :class:`TelemetryError` unless *doc* is a metrics document."""
    MetricsRegistry.from_dict(doc)  # parsing is the validation


def _validate_span_fields(record: dict, where: str) -> None:
    for key, kinds in (("name", str), ("start_s", (int, float)),
                       ("dur_s", (int, float))):
        if not isinstance(record.get(key), kinds):
            raise TelemetryError(f"{where}: span field {key!r} missing or mistyped")
    if record["dur_s"] < 0:
        raise TelemetryError(f"{where}: negative span duration")


def _validate_event_fields(record: dict, where: str) -> None:
    if record.get("kind") not in EVENT_KINDS:
        raise TelemetryError(f"{where}: unknown event kind {record.get('kind')!r}")
    if not isinstance(record.get("t"), (int, float)):
        raise TelemetryError(f"{where}: event field 't' missing or mistyped")


def validate_profile_doc(doc: object) -> None:
    """Raise :class:`TelemetryError` unless *doc* is a phase-profile document."""
    if not isinstance(doc, dict) or doc.get("schema") != PROFILE_SCHEMA:
        raise TelemetryError(
            f"profile document schema is not {PROFILE_SCHEMA!r}"
        )
    phases = doc.get("phases")
    if not isinstance(phases, dict):
        raise TelemetryError("profile document has no phases object")
    for name, entry in phases.items():
        where = f"phases[{name!r}]"
        if not isinstance(entry, dict):
            raise TelemetryError(f"{where}: not an object")
        calls = entry.get("calls")
        if not isinstance(calls, int) or isinstance(calls, bool) or calls < 0:
            raise TelemetryError(f"{where}: calls missing or mistyped")
        if "seconds" in entry:
            seconds = entry["seconds"]
            if not isinstance(seconds, (int, float)) or seconds < 0:
                raise TelemetryError(f"{where}: negative or mistyped seconds")
    counters = doc.get("counters", {})
    if not isinstance(counters, dict):
        raise TelemetryError("profile counters is not an object")
    for name, value in counters.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TelemetryError(f"counters[{name!r}]: not a number")
    series = doc.get("series", {})
    if not isinstance(series, dict):
        raise TelemetryError("profile series is not an object")
    for name, values in series.items():
        if not isinstance(values, list):
            raise TelemetryError(f"series[{name!r}]: not a list")
        for i, value in enumerate(values):
            # Non-finite floats serialize as null (StructuredEmitter._strict).
            if value is not None and not isinstance(value, (int, float)):
                raise TelemetryError(f"series[{name!r}][{i}]: not a number")
    peak = doc.get("memory_peak_kib")
    if peak is not None and not isinstance(peak, (int, float)):
        raise TelemetryError("memory_peak_kib is not a number")


def validate_chrome_doc(doc: object) -> None:
    """Validate the Chrome trace-event object format we emit."""
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise TelemetryError("trace document has no traceEvents list")
    schema = doc.get("otherData", {}).get("schema")
    if schema != TRACE_SCHEMA:
        raise TelemetryError(
            f"trace document schema is {schema!r}, expected {TRACE_SCHEMA!r}"
        )
    for i, entry in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(entry, dict):
            raise TelemetryError(f"{where}: not an object")
        if not isinstance(entry.get("name"), str):
            raise TelemetryError(f"{where}: missing name")
        if entry.get("ph") not in ("X", "i"):
            raise TelemetryError(f"{where}: unsupported phase {entry.get('ph')!r}")
        if not isinstance(entry.get("ts"), (int, float)):
            raise TelemetryError(f"{where}: missing ts")
        if entry["ph"] == "X" and not isinstance(entry.get("dur"), (int, float)):
            raise TelemetryError(f"{where}: complete event missing dur")


def validate_trace_jsonl(text: str) -> int:
    """Validate JSONL trace lines; returns the record count."""
    count = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"{where}: not JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise TelemetryError(f"{where}: not an object")
        kind = record.get("record")
        if kind == "span":
            _validate_span_fields(record, where)
        elif kind == "event":
            _validate_event_fields(record, where)
        else:
            raise TelemetryError(f"{where}: unknown record type {kind!r}")
        count += 1
    return count


def load_telemetry_file(
    path: Union[str, pathlib.Path],
) -> Tuple[str, object]:
    """Sniff, validate, and load one telemetry artifact.

    Returns ``("metrics", doc)``, ``("profile", doc)`` (``--profile-out``),
    ``("trace", doc)`` (Chrome format), or ``("trace-jsonl",
    [records...])``. Raises :class:`TelemetryError` for anything
    malformed.
    """
    path = pathlib.Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TelemetryError(f"cannot read {path}: {exc}") from exc

    stripped = text.lstrip()
    if not stripped:
        raise TelemetryError(f"{path} is empty")
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict):
            if doc.get("schema") == METRICS_SCHEMA:
                validate_metrics_doc(doc)
                return ("metrics", doc)
            if doc.get("schema") == PROFILE_SCHEMA:
                validate_profile_doc(doc)
                return ("profile", doc)
            if "traceEvents" in doc:
                validate_chrome_doc(doc)
                return ("trace", doc)
    # Fall through to JSONL (one record per line).
    validate_trace_jsonl(text)
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    return ("trace-jsonl", records)
