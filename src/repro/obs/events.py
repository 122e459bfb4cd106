"""A structured event log for lifecycle-simulation events.

Every record is a flat dict with a ``kind`` (one of :data:`EVENT_KINDS`),
a simulated-time stamp ``t`` (hours; serve's: seconds), usually a ``trial``
index, and kind-specific fields (disk ids, rebuild hours, strike counts).
The log is bounded (drops past ``max_events``, counting what it dropped)
and mergeable: chunks stamp their records with global trial indices, and
the parallel runner concatenates per-chunk logs in chunk order, so the
merged log is bit-identical for any worker count.

The log deliberately stores *simulated* time only — wall clock would
break the determinism contract — which also makes it a replayable record
of *why* a mission lost data without re-running the simulation.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import TelemetryError

#: The lifecycle vocabulary. ``failure`` = disk failure arrival;
#: ``repair_start`` = a (re)planned rebuild was scheduled;
#: ``repair_abandon`` = an in-flight rebuild was invalidated by a newer
#: failure; ``repair_complete`` = all failed disks returned to service;
#: ``lse_check`` = a completed rebuild was audited for latent sector
#: errors; ``data_loss`` = the mission ended in loss. The serving
#: simulator adds ``rebuild_drained`` (the last injected rebuild op
#: completed) and ``queue_report`` (one per disk queue at trial end,
#: with its request count).
EVENT_KINDS = frozenset(
    {
        "failure",
        "repair_start",
        "repair_abandon",
        "repair_complete",
        "lse_check",
        "data_loss",
        "rebuild_drained",
        "queue_report",
    }
)


class EventLog:
    """Bounded, mergeable log of simulation events."""

    def __init__(self, max_events: int = 50_000) -> None:
        if max_events < 1:
            raise TelemetryError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        self.records: List[dict] = []
        self.dropped = 0

    def emit(
        self, kind: str, t: float, trial: Optional[int] = None, **fields
    ) -> None:
        """Record one event at simulated time *t* (hours; serve: seconds)."""
        if kind not in EVENT_KINDS:
            raise TelemetryError(
                f"unknown event kind {kind!r} (expected one of "
                f"{sorted(EVENT_KINDS)})"
            )
        if len(self.records) >= self.max_events:
            self.dropped += 1
            return
        record = {"kind": kind, "t": t}
        if trial is not None:
            record["trial"] = trial
        record.update(fields)
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def kinds(self) -> dict:
        """Event count per kind (for reports)."""
        counts: dict = {}
        for record in self.records:
            counts[record["kind"]] = counts.get(record["kind"], 0) + 1
        return counts

    def merge(self, other: "EventLog") -> None:
        """Append *other*'s records, as many as fit; count the rest dropped.

        Bulk path: capacity is checked once and the records are extended
        in one slice instead of appended one by one — merging per-chunk
        logs is on the parallel runner's chunk-completion path.
        """
        take = other.records[: self.max_events - len(self.records)]
        self.records.extend(take)
        self.dropped += (len(other.records) - len(take)) + other.dropped
