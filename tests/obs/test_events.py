"""The lifecycle event log: vocabulary, bounds, merge."""

import pytest

from repro.errors import TelemetryError
from repro.obs import EVENT_KINDS, EventLog


class TestEventLog:
    def test_records_kind_time_trial_and_fields(self):
        log = EventLog()
        log.emit("failure", 10.5, trial=3, disk=7, failed=2)
        assert log.records == [
            {"kind": "failure", "t": 10.5, "trial": 3, "disk": 7, "failed": 2}
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(TelemetryError):
            EventLog().emit("reboot", 1.0)

    def test_every_kind_in_vocabulary_accepted(self):
        log = EventLog()
        for kind in sorted(EVENT_KINDS):
            log.emit(kind, 0.0)
        assert len(log) == len(EVENT_KINDS)

    def test_bounded_drops_counted(self):
        log = EventLog(max_events=2)
        for i in range(5):
            log.emit("failure", float(i))
        assert len(log) == 2
        assert log.dropped == 3

    def test_kind_counts(self):
        log = EventLog()
        log.emit("failure", 1.0)
        log.emit("failure", 2.0)
        log.emit("data_loss", 3.0)
        assert log.kinds() == {"failure": 2, "data_loss": 1}

    def test_merge_does_not_mutate_source(self):
        a, b = EventLog(), EventLog()
        b.emit("failure", 1.0, trial=0)
        a.merge(b)
        a.emit("data_loss", 2.0, trial=1)
        assert b.records == [{"kind": "failure", "t": 1.0, "trial": 0}]
