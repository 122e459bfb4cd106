"""The profiled section of ``Telemetry``: phases, tallies, merging, pickling."""

import pickle
import time

import pytest

from repro.obs import PROFILE_SCHEMA, Telemetry, validate_profile_doc
from repro.errors import TelemetryError


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def profiler(clock=time.perf_counter):
    """A profiling, non-collecting instance."""
    return Telemetry(enabled=False, profiling=True, clock=clock)


class TestPhaseSpans:
    def test_single_phase_records_calls_and_seconds(self):
        prof = profiler(clock=fake_clock([0.0, 2.0, 5.0, 6.0]))
        with prof.phase("screen"):
            pass
        with prof.phase("screen"):
            pass
        assert prof.phases == {"screen": [2, 3.0]}
        assert prof.total_seconds() == 3.0

    def test_nested_phases_bill_exclusive_time(self):
        # screen: enter 0, sample: enter 1 .. exit 4, screen: exit 10.
        # sample gets 3s; screen gets 10 - 3 = 7s exclusive.
        prof = profiler(clock=fake_clock([0.0, 1.0, 4.0, 10.0]))
        with prof.phase("screen"):
            with prof.phase("sample"):
                pass
        assert prof.phases["sample"] == [1, 3.0]
        assert prof.phases["screen"] == [1, 7.0]
        # Exclusive attribution: the per-phase seconds sum to the covered
        # wall-clock, with no double counting.
        assert prof.total_seconds() == 10.0

    def test_span_exits_cleanly_on_exception(self):
        prof = profiler(clock=fake_clock([0.0, 1.0]))
        with pytest.raises(RuntimeError):
            with prof.phase("screen"):
                raise RuntimeError("boom")
        assert prof.phases["screen"] == [1, 1.0]
        assert prof._stack == []

    def test_on_phase_observer_fires_on_entry(self):
        seen = []
        prof = profiler(clock=fake_clock([0.0, 1.0, 2.0, 3.0]))
        prof.on_phase = seen.append
        with prof.phase("screen"):
            pass
        with prof.phase("replay"):
            pass
        assert seen == ["screen", "replay"]


class TestCountersAndSeries:
    def test_counters_accumulate(self):
        prof = profiler()
        prof.tally("trials", 100)
        prof.tally("trials", 28)
        prof.tally("replays")
        assert prof.counters == {"trials": 128, "replays": 1}

    def test_series_append_in_call_order(self):
        prof = profiler()
        prof.record("ess", 0.9)
        prof.record("ess", 0.8)
        assert prof.series == {"ess": [0.9, 0.8]}


class TestDisabled:
    def test_disabled_profiler_is_inert(self):
        prof = Telemetry()
        with prof.phase("screen"):
            prof.tally("trials", 5)
            prof.record("ess", 0.5)
        assert prof.phases == {}
        assert prof.counters == {}
        assert prof.series == {}
        assert prof.capture_memory_peak() is None

    def test_disabled_phase_returns_shared_null_span(self):
        prof = Telemetry()
        assert prof.phase("a") is prof.phase("b")


class TestMerge:
    def test_merge_chunk_folds_phases_counters_series(self):
        parent = profiler(clock=fake_clock([0.0, 1.0]))
        with parent.phase("screen"):
            pass
        chunk = profiler(clock=fake_clock([0.0, 2.0]))
        with chunk.phase("screen"):
            pass
        chunk.tally("trials", 10)
        chunk.record("ess", 0.7)
        parent.merge_chunk(chunk)
        assert parent.phases["screen"] == [2, 3.0]
        assert parent.counters == {"trials": 10}
        assert parent.series == {"ess": [0.7]}

    def test_merge_preserves_chunk_series_order(self):
        parent = profiler()
        for value in (0.1, 0.2, 0.3):
            chunk = profiler()
            chunk.record("fraction", value)
            parent.merge_chunk(chunk)
        assert parent.series["fraction"] == [0.1, 0.2, 0.3]


class TestExport:
    def _profiled(self):
        prof = profiler(clock=fake_clock([0.0, 1.0, 2.0, 3.5]))
        with prof.phase("screen"):
            pass
        with prof.phase("replay"):
            pass
        prof.tally("trials", 4)
        prof.record("fraction", 0.25)
        return prof

    def test_to_dict_is_a_valid_profile_document(self):
        doc = self._profiled().profile_dict()
        validate_profile_doc(doc)
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["phases"]["screen"] == {"calls": 1, "seconds": 1.0}
        assert doc["phases"]["replay"] == {"calls": 1, "seconds": 1.5}

    def test_deterministic_dict_has_no_wall_clock(self):
        doc = self._profiled().deterministic_dict()
        assert doc["phases"] == {"screen": {"calls": 1},
                                 "replay": {"calls": 1}}
        assert "memory_peak_kib" not in doc
        assert doc["counters"] == {"trials": 4}
        assert doc["series"] == {"fraction": [0.25]}

    def test_validate_rejects_wrong_schema(self):
        with pytest.raises(TelemetryError):
            validate_profile_doc({"schema": "nope", "phases": {}})

    def test_phase_seconds_is_name_sorted(self):
        prof = self._profiled()
        assert list(prof.phase_seconds()) == ["replay", "screen"]


class TestPickling:
    def test_pickle_round_trip_drops_observer(self):
        prof = profiler(clock=fake_clock([0.0, 1.0]))
        prof.on_phase = lambda name: None  # unpicklable on purpose
        with prof.phase("screen"):
            pass
        clone = pickle.loads(pickle.dumps(prof))
        assert clone.phases == {"screen": [1, 1.0]}
        assert clone.on_phase is None
        assert clone._stack == []
        assert clone._clock is time.perf_counter  # the fake clock stays home
