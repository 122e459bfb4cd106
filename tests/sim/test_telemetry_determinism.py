"""The telemetry half of the parallel determinism contract.

The parallel runners already guarantee bit-identical *results* for any
jobs count; these tests assert the same for the merged metrics registry
and event log — the property that makes ``--metrics-out`` trustworthy
regardless of how a run was parallelized. Trace spans carry wall clock
and are explicitly outside the contract. Lifecycle, fleet and serve key
their draws by the global trial and histogram sums are exact, so their
registries are chunk-invariant as well.
"""

import pytest

from repro.obs import Telemetry
from repro.sim.fleet import simulate_fleet
from repro.sim.lifecycle import simulate_lifecycle
from repro.sim.montecarlo import simulate_lifetimes, threshold_oracle
from repro.sim.rebuild import DiskModel
from repro.sim.serve import FixedRateThrottle, simulate_serve
from repro.workloads.arrivals import OpenLoop
from repro.workloads.generators import WorkloadSpec

#: Tiny accelerated disk so rebuilds and losses happen within few trials.
DISK = DiskModel(capacity_bytes=5e10, bandwidth_bytes_per_s=2 * 1024 * 1024)


def lifecycle_run(layout, jobs, telemetry):
    return simulate_lifecycle(
        layout, 800.0, 2000.0, disk=DISK, trials=60, seed=7,
        jobs=jobs, chunk_trials=16, telemetry=telemetry,
    )


class TestLifecycleTelemetryDeterminism:
    @pytest.mark.parametrize("jobs", [2, 3, 5])
    def test_merged_registry_identical_to_serial(self, fano_layout, jobs):
        serial_tel = Telemetry()
        serial = lifecycle_run(fano_layout, 1, serial_tel)

        par_tel = Telemetry()
        parallel = lifecycle_run(fano_layout, jobs, par_tel)

        assert serial == parallel
        assert par_tel.metrics.to_dict() == serial_tel.metrics.to_dict()
        assert par_tel.events.records == serial_tel.events.records

    def test_registry_content_is_plausible(self, fano_layout):
        tel = Telemetry()
        result = lifecycle_run(fano_layout, 2, tel)
        counters = dict(tel.metrics.counters())
        assert counters["lifecycle.trials"] == result.trials
        assert counters["lifecycle.failures"] > 0
        # A planned repair completes, is abandoned, or is cut off by the
        # horizon / a data loss while still in flight.
        resolved = counters.get(
            "lifecycle.repairs_completed", 0
        ) + counters.get("lifecycle.repairs_abandoned", 0)
        assert resolved <= counters["lifecycle.repairs_planned"]
        assert resolved >= counters["lifecycle.repairs_planned"] - result.trials
        hist = dict(tel.metrics.histograms())
        assert hist["lifecycle.peak_failures"].count == result.trials

    def test_event_trials_rebased_monotonically(self, fano_layout):
        tel = Telemetry()
        lifecycle_run(fano_layout, 3, tel)
        trials = [r["trial"] for r in tel.events.records if "trial" in r]
        assert trials, "lifecycle run emitted no events"
        assert trials == sorted(trials)
        assert max(trials) < 60


class TestLifetimeTelemetryDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_merged_registry_identical_to_serial(self, jobs):
        args = (8, 500.0, 50.0, threshold_oracle(1), 1000.0)

        serial_tel = Telemetry()
        serial = simulate_lifetimes(
            *args, trials=400, seed=9, jobs=1, chunk_trials=64,
            telemetry=serial_tel,
        )
        par_tel = Telemetry()
        parallel = simulate_lifetimes(
            *args, trials=400, seed=9, jobs=jobs, chunk_trials=64,
            telemetry=par_tel,
        )
        assert serial == parallel
        assert par_tel.metrics.to_dict() == serial_tel.metrics.to_dict()
        assert par_tel.events.records == serial_tel.events.records

    def test_disabled_telemetry_collects_nothing(self):
        result = simulate_lifetimes(
            6, 500.0, 50.0, threshold_oracle(1), 1000.0,
            trials=50, seed=0, jobs=2, chunk_trials=16,
        )
        assert result.trials == 50  # no telemetry kwarg: pure no-op path

    def test_progress_callback_sees_monotonic_done(self):
        calls = []
        simulate_lifetimes(
            6, 500.0, 50.0, threshold_oracle(1), 1000.0,
            trials=100, seed=0, jobs=2, chunk_trials=32,
            progress=lambda done, total, losses: calls.append(
                (done, total, losses)
            ),
        )
        dones = [c[0] for c in calls]
        assert dones == sorted(dones)
        assert dones[-1] == 100
        assert all(total == 100 for _, total, _ in calls)


def _chunked(name, chunk):
    return {} if chunk is None else {name: chunk}


#: ``run(layout, jobs, chunk, telemetry)`` per simulator whose chunk size
#: is only a speed; ``chunk=None`` is the simulator's default width.
CHUNK_INVARIANT_RUNS = {
    "lifecycle": lambda layout, jobs, chunk, telemetry: simulate_lifecycle(
        layout, 800.0, 2000.0, disk=DISK, trials=60, seed=7, jobs=jobs,
        telemetry=telemetry, **_chunked("chunk_trials", chunk),
    ),
    "fleet": lambda layout, jobs, chunk, telemetry: simulate_fleet(
        layout, 800.0, 2000.0, disk=DISK, arrays=20, trials=3,
        lambda_boost=4.0, seed=11, jobs=jobs, telemetry=telemetry,
        **_chunked("chunk_missions", chunk),
    ),
    "serve": lambda layout, jobs, chunk, telemetry: simulate_serve(
        layout, WorkloadSpec(n_requests=60), failed_disks=(0,),
        arrival=OpenLoop(300.0), throttle=FixedRateThrottle(250.0),
        trials=6, seed=4, jobs=jobs, telemetry=telemetry,
        **_chunked("chunk_trials", chunk),
    ),
    # No throttle: nothing is walked, every chunk is swept and narrated.
    "serve-swept": lambda layout, jobs, chunk, telemetry: simulate_serve(
        layout, WorkloadSpec(n_requests=60), failed_disks=(0,),
        arrival=OpenLoop(300.0), trials=6, seed=4, jobs=jobs,
        telemetry=telemetry, **_chunked("chunk_trials", chunk),
    ),
}


class TestChunkInvariantTelemetry:
    @pytest.mark.parametrize("kind", sorted(CHUNK_INVARIANT_RUNS))
    def test_registry_identical_for_any_jobs_and_chunk(self, fano_layout, kind):
        captures = {}
        for jobs in (1, 2):
            for chunk in (1, 3, None):
                tel = Telemetry()
                CHUNK_INVARIANT_RUNS[kind](fano_layout, jobs, chunk, tel)
                captures[jobs, chunk] = (
                    tel.metrics.to_dict(), tel.events.records,
                    tel.events.dropped,
                )
        reference = captures[1, None]
        assert reference[0]["histograms"], "no histogram to fold"
        assert reference[1], "no events captured"
        for key, capture in captures.items():
            assert capture == reference, key
