"""The profiled half of the parallel determinism contract.

A profiling ``Telemetry`` splits its profile in two: wall-clock fields
(seconds, memory peak) vary run to run, but ``deterministic_dict()``
— phase call counts, chunk counters, and recorded series — must be
bit-identical for any ``--jobs``, exactly like results and telemetry.
These tests pin that surface, plus the inverse guarantee: profiling
never perturbs results or telemetry.
"""

import pytest

from repro.obs import Telemetry, use_telemetry
from repro.sim.fleet import simulate_fleet
from repro.sim.lifecycle import simulate_lifecycle
from repro.sim.montecarlo import simulate_lifetimes
from repro.sim.rebuild import DiskModel
from repro.sim.serve import FixedRateThrottle, simulate_serve
from repro.workloads.arrivals import OpenLoop
from repro.workloads.generators import WorkloadSpec

#: Tiny accelerated disk so rebuilds and losses happen within few trials.
DISK = DiskModel(capacity_bytes=5e10, bandwidth_bytes_per_s=2 * 1024 * 1024)


def profiled_lifecycle(layout, jobs):
    prof = Telemetry(enabled=False, profiling=True)
    with use_telemetry(prof):
        result = simulate_lifecycle(
            layout, 800.0, 2000.0, disk=DISK, trials=60, seed=7,
            jobs=jobs, chunk_trials=16,
        )
    return result, prof


def profiled_fleet(layout, jobs):
    prof = Telemetry(enabled=False, profiling=True)
    with use_telemetry(prof):
        result = simulate_fleet(
            layout, 800.0, 2000.0, disk=DISK, arrays=40, trials=3,
            lambda_boost=4.0, seed=11, jobs=jobs, chunk_missions=32,
        )
    return result, prof


class TestProfileJobsInvariance:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_lifecycle_profile_identical_to_serial(self, fano_layout, jobs):
        serial, serial_prof = profiled_lifecycle(fano_layout, 1)
        parallel, par_prof = profiled_lifecycle(fano_layout, jobs)
        assert serial == parallel
        assert par_prof.deterministic_dict() == serial_prof.deterministic_dict()

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_fleet_profile_identical_to_serial(self, fano_layout, jobs):
        serial, serial_prof = profiled_fleet(fano_layout, 1)
        parallel, par_prof = profiled_fleet(fano_layout, jobs)
        assert serial == parallel
        assert par_prof.deterministic_dict() == serial_prof.deterministic_dict()

    def test_lifecycle_profile_content_is_plausible(self, fano_layout):
        result, prof = profiled_lifecycle(fano_layout, 2)
        assert prof.counters["lifecycle.trials"] == result.trials
        phases = set(prof.phases)
        assert {"sample", "screen", "merge"} <= phases
        # One merge span per chunk in the parent plus one result-assembly
        # span per chunk in the kernel: calls are a pure chunk count.
        chunks = -(-60 // 16)
        assert prof.phases["merge"][0] == 2 * chunks

    def test_fleet_profile_tracks_dangerous_fraction(self, fano_layout):
        _result, prof = profiled_fleet(fano_layout, 2)
        assert "fleet.missions" in prof.counters
        fractions = prof.series.get("fleet.dangerous_fraction")
        assert fractions, "fleet kernel recorded no dangerous fractions"
        assert all(0.0 <= f <= 1.0 for f in fractions)


class TestProfilerDoesNotPerturb:
    def test_profiled_result_matches_unprofiled(self, fano_layout):
        bare = simulate_lifecycle(
            fano_layout, 800.0, 2000.0, disk=DISK, trials=60, seed=7,
            jobs=2, chunk_trials=16,
        )
        profiled, _prof = profiled_lifecycle(fano_layout, 2)
        assert bare == profiled

    def test_telemetry_invariant_under_profiling(self, fano_layout):
        bare_tel = Telemetry()
        bare = simulate_lifecycle(
            fano_layout, 800.0, 2000.0, disk=DISK, trials=60, seed=7,
            jobs=2, chunk_trials=16, telemetry=bare_tel,
        )
        prof_tel = Telemetry(profiling=True)
        profiled = simulate_lifecycle(
            fano_layout, 800.0, 2000.0, disk=DISK, trials=60, seed=7,
            jobs=2, chunk_trials=16, telemetry=prof_tel,
        )
        assert prof_tel.phases
        assert bare == profiled
        assert prof_tel.metrics.to_dict() == bare_tel.metrics.to_dict()
        assert prof_tel.events.records == bare_tel.events.records


class TestCollectingDoesNotSteer:
    """Telemetry observes the path a run takes: the same phases, chunks,
    counters and series whether or not it is collecting."""

    @pytest.mark.parametrize("kind", ["lifetimes", "lifecycle", "fleet", "serve"])
    def test_profile_identical_with_and_without_collecting(
        self, fano_layout, kind
    ):
        def profiled(collect):
            telemetry = Telemetry(collect, profiling=True)
            if kind == "lifecycle":
                simulate_lifecycle(
                    fano_layout, 800.0, 2000.0, disk=DISK, trials=60,
                    seed=7, chunk_trials=16, telemetry=telemetry,
                )
            elif kind == "lifetimes":
                simulate_lifetimes(
                    fano_layout, 1000.0, 60.0,
                    3000.0, trials=600, seed=7, telemetry=telemetry,
                )
            elif kind == "serve":
                simulate_serve(
                    fano_layout, WorkloadSpec(n_requests=60),
                    failed_disks=(0,), arrival=OpenLoop(300.0),
                    throttle=FixedRateThrottle(250.0), trials=20, seed=4,
                    telemetry=telemetry,
                )
            else:
                simulate_fleet(
                    fano_layout, 800.0, 2000.0, disk=DISK, arrays=40,
                    trials=3, lambda_boost=4.0, seed=11, chunk_missions=32,
                    telemetry=telemetry,
                )
            assert bool(telemetry.events.records) == collect
            return telemetry.deterministic_dict()

        assert profiled(True) == profiled(False)
