"""The online serving simulator: throttles, routing, merging, determinism."""

import math

import pytest

from repro.core.oi_layout import oi_raid
from repro.errors import DataLossError, SimulationError
from repro.layouts import Raid50Layout
from repro.layouts.recovery import plan_recovery
from repro.obs import Telemetry
from repro.results import result_from_dict
from repro.serve import (
    AdaptiveThrottle,
    ClosedLoop,
    FixedRateThrottle,
    IdleSlotThrottle,
    OpenLoop,
    ServeResult,
    WorkloadSpec,
    build_serve_tables,
    simulate_serve,
)
from repro.sim.latency import LatencyModel

LAYOUT = oi_raid(7, 3)
SERVICE_MS = LatencyModel().service_seconds() * 1000.0


def serve(**kwargs):
    defaults = dict(
        layout=LAYOUT,
        workload=WorkloadSpec(kind="uniform", n_requests=300),
        arrival=OpenLoop(100.0),
        seed=0,
    )
    defaults.update(kwargs)
    return simulate_serve(**defaults)


class TestThrottles:
    def test_fixed_rate_grid(self):
        t = FixedRateThrottle(10.0)
        t.reset()
        assert t.next_delay(0.0, idle=False) is None  # first op immediate
        delay = t.next_delay(0.0, idle=False)
        assert delay == pytest.approx(0.1)

    def test_idle_slot_gates_on_idleness(self):
        t = IdleSlotThrottle(poll_s=0.5)
        assert t.next_delay(0.0, idle=True) is None
        assert t.next_delay(0.0, idle=False) == pytest.approx(0.5)

    def test_adaptive_backs_off_over_slo(self):
        t = AdaptiveThrottle(target_p99_ms=10.0, window=4)
        t.reset()
        start = t.ops_per_s
        for _ in range(4):
            t.observe(50.0)  # way over target
        assert t.ops_per_s == pytest.approx(start * t.backoff)
        assert len(t.rate_trace) == 2

    def test_adaptive_speeds_up_under_slo(self):
        t = AdaptiveThrottle(
            target_p99_ms=10.0, window=4, max_ops_per_s=100.0
        )
        t.reset()
        t._rate = 10.0  # force below max so increase is visible
        for _ in range(4):
            t.observe(1.0)
        assert t.ops_per_s == pytest.approx(12.5)

    def test_adaptive_clamps_to_min(self):
        t = AdaptiveThrottle(
            target_p99_ms=1.0, window=1, min_ops_per_s=5.0,
            max_ops_per_s=10.0,
        )
        t.reset()
        for _ in range(20):
            t.observe(100.0)
        assert t.ops_per_s == 5.0

    def test_validation(self):
        with pytest.raises(SimulationError):
            FixedRateThrottle(0.0)
        with pytest.raises(SimulationError):
            IdleSlotThrottle(poll_s=-1.0)
        with pytest.raises(SimulationError):
            AdaptiveThrottle(target_p99_ms=0.0)
        with pytest.raises(SimulationError):
            AdaptiveThrottle(min_ops_per_s=10.0, max_ops_per_s=1.0)
        with pytest.raises(SimulationError):
            AdaptiveThrottle(backoff=1.5)


class TestHealthyServing:
    def test_uncontended_latency_is_service_time(self):
        result = serve(arrival=OpenLoop(5.0))  # essentially no queueing
        assert result.p50_ms == pytest.approx(SERVICE_MS)
        assert result.read_amplification == 1.0
        assert result.degraded_fraction == 0.0
        assert result.requests == 300

    def test_writes_amplify_to_parity(self):
        result = serve(
            workload=WorkloadSpec(
                kind="uniform", n_requests=200, write_fraction=1.0
            )
        )
        assert result.writes == 200
        # RMW touches the home disk plus at least one parity disk.
        assert result.device_writes >= 2 * result.writes

    def test_closed_loop_serves_all_requests(self):
        result = serve(arrival=ClosedLoop(clients=4, think_s=0.001))
        assert result.requests == 300

    def test_zipf_and_sequential_kinds(self):
        for kind in ("zipf", "sequential"):
            result = serve(workload=WorkloadSpec(kind=kind, n_requests=50))
            assert result.requests == 50


class TestDegradedServing:
    def test_degraded_reads_fan_out(self):
        result = serve(failed_disks=[0])
        assert result.degraded_reads > 0
        assert result.read_amplification > 1.0
        # OI-RAID repairs from at most a few sources per cell.
        assert result.read_amplification < 2.0

    def test_unsurvivable_pattern_raises(self):
        with pytest.raises(DataLossError):
            serve(failed_disks=[0, 1, 2, 3, 4, 5])

    def test_degraded_writes_absorbed_by_parity(self):
        result = serve(
            failed_disks=[0],
            workload=WorkloadSpec(
                kind="uniform", n_requests=300, write_fraction=1.0
            ),
        )
        assert result.degraded_writes > 0
        assert result.requests == 300

    def test_rebuild_completes_and_is_counted(self):
        result = serve(
            failed_disks=[0],
            throttle=FixedRateThrottle(500.0),
            rebuild_batches=2,
        )
        assert result.rebuild_ops == 2 * len(
            plan_recovery(LAYOUT, [0]).steps
        )
        assert result.rebuild_complete
        assert result.rebuild_seconds > 0

    def test_faster_dispatch_finishes_rebuild_sooner(self):
        slow = serve(failed_disks=[0], throttle=FixedRateThrottle(100.0))
        fast = serve(failed_disks=[0], throttle=FixedRateThrottle(1000.0))
        assert fast.rebuild_seconds < slow.rebuild_seconds

    def test_idle_slot_politer_than_fixed_flood(self):
        flood = serve(
            failed_disks=[0],
            throttle=FixedRateThrottle(5000.0),
            rebuild_batches=8,
            arrival=OpenLoop(300.0),
        )
        polite = serve(
            failed_disks=[0],
            throttle=IdleSlotThrottle(),
            rebuild_batches=8,
            arrival=OpenLoop(300.0),
        )
        assert polite.p99_ms <= flood.p99_ms

    def test_validation(self):
        with pytest.raises(SimulationError):
            serve(failed_disks=[99])
        with pytest.raises(SimulationError):
            serve(rebuild_batches=0)
        with pytest.raises(SimulationError):
            serve(workload=[])
        with pytest.raises(SimulationError):
            serve(arrival="nonsense")


class TestServeTables:
    """The precomputed routing tables behind the serve fast path."""

    def test_tables_path_is_bit_identical(self):
        tables = build_serve_tables(
            LAYOUT, failed_disks=[0], sparing="distributed"
        )
        with_tables = serve(failed_disks=[0], tables=tables)
        without = serve(failed_disks=[0])
        assert with_tables == without

    def test_tables_reusable_across_trials(self):
        tables = build_serve_tables(LAYOUT, failed_disks=[0])
        first = serve(failed_disks=[0], tables=tables, seed=1)
        second = serve(failed_disks=[0], tables=tables, seed=1)
        assert first == second

    def test_healthy_tables_have_no_degraded_routes(self):
        tables = build_serve_tables(LAYOUT)
        assert not any(tables.read_degraded)
        assert not any(tables.write_degraded)
        assert tables.rebuild_ops == ()

    def test_degraded_tables_route_around_failures(self):
        tables = build_serve_tables(LAYOUT, failed_disks=[0])
        assert 0 not in tables.survivors
        for route in tables.read_routes + tables.write_routes:
            assert 0 not in route
        assert any(tables.read_degraded)

    def test_mismatched_tables_rejected(self):
        tables = build_serve_tables(LAYOUT, failed_disks=[0])
        with pytest.raises(SimulationError, match="different scenario"):
            serve(failed_disks=[1], tables=tables)
        with pytest.raises(SimulationError, match="different scenario"):
            serve(failed_disks=[0], tables=tables, sparing="dedicated")

    def test_unsurvivable_pattern_raises_at_build(self):
        with pytest.raises(DataLossError):
            build_serve_tables(LAYOUT, failed_disks=[0, 1, 2, 3, 4, 5])

    def test_bad_arguments_rejected(self):
        with pytest.raises(SimulationError, match="no such disk"):
            build_serve_tables(LAYOUT, failed_disks=[99])
        with pytest.raises(SimulationError):
            build_serve_tables(LAYOUT, rebuild_batches=0)
        with pytest.raises(SimulationError):
            build_serve_tables(LAYOUT, sparing="nonsense")


class TestMergeAndResult:
    def test_merge_concatenates_in_order(self):
        a = serve(seed=1)
        b = serve(seed=2)
        merged = ServeResult.merged([a, b])
        assert merged.trials == 2
        assert merged.latencies_ms == a.latencies_ms + b.latencies_ms
        assert merged.requests == a.requests + b.requests

    def test_merge_empty_rejected(self):
        with pytest.raises(SimulationError):
            ServeResult.merged([])

    def test_rebuild_seconds_nan_without_rebuild(self):
        result = serve()
        assert math.isnan(result.rebuild_seconds)
        assert result.rebuild_complete  # vacuously: 0 of 0

    def test_result_protocol_round_trip(self):
        import json

        result = serve(failed_disks=[0], throttle=FixedRateThrottle(200.0))
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["result"] == "ServeResult"
        restored = result_from_dict(doc)
        assert isinstance(restored, ServeResult)
        assert restored == result

    def test_summary_keys_present(self):
        summary = serve().summary()
        for key in ("p99_ms", "read_amplification", "degraded_fraction"):
            assert key in summary


class TestParallelDeterminism:
    WORKLOAD = WorkloadSpec(kind="zipf", n_requests=120)

    def run_jobs(self, jobs, telemetry=None):
        return simulate_serve(
            LAYOUT,
            self.WORKLOAD,
            failed_disks=[0],
            arrival=OpenLoop(150.0),
            throttle=FixedRateThrottle(300.0),
            rebuild_batches=2,
            trials=5,
            seed=42,
            jobs=jobs,
            telemetry=telemetry,
        )

    def test_bit_identical_across_jobs(self):
        results = [self.run_jobs(jobs) for jobs in (1, 2, 3)]
        assert results[0] == results[1] == results[2]

    def test_trial_zero_reproduces_serial_kernel(self):
        pooled = simulate_serve(
            LAYOUT, self.WORKLOAD, arrival=OpenLoop(150.0),
            trials=3, seed=7, jobs=1,
        )
        direct = simulate_serve(
            LAYOUT, self.WORKLOAD, arrival=OpenLoop(150.0), seed=7,
        )
        assert pooled.latencies_ms[:direct.requests] == direct.latencies_ms

    def test_merged_telemetry_identical_across_jobs(self):
        docs = []
        for jobs in (1, 3):
            tel = Telemetry.collecting()
            self.run_jobs(jobs, telemetry=tel)
            docs.append(
                (tel.metrics.to_dict(), tel.events.records)
            )
        assert docs[0] == docs[1]

    def test_progress_reports_all_trials(self):
        seen = []
        simulate_serve(
            LAYOUT, self.WORKLOAD, trials=3, chunk_trials=1, seed=0, jobs=1,
            progress=lambda done, total, losses: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_progress_covers_all_trials_at_default_chunking(self):
        # The vectorized default batches trials into wide chunks;
        # progress then lands per chunk but still totals every trial.
        seen = []
        simulate_serve(
            LAYOUT, self.WORKLOAD, trials=3, seed=0, jobs=1,
            progress=lambda done, total, losses: seen.append((done, total)),
        )
        assert seen[-1] == (3, 3)
        assert [total for _done, total in seen] == [3] * len(seen)

    def test_validation(self):
        with pytest.raises(SimulationError):
            simulate_serve(LAYOUT, self.WORKLOAD, trials=0)
        with pytest.raises(SimulationError):
            simulate_serve(LAYOUT, self.WORKLOAD, jobs=0)


class TestQueueingAsymmetry:
    """The E9 mechanism at test scale: equal repair rates, unequal pain."""

    def test_oi_rebuilds_faster_than_raid50_at_equal_rate(self):
        oi = oi_raid(7, 3)
        r50 = Raid50Layout(7, 3)
        common = dict(
            workload=WorkloadSpec(kind="uniform", n_requests=400),
            arrival=OpenLoop(150.0),
            failed_disks=[0],
            throttle=FixedRateThrottle(600.0),
            seed=0,
        )
        # Equalize total regenerated units: oi plan has 27 steps,
        # raid50's has 3.
        oi_result = simulate_serve(oi, rebuild_batches=4, **common)
        r50_result = simulate_serve(r50, rebuild_batches=36, **common)
        assert oi_result.rebuild_ops == r50_result.rebuild_ops
        assert oi_result.rebuild_seconds < r50_result.rebuild_seconds
        assert oi_result.p99_ms <= r50_result.p99_ms
