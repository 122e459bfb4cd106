"""The vectorized serve kernel: bit-identity, replay, kernel wiring.

Mirror of ``tests/sim/test_lifecycle_vectorized.py`` for the serving
simulator: both serve kernels read one sampling plane, so the kernel
flag (and the job count, and the throttle) may change wall clock only —
never a bit of :class:`ServeResult` or its merged telemetry.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.errors import SimulationError
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.sim.columnar import SERVE, lanes
from repro.sim.serve import (
    _N_LANES,
    AdaptiveThrottle,
    FixedRateThrottle,
    IdleSlotThrottle,
    _columnar_routes,
    _sample_traces,
    build_serve_tables,
    serve_batch_supported,
    simulate_serve,
)
from repro.workloads.arrivals import ClosedLoop, OpenLoop
from repro.workloads.generators import WorkloadSpec

WORKLOADS = [
    WorkloadSpec(kind="uniform", n_requests=120),
    WorkloadSpec(kind="zipf", n_requests=120, skew=1.2, write_fraction=0.3),
    WorkloadSpec(kind="sequential", n_requests=120),
]

THROTTLES = {
    "none": lambda: None,
    "fixed": lambda: FixedRateThrottle(250.0),
    "idle": lambda: IdleSlotThrottle(),
    "adaptive": lambda: AdaptiveThrottle(target_p99_ms=15.0, window=40),
}


class TestKernelBitIdentity:
    """Both kernels consume one sampling plane: results are identical."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("failed", [(), (0,)])
    def test_single_trial_identity(self, fano_layout, workload, failed):
        kwargs = dict(
            workload=workload, failed_disks=failed,
            arrival=OpenLoop(400.0), seed=7,
        )
        event = simulate_serve(fano_layout, kernel="event", **kwargs)
        vec = simulate_serve(fano_layout, kernel="vectorized", **kwargs)
        assert event.to_dict() == vec.to_dict()

    @pytest.mark.parametrize("name", ["fixed", "idle", "adaptive"])
    def test_throttled_replay_identity(self, fano_layout, name):
        """Rebuild-injecting configs agree with the exact event walk.

        A fresh throttle instance per run: policies carry mutable state
        (rate traces, latency windows), which must not leak across runs.
        """
        kwargs = dict(
            workload=WorkloadSpec(n_requests=150),
            failed_disks=(0,), arrival=OpenLoop(300.0), seed=11,
        )
        event = simulate_serve(
            fano_layout, throttle=THROTTLES[name](), kernel="event", **kwargs
        )
        vec = simulate_serve(
            fano_layout, throttle=THROTTLES[name](), kernel="vectorized",
            **kwargs
        )
        assert event.rebuild_ops_done > 0
        assert event.to_dict() == vec.to_dict()

    @pytest.mark.parametrize("name", ["none", "fixed"])
    def test_hot_zipf_lanes_identity(self, fano_layout, name):
        """Skewed zipf with 30 % writes: the hot units' queues run many
        times deeper than the rest on the sweep's depth-major plane, and
        under a fixed-rate rebuild they resume after walked prefixes."""
        workload = WorkloadSpec(
            kind="zipf", n_requests=600, skew=2.5, write_fraction=0.3
        )
        kwargs = dict(
            workload=workload, failed_disks=(0,), arrival=OpenLoop(300.0),
            trials=6, seed=17,
        )
        tables = build_serve_tables(fano_layout, failed_disks=(0,))
        routes = _columnar_routes(tables)
        trace = _sample_traces(
            workload, tables.n_units, kwargs["arrival"],
            lanes(17, SERVE, 0, 6, _N_LANES),
        )
        rows = trace.units + tables.n_units * trace.is_write
        for trial_rows in rows:
            legs = np.concatenate([
                routes.leg_lanes[start:start + length]
                for start, length in zip(
                    routes.starts[trial_rows], routes.lens[trial_rows]
                )
            ])
            depth = np.bincount(legs, minlength=len(tables.survivors))
            assert depth.max() > 4 * np.median(depth)

        event = simulate_serve(
            fano_layout, throttle=THROTTLES[name](), kernel="event", **kwargs
        )
        prof = Telemetry(enabled=False, profiling=True)
        with use_telemetry(prof):
            vec = simulate_serve(
                fano_layout, throttle=THROTTLES[name](), kernel="vectorized",
                **kwargs
            )
        assert event.to_dict() == vec.to_dict()
        walked = prof.counters.get("serve.walked_requests", 0)
        assert (walked > 0) == (name == "fixed")

    def test_closed_loop_replay_identity(self, fano_layout):
        kwargs = dict(
            workload=WorkloadSpec(n_requests=100),
            arrival=ClosedLoop(8, think_s=0.002), seed=3,
        )
        event = simulate_serve(fano_layout, kernel="event", **kwargs)
        vec = simulate_serve(fano_layout, kernel="vectorized", **kwargs)
        assert event.to_dict() == vec.to_dict()

    def test_batched_trials_equal_merged_singles(self, fano_layout):
        """One swept seven-trial plane against seven one-trial planes, each
        walked alone and merged: a trial's lanes are its global index's."""
        batch = simulate_serve(
            fano_layout, WorkloadSpec(n_requests=80), failed_disks=(0,),
            arrival=OpenLoop(500.0), trials=7, seed=21, kernel="vectorized",
        )
        singles = simulate_serve(
            fano_layout, WorkloadSpec(n_requests=80), failed_disks=(0,),
            arrival=OpenLoop(500.0), trials=7, seed=21, kernel="event",
            chunk_trials=1,
        )
        assert batch.to_dict() == singles.to_dict()

    def test_prebuilt_tables_change_nothing(self, fano_layout):
        tables = build_serve_tables(fano_layout, failed_disks=(0,))
        plain = simulate_serve(
            fano_layout, WorkloadSpec(n_requests=60), failed_disks=(0,),
            trials=4, seed=2, kernel="vectorized",
        )
        shared = simulate_serve(
            fano_layout, WorkloadSpec(n_requests=60), failed_disks=(0,),
            trials=4, seed=2, tables=tables, kernel="vectorized",
        )
        assert plain.to_dict() == shared.to_dict()


class TestParallelKernelContract:
    @pytest.mark.parametrize("throttle_name", ["none", "adaptive"])
    def test_kernel_and_jobs_never_change_the_result(
        self, fano_layout, throttle_name
    ):
        results = [
            simulate_serve(
                fano_layout, WorkloadSpec(n_requests=100),
                failed_disks=(0,), arrival=OpenLoop(400.0),
                throttle=THROTTLES[throttle_name](),
                trials=9, kernel=kernel, seed=13, jobs=jobs,
            ).to_dict()
            for kernel in ("event", "vectorized", "auto")
            for jobs in (1, 2, 4)
        ]
        assert all(r == results[0] for r in results[1:])

    def test_chunking_never_changes_the_result(self, fano_layout):
        results = [
            simulate_serve(
                fano_layout, WorkloadSpec(n_requests=80),
                trials=10, chunk_trials=chunk, kernel="vectorized",
                seed=5, jobs=2,
            ).to_dict()
            for chunk in (1, 3, 16, None)
        ]
        assert all(r == results[0] for r in results[1:])

    def test_collecting_keeps_chunks(self, fano_layout):
        """A collecting run takes the sweep's path, at the sweep's width."""
        def chunks(telemetry):
            calls = []
            simulate_serve(
                fano_layout, WorkloadSpec(n_requests=40), trials=40,
                kernel="vectorized", seed=5, telemetry=telemetry,
                progress=lambda *done: calls.append(done),
            )
            return len(calls)

        assert chunks(None) == chunks(Telemetry()) == 3

    def test_unknown_kernel_is_rejected_up_front(self, fano_layout):
        with pytest.raises(SimulationError):
            simulate_serve(
                fano_layout, WorkloadSpec(n_requests=10), trials=2,
                kernel="warp",
            )


class TestTelemetryInvariance:
    @pytest.mark.parametrize(
        "throttle_name,arrival",
        [
            ("none", OpenLoop(300.0)),
            ("fixed", OpenLoop(300.0)),
            ("idle", OpenLoop(300.0)),
            ("adaptive", OpenLoop(300.0)),
            ("fixed", ClosedLoop(4, think_s=0.002)),
        ],
        ids=["none", "fixed", "idle", "adaptive", "closed-loop"],
    )
    def test_metrics_and_events_identical_across_kernels(
        self, fano_layout, throttle_name, arrival
    ):
        captures = {}
        for kernel in ("event", "vectorized"):
            tel = Telemetry()
            result = simulate_serve(
                fano_layout, WorkloadSpec(n_requests=60),
                failed_disks=(0,), arrival=arrival,
                throttle=THROTTLES[throttle_name](),
                trials=6, kernel=kernel, seed=4, telemetry=tel,
            )
            captures[kernel] = (result.to_dict(), tel)
        ev_result, ev_tel = captures["event"]
        vec_result, vec_tel = captures["vectorized"]
        assert ev_result == vec_result
        assert ev_tel.metrics.counters() == vec_tel.metrics.counters()
        ev_hists = {k: h.to_dict() for k, h in ev_tel.metrics.histograms()}
        vec_hists = {k: h.to_dict() for k, h in vec_tel.metrics.histograms()}
        assert ev_hists == vec_hists
        assert ev_tel.events.records == vec_tel.events.records
        assert ev_tel.events.records, "telemetry captured no events"


class TestBatchSupport:
    def test_open_loop_sweeps_when_nothing_decides(self):
        assert serve_batch_supported(OpenLoop(100.0), None)
        # Rebuild traffic alone doesn't keep a trial on the walk: it is
        # walked until the last op's writes are queued, then swept.
        assert serve_batch_supported(OpenLoop(100.0), FixedRateThrottle(100.0))
        assert serve_batch_supported(OpenLoop(100.0), IdleSlotThrottle())

    def test_rebuild_adaptive_and_closed_loop_replay(self):
        """Rebuild under an adaptive throttle, and any closed loop."""
        assert not serve_batch_supported(OpenLoop(100.0), AdaptiveThrottle())
        assert not serve_batch_supported(ClosedLoop(4), None)
        assert not serve_batch_supported(ClosedLoop(4), FixedRateThrottle(100.0))


def _profiled(layout, **kwargs):
    prof = Telemetry(enabled=False, profiling=True)
    with use_telemetry(prof):
        simulate_serve(
            layout, WorkloadSpec(n_requests=40), trials=3, seed=1, **kwargs
        )
    return prof


class TestProfilerSpans:
    def test_sweep_path_bills_sample_and_sweep(self, fano_layout):
        prof = _profiled(fano_layout, kernel="vectorized")
        assert "sample" in prof.phases
        assert "sweep" in prof.phases
        assert "replay" not in prof.phases
        assert prof.counters["serve.trials"] == 3
        assert prof.counters["serve.walked_requests"] == 0
        assert prof.counters["serve.swept_requests"] == 120

    @pytest.mark.parametrize("name", ["fixed", "idle"])
    def test_handoff_path_bills_replay_and_sweep(self, fano_layout, name):
        """Walk the rebuild, sweep the rest: both phases, requests split."""
        prof = _profiled(
            fano_layout, failed_disks=(0,), throttle=THROTTLES[name](),
            kernel="vectorized",
        )
        assert prof.phases["replay"][0] == 1
        assert prof.phases["serve"][0] == 3  # one (short) heap walk per trial
        assert prof.phases["sweep"][0] == 1
        walked = prof.counters["serve.walked_requests"]
        swept = prof.counters["serve.swept_requests"]
        assert walked > 0 and swept > 0
        assert walked + swept == prof.counters["serve.requests"] == 120

    def test_replay_path_bills_replay(self, fano_layout):
        self.check_replay_only(
            fano_layout, failed_disks=(0,),
            throttle=AdaptiveThrottle(target_p99_ms=15.0),
        )

    def test_closed_loop_bills_replay(self, fano_layout):
        self.check_replay_only(fano_layout, arrival=ClosedLoop(4))

    @staticmethod
    def check_replay_only(layout, **config):
        prof = _profiled(layout, kernel="vectorized", **config)
        assert "sample" in prof.phases
        assert "replay" in prof.phases
        assert "merge" in prof.phases
        assert "sweep" not in prof.phases
        assert prof.counters["serve.walked_requests"] == 120
        assert prof.counters["serve.swept_requests"] == 0

    def test_event_walks_every_trial_vectorized_sweeps(self, fano_layout):
        """The kernel identity is not one kernel compared with itself."""
        event = _profiled(fano_layout, kernel="event")
        vec = _profiled(fano_layout, kernel="vectorized")
        assert "sweep" not in event.phases
        assert event.phases["serve"][0] == 3  # one heap walk per trial
        assert vec.phases["sweep"][0] == 1
        assert "serve" not in vec.phases and "replay" not in vec.phases
        for name in ("serve.trials", "serve.requests"):
            assert event.counters[name] == vec.counters[name]
        assert event.counters["serve.walked_requests"] == 120
        assert vec.counters["serve.swept_requests"] == 120
