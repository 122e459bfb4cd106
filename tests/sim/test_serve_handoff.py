"""Walk the rebuild, sweep the rest: the serve walk's handoff to the sweep.

Under an open loop and a throttle that does not observe latencies, the
vectorized kernel walks a trial only until its last rebuild op has queued
its writes and resumes on the Lindley sweep from the disks' ``busy_until``.
The ``event`` kernel walks every request of the same sampled plane, so the
two must agree to the last bit — on every throttle, workload, sparing
mode, failure count, job count and chunk geometry, and at the edges where
the walked prefix is the whole trial or nothing at all.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.telemetry import Telemetry, use_telemetry
from repro.sim.serve import (
    FixedRateThrottle,
    IdleSlotThrottle,
    simulate_serve,
)
from repro.workloads.arrivals import OpenLoop
from repro.workloads.generators import Request, WorkloadSpec

THROTTLES = {
    "fixed": lambda: FixedRateThrottle(400.0),
    "idle": lambda: IdleSlotThrottle(),
}

WORKLOADS = {
    "uniform": WorkloadSpec(kind="uniform", n_requests=120),
    "zipf-writes": WorkloadSpec(
        kind="zipf", n_requests=120, skew=1.2, write_fraction=0.3
    ),
    "sequential": WorkloadSpec(kind="sequential", n_requests=120),
    "explicit": [
        Request(unit=(7 * i) % 40, is_write=i % 3 == 0) for i in range(90)
    ],
}


def both_kernels(layout, throttle, **kwargs):
    """(event document, vectorized document, vectorized profile)."""
    event = simulate_serve(
        layout, throttle=throttle(), kernel="event", **kwargs
    ).to_dict()
    prof = Telemetry(enabled=False, profiling=True)
    with use_telemetry(prof):
        vec = simulate_serve(
            layout, throttle=throttle(), kernel="vectorized", **kwargs
        ).to_dict()
    return event, vec, prof


class TestHandoffIdentity:
    @pytest.mark.parametrize("failed", [(0,), (0, 5)], ids=["1-disk", "2-disk"])
    @pytest.mark.parametrize("sparing", ["distributed", "dedicated"])
    @pytest.mark.parametrize("workload", list(WORKLOADS))
    @pytest.mark.parametrize("throttle", list(THROTTLES))
    def test_event_equals_vectorized(
        self, fano_layout, throttle, workload, sparing, failed
    ):
        event, vec, prof = both_kernels(
            fano_layout, THROTTLES[throttle], workload=WORKLOADS[workload],
            failed_disks=failed, arrival=OpenLoop(200.0), sparing=sparing,
            trials=4, seed=3,
        )
        assert event == vec
        assert event["rebuild_ops_done"] == event["rebuild_ops"] > 0
        # Not one kernel compared with itself: part walked, part swept.
        assert prof.counters["serve.walked_requests"] > 0
        assert prof.counters["serve.swept_requests"] > 0

    @pytest.mark.parametrize("chunk_trials", [1, 3, 16, 64])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("throttle", list(THROTTLES))
    def test_jobs_and_chunking_never_change_the_result(
        self, fano_layout, throttle, jobs, chunk_trials
    ):
        kwargs = dict(
            workload=WORKLOADS["zipf-writes"], failed_disks=(0, 5),
            arrival=OpenLoop(200.0), sparing="dedicated", trials=7, seed=13,
        )
        reference = simulate_serve(
            fano_layout, throttle=THROTTLES[throttle](), kernel="event",
            **kwargs
        ).to_dict()
        result = simulate_serve(
            fano_layout, throttle=THROTTLES[throttle](), kernel="vectorized",
            jobs=jobs, chunk_trials=chunk_trials, **kwargs
        ).to_dict()
        assert result == reference


class TestHandoffEdges:
    KWARGS = dict(
        workload=WorkloadSpec(kind="zipf", n_requests=100, write_fraction=0.3),
        failed_disks=(0,), arrival=OpenLoop(300.0), seed=5,
    )

    @pytest.mark.parametrize("trials", [1, 4])
    def test_rebuild_outlasts_the_trace(self, fano_layout, trials):
        """Slow rate: every trial of the chunk is walked, nothing is swept."""
        event, vec, prof = both_kernels(
            fano_layout, lambda: FixedRateThrottle(2.0), trials=trials,
            **self.KWARGS
        )
        assert event == vec
        assert min(vec["rebuild_seconds_per_trial"]) > max(
            vec["foreground_seconds_per_trial"]
        )
        assert prof.counters["serve.swept_requests"] == 0
        assert prof.counters["serve.walked_requests"] == 100 * trials

    def test_rebuild_ends_near_the_end_of_the_trace(self, fano_layout):
        """Some trials of one chunk are walked whole, others hand off."""
        event, vec, prof = both_kernels(
            fano_layout, lambda: FixedRateThrottle(80.0), trials=12,
            **self.KWARGS
        )
        assert event == vec
        rebuilds = vec["rebuild_seconds_per_trial"]
        foregrounds = vec["foreground_seconds_per_trial"]
        outlasted = [r > f for r, f in zip(rebuilds, foregrounds)]
        assert any(outlasted) and not all(outlasted)
        assert 0 < prof.counters["serve.swept_requests"] < 100

    @pytest.mark.parametrize("trials", [1, 4])
    def test_rebuild_drained_before_the_first_arrival(self, fano_layout, trials):
        """Rate inf, rare arrivals: the sweep starts at request 0."""
        kwargs = dict(self.KWARGS, arrival=OpenLoop(0.01))
        event, vec, prof = both_kernels(
            fano_layout, lambda: FixedRateThrottle(math.inf), trials=trials,
            rebuild_batches=3, **kwargs
        )
        assert event == vec
        assert vec["rebuild_ops_done"] == vec["rebuild_ops"] == 81 * trials
        assert prof.phases["serve"][0] == trials  # walked, for the rebuild
        assert prof.counters["serve.walked_requests"] == 0
        assert prof.counters["serve.swept_requests"] == 100 * trials


@settings(max_examples=30, deadline=None)
@given(
    rate=st.floats(20.0, 2000.0),
    ops_per_s=st.floats(1.0, 5000.0),
    batches=st.integers(1, 4),
    write_fraction=st.sampled_from([0.0, 0.25, 1.0]),
    seed=st.integers(0, 2 ** 32),
)
def test_handoff_matches_the_walk(
    fano_layout, rate, ops_per_s, batches, write_fraction, seed
):
    kwargs = dict(
        workload=WorkloadSpec(
            kind="uniform", n_requests=60, write_fraction=write_fraction
        ),
        failed_disks=(0,), arrival=OpenLoop(rate), rebuild_batches=batches,
        trials=2, seed=seed,
    )
    event = simulate_serve(
        fano_layout, throttle=FixedRateThrottle(ops_per_s), kernel="event",
        **kwargs
    )
    vec = simulate_serve(
        fano_layout, throttle=FixedRateThrottle(ops_per_s),
        kernel="vectorized", **kwargs
    )
    assert event.to_dict() == vec.to_dict()
