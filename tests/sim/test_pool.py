"""The persistent worker pool: lifecycle, broadcast, streaming, determinism."""

import pytest

from repro.core.oi_layout import oi_raid
from repro.errors import SimulationError
from repro.layouts import Raid5Layout
from repro.obs import Telemetry
from repro.sim.lifecycle import simulate_lifecycle
from repro.sim.montecarlo import simulate_lifetimes
from repro.sim.pool import (
    batch_slices,
    get_pool,
    pool_stats,
    run_streaming,
    shutdown_pool,
    state_fingerprint,
)
from repro.sim.rebuild import DiskModel
from repro.sim.serve import simulate_serve
from repro.workloads.arrivals import OpenLoop
from repro.workloads.generators import WorkloadSpec

LAYOUT = oi_raid(7, 3)

#: A tiny disk so event-style rebuild math stays fast in tests.
DISK = DiskModel(capacity_bytes=64 * 1024 * 1024, bandwidth_bytes_per_s=64 * 1024 * 1024)


def _double(_state, _common, spec):
    return spec * 2


def _with_state(state, common, spec):
    return (state, common, spec)


class TestBatchSlices:
    def test_covers_all_specs_contiguously(self):
        slices = batch_slices(100, 3)
        assert slices[0][0] == 0
        assert slices[-1][1] == 100
        for (_, stop), (start, _) in zip(slices, slices[1:]):
            assert stop == start

    def test_caps_tasks_at_spec_count(self):
        assert batch_slices(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_empty(self):
        assert batch_slices(0, 4) == []


class TestFingerprint:
    def test_equal_states_equal_digests(self):
        _, a = state_fingerprint(("layout", 1, 2.5))
        _, b = state_fingerprint(("layout", 1, 2.5))
        assert a == b

    def test_different_states_differ(self):
        _, a = state_fingerprint("one")
        _, b = state_fingerprint("two")
        assert a != b

    def test_unpicklable_state_raises(self):
        with pytest.raises(SimulationError, match="picklable"):
            state_fingerprint(lambda: None)


class TestPoolLifecycle:
    def setup_method(self):
        shutdown_pool()

    def teardown_method(self):
        shutdown_pool()

    def test_serial_jobs_rejected(self):
        with pytest.raises(SimulationError):
            get_pool(1, "state")

    def test_same_jobs_and_state_reuses(self):
        before = pool_stats()
        first = get_pool(2, "state-a")
        second = get_pool(2, "state-a")
        after = pool_stats()
        assert first is second
        assert after["created"] == before["created"] + 1
        assert after["reused"] == before["reused"] + 1

    def test_new_state_recycles(self):
        before = pool_stats()
        first = get_pool(2, "state-a")
        second = get_pool(2, "state-b")
        after = pool_stats()
        assert first is not second
        assert after["created"] == before["created"] + 2
        assert after["recycled"] == before["recycled"] + 1

    def test_new_jobs_recycles(self):
        before = pool_stats()
        get_pool(2, "state-a")
        get_pool(3, "state-a")
        after = pool_stats()
        assert after["recycled"] == before["recycled"] + 1

    def test_shutdown_is_idempotent(self):
        get_pool(2, "state-a")
        shutdown_pool()
        shutdown_pool()


class TestRunStreaming:
    def test_serial_runs_in_order_without_pool(self):
        before = pool_stats()
        out = list(run_streaming(_double, None, None, [1, 2, 3], jobs=1))
        assert out == [(0, 2), (1, 4), (2, 6)]
        assert pool_stats() == before  # jobs=1 never touches the pool

    def test_parallel_yields_every_spec_exactly_once(self):
        out = dict(
            run_streaming(_double, "st", None, list(range(20)), jobs=2)
        )
        assert out == {i: i * 2 for i in range(20)}

    def test_workers_see_broadcast_state(self):
        out = dict(
            run_streaming(
                _with_state, {"heavy": 99}, "common", [0, 1, 2, 3], jobs=2
            )
        )
        assert all(
            value == ({"heavy": 99}, "common", spec)
            for spec, value in out.items()
        )


class TestPoolPathDeterminism:
    """Same seed, jobs in {1, 2, 4}, telemetry on and off: bit-identical."""

    JOBS = (1, 2, 4)

    @staticmethod
    def _docs(run):
        """``(result.to_dict(), metrics, events)`` with and without telemetry."""
        plain = run(None).to_dict()
        tel = Telemetry()
        collected = run(tel).to_dict()
        return plain, collected, tel.metrics.to_dict(), tel.events.records

    def _assert_invariant(self, run):
        docs = [self._docs(lambda tel, jobs=jobs: run(jobs, tel)) for jobs in self.JOBS]
        for other in docs[1:]:
            assert other == docs[0]
        plain, collected, _metrics, _events = docs[0]
        assert plain == collected  # collecting telemetry never changes results

    def test_lifetimes(self):
        def run(jobs, tel):
            return simulate_lifetimes(
                LAYOUT, 2000.0, 40.0, 3000.0,
                trials=300, seed=11, jobs=jobs, chunk_trials=64,
                telemetry=tel,
            )

        self._assert_invariant(run)

    def test_lifetimes_event_kernel(self):
        def run(jobs, tel):
            return simulate_lifetimes(
                Raid5Layout(8), 500.0, 50.0, 1000.0,
                trials=400, seed=5, jobs=jobs, chunk_trials=64,
                kernel="event", telemetry=tel,
            )

        self._assert_invariant(run)

    def test_lifecycle(self):
        def run(jobs, tel):
            return simulate_lifecycle(
                LAYOUT, 800.0, 2000.0, disk=DISK,
                trials=40, seed=3, jobs=jobs, chunk_trials=8,
                telemetry=tel,
            )

        self._assert_invariant(run)

    def test_serve(self):
        def run(jobs, tel):
            return simulate_serve(
                LAYOUT,
                WorkloadSpec(kind="uniform", n_requests=80),
                failed_disks=[0],
                arrival=OpenLoop(150.0),
                trials=4, seed=9, jobs=jobs, telemetry=tel,
            )

        self._assert_invariant(run)
