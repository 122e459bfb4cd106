"""The chunk driver: determinism, merging, fan-out."""

import pytest

from repro.core.oi_layout import oi_raid
from repro.core.tolerance import survivable_fraction
from repro.errors import SimulationError
from repro.obs.ledger import result_digest
from repro.obs.telemetry import Telemetry
from repro.sim.columnar import derive_chunk_seed
from repro.sim.fleet import simulate_fleet
from repro.sim.lifecycle import simulate_lifecycle
from repro.sim.montecarlo import (
    LifetimeResult,
    recoverability_oracle,
    simulate_lifetimes,
    threshold_oracle,
)
from repro.sim.parallel import (
    chunk_sizes,
    count_survivable,
    default_jobs,
    parallel_map,
)
from repro.sim.rebuild import DiskModel
from repro.sim.serve import FixedRateThrottle, simulate_serve
from repro.workloads.generators import WorkloadSpec


def _square(x):
    return x * x


class TestChunking:
    def test_chunk_sizes_exact_division(self):
        assert chunk_sizes(1000, 250) == [250, 250, 250, 250]

    def test_chunk_sizes_remainder(self):
        assert chunk_sizes(600, 256) == [256, 256, 88]

    def test_chunk_sizes_small_total(self):
        assert chunk_sizes(10, 256) == [10]
        assert chunk_sizes(0, 256) == []

    def test_chunk_sizes_validation(self):
        with pytest.raises(SimulationError):
            chunk_sizes(10, 0)

    def test_chunk_seed_zero_is_identity(self):
        assert derive_chunk_seed(12345, 0) == 12345

    def test_chunk_seeds_distinct(self):
        seeds = {derive_chunk_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestMerge:
    def test_merge_sums_and_concatenates_in_order(self):
        a = LifetimeResult(10, 2, (1.0, 2.0), 100.0)
        b = LifetimeResult(5, 1, (3.0,), 100.0)
        merged = LifetimeResult.merged([a, b])
        assert merged.trials == 15
        assert merged.losses == 3
        assert merged.loss_times == (1.0, 2.0, 3.0)

    def test_merge_rejects_mixed_horizons(self):
        a = LifetimeResult(10, 0, (), 100.0)
        b = LifetimeResult(10, 0, (), 200.0)
        with pytest.raises(SimulationError):
            LifetimeResult.merged([a, b])

    def test_merge_rejects_empty(self):
        with pytest.raises(SimulationError):
            LifetimeResult.merged([])

    def test_chunk_logs_hold_only_the_room_the_merge_keeps(self, monkeypatch):
        """At ``jobs=1`` chunks run after their predecessors folded, so a
        chunk's log is capped at the merged log's room — once the first
        chunk fills it, every later chunk builds one record at most."""
        caps = []

        def spy(collect, profile, max_events=50_000):
            caps.append(max_events)
            return Telemetry(collect, profile, max_events=max_events)

        tel = Telemetry(max_events=40)
        uncapped = Telemetry(max_events=40)
        monkeypatch.setattr("repro.sim.parallel.Telemetry", spy)
        args = (8, 500.0, 50.0, threshold_oracle(1), 1000.0)
        kwargs = dict(trials=200, seed=9, jobs=1, chunk_trials=50)
        simulate_lifetimes(*args, telemetry=tel, **kwargs)
        assert caps == [40, 1, 1, 1]
        # The cap changes neither the merged records nor ``dropped``.
        monkeypatch.setattr(
            "repro.sim.parallel.Telemetry",
            lambda collect, profile, max_events: Telemetry(collect, profile),
        )
        simulate_lifetimes(*args, telemetry=uncapped, **kwargs)
        assert tel.events.records == uncapped.events.records
        assert tel.events.dropped == uncapped.events.dropped > 0


class TestDeterminism:
    def test_jobs1_equals_jobs4_bit_identical(self):
        args = (8, 500.0, 50.0, threshold_oracle(1), 1000.0)
        serial = simulate_lifetimes(
            *args, trials=1000, seed=9, jobs=1, chunk_trials=128
        )
        parallel = simulate_lifetimes(
            *args, trials=1000, seed=9, jobs=4, chunk_trials=128
        )
        assert serial == parallel  # trials, losses, loss_times, horizon

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SimulationError, match="kernel"):
            simulate_lifetimes(
                6, 500.0, 50.0, threshold_oracle(1), 1000.0,
                trials=10, kernel="quantum",
            )

    def test_chunking_independent_of_jobs_with_layout_oracle(self, fano_layout):
        oracle = recoverability_oracle(fano_layout, guaranteed_tolerance=3)
        args = (21, 2000.0, 40.0, oracle, 3000.0)
        one = simulate_lifetimes(
            *args, trials=300, seed=1, jobs=1, chunk_trials=100
        )
        two = simulate_lifetimes(
            *args, trials=300, seed=1, jobs=2, chunk_trials=100
        )
        assert one == two

    def test_random_seed_still_merges(self):
        result = simulate_lifetimes(
            4, 1e9, 1.0, threshold_oracle(3), 100.0, trials=10, seed=None
        )
        assert result.trials == 10

    def test_jobs_validation(self):
        with pytest.raises(SimulationError):
            simulate_lifetimes(
                4, 100.0, 1.0, threshold_oracle(1), 10.0, trials=5, jobs=0
            )


_LAYOUT = oi_raid(7, 3)
_DISK = DiskModel(capacity_bytes=5e10, bandwidth_bytes_per_s=2 * 1024 * 1024)

#: One small run per chunked simulator as ``(chunk keyword, is the chunk
#: size outside the sampled plane too?, run(**jobs_and_chunk))``.
_CHUNKED = {
    "lifetimes": ("chunk_trials", False, lambda **kw: simulate_lifetimes(
        21, 2000.0, 40.0, recoverability_oracle(_LAYOUT, 3), 3000.0,
        trials=20, seed=5, **kw)),
    "lifecycle": ("chunk_trials", True, lambda **kw: simulate_lifecycle(
        _LAYOUT, 800.0, 2000.0, disk=_DISK, trials=20, seed=7, **kw)),
    "fleet": ("chunk_missions", True, lambda **kw: simulate_fleet(
        _LAYOUT, 800.0, 2000.0, disk=_DISK, arrays=4, trials=5, seed=11,
        **kw)),
    "serve": ("chunk_trials", True, lambda **kw: simulate_serve(
        _LAYOUT, WorkloadSpec(n_requests=60), failed_disks=(0,),
        throttle=FixedRateThrottle(300.0), trials=5, seed=9, **kw)),
}


class TestJobsAndChunkMatrix:
    """``jobs`` in {1, 2} x chunk in {1, 3, default}, every simulator."""

    @pytest.mark.parametrize("name", list(_CHUNKED))
    def test_jobs_never_and_chunks_rarely_move_a_bit(self, name):
        keyword, chunk_free, run = _CHUNKED[name]
        digests = {
            (jobs, chunk): result_digest(
                run(jobs=jobs, **({keyword: chunk} if chunk else {})).to_dict()
            )
            for jobs in (1, 2)
            for chunk in (1, 3, None)
        }
        for chunk in (1, 3, None):
            assert digests[1, chunk] == digests[2, chunk], chunk
        # Lanes addressed by global trial (lifecycle, serve; fleet at
        # boost 1, where every weight is an integer) put chunk size
        # outside the plane; lifetimes alone draws each chunk from one
        # sequential generator seeded by the chunk's index.
        assert (len(set(digests.values())) == 1) == chunk_free


class TestPatternSweep:
    def test_matches_serial_fraction(self, fano_layout):
        serial = survivable_fraction(fano_layout, 4, max_patterns=300)
        parallel = survivable_fraction(
            fano_layout, 4, max_patterns=300, jobs=2
        )
        assert serial == parallel

    def test_count_chunking_is_exact(self, fano_layout):
        patterns = [(a, b) for a in range(10) for b in range(a + 1, 12)]
        direct = count_survivable(fano_layout, patterns, jobs=1)
        fanned = count_survivable(
            fano_layout, patterns, jobs=2, chunk_patterns=7
        )
        assert direct == fanned == len(patterns)  # 2 failures always survive


class TestParallelMap:
    def test_preserves_order(self):
        assert parallel_map(_square, range(20), jobs=1) == [
            x * x for x in range(20)
        ]

    def test_multiprocess_matches_serial(self):
        items = list(range(30))
        assert parallel_map(_square, items, jobs=3) == [x * x for x in items]


class TestDefaultJobs:
    def test_env_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    def test_env_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6

    def test_env_empty_means_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "")
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "   ")
        assert default_jobs() == 1

    @pytest.mark.parametrize("raw", ["banana", "0", "-2", "1.5"])
    def test_env_invalid_or_non_positive_raises(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(SimulationError, match="REPRO_JOBS"):
            default_jobs()
