"""The fleet-scale rare-event kernel and its honest statistics."""

import json

import pytest

from repro import Scenario, run
from repro.errors import SimulationError
from repro.results import result_from_dict
from repro.sim.fleet import FleetResult, simulate_fleet
from repro.sim.lifecycle import simulate_lifecycle
from repro.sim.rebuild import DiskModel
from repro.layouts import Raid50Layout
from repro.obs.telemetry import Telemetry
from repro.util.units import GIB

LAYOUT = Raid50Layout(3, 3)
SMALL_DISK = DiskModel(capacity_bytes=10 * GIB)
#: The rare-event acceptance config: ~1e-4 P(loss) per mission with the
#: default 1 TiB disk (rebuild ~2.9 h against a 100 kh MTTF).
RARE = dict(mttf_hours=100_000.0, horizon_hours=20_000.0, disk=DiskModel())


class TestFleetKernel:
    def test_matches_lifecycle_vectorized_on_same_lanes(self):
        """A fleet's missions ARE lifecycle trials: mission *m* reads the
        lanes of trial *m*, so both sample the exact same floats however
        either run is cut into chunks."""
        life = simulate_lifecycle(
            LAYOUT, 800.0, 3000.0, disk=SMALL_DISK, trials=900, seed=3,
            kernel="vectorized",
        )
        assert life.losses > 0
        per_array = [
            sum(life.failures_per_trial[a * 300:(a + 1) * 300])
            for a in range(3)
        ]
        for chunk in ({"chunk_missions": 1}, {"chunk_missions": 64}, {}):
            fleet = simulate_fleet(
                LAYOUT, 800.0, 3000.0, disk=SMALL_DISK,
                arrays=3, trials=300, seed=3, **chunk,
            )
            assert fleet.raw_losses == life.losses
            assert fleet.lse_losses == life.lse_losses
            assert list(fleet.failures_per_array) == per_array
            assert sum(fleet.repairs_per_array) == sum(life.repairs_per_trial)
            assert fleet.max_peak_failures == max(life.peak_failures_per_trial)

    def test_chunk_size_cannot_change_counts(self):
        """Lanes are keyed by global mission index, so chunk geometry
        regroups float additions but never changes what any mission
        samples — every integer accumulator is exactly invariant."""
        base = simulate_fleet(
            LAYOUT, 800.0, 3000.0, disk=SMALL_DISK,
            arrays=20, trials=40, seed=3,
        )
        odd = simulate_fleet(
            LAYOUT, 800.0, 3000.0, disk=SMALL_DISK,
            arrays=20, trials=40, seed=3, chunk_missions=137,
        )
        assert odd.raw_losses == base.raw_losses
        assert odd.replays == base.replays
        assert odd.failures_per_array == base.failures_per_array
        assert odd.repairs_per_array == base.repairs_per_array

    def test_per_array_accounting(self):
        result = simulate_fleet(
            LAYOUT, 800.0, 3000.0, disk=SMALL_DISK,
            arrays=10, trials=30, seed=1, chunk_missions=97,
        )
        assert len(result.failures_per_array) == 10
        assert len(result.repairs_per_array) == 10
        assert result.missions == 300
        assert result.mean_failures > 0
        # repairs never exceed failures, per array
        for fails, reps in zip(
            result.failures_per_array, result.repairs_per_array
        ):
            assert reps <= fails

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_fleet(LAYOUT, 800.0, 3000.0, arrays=0)
        with pytest.raises(SimulationError):
            simulate_fleet(LAYOUT, 800.0, 3000.0, lambda_boost=0.0)
        with pytest.raises(SimulationError):
            simulate_fleet(LAYOUT, -1.0, 3000.0)


class TestJobsInvariance:
    def test_serial_equals_parallel_for_any_jobs(self):
        """The bit-identical-for-any-jobs contract, float weight sums
        included (dataclass equality compares every field)."""
        base = simulate_fleet(
            LAYOUT, arrays=30, trials=40, seed=11, lambda_boost=1.4,
            chunk_missions=256, **RARE,
        )
        for jobs in (1, 2, 4):
            par = simulate_fleet(
                LAYOUT, arrays=30, trials=40, seed=11, lambda_boost=1.4,
                jobs=jobs, chunk_missions=256, **RARE,
            )
            assert par == base, f"jobs={jobs} diverged"

    def test_telemetry_does_not_change_result(self):
        plain = simulate_fleet(
            LAYOUT, 800.0, 3000.0, disk=SMALL_DISK,
            arrays=10, trials=40, seed=3,
        )
        tel = Telemetry()
        watched = simulate_fleet(
            LAYOUT, 800.0, 3000.0, disk=SMALL_DISK,
            arrays=10, trials=40, seed=3, telemetry=tel,
        )
        assert watched == plain
        # every mission is narrated, settled by the screen or replayed
        counters = dict(tel.metrics.counters())
        assert counters["fleet.missions"] == 400
        assert counters["fleet.replays"] == watched.replays
        assert counters["lifecycle.failures"] == sum(watched.failures_per_array)
        assert counters["lifecycle.repairs_completed"] == sum(watched.repairs_per_array)


class TestImportanceSampling:
    def test_naive_run_has_unit_weights(self):
        result = simulate_fleet(
            LAYOUT, 800.0, 3000.0, disk=SMALL_DISK,
            arrays=10, trials=40, seed=3,
        )
        assert result.sum_weights == result.missions
        assert result.effective_sample_size == result.missions
        assert result.weighted_losses == result.raw_losses
        assert result.prob_loss == result.raw_prob_loss

    def test_is_agrees_with_naive_within_ci_using_fewer_replays(self):
        """The acceptance property: on a ~1e-4 P(loss) config the
        importance-sampled estimate lands inside the naive Wilson CI
        while paying >= 10x fewer exact event replays."""
        naive = simulate_fleet(
            LAYOUT, arrays=1000, trials=200, seed=13, **RARE,
        )
        assert 1e-5 < naive.prob_loss < 1e-3  # the regime under test
        boosted = simulate_fleet(
            LAYOUT, arrays=100, trials=100, seed=13, lambda_boost=1.4,
            **RARE,
        )
        lo, hi = naive.prob_loss_interval()
        assert lo <= boosted.prob_loss <= hi
        assert boosted.replays * 10 <= naive.replays
        # the weights stayed healthy: a collapsed ESS would flag an
        # over-aggressive boost even if the point estimate got lucky
        assert boosted.effective_sample_size > 0.05 * boosted.missions

    def test_boosted_run_sees_more_raw_losses(self):
        naive = simulate_fleet(
            LAYOUT, arrays=100, trials=100, seed=11, **RARE,
        )
        boosted = simulate_fleet(
            LAYOUT, arrays=100, trials=100, seed=11, lambda_boost=1.8,
            **RARE,
        )
        assert boosted.raw_losses >= naive.raw_losses
        assert boosted.replays >= naive.replays

    def test_zero_loss_ci_is_nondegenerate(self):
        result = simulate_fleet(
            LAYOUT, 100_000.0, 100.0, disk=SMALL_DISK,
            arrays=5, trials=20, seed=0,
        )
        assert result.raw_losses == 0
        lo, hi = result.prob_loss_interval()
        assert lo == 0.0
        assert hi > 0.0  # Wilson never collapses to [0, 0]
        assert result.mttdl_estimate_hours == float("inf")

    def test_is_zero_loss_falls_back_to_wilson(self):
        result = simulate_fleet(
            LAYOUT, 100_000.0, 100.0, disk=SMALL_DISK,
            arrays=5, trials=20, seed=0, lambda_boost=1.5,
        )
        assert result.raw_losses == 0
        assert result.prob_loss_interval()[1] > 0.0


class TestFleetResultProtocol:
    def test_front_door_and_round_trip(self):
        result = run(
            Scenario(
                kind="fleet", layout=LAYOUT, disk=SMALL_DISK,
                mttf_hours=800.0, horizon_hours=3000.0,
                arrays=5, trials=20, seed=1,
            )
        )
        assert isinstance(result, FleetResult)
        assert result_from_dict(result.to_dict()) == result

    def test_summary_is_strict_json(self):
        result = simulate_fleet(
            LAYOUT, 100_000.0, 100.0, disk=SMALL_DISK,
            arrays=2, trials=10, seed=0,
        )
        text = json.dumps(result.summary(), allow_nan=False)
        doc = json.loads(text)
        assert doc["mttdl_estimate_hours"] is None  # inf -> null
        assert doc["raw_losses"] == 0

    def test_prob_any_loss_scales_with_fleet(self):
        result = simulate_fleet(
            LAYOUT, 800.0, 3000.0, disk=SMALL_DISK,
            arrays=20, trials=40, seed=3,
        )
        if result.prob_loss > 0:
            assert result.prob_any_loss > result.prob_loss
            assert result.prob_any_loss <= 1.0
