"""The coupled lifecycle simulator: layout-derived repair, determinism."""

import tracemalloc

import pytest

from repro.errors import LayoutError, SimulationError
from repro.layouts import Raid5Layout, Raid6Layout, Raid50Layout
from repro.layouts.recovery import cells_recoverable
from repro.sim.lifecycle import (
    LifecycleResult,
    RebuildTimer,
    derived_markov_model,
    derived_mttr,
    guaranteed_tolerance,
    simulate_lifecycle,
)
from repro.sim.columnar import LifecycleTables
from repro.sim.rebuild import DiskModel, analytic_rebuild_time
from repro.util.stats import mean
from repro.util.units import GIB
from tests.layouts.reference_planner import reference_plan

# Slow small disks: rebuild windows are hours-long at test scale, so
# accelerated MTTFs produce observable losses in tens of trials.
DISK = DiskModel(
    capacity_bytes=64 * GIB, bandwidth_bytes_per_s=2 * 1024 * 1024
)


class TestGuaranteedTolerance:
    def test_oi_uses_design_tolerance(self, fano_layout):
        assert guaranteed_tolerance(fano_layout) == 3

    def test_flat_layouts_use_min_stripe_tolerance(self):
        assert guaranteed_tolerance(Raid50Layout(3, 3)) == 1
        assert guaranteed_tolerance(Raid6Layout(6)) == 2


class TestDerivedMttr:
    def test_matches_single_failure_rebuild_mean(self):
        layout = Raid50Layout(3, 3)
        expected = sum(
            analytic_rebuild_time(layout, [d], DISK).seconds / 3600.0
            for d in range(layout.n_disks)
        ) / layout.n_disks
        assert derived_mttr(layout, DISK) == pytest.approx(expected)

    def test_wide_flat_layout_plans_its_singles_in_small_memory(self):
        """Every single failure of a 40-disk RAID5 as one batch.

        1 560 reads per failure, 39 wide, none with a second stripe to
        offload to: the batch holds a few MiB beyond the plans it keeps,
        and its clocks are the one-at-a-time planner's.
        """
        layout = Raid5Layout(40)
        layout.stripe_table()
        tracemalloc.start()
        try:
            tables = LifecycleTables.build(layout, RebuildTimer(layout, DISK))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < 16 * 2**20
        for disk in (0, 17, 39):
            alone = analytic_rebuild_time(
                layout, [disk], DISK, plan=reference_plan(layout, [disk])
            )
            assert tables.hours[disk] == alone.seconds / 3600.0
            assert tables.bytes_read[disk] == alone.bytes_read
        assert derived_mttr(layout, DISK) == mean(tables.hours.tolist())

    def test_oi_repairs_faster_than_raid50(self, fano_layout):
        oi = derived_mttr(fano_layout, DISK)
        r50 = derived_mttr(Raid50Layout(7, 3), DISK)
        assert oi * 3 < r50

    def test_feeds_markov_chain(self, fano_layout):
        fast = derived_markov_model(fano_layout, 3000.0, disk=DISK)
        slow = derived_markov_model(Raid50Layout(7, 3), 3000.0, disk=DISK)
        assert fast.mu > 3 * slow.mu
        assert fast.mttdl_hours() > slow.mttdl_hours()


class TestRebuildTimer:
    def test_memoizes_per_pattern(self):
        timer = RebuildTimer(Raid5Layout(5), DISK)
        first = timer(frozenset({0}))
        assert timer(frozenset({0})) == first
        assert first[0] > 0 and first[1] > 0

    def test_event_method_at_least_analytic(self):
        layout = Raid5Layout(5)
        analytic = RebuildTimer(layout, DISK, method="analytic")
        event = RebuildTimer(layout, DISK, method="event")
        assert event(frozenset({0}))[0] >= analytic(frozenset({0}))[0] * 0.99

    def test_unknown_method_rejected(self):
        with pytest.raises(SimulationError):
            RebuildTimer(Raid5Layout(5), DISK, method="oracle")


class TestSimulateLifecycle:
    def test_reproducible_bit_for_bit(self):
        layout = Raid50Layout(3, 3)
        a = simulate_lifecycle(
            layout, 500.0, 2000.0, disk=DISK, trials=40, seed=7
        )
        b = simulate_lifecycle(
            layout, 500.0, 2000.0, disk=DISK, trials=40, seed=7
        )
        assert a == b

    def test_reliable_regime_no_losses(self):
        result = simulate_lifecycle(
            Raid50Layout(3, 3), 1e9, 1000.0, disk=DISK, trials=10, seed=0
        )
        assert result.losses == 0
        assert result.prob_loss == 0.0
        assert result.mttdl_estimate_hours == float("inf")

    def test_instrumentation_shapes_and_bounds(self):
        result = simulate_lifecycle(
            Raid50Layout(3, 3), 800.0, 3000.0, disk=DISK, trials=25, seed=3
        )
        for series in (
            result.failures_per_trial,
            result.repairs_per_trial,
            result.degraded_hours_per_trial,
            result.peak_failures_per_trial,
        ):
            assert len(series) == result.trials
        assert all(
            0.0 <= h <= result.horizon_hours
            for h in result.degraded_hours_per_trial
        )
        assert result.max_peak_failures >= 1
        assert result.mean_failures >= result.mean_repairs
        assert 0.0 < result.degraded_fraction < 1.0

    def test_fast_rebuild_loses_less_on_same_failures(self, fano_layout):
        # Same array size, same failure process, same disks: only the
        # layout-derived repair times differ. The coupling under test.
        mttf, horizon, trials = 600.0, 2500.0, 30
        oi = simulate_lifecycle(
            fano_layout, mttf, horizon, disk=DISK, trials=trials, seed=0
        )
        r50 = simulate_lifecycle(
            Raid50Layout(7, 3), mttf, horizon, disk=DISK, trials=trials,
            seed=0,
        )
        assert oi.prob_loss < r50.prob_loss
        assert r50.losses > 0

    def test_loss_time_recorded_before_horizon(self):
        result = simulate_lifecycle(
            Raid50Layout(3, 3), 300.0, 2000.0, disk=DISK, trials=30, seed=1
        )
        assert result.losses > 0
        assert all(0 < t <= result.horizon_hours for t in result.loss_times)
        assert result.losses == len(result.loss_times)

    def test_validation(self):
        layout = Raid5Layout(4)
        with pytest.raises(SimulationError):
            simulate_lifecycle(layout, -1.0, 100.0, trials=2)
        with pytest.raises(SimulationError):
            simulate_lifecycle(layout, 100.0, 100.0, lse_rate_per_byte=-1)


class TestLatentErrors:
    def test_lse_can_kill_a_tolerance_one_rebuild(self):
        # RAID5: an LSE discovered while rebuilding a failed disk strands
        # a unit whose stripe already lost a cell -> unrecoverable.
        result = simulate_lifecycle(
            Raid5Layout(5), 2000.0, 8000.0, disk=DISK, trials=30, seed=0,
            lse_rate_per_byte=1e-10,
        )
        assert result.lse_losses > 0
        assert result.lse_losses <= result.losses

    def test_declustering_decodes_stranded_units(self, fano_layout):
        # OI-RAID covers every unit with two stripes, so a stranded unit
        # during a single-disk rebuild is decodable via its other stripe.
        result = simulate_lifecycle(
            fano_layout, 3000.0, 6000.0, disk=DISK, trials=10, seed=0,
            lse_rate_per_byte=1e-10,
        )
        raid5 = simulate_lifecycle(
            Raid5Layout(5), 3000.0, 6000.0, disk=DISK, trials=10, seed=0,
            lse_rate_per_byte=1e-10,
        )
        assert result.lse_losses <= raid5.lse_losses

    def test_zero_rate_draws_nothing(self):
        a = simulate_lifecycle(
            Raid5Layout(4), 1000.0, 3000.0, disk=DISK, trials=15, seed=5,
            lse_rate_per_byte=0.0,
        )
        assert a.lse_losses == 0


class TestCellsRecoverable:
    def test_empty_set_recoverable(self, fano_layout):
        assert cells_recoverable(fano_layout, [])

    def test_single_cell_always_recoverable(self, fano_layout):
        assert cells_recoverable(fano_layout, [(0, 0)])

    def test_whole_stripe_lost_is_not(self):
        layout = Raid5Layout(4)
        stripe = layout.stripes[0]
        assert not cells_recoverable(layout, list(stripe.cells())[:2])

    @pytest.mark.parametrize(
        "cell", [(99, 0), (0.5, 0), (0, 0, 0), ("a", 0), 5, (True, 0), (0, 2.0)]
    )
    def test_rejects_bogus_cell(self, fano_layout, cell):
        with pytest.raises(LayoutError, match="no such cell"):
            cells_recoverable(fano_layout, [cell])


class TestParallel:
    def test_bit_identical_for_any_jobs(self):
        layout = Raid50Layout(3, 3)
        kwargs = dict(
            disk=DISK, trials=60, seed=11, chunk_trials=16,
        )
        serial = simulate_lifecycle(
            layout, 500.0, 2000.0, jobs=1, **kwargs
        )
        fanned = simulate_lifecycle(
            layout, 500.0, 2000.0, jobs=3, **kwargs
        )
        assert serial == fanned

    def test_merge_requires_same_horizon(self):
        layout = Raid5Layout(4)
        a = simulate_lifecycle(layout, 1e6, 100.0, trials=2, seed=0)
        b = simulate_lifecycle(layout, 1e6, 200.0, trials=2, seed=0)
        with pytest.raises(SimulationError):
            LifecycleResult.merged([a, b])

    def test_merge_empty_rejected(self):
        with pytest.raises(SimulationError):
            LifecycleResult.merged([])
