"""Rebuild timing: analytic bounds, event-driven sim, sparing modes."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oi_layout import oi_raid
from repro.errors import SimulationError
from repro.layouts import Raid5Layout, Raid6Layout, Raid50Layout
from repro.layouts.recovery import is_recoverable, plan_recovery
from repro.sim.rebuild import (
    DiskModel,
    RebuildTimer,
    analytic_rebuild_time,
    simulate_rebuild,
)
from repro.util.units import GIB


@pytest.fixture(scope="module")
def disk():
    return DiskModel(capacity_bytes=512 * GIB)


class TestDiskModel:
    def test_raid5_baseline_time(self):
        model = DiskModel(
            capacity_bytes=100.0, bandwidth_bytes_per_s=10.0
        )
        assert model.raid5_rebuild_seconds == pytest.approx(10.0)

    def test_foreground_reserves_bandwidth(self):
        model = DiskModel(
            capacity_bytes=100.0,
            bandwidth_bytes_per_s=10.0,
            foreground_fraction=0.5,
        )
        assert model.effective_bandwidth == pytest.approx(5.0)
        assert model.raid5_rebuild_seconds == pytest.approx(20.0)

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            DiskModel(capacity_bytes=0)
        with pytest.raises(SimulationError):
            DiskModel(foreground_fraction=1.0)


class TestAnalytic:
    def test_raid5_speedup_close_to_one(self, disk):
        result = analytic_rebuild_time(Raid5Layout(5), [0], disk)
        # Distributed-spare writes add a little work on top of full reads.
        assert 0.7 < result.speedup_vs_raid5 <= 1.0

    def test_oi_speedup_beats_raid50(self, fano_layout, disk):
        oi = analytic_rebuild_time(fano_layout, [0], disk)
        r50 = analytic_rebuild_time(Raid50Layout(7, 3), [0], disk)
        assert oi.speedup_vs_raid5 > 3 * r50.speedup_vs_raid5

    def test_dedicated_spare_write_bound(self, fano_layout, disk):
        result = analytic_rebuild_time(
            fano_layout, [0], disk, sparing="dedicated"
        )
        # The replacement disk absorbs a full image: no better than 1x.
        assert result.speedup_vs_raid5 <= 1.0 + 1e-9

    def test_unknown_sparing_rejected(self, fano_layout, disk):
        with pytest.raises(SimulationError):
            analytic_rebuild_time(fano_layout, [0], disk, sparing="nvme")

    def test_bytes_accounting(self, fano_layout, disk):
        result = analytic_rebuild_time(fano_layout, [0], disk)
        unit = disk.capacity_bytes / fano_layout.units_per_disk
        assert result.bytes_written == pytest.approx(
            fano_layout.units_per_disk * unit
        )
        assert result.bytes_read > result.bytes_written

    @pytest.mark.parametrize("failures, classes", [
        (1, 2), (2, 6), pytest.param(3, 21, marks=pytest.mark.slow),
    ])
    def test_isomorphic_patterns_share_one_clock(self, failures, classes):
        """The per-disk volumes are summed order-free, so patterns that
        differ by a relabelling return one ``(hours, bytes)`` to the last
        bit (a dict-order float sum split these classes 3 / 12 / 45)."""
        timer = RebuildTimer(oi_raid(7, 3), DiskModel())
        clocks = {
            timer(frozenset(pattern))
            for pattern in itertools.combinations(range(21), failures)
        }
        assert len(clocks) == classes


class TestPlanMustMatch:
    """A plan handed in must repair the very set the caller asked about."""

    @pytest.mark.parametrize("evaluate", [analytic_rebuild_time, simulate_rebuild])
    def test_a_plan_for_another_set_is_rejected(self, fano_layout, evaluate):
        plan = plan_recovery(fano_layout, [0, 1])
        with pytest.raises(SimulationError, match="plan repairs disks"):
            evaluate(fano_layout, [0, 2], plan=plan)
        with pytest.raises(SimulationError, match="plan repairs disks"):
            evaluate(fano_layout, [0], plan=plan)

    @pytest.mark.parametrize("evaluate", [analytic_rebuild_time, simulate_rebuild])
    def test_a_matching_plan_is_the_planned_clock(self, fano_layout, evaluate):
        plan = plan_recovery(fano_layout, [4, 2])
        given = evaluate(fano_layout, [2, 4, 2], plan=plan)
        assert given == evaluate(fano_layout, [4, 2])


class TestEventDriven:
    def test_sim_close_to_analytic_when_balanced(self, fano_layout, disk):
        analytic = analytic_rebuild_time(fano_layout, [0], disk)
        simulated = simulate_rebuild(fano_layout, [0], disk, batches=4)
        assert simulated.seconds >= analytic.seconds * 0.99
        assert simulated.seconds <= analytic.seconds * 1.6

    def test_sim_matches_analytic_for_raid5(self, disk):
        layout = Raid5Layout(5)
        analytic = analytic_rebuild_time(layout, [0], disk)
        simulated = simulate_rebuild(layout, [0], disk, batches=2)
        assert simulated.seconds == pytest.approx(
            analytic.seconds, rel=0.35
        )

    def test_multi_failure_rebuild(self, fano_layout, disk):
        one = simulate_rebuild(fano_layout, [0], disk)
        three = simulate_rebuild(fano_layout, [0, 1, 2], disk)
        assert three.seconds > one.seconds

    def test_dedicated_slower_than_distributed(self, fano_layout, disk):
        dedicated = simulate_rebuild(
            fano_layout, [0], disk, sparing="dedicated"
        )
        distributed = simulate_rebuild(
            fano_layout, [0], disk, sparing="distributed"
        )
        assert dedicated.seconds > distributed.seconds

    def test_batches_validation(self, fano_layout, disk):
        with pytest.raises(SimulationError):
            simulate_rebuild(fano_layout, [0], disk, batches=0)

    def test_foreground_slows_rebuild(self, fano_layout):
        quiet = simulate_rebuild(fano_layout, [0], DiskModel())
        busy = simulate_rebuild(
            fano_layout, [0], DiskModel(foreground_fraction=0.5)
        )
        assert busy.seconds == pytest.approx(2 * quiet.seconds, rel=0.01)


class TestDistributedWriteRotation:
    """Regression: the round-robin must start at survivors[0], not skip it.

    The old code advanced the rotation index *before* its first use, so
    survivors[0] got no write until a full rotation completed and the
    write load was systematically biased toward higher-indexed survivors.
    """

    def test_writes_cover_all_survivors_within_one_rotation(self, disk):
        # Raid5(4), one failure: 4 spare writes over 3 survivors in one
        # batch — exactly one rotation plus one. Every survivor must be
        # written, and the extra write lands on survivors[0].
        layout = Raid5Layout(4)
        result = simulate_rebuild(
            layout, [1], disk, sparing="distributed", batches=1
        )
        counts = dict(result.writes_per_disk)
        survivors = [d for d in range(layout.n_disks) if d != 1]
        assert sorted(counts) == survivors  # everyone got a write
        assert max(counts.values()) - min(counts.values()) <= 1
        assert counts[survivors[0]] == max(counts.values())

    def test_write_load_balanced_across_batches(self, fano_layout, disk):
        result = simulate_rebuild(
            fano_layout, [0], disk, sparing="distributed", batches=3
        )
        counts = dict(result.writes_per_disk)
        assert len(counts) == fano_layout.n_disks - 1
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_dedicated_writes_go_to_replacements(self, fano_layout, disk):
        result = simulate_rebuild(
            fano_layout, [0, 1], disk, sparing="dedicated", batches=2
        )
        assert sorted(dict(result.writes_per_disk)) == [0, 1]

    def test_analytic_result_has_no_write_counts(self, fano_layout, disk):
        assert analytic_rebuild_time(fano_layout, [0], disk).writes_per_disk is None


# The property sweep's layout zoo: flat, grouped, P+Q, and two-layer.
_PROPERTY_LAYOUTS = [
    Raid5Layout(5),
    Raid6Layout(6),
    Raid50Layout(3, 3),
    oi_raid(7, 3),
]


class TestAnalyticIsLowerBound:
    @settings(max_examples=20, deadline=None)
    @given(
        layout_index=st.integers(min_value=0, max_value=len(_PROPERTY_LAYOUTS) - 1),
        failure_seed=st.integers(min_value=0, max_value=10_000),
        n_failures=st.integers(min_value=1, max_value=2),
        sparing=st.sampled_from(["distributed", "dedicated"]),
        batches=st.sampled_from([1, 2, 5]),
    )
    def test_simulated_never_beats_analytic(
        self, layout_index, failure_seed, n_failures, sparing, batches
    ):
        """The analytic value is documented as a lower bound; hold it to
        that across layouts x sparing modes x batch counts."""
        import random

        layout = _PROPERTY_LAYOUTS[layout_index]
        rng = random.Random(failure_seed)
        failed = sorted(rng.sample(range(layout.n_disks), n_failures))
        if not is_recoverable(layout, failed):
            return  # both paths raise DataLossError; nothing to compare
        analytic = analytic_rebuild_time(layout, failed, sparing=sparing)
        simulated = simulate_rebuild(
            layout, failed, sparing=sparing, batches=batches
        )
        assert simulated.seconds >= analytic.seconds * (1 - 1e-9)

    @settings(max_examples=10, deadline=None)
    @given(
        layout_index=st.integers(min_value=0, max_value=len(_PROPERTY_LAYOUTS) - 1),
        sparing=st.sampled_from(["distributed", "dedicated"]),
        batches=st.sampled_from([1, 3]),
    )
    def test_simulation_deterministic(self, layout_index, sparing, batches):
        """Two identical simulate_rebuild calls agree bit-for-bit."""
        layout = _PROPERTY_LAYOUTS[layout_index]
        first = simulate_rebuild(layout, [0], sparing=sparing, batches=batches)
        second = simulate_rebuild(layout, [0], sparing=sparing, batches=batches)
        assert first == second  # every field, including write counts
