"""The generic recovery planner: peeling, plan validity, offloading."""

import numpy as np
import pytest

from repro.core.oi_layout import OIRAIDLayout
from repro.core.tolerance import survivable_fraction
from repro.design import find_bibd
from repro.errors import DataLossError, LayoutError
from repro.layouts import Raid5Layout, Raid50Layout
from repro.layouts.recovery import (
    cells_recoverable,
    failure_matrix,
    is_recoverable,
    lost_cells,
    pattern_entry,
    plan_many,
    plan_recovery,
)
from repro.sim.parallel import count_survivable


def validate_plan(layout, plan):
    """A plan must recover every lost cell, in dependency order, reading
    only cells that are available at each step."""
    lost = lost_cells(layout, plan.failed_disks)
    recovered = set()
    for step in plan.steps:
        stripe = layout.stripes[step.stripe_id]
        stripe_cells = set(stripe.cells())
        for target in step.targets:
            assert target in lost and target not in recovered
            assert target in stripe_cells
        assert len(step.targets) <= stripe.tolerance
        for source in step.sources:
            assert source.cell not in lost or source.cell in recovered
            # Direct sources read the cell itself; surrogates read only
            # online cells.
            for read in source.reads:
                assert read[0] not in plan.failed_disks
        for reuse in step.reuses:
            assert reuse in recovered
        # Sources + reuses supply exactly the width - tolerance values an
        # MDS decode needs, all drawn from non-target stripe cells.
        provided = {s.cell for s in step.sources} | set(step.reuses)
        assert provided <= stripe_cells - set(step.targets)
        assert len(provided) == stripe.width - stripe.tolerance
        recovered.update(step.targets)
    assert recovered == lost


class TestPeeling:
    def test_no_failures_is_recoverable(self):
        assert is_recoverable(Raid5Layout(4), [])

    def test_unknown_disk_rejected(self):
        layout = Raid5Layout(4)
        with pytest.raises(LayoutError, match="no such disk 9"):
            is_recoverable(layout, [9])
        with pytest.raises(LayoutError, match="no such disk 9"):
            lost_cells(layout, [9])
        with pytest.raises(LayoutError, match="no such disk 9"):
            plan_recovery(layout, [9])
        with pytest.raises(LayoutError, match="no such cell"):
            cells_recoverable(layout, [(9, 0)])
        with pytest.raises(LayoutError, match="no such cell"):
            plan_recovery(layout, (0,), lost_override={(9, 0)})

    @pytest.mark.parametrize("disk", [2.7, 2.0, "a", None, True, np.True_])
    def test_non_integer_disk_ids_rejected(self, fano_layout, disk):
        # 2.7 used to read disk 2; "a" raised a bare TypeError and 2.7 a
        # bare KeyError in the planner.
        checks = (
            lambda: is_recoverable(fano_layout, (disk,)),
            lambda: lost_cells(fano_layout, (disk,)),
            lambda: failure_matrix(fano_layout, [(0,), (1, disk)]),
            lambda: plan_recovery(fano_layout, (disk,)),
            lambda: plan_recovery(fano_layout, (3, disk), offload=False),
            lambda: pattern_entry(fano_layout, (disk,)),
            lambda: plan_many(fano_layout, [(0,), (disk,)]),
        )
        for check in checks:
            with pytest.raises(LayoutError, match="not an integer"):
                check()

    def test_numpy_disk_ids_are_python_ints_in_the_memo(self):
        layout = OIRAIDLayout(find_bibd(7, 3, lam=1), 3)  # a cold memo
        first = plan_recovery(layout, (np.int64(3),))
        again = plan_recovery(layout, (3,))
        for plan in (first, again, *plan_many(layout, [(np.int32(3),)])):
            assert plan.failed_disks == (3,)
            assert type(plan.failed_disks[0]) is int
        assert list(layout.patterns) == [(3,)]
        assert type(pattern_entry(layout, [np.int16(3)]).summary.failed_disks[0]) is int
        with pytest.raises(LayoutError, match="not an integer"):
            plan_recovery(layout, (True,))
        with pytest.raises(LayoutError, match="no such disk -1"):
            plan_many(layout, [(np.int64(-1),)])

    def test_negative_offload_rounds_rejected(self):
        with pytest.raises(LayoutError, match="max_offload_rounds"):
            plan_recovery(Raid5Layout(4), [0], max_offload_rounds=-1)

    def test_empty_plan_for_no_failures(self):
        plan = plan_recovery(Raid5Layout(4), [])
        assert plan.steps == []
        assert plan.total_read_units == 0

    def test_unrecoverable_raises_data_loss(self):
        with pytest.raises(DataLossError):
            plan_recovery(Raid5Layout(4), [0, 1])

    def test_accepts_any_iterable(self, fano_layout):
        as_list = is_recoverable(fano_layout, [0, 1, 9])
        as_set = is_recoverable(fano_layout, {9, 0, 1})
        as_gen = is_recoverable(fano_layout, (d for d in (1, 9, 0)))
        assert as_list == as_set == as_gen is True

    def test_indexed_peeler_matches_rescan_reference(self, fano_layout):
        """The batched peel agrees with the classic rescan loop."""
        import itertools
        import random

        def reference(layout, failed):
            lost = lost_cells(layout, failed)
            if not lost:
                return True
            pending = set(range(len(layout.stripes)))
            progress = True
            while lost and progress:
                progress = False
                for sid in sorted(pending):
                    stripe = layout.stripes[sid]
                    in_stripe = [c for c in stripe.cells() if c in lost]
                    if 0 < len(in_stripe) <= stripe.tolerance:
                        lost.difference_update(in_stripe)
                        pending.discard(sid)
                        progress = True
            return not lost

        rng = random.Random(0)
        patterns = list(itertools.combinations(range(21), 4))
        for pattern in rng.sample(patterns, 120):
            assert is_recoverable(fano_layout, pattern) == reference(
                fano_layout, pattern
            )
        for size in (5, 6, 7):
            for _ in range(40):
                pattern = tuple(rng.sample(range(21), size))
                assert is_recoverable(fano_layout, pattern) == reference(
                    fano_layout, pattern
                )

    @pytest.mark.parametrize("name", ["oi", "raid5", "lrc", "xorbas", "mirror"])
    def test_integer_tables_are_the_peeling_index(self, name):
        from repro.schemes import build_scheme_layout

        layout = build_scheme_layout(name)
        stripes, u = layout.stripes, layout.units_per_disk
        disk_index, table = layout.disk_peeling_index(), layout.stripe_table()
        cell_stripes = {
            (disk, addr): [] for disk in range(layout.n_disks) for addr in range(u)
        }
        for stripe in stripes:
            for cell in stripe.cells():
                cell_stripes[cell].append(stripe.stripe_id)
        for (disk, addr), sids in cell_stripes.items():
            row = disk_index.cell_stripes[disk * u + addr]
            assert row[: len(sids)].tolist() == sids
            assert (row[len(sids):] == len(stripes)).all()
            for sid, position in zip(sids, table.cell_positions[disk * u + addr]):
                assert stripes[sid].cells()[position] == (disk, addr)
            assert table.cells[disk * u + addr] == (disk, addr)
        for sid, stripe in enumerate(stripes):
            cells = stripe.cells()
            ids = table.stripe_cells[sid]
            assert ids[: len(cells)].tolist() == [d * u + a for d, a in cells]
            assert table.needed[sid] == stripe.width - stripe.tolerance
            assert table.tolerance[sid] == stripe.tolerance
        assert not table.repeats_disks
        assert len(table.cells) == layout.n_disks * u


class TestPlanValidity:
    @pytest.mark.parametrize("failed", [[0], [3], [0, 4], [2, 5, 8]])
    def test_raid50_plans_are_valid(self, failed):
        layout = Raid50Layout(3, 3)
        if not is_recoverable(layout, failed):
            pytest.skip("pattern not recoverable for this baseline")
        plan = plan_recovery(layout, failed)
        validate_plan(layout, plan)

    def test_oi_plans_are_valid(self, fano_layout):
        for failed in ([0], [0, 1], [0, 1, 2], [0, 3, 10], [4, 9, 20]):
            plan = plan_recovery(fano_layout, failed)
            validate_plan(fano_layout, plan)

    def test_plan_is_deterministic(self, fano_layout):
        a = plan_recovery(fano_layout, [2, 7])
        b = plan_recovery(fano_layout, [2, 7])
        assert [(s.stripe_id, s.targets) for s in a.steps] == [
            (s.stripe_id, s.targets) for s in b.steps
        ]

    def test_duplicate_failed_disks_coalesced(self, fano_layout):
        a = plan_recovery(fano_layout, [3, 3, 3])
        assert a.failed_disks == (3,)


class TestOffloading:
    def test_offload_reduces_peak_load(self, fano_layout):
        base = plan_recovery(fano_layout, [0], offload=False)
        tuned = plan_recovery(fano_layout, [0], offload=True)
        assert tuned.max_read_units < base.max_read_units

    def test_offload_never_loses_correctness(self, fano_layout):
        plan = plan_recovery(fano_layout, [0], offload=True)
        validate_plan(fano_layout, plan)

    def test_offload_is_noop_for_single_stripe_layouts(self):
        layout = Raid5Layout(5)
        a = plan_recovery(layout, [0], offload=False)
        b = plan_recovery(layout, [0], offload=True)
        assert a.max_read_units == b.max_read_units

    def test_surrogate_reads_increase_total_but_cut_peak(self, fano_layout):
        base = plan_recovery(fano_layout, [0], offload=False)
        tuned = plan_recovery(fano_layout, [0], offload=True)
        assert tuned.total_read_units >= base.total_read_units
        assert tuned.max_read_units < base.max_read_units

    def test_balance_flag_changes_repair_choice(self, fano_layout):
        greedy = plan_recovery(fano_layout, [0], balance=True, offload=False)
        naive = plan_recovery(fano_layout, [0], balance=False, offload=False)
        assert greedy.max_read_units <= naive.max_read_units


class TestSourceSelection:
    def test_mds_repair_reads_only_what_it_needs(self):
        from repro.layouts import FlatMDSLayout

        layout = FlatMDSLayout(9, parities=3)
        plan = plan_recovery(layout, [0])
        for step in plan.steps:
            stripe = layout.stripes[step.stripe_id]
            assert len(step.sources) + len(step.reuses) == (
                stripe.width - stripe.tolerance
            )

    def test_sources_prefer_least_loaded_disks(self):
        from repro.layouts import FlatMDSLayout

        layout = FlatMDSLayout(9, parities=3)
        plan = plan_recovery(layout, [0])
        loads = plan.read_units_per_disk()
        # With 9 stripes each skipping 2 of 8 survivors, balanced choice
        # keeps the spread within one unit.
        assert max(loads.values()) - min(loads.values()) <= 1

    def test_lost_override_plans_partial_disk(self, fano_layout):
        lost = {(0, 0), (0, 1), (5, 3)}
        plan = plan_recovery(fano_layout, [0, 5], lost_override=lost)
        assert set(plan.recovered_cells) == lost
        # Reads may come from the "failed" disks' still-healthy cells:
        # lost_override semantics say only the listed cells are gone.
        assert plan.total_write_units == 3


class TestSurvivableFraction:
    """``is_recoverable`` counted over pattern sets (the E6 quantity)."""

    def test_raid5_fractions(self):
        layout = Raid5Layout(5)
        assert survivable_fraction(layout, 1) == 1.0
        assert survivable_fraction(layout, 2) == 0.0

    def test_explicit_sample(self):
        layout = Raid50Layout(2, 3)
        # One disk from each RAID5 leg survives; two from one leg do not.
        assert count_survivable(layout, [(0, 3), (0, 1)]) == 1
        assert count_survivable(layout, [(0, 3)]) == 1
        assert count_survivable(layout, [(0, 1)]) == 0

    def test_empty_sample_rejected(self):
        layout = Raid5Layout(4)
        assert count_survivable(layout, []) == 0
        with pytest.raises(ValueError):
            survivable_fraction(layout, 5)  # C(4, 5): no pattern to evaluate
