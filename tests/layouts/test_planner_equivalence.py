"""The array planner returns the plans the rescoring one did.

``plan_recovery`` and ``plan_many`` choose repair stripes and offload
moves by numpy argmins over a batch of failed sets;
``reference_planner.py`` is the Python planner they replaced, verbatim.
Every comparison here is ``==`` on the whole :class:`RecoveryPlan` (or on
the :class:`DataLossError` message), so a changed tie-break, read order
or offload move fails it.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oi_layout import oi_raid
from repro.errors import DataLossError
from repro.layouts import Raid5Layout
from repro.layouts import recovery
from repro.layouts.base import Layout, Stripe, Unit
from repro.layouts.recovery import (
    _NO_DISK,
    _move_peaks,
    plan_many,
    plan_recovery,
)
from repro.schemes import build_scheme_layout, scheme_names
from tests.layouts.reference_planner import reference_plan

#: (v, k): the twelve catalog designs of the repo benchmark, 21 to 185
#: disks; ``oi_raid`` picks the group size (smallest prime >= k).
CATALOG = (
    (7, 3), (9, 3), (13, 3), (15, 3), (19, 3), (31, 3),
    (57, 3), (13, 4), (16, 4), (37, 4), (21, 5), (25, 5),
)
FLAGS = (
    {},
    {"balance": False},
    {"offload": False},
    {"balance": False, "offload": False},
    {"max_offload_rounds": 0},
    {"max_offload_rounds": 1},
    {"max_offload_rounds": 3},
)


def outcome(planner, layout, failed, **flags):
    """The plan, or the data-loss message when there is none."""
    try:
        return planner(layout, failed, **flags)
    except DataLossError as exc:
        return str(exc)


def assert_same(layout, failed, **flags):
    expected = outcome(reference_plan, layout, failed, **flags)
    assert outcome(plan_recovery, layout, failed, **flags) == expected, (
        layout.name, failed, flags,
    )
    return expected


def draw(rng, layout, size):
    return tuple(sorted(rng.sample(range(layout.n_disks), size)))


def test_every_single_and_double_failure_of_the_fano_array(fano_layout):
    for size in (1, 2):
        for failed in itertools.combinations(range(21), size):
            assert_same(fano_layout, failed)


def test_sampled_triple_failures_of_the_fano_array(fano_layout):
    triples = list(itertools.combinations(range(21), 3))
    for failed in random.Random(13).sample(triples, 150):
        assert_same(fano_layout, failed)


@pytest.mark.parametrize("flags", FLAGS[1:], ids=repr)
def test_flag_combinations(fano_layout, flags):
    for failed in ((4,), (2, 7), (0, 1, 2), (4, 9, 20)):
        assert_same(fano_layout, failed, **flags)


@pytest.mark.parametrize("name", scheme_names())
def test_registry_schemes(name):
    layout = build_scheme_layout(name)
    rng = random.Random(name)
    for size in (1, 2, 3):
        assert_same(layout, draw(rng, layout, size))


@pytest.mark.parametrize("v,k", [(13, 4), (21, 5), (57, 3)])
def test_catalog_designs(v, k):
    layout = oi_raid(v, k)
    rng = random.Random(v * 100 + k)
    for size in (1, 2, 3):
        assert_same(layout, draw(rng, layout, size))


def test_partial_disk_lost_override(fano_layout):
    # Half of disk 0, one unit of disk 5 and a whole group peer: losses
    # finer than disks, as the distributed-sparing array plans them.
    units = fano_layout.units_per_disk
    lost = {(0, addr) for addr in range(0, units, 2)} | {(5, 1)}
    lost |= {(1, addr) for addr in range(units)}
    for flags in FLAGS:
        plan = assert_same(fano_layout, (0, 1, 5), lost_override=lost, **flags)
        assert set(plan.recovered_cells) == lost


def test_unrecoverable_pattern_gives_the_same_message():
    message = assert_same(Raid5Layout(4), (0, 1))
    assert "not recoverable" in message
    # Two disks in each of two groups defeat the 21-disk array, but only
    # after part of the pattern has been planned.
    message = assert_same(oi_raid(7, 3), (0, 1, 3, 4))
    assert isinstance(message, str) and "cells stranded" in message


_SMALL = [oi_raid(v, k) for v, k in ((7, 3), (9, 3), (13, 3))]


@given(
    layout=st.sampled_from(_SMALL),
    size=st.integers(min_value=1, max_value=4),
    flags=st.sampled_from(FLAGS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_any_pattern_any_flags(layout, size, flags, seed):
    assert_same(layout, draw(random.Random(seed), layout, size), **flags)


@given(
    loads=st.dictionaries(st.integers(0, 7), st.integers(1, 4), max_size=8),
    deltas=st.dictionaries(
        st.integers(0, 9), st.sampled_from((-1, 1, 2)), max_size=5
    ),
)
@settings(max_examples=300, deadline=None)
def test_move_peaks_are_the_copied_histograms(loads, deltas):
    """Against the old way: copy the loads, apply the move, count the max.

    The move is scored in a batch after the empty move, off a row whose
    padding column (10) soaks up the short rows' padding entries.
    """
    changes = tuple(
        (d, c) for d, c in deltas.items() if loads.get(d, 0) + c >= 0
    )
    after = dict(loads)
    for disk, change in changes:
        after[disk] = after.get(disk, 0) + change
    values = [v for v in after.values() if v]
    expected = (max(values), values.count(max(values))) if values else (0, 0)
    base = np.zeros((1, 11), dtype=np.int32)
    for disk, load in loads.items():
        base[0, disk] = load
    base[0, 10] = _NO_DISK
    before = [v for v in loads.values() if v]
    unmoved = (max(before), before.count(max(before))) if before else (0, 0)

    def columns(sign):
        ids = [d for d, c in changes for _ in range(max(sign * c, 0))]
        return [ids + [10] * (10 - len(ids)), [10] * 10]

    top, at_top, _ = _move_peaks(
        base, np.zeros(2, dtype=np.intp), np.array(columns(1))[::-1],
        np.array(columns(-1))[::-1],
    )
    assert list(zip(top.tolist(), at_top.tolist())) == [unmoved, expected]


@pytest.mark.slow
@pytest.mark.parametrize("v,k", CATALOG)
def test_full_catalog_sweep(v, k):
    """Eight patterns of 1-4 failures x three flag sets on every design."""
    layout = oi_raid(v, k)
    rng = random.Random(v * 100 + k)
    for size in (1, 1, 2, 2, 3, 3, 4, 4):
        failed = draw(rng, layout, size)
        for flags in FLAGS[:3]:
            assert_same(layout, failed, **flags)


def assert_batch(layout, patterns, **flags):
    """``plan_many`` == one ``plan_recovery`` per row == the reference."""
    alone, reference = (
        [outcome(planner, layout, p, **flags) for p in patterns]
        for planner in (plan_recovery, reference_plan)
    )
    batch = [
        str(plan) if isinstance(plan, DataLossError) else plan
        for plan in plan_many(layout, patterns, **flags)
    ]
    assert batch == alone == reference, (layout.name, patterns, flags)


def test_plan_many_mixes_failures_of_one_to_four_disks():
    layout = oi_raid(9, 3)
    rng = random.Random(9)
    assert_batch(layout, [draw(rng, layout, size) for size in (1, 4, 2, 3, 1, 4, 3, 2)])


def test_plan_many_every_single_failure_of_the_57_disk_array():
    layout = oi_raid(19, 3)
    assert_batch(layout, [(disk,) for disk in range(layout.n_disks)])


def test_plan_many_duplicate_rows(fano_layout):
    assert_batch(fano_layout, [(3,), (0, 4), (3,), (4, 0), (0, 4, 4)])


def test_plan_many_empty_batch_and_empty_rows(fano_layout):
    assert plan_many(fano_layout, []) == []
    assert_batch(fano_layout, [(), (5,), ()])


def test_plan_many_rows_without_recovery_keep_their_message():
    assert_batch(Raid5Layout(4), [(0, 1), (2,), (1, 3)])
    # Stranded after part of the pattern is planned, between two rows
    # that finish.
    assert_batch(oi_raid(7, 3), [(4,), (0, 1, 3, 4), (2, 9)])


@pytest.mark.parametrize("flags", FLAGS, ids=repr)
def test_plan_many_under_every_flag_set(fano_layout, flags):
    assert_batch(fano_layout, [(4,), (2, 7), (0, 1, 2), (4, 9, 20), (0, 1, 3, 4)], **flags)


@pytest.mark.slow
@pytest.mark.parametrize("v,k", CATALOG)
def test_full_catalog_sweep_as_one_batch(v, k):
    """``test_full_catalog_sweep``'s patterns, planned as one batch each."""
    layout = oi_raid(v, k)
    rng = random.Random(v * 100 + k)
    patterns = [draw(rng, layout, size) for size in (1, 1, 2, 2, 3, 3, 4, 4)]
    for flags in FLAGS[:3]:
        batch = [
            str(plan) if isinstance(plan, DataLossError) else plan
            for plan in plan_many(layout, patterns, **flags)
        ]
        assert batch == [outcome(reference_plan, layout, p, **flags) for p in patterns]


class _Scrambled(Layout):
    """Two levels of stripes over randomly drawn cells of four disks.

    Level 1 is a random partition of every cell, each stripe with one
    parity cell; level 0 partitions the cells no level-1 stripe keeps
    parity in. With 24 cells on four disks most stripes hold two or
    more cells of one disk, so repairs read a disk twice.
    """

    name = "scrambled"

    def __init__(self, seed):
        super().__init__(4, 6)
        rng = random.Random(seed)
        cells = [Unit(d, a) for d in range(4) for a in range(6)]
        rng.shuffle(cells)
        tops, rest = cells[:4], cells[4:]
        cuts = sorted(rng.sample(range(1, len(rest)), 3))
        lower = [rest[i:j] for i, j in zip([0] + cuts, cuts + [len(rest)])]
        order = rng.sample(rest, len(rest))
        upper = [order[i::4] + [top] for i, top in enumerate(tops)]
        stripes = [(units, 0) for units in lower] + [(units, 1) for units in upper]
        self._stripes = tuple(
            Stripe(sid, "s", tuple(units), (len(units) - 1,), 1, level)
            for sid, (units, level) in enumerate(stripes)
        )
        self._finalize()


@pytest.mark.parametrize("seed", range(6))
def test_stripes_reading_one_disk_twice(seed):
    """A disk read twice by one repair counts twice in its own peak."""
    layout = _Scrambled(seed)
    assert layout.stripe_table().repeats_disks
    patterns = [p for size in (1, 2) for p in itertools.combinations(range(4), size)]
    for flags in FLAGS:
        for failed in patterns:
            assert_same(layout, failed, **flags)
        assert_batch(layout, patterns, **flags)


def test_plan_many_in_slices_with_rows_climbing_for_different_rounds(monkeypatch):
    layout = oi_raid(13, 3)
    rng = random.Random(13)
    patterns = [draw(rng, layout, size) for size in (1, 3, 2, 1, 3, 2, 2, 3, 1)]
    whole = plan_many(layout, patterns)
    monkeypatch.setattr(recovery, "_PLAN_BUDGET", 4 * row_tables(layout))
    assert plan_many(layout, patterns) == whole
    assert whole == [outcome(reference_plan, layout, p) for p in patterns]


def row_tables(layout):
    """Entries of the greedy's tables per row: what ``_PLAN_BUDGET`` counts."""
    return layout.stripe_table().stripe_cells.size + layout.disk_peeling_index().cell_stripes.size


def test_a_row_bigger_than_the_budget_is_planned_whole(monkeypatch):
    """A slice holds at least one row, however small the budget."""
    layout = oi_raid(9, 3)
    rng = random.Random(27)
    patterns = [draw(rng, layout, size) for size in (1, 2, 3, 1)]
    monkeypatch.setattr(recovery, "_PLAN_BUDGET", row_tables(layout) - 1)
    for flags in FLAGS[:3]:
        for failed in patterns:
            assert_same(layout, failed, **flags)
            assert_batch(layout, [failed], **flags)
        assert_batch(layout, patterns, **flags)
    monkeypatch.setattr(recovery, "_PLAN_BUDGET", 1)
    assert_batch(layout, patterns)


def test_offload_runs_split_between_rows(monkeypatch):
    """Offload runs of a few rows each climb as the whole batch does."""
    layout = oi_raid(13, 3)
    singles = [(disk,) for disk in range(0, layout.n_disks, 3)]
    whole = plan_many(layout, singles)
    runs = []
    climb = recovery._climb
    monkeypatch.setattr(
        recovery, "_climb", lambda *args: runs.append(len(args[3])) or climb(*args)
    )
    # Room for every row's greedy tables, a few rows' offload tables.
    monkeypatch.setattr(recovery, "_PLAN_BUDGET", len(singles) * row_tables(layout))
    assert plan_many(layout, singles) == whole
    assert len(runs) > 1 and sum(runs) == len(singles)
    assert whole == [outcome(reference_plan, layout, p) for p in singles]

