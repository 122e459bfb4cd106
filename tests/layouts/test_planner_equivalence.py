"""The incremental planner returns the plans the rescoring one did.

``plan_recovery`` keeps scores across greedy rounds and scores offload
moves without copying the load histogram; ``reference_planner.py`` is the
planner it replaced, verbatim. Every comparison here is ``==`` on the
whole :class:`RecoveryPlan` (or on the :class:`DataLossError` message),
so a changed tie-break, read order or offload move fails it.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oi_layout import oi_raid
from repro.errors import DataLossError
from repro.layouts import Raid5Layout
from repro.layouts.recovery import _trial_score, plan_recovery
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
    limit=st.integers(0, 6),
)
@settings(max_examples=300, deadline=None)
def test_trial_score_is_the_copied_histograms(loads, deltas, limit):
    """Against the old way: copy the loads, apply the move, count the max."""
    changes = tuple(
        (d, c) for d, c in deltas.items() if loads.get(d, 0) + c >= 0
    )
    hist = {}
    for value in loads.values():
        hist[value] = hist.get(value, 0) + 1
    after = dict(loads)
    for disk, change in changes:
        after[disk] = after.get(disk, 0) + change
    values = [v for v in after.values() if v]
    expected = (max(values), values.count(max(values))) if values else (0, 0)
    got = _trial_score(
        changes, loads.get, hist, sorted(hist, reverse=True), limit
    )
    if any(loads.get(d, 0) + c > limit for d, c in changes):
        assert got is None
    else:
        assert got == expected


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
