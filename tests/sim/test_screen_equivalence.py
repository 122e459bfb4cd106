"""The lockstep screen returns, bit for bit, what the per-round copy did.

:class:`~repro.sim.columnar.LockstepScreen` keeps one clock plane across
its rounds and picks each trial's first failed disk without an argmax;
``reference_screen.py`` is the rounds it replaced, verbatim. Both screens
are built from the same lanes (and, where a case writes exact ties into
``fail_at``, see the same clocks), and every column the mission chunk
reads — counts, flags, hours, lifetime sums, the tally and
:meth:`overlaps` — must match to the last bit.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.oi_layout import oi_raid
from repro.schemes import build_scheme_layout, scheme_names
from repro.sim.columnar import (
    MISSION,
    LifecycleTables,
    LockstepScreen,
    _earliest,
    _tie_weights,
    lanes,
)
from repro.sim.lifecycle import RebuildTimer, guaranteed_tolerance
from repro.sim.rebuild import DiskModel
from repro.util.units import GIB
from tests.sim.reference_screen import ReferenceScreen

#: Rebuilds long against the mission: overlaps, truncations and strikes.
SLOW_DISK = DiskModel(capacity_bytes=64 * GIB, bandwidth_bytes_per_s=2 * 1024 * 1024)
#: ``benchmarks/e2e``'s ``lifecycle_clean``: a 32 GiB disk rebuilds so
#: fast that nearly every trial runs ~20 clean rounds.
CLEAN_DISK = DiskModel(capacity_bytes=32 * GIB)
CLEAN = dict(mttf=100_000.0, horizon=87_660.0)
STRESS = dict(mttf=800.0, horizon=3000.0)

SCALARS = ("n_failures", "n_repairs", "peak", "dangerous", "degraded", "draw_sum")


def assert_bits(got, want, what):
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_screen(screen, reference):
    for name in SCALARS:
        got, want = getattr(screen, name), getattr(reference, name)
        if want is None:
            assert got is None, name
        else:
            assert_bits(got, want, name)
    if reference.tally is None:
        assert screen.tally is None
    else:
        assert len(screen.tally) == len(reference.tally)
        for step, (got, want) in enumerate(zip(screen.tally, reference.tally)):
            for column, (a, b) in enumerate(zip(got, want)):
                assert_bits(a, b, f"tally round {step} column {column}")
    # On a cold memo every overlap parks, on the set of its two disks.
    first, second = reference.overlaps()
    assert [screen.parked[t] for t in sorted(screen.parked)] == [
        tuple(sorted(pair)) for pair in zip(first.tolist(), second.tolist())
    ]


def compare(layout, tables, *, mttf, horizon, seed=0, trials=400, start=0,
            lse_mean=0.0, weighted=False, tally=False, guarantee=None,
            ties=None):
    """Run both screens on one chunk's lanes and check them equal.

    *ties*, when given, edits each screen's ``fail_at`` in place before
    the rounds, from the clocks and the tables.
    """
    n = layout.n_disks
    if guarantee is None:
        guarantee = guaranteed_tolerance(layout)
    lse_rate = lse_mean / float(tables.bytes_read.max()) if lse_mean else 0.0
    lambd = (1.4 if weighted else 1.0) / mttf
    chunk = lanes(seed, MISSION, start, trials, n + 1)
    screens = [
        cls(layout, tables, chunk, lambd, horizon, lse_rate, guarantee,
            weighted, tally)
        for cls in (LockstepScreen, ReferenceScreen)
    ]
    for screen in screens:
        if ties is not None:
            ties(screen.fail_at, tables.hours, horizon)
        screen.rounds()
    assert_same_screen(*screens)
    return screens[1]


def tables_of(layout, disk):
    return LifecycleTables.build(layout, RebuildTimer(layout, disk))


@pytest.fixture(scope="module")
def fano_tables(fano_layout):
    return tables_of(fano_layout, SLOW_DISK)


@pytest.fixture(scope="module")
def fano_clean_tables(fano_layout):
    return tables_of(fano_layout, CLEAN_DISK)


@pytest.mark.parametrize("lse_mean", [0.0, 0.02])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("tally", [False, True])
def test_fano_stress(fano_layout, fano_tables, lse_mean, weighted, tally):
    reference = compare(
        fano_layout, fano_tables, **STRESS, lse_mean=lse_mean,
        weighted=weighted, tally=tally,
    )
    # both outcomes show up, and trials with clean rounds behind them
    assert 0 < reference.dangerous.sum() < len(reference.dangerous)
    assert (reference.n_repairs > 0).any()


@pytest.mark.parametrize("weighted,tally", [(False, False), (True, True)])
def test_fano_clean(fano_layout, fano_clean_tables, weighted, tally):
    """Wide and long: the plane is compacted many times over ~35 rounds."""
    compare(
        fano_layout, fano_clean_tables, **CLEAN, trials=2048,
        weighted=weighted, tally=tally,
    )


@pytest.mark.parametrize("lse_mean", [0.0, 0.02])
def test_guarantee_zero_flags_every_failure(fano_layout, fano_tables, lse_mean):
    reference = compare(
        fano_layout, fano_tables, **STRESS, lse_mean=lse_mean, guarantee=0,
        tally=True,
    )
    assert (reference.n_failures == 0).all() and reference.dangerous.any()


@pytest.mark.parametrize("start", [0, 7])
def test_one_trial_chunk(fano_layout, fano_tables, fano_clean_tables, start):
    compare(fano_layout, fano_tables, **STRESS, trials=1, start=start,
            tally=True, weighted=True)
    compare(fano_layout, fano_clean_tables, **CLEAN, trials=1, start=start,
            tally=True)


def test_oi_raid_7_3():
    layout = oi_raid(7, 3)
    for disk, physics in ((SLOW_DISK, STRESS), (CLEAN_DISK, CLEAN)):
        compare(layout, tables_of(layout, disk), **physics, lse_mean=0.02,
                tally=True)


@pytest.mark.parametrize("name", scheme_names())
def test_every_scheme(name):
    layout = build_scheme_layout(name)
    tables = tables_of(layout, SLOW_DISK)
    compare(layout, tables, **STRESS, trials=200, lse_mean=0.02, tally=True,
            weighted=True)
    compare(layout, tables, **STRESS, trials=200)


@pytest.mark.parametrize("lse_mean", [0.0, 0.02])
def test_three_hundred_disks(lse_mean):
    """Tie weights past 255 disks take the uint16 path; the screen reads
    nothing of the layout but its disk count."""
    n = 300
    rng = np.random.default_rng(3)
    layout = SimpleNamespace(n_disks=n)
    tables = LifecycleTables(
        hours=rng.uniform(0.5, 6.0, n), bytes_read=rng.uniform(1e9, 4e9, n),
    )
    assert _tie_weights(n).dtype == np.uint16
    reference = compare(
        layout, tables, mttf=30_000.0, horizon=1000.0, trials=300,
        lse_mean=lse_mean, tally=True, guarantee=1,
    )
    assert reference.dangerous.any() and (reference.n_repairs > 2).any()


# Exact ties, written into both screens' first clocks. Each edits every
# third trial, so the rest of the chunk keeps running around them.


def two_disks_at_the_minimum(fail_at, hours, horizon):
    n = len(fail_at)
    for t in range(0, fail_at.shape[1], 3):
        first = int(fail_at[:, t].argmin())
        twin = (first + 1 + t % (n - 1)) % n  # above and below *first*
        fail_at[twin, t] = fail_at[first, t]


def second_at_the_completion(fail_at, hours, horizon):
    for t in range(0, fail_at.shape[1], 3):
        first = int(fail_at[:, t].argmin())
        other = (first + 1) % len(fail_at)
        fail_at[other, t] = fail_at[first, t] + hours[first]


def second_at_the_horizon(fail_at, hours, horizon):
    for t in range(0, fail_at.shape[1], 3):
        first, other = t % len(fail_at), (t + 1) % len(fail_at)
        fail_at[:, t] = 2 * horizon
        fail_at[first, t] = horizon - hours[first] / 2  # rebuild runs past it
        fail_at[other, t] = horizon


def first_at_the_horizon(fail_at, hours, horizon):
    for t in range(0, fail_at.shape[1], 3):
        fail_at[:, t] = 2 * horizon
        fail_at[t % len(fail_at), t] = horizon


TIES = [
    two_disks_at_the_minimum,
    second_at_the_completion,
    second_at_the_horizon,
    first_at_the_horizon,
]


@pytest.mark.parametrize("ties", TIES)
@pytest.mark.parametrize("guarantee", [None, 0])
def test_exact_ties(fano_layout, fano_tables, fano_clean_tables, ties, guarantee):
    for tables, physics in ((fano_tables, STRESS), (fano_clean_tables, CLEAN)):
        compare(
            fano_layout, tables, **physics, trials=300, tally=True,
            guarantee=guarantee, ties=ties,
        )


def test_tie_rules_decide_the_outcome(fano_layout, fano_clean_tables):
    """The tie cases are not vacuous: with an otherwise clean chunk, an
    exact tie at the minimum, at the completion or at the horizon is an
    overlap, and a first failure exactly at the horizon is seen: its
    rebuild is cut there."""
    screens = {
        ties.__name__: compare(
            fano_layout, fano_clean_tables, **CLEAN, trials=300, ties=ties,
        )
        for ties in TIES
    }
    for name in ("two_disks_at_the_minimum", "second_at_the_completion",
                 "second_at_the_horizon"):
        assert screens[name].dangerous[::3].all(), name
    cut = screens["first_at_the_horizon"]
    assert not cut.dangerous[::3].any()
    assert (cut.n_failures[::3] == 1).all() and (cut.n_repairs[::3] == 0).all()


@pytest.mark.parametrize("n", [2, 3, 21, 254, 255, 256, 300])
def test_first_disk_at_the_minimum_is_argmins(n):
    """Every column's lowest disk index at its minimum, as ``argmin``
    picks it — on clocks drawn from a handful of values, so most columns
    tie, and on columns that are all +inf (a finished trial). No screen
    output shows which of two tied disks went first (a tie at the minimum
    is always an overlap), so the pick is checked here, directly."""
    rng = np.random.default_rng(n)
    plane = rng.integers(0, 4, size=(n, 500)).astype(float)
    plane[:, ::7] = np.inf
    plane[:, 1::7] = 2.0
    tf, first = _earliest(plane, _tie_weights(n))
    assert_bits(tf, plane.min(axis=0), "minimum")
    np.testing.assert_array_equal(first, plane.argmin(axis=0))
    assert first.dtype == np.intp


#: (v, k): the twelve catalog designs of the repo benchmark, 21 to 185
#: disks.
CATALOG = (
    (7, 3), (9, 3), (13, 3), (15, 3), (19, 3), (31, 3),
    (57, 3), (13, 4), (16, 4), (37, 4), (21, 5), (25, 5),
)


@pytest.mark.slow
@pytest.mark.parametrize("v,k", CATALOG)
def test_catalog_sweep(v, k):
    """Each catalog design's real rebuild tables, seeds 0-3: the clean
    physics, and a boosted, tallied stress run with latent errors."""
    layout = oi_raid(v, k)
    clean, slow = tables_of(layout, CLEAN_DISK), tables_of(layout, SLOW_DISK)
    for seed, weighted in itertools.product(range(4), (False, True)):
        compare(layout, clean, **CLEAN, seed=seed, trials=1024,
                weighted=weighted)
        compare(layout, slow, **STRESS, seed=seed, trials=256, lse_mean=0.02,
                weighted=weighted, tally=True)
