"""The layout's pattern memo: its clocks are the cold path's, bit for bit.

``Layout.patterns`` keeps, per sorted failed set, the default-flag plan's
summary and one ``(seconds, bytes read)`` per rebuild config, and
:class:`~repro.sim.rebuild.RebuildTimer` reads it. Whatever a memo
returns must equal a fresh ``analytic_rebuild_time`` (resp.
``simulate_rebuild``) of a fresh ``plan_recovery`` — and a run must
record the same telemetry whether or not earlier runs warmed the memo.
"""

import itertools
import json

import pytest

from repro.core.oi_layout import OIRAIDLayout
from repro.design import find_bibd
from repro.layouts.recovery import is_recoverable, plan_recovery
from repro.obs import Telemetry, use_telemetry
from repro.obs.ledger import result_digest
from repro.scenario import Scenario, run
from repro.schemes import build_scheme_layout
from repro.sim.rebuild import (
    DiskModel,
    RebuildTimer,
    analytic_rebuild_time,
    simulate_rebuild,
)
from repro.util.units import GIB

DISKS = (
    DiskModel(),
    DiskModel(
        capacity_bytes=300 * GIB, bandwidth_bytes_per_s=7e7,
        foreground_fraction=0.25,
    ),
)
SPARING = ("distributed", "dedicated")


def fresh_oi():
    """``oi_raid(7, 3)`` built anew: its memo starts empty."""
    return OIRAIDLayout(find_bibd(7, 3, lam=1), 3)


LAYOUTS = {
    "oi": fresh_oi,
    "raid50": lambda: build_scheme_layout("raid50"),
    "xorbas": lambda: build_scheme_layout("xorbas"),
}


def cold_clock(layout, failed, disk, sparing, plan=None):
    result = analytic_rebuild_time(
        layout, failed, disk, sparing,
        plan=plan or plan_recovery(layout, failed),
    )
    return result.seconds / 3600.0, result.bytes_read


def assert_memo_is_cold(layout, size):
    patterns = [
        failed for failed in itertools.combinations(range(layout.n_disks), size)
        if is_recoverable(layout, failed)
    ]
    assert patterns
    timers = [
        RebuildTimer(layout, disk, sparing)
        for disk in DISKS for sparing in SPARING
    ]
    for failed in patterns:
        plan = plan_recovery(layout, failed)
        for timer in timers:
            clock = timer(frozenset(failed))
            assert clock == cold_clock(
                layout, failed, timer.disk, timer.sparing, plan
            )
            # A second view reads the warm entry: the same bits again.
            again = RebuildTimer(layout, timer.disk, timer.sparing)
            assert again(frozenset(failed)) == clock


@pytest.mark.parametrize("name", sorted(LAYOUTS))
@pytest.mark.parametrize("size", [1, 2])
def test_singles_and_doubles_equal_the_cold_path(name, size):
    assert_memo_is_cold(LAYOUTS[name](), size)


@pytest.mark.slow
def test_every_recoverable_triple_equals_the_cold_path():
    assert_memo_is_cold(fresh_oi(), 3)


def test_event_clocks_equal_the_cold_simulation():
    layout = fresh_oi()
    patterns = [(0,), (5,), (0, 1), (2, 9), (3, 11, 17), (0, 7, 14)]
    for failed in patterns:
        for disk, sparing in itertools.product(DISKS, SPARING):
            timer = RebuildTimer(layout, disk, sparing, "event", batches=3)
            cold = simulate_rebuild(
                layout, failed, disk, sparing,
                plan=plan_recovery(layout, failed), batches=3,
            )
            expected = (cold.seconds / 3600.0, cold.bytes_read)
            assert timer(frozenset(failed)) == expected
            assert RebuildTimer(
                layout, disk, sparing, "event", batches=3
            )(frozenset(failed)) == expected


def test_the_key_holds_the_whole_rebuild_config():
    """A clock warmed under one config never answers for another."""
    layout = fresh_oi()
    failed = frozenset((0, 4))
    warm = RebuildTimer(layout, DISKS[0])(failed)
    for disk, sparing, method, batches in (
        (DISKS[1], "distributed", "analytic", 8),
        (DISKS[0], "dedicated", "analytic", 8),
        (DISKS[0], "distributed", "event", 8),
        (DISKS[0], "distributed", "event", 2),
    ):
        clock = RebuildTimer(layout, disk, sparing, method, batches)(failed)
        assert clock != warm
        if method == "analytic":
            assert clock == cold_clock(layout, tuple(failed), disk, sparing)
        else:
            cold = simulate_rebuild(
                layout, tuple(failed), disk, sparing, batches=batches
            )
            assert clock == (cold.seconds / 3600.0, cold.bytes_read)
    assert len(layout.patterns) == 1


def test_multi_failure_entries_keep_no_plan():
    layout = fresh_oi()
    timer = RebuildTimer(layout, DiskModel())
    timer(frozenset((3,)))
    timer(frozenset((3, 8)))
    assert len(layout.patterns) == 2
    single, double = layout.patterns[(3,)], layout.patterns[(3, 8)]
    assert single.plan == plan_recovery(layout, [3])
    assert double.plan is None
    assert double.summary == plan_recovery(layout, [3, 8]).summary()


# -- telemetry is a function of the run alone ------------------------------

#: Small, slow disk: overlapping incidents replay and LSE checks strike.
#: The fleet runs are two chunks, so ``jobs=2`` goes through the pool.
SLOW_DISK = DiskModel(capacity_bytes=5e10, bandwidth_bytes_per_s=2 * 1024 * 1024)

SCENARIOS = {
    "lifecycle-vectorized": dict(
        kind="lifecycle", mttf_hours=3000.0, horizon_hours=2000.0,
        disk=SLOW_DISK, lse_rate_per_byte=2e-12, trials=160,
        mc_kernel="vectorized",
    ),
    "lifecycle-event": dict(
        kind="lifecycle", mttf_hours=3000.0, horizon_hours=2000.0,
        disk=SLOW_DISK, lse_rate_per_byte=2e-12, trials=160,
        mc_kernel="event",
    ),
    "fleet-jobs1": dict(
        kind="fleet", mttf_hours=10_000.0, horizon_hours=8766.0,
        arrays=30, trials=40, lambda_boost=1.4, jobs=1,
    ),
    "fleet-jobs2": dict(
        kind="fleet", mttf_hours=10_000.0, horizon_hours=8766.0,
        arrays=30, trials=40, lambda_boost=1.4, jobs=2,
    ),
}


def recorded(layout, fields):
    """Digest, metrics document, non-span records and span shapes of a run."""
    tel = Telemetry()
    with use_telemetry(tel):
        result = run(Scenario(layout=layout, seed=3, **fields))
    lines = tel.trace.to_jsonl(tel.events).splitlines()
    spans = [
        (span.name, span.depth, json.dumps(span.args, sort_keys=True))
        for span in tel.trace.spans
    ]
    return (
        result_digest(result.to_dict()),
        tel.metrics.to_json(),
        [line for line in lines if '"record": "span"' not in line],
        spans,
    )


@pytest.mark.parametrize("config", sorted(SCENARIOS))
def test_a_warm_layout_records_what_a_fresh_one_does(config):
    layout = fresh_oi()
    first = recorded(layout, SCENARIOS[config])
    if SCENARIOS[config].get("jobs", 1) == 1:  # else the workers' memos grew
        assert len(layout.patterns) > layout.n_disks
    assert recorded(layout, SCENARIOS[config]) == first
    assert recorded(fresh_oi(), SCENARIOS[config]) == first
    metrics = json.loads(first[1])["counters"]
    assert metrics["rebuild.memo_misses"] == layout.n_disks
    assert metrics["recovery.plans"] == layout.n_disks
    assert ("plan_recovery", 1, '{"failed": 1}') in first[3]


def test_an_event_clock_narrates_its_engine():
    """Cold or warm, an event clock's first lookup records what running the
    engine records: ``engine.*``, ``recovery.*`` and ``rebuild.event_*``."""
    layout = fresh_oi()

    def metrics(evaluate):
        tel = Telemetry()
        with use_telemetry(tel):
            evaluate()
        return json.loads(tel.metrics.to_json())

    def lookup():
        RebuildTimer(layout, SLOW_DISK, method="event", batches=3)(
            frozenset((1, 5))
        )

    cold = metrics(lookup)
    assert metrics(lookup) == cold
    assert cold["counters"].pop("rebuild.memo_misses") == 1
    assert cold == metrics(
        lambda: simulate_rebuild(layout, (1, 5), SLOW_DISK, batches=3)
    )
