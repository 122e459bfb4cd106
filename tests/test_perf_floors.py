"""Speed ratios that survive a change of machine, held as floors.

Absolute rates belong to ``benchmarks/e2e`` (the repo's one perf
system); these eleven are same-process ratios between code paths that
return identical bits, so the box they run on cancels out:

* lifecycle ``vectorized`` / ``event`` >= 2.5 — the columnar screen pays
  for itself against walking every trial;
* fleet per-array rate / lifecycle ``vectorized`` rate >= 0.8 — the
  fleet tier's chunking and weight bookkeeping eat at most 20% of the
  screen it shares;
* serve ``vectorized`` / ``event`` >= 15 — the Lindley sweep against the
  per-event heap walk;
* profiled phases / wall >= 0.95 on a vectorized lifecycle run — a hot
  path that dodges instrumentation shows as a coverage drop;
* profiled phases / wall >= 0.95 on a boosted fleet run on a freshly
  built layout — the cold run's planning is billed to a phase too;
* lifecycle in 256-trial chunks / default geometry >= 1.25 at 32 768
  trials — the lockstep screen pays numpy dispatch per round per chunk,
  so a change that quietly narrows the default plane (or re-grows it per
  walked trial) gives the wide plane's saving back;
* a boosted fleet run on a layout that already ran it / the same run on
  a freshly built layout >= 2.5 — the layout's pattern memo saves the
  second run the planning the walk's failed sets cost the first;
* one batched peel over every four-failure pattern of ``oi_raid(7, 3)``
  / a per-pattern ``is_recoverable`` loop >= 2 — the batched fixpoint
  pays for its numpy dispatch once per round, not once per pattern;
* one ``plan_many`` over the 57 single failures of ``oi_raid(19, 3)`` /
  a loop planning them one row at a time >= 3 — the lockstep planner
  pays for a greedy step or offload round once per batch;
* the object construction of the 171-disk ``find_bibd(57, 3)`` layout,
  its data-cell order and its tables
  (``tests/core/reference_oi_layout.py``) /
  ``OIRAIDLayout`` plus ``stripe_table()`` >= 10 — the closed-form
  incidence arrays against one ``Stripe`` per stripe.
* the lockstep screen's rounds that copy the active clocks out and
  argmax the first failed disk every round
  (``tests/sim/reference_screen.py``) / the persistent-plane rounds
  >= 1.25 on ``lifecycle_clean``'s 2048-wide chunks — one clock plane
  kept across rounds and a first failure without an argmax pay for the
  dead columns a round still carries.

Each timing is the best of three passes with the compared paths
interleaved inside a pass, so a slow stretch of the machine lands on
both sides of a ratio. Run with ``-m slow`` (CI does, next to the
planner-equivalence sweep); about 15 s.
"""

import itertools
import time

import pytest

from repro.core.oi_layout import OIRAIDLayout, oi_raid
from repro.design import find_bibd
from repro.layouts.recovery import (
    failure_matrix,
    is_recoverable,
    plan_many,
    recoverable_many,
)
from repro.obs import Telemetry, use_telemetry
from repro.obs.ledger import result_digest
from repro.sim.columnar import MISSION, LifecycleTables, LockstepScreen, lanes
from repro.sim.fleet import simulate_fleet
from repro.sim.lifecycle import (
    RebuildTimer,
    guaranteed_tolerance,
    simulate_lifecycle,
)
from repro.sim.rebuild import DiskModel
from repro.sim.serve import simulate_serve
from repro.workloads import WorkloadSpec
from tests.core.reference_oi_layout import ReferenceOIGeometry
from tests.sim.reference_screen import ReferenceScreen

pytestmark = pytest.mark.slow

#: A one-year mission on oi_raid(7, 3) at an accelerated per-disk MTTF:
#: ~18 failure incidents per trial, enough overlap that the dangerous
#: minority exercises the replay path without letting it dominate.
MTTF_HOURS, HORIZON_HOURS = 10_000.0, 8_766.0
TRIALS = 2000
#: Enough replications to amortise the sweep's per-call setup: the ratio
#: climbs from ~4.3 at 10 trials to a ~6.2 plateau from 200 on.
SERVE_TRIALS = 200


def best_interleaved(runs):
    """``{name: best seconds}`` over three passes through *runs*.

    One untimed pass first: it plans the replay patterns into the
    layout's pattern memo (resp. the plan and routing caches), so the
    floors price steady-state kernels, not the cold planner.
    """
    for fn in runs.values():
        fn()
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(3):
        for name, fn in runs.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def layout():
    return oi_raid(7, 3)


def lifecycle_run(layout, kernel):
    return lambda: simulate_lifecycle(
        layout, MTTF_HOURS, HORIZON_HOURS, trials=TRIALS, seed=0,
        kernel=kernel,
    )


def test_lifecycle_and_fleet_floors(layout):
    best = best_interleaved({
        "event": lifecycle_run(layout, "event"),
        "vectorized": lifecycle_run(layout, "vectorized"),
        "fleet": lambda: simulate_fleet(
            layout, MTTF_HOURS, HORIZON_HOURS, arrays=TRIALS, trials=1,
            seed=0,
        ),
    })
    ratio = best["event"] / best["vectorized"]
    assert ratio >= 2.5, (
        f"lifecycle vectorized/event ratio {ratio:.2f} < 2.5: "
        "the columnar kernel is not paying for itself"
    )
    fleet_ratio = best["vectorized"] / best["fleet"]
    assert fleet_ratio >= 0.8, (
        f"fleet/lifecycle per-array ratio {fleet_ratio:.2f} < 0.8: "
        "the fleet tier's overhead is eating the columnar win"
    )
    print(f"lifecycle vectorized/event {ratio:.2f}, fleet/lifecycle {fleet_ratio:.2f}")


def test_wide_plane_floor(layout):
    """Default geometry against 256-trial chunks: same bits, fewer rounds.

    The physics of ``benchmarks/e2e``'s ``lifecycle_clean``: a 32 GiB
    disk rebuilds so fast that nearly every trial stays on the screen.
    """
    disk = DiskModel(capacity_bytes=32 * 1024 ** 3)

    def run(**geometry):
        return lambda: simulate_lifecycle(
            layout, MTTF_HOURS, HORIZON_HOURS, disk=disk, trials=32_768,
            seed=0, **geometry,
        )

    narrow, wide = run(chunk_trials=256), run()
    assert result_digest(narrow().to_dict()) == result_digest(wide().to_dict())
    best = best_interleaved({"narrow": narrow, "wide": wide})
    ratio = best["narrow"] / best["wide"]
    assert ratio >= 1.25, (
        f"lifecycle default-geometry/256-chunk ratio {ratio:.2f} < 1.25: "
        "the wide lockstep plane is not paying for itself"
    )
    print(f"lifecycle wide/narrow plane {ratio:.2f}")


def test_serve_floor(layout):
    def serve_run(kernel):
        return lambda: simulate_serve(
            layout, WorkloadSpec(), failed_disks=(0,), trials=SERVE_TRIALS,
            kernel=kernel, seed=0, jobs=1,
        )

    best = best_interleaved({
        "event": serve_run("event"),
        "vectorized": serve_run("vectorized"),
    })
    ratio = best["event"] / best["vectorized"]
    assert ratio >= 15.0, (
        f"serve vectorized/event ratio {ratio:.2f} < 15: "
        "the batched queue sweep is not paying for itself"
    )
    print(f"serve vectorized/event {ratio:.2f}")


def test_pattern_memo_floor():
    """``benchmarks/e2e``'s ``fleet_boosted`` physics at 2 000 missions:
    the second run on one layout object reads every rebuild clock the
    first one planned. Best of three fresh layouts on each side."""

    def run(layout):
        start = time.perf_counter()
        result = simulate_fleet(
            layout, 10_000.0, HORIZON_HOURS, arrays=100, trials=20,
            lambda_boost=1.4, seed=0,
        )
        return time.perf_counter() - start, result_digest(result.to_dict())

    cold = warm = float("inf")
    for _ in range(3):
        layout = OIRAIDLayout(find_bibd(7, 3, lam=1), 3)
        (first, first_digest), (second, second_digest) = run(layout), run(layout)
        assert first_digest == second_digest
        cold, warm = min(cold, first), min(warm, second)
    ratio = cold / warm
    assert ratio >= 2.5, (
        f"fleet cold/warm layout ratio {ratio:.2f} < 2.5: "
        "the pattern memo is not saving the second run its planning"
    )
    print(f"fleet cold/warm layout {ratio:.2f}")


def test_batched_peel_floor(layout):
    patterns = list(itertools.combinations(range(layout.n_disks), 4))
    down = failure_matrix(layout, patterns)
    verdicts = recoverable_many(layout, down).tolist()
    assert verdicts == [is_recoverable(layout, p) for p in patterns]
    best = best_interleaved({
        "looped": lambda: [is_recoverable(layout, p) for p in patterns],
        "batched": lambda: recoverable_many(layout, down),
    })
    ratio = best["looped"] / best["batched"]
    assert ratio >= 2.0, (
        f"batched/looped peel ratio {ratio:.2f} < 2: "
        "deciding failed sets in one batch is not paying for itself"
    )
    print(f"peel batched/looped {ratio:.2f}")


def test_batched_planner_floor():
    layout = oi_raid(19, 3)
    singles = [(disk,) for disk in range(layout.n_disks)]
    assert plan_many(layout, singles) == [plan_many(layout, [s])[0] for s in singles]
    best = best_interleaved({
        "looped": lambda: [plan_many(layout, [single]) for single in singles],
        "batched": lambda: plan_many(layout, singles),
    })
    ratio = best["looped"] / best["batched"]
    assert ratio >= 3.0, (
        f"batched/looped planner ratio {ratio:.2f} < 3: "
        "planning failed sets in lockstep is not paying for itself"
    )
    print(f"planner batched/looped {ratio:.2f}")


def test_layout_build_floor():
    design = find_bibd(57, 3)
    layout = OIRAIDLayout(design, 3)

    def objects():
        reference = ReferenceOIGeometry(layout)
        return reference.data_cells(), reference.tables()

    best = best_interleaved({
        "objects": objects,
        "arrays": lambda: OIRAIDLayout(design, 3).stripe_table(),
    })
    ratio = best["objects"] / best["arrays"]
    assert ratio >= 10.0, (
        f"object/array layout build ratio {ratio:.2f} < 10: "
        "the closed-form geometry is not paying for itself"
    )
    print(f"layout build objects/arrays {ratio:.2f}")


def test_lockstep_screen_floor(layout):
    """``benchmarks/e2e``'s ``lifecycle_clean`` physics (the default
    10-year mission at MTTF 100 000 h, a 32 GiB disk) on four 2048-wide
    chunks: the rounds alone, each pass on freshly built screens."""
    disk = DiskModel(capacity_bytes=32 * 1024 ** 3)
    tables = LifecycleTables.build(layout, RebuildTimer(layout, disk))
    tolerance = guaranteed_tolerance(layout)
    chunks = [
        lanes(0, MISSION, start, 2048, layout.n_disks + 1)
        for start in range(0, 4 * 2048, 2048)
    ]

    def rounds(screen_class):
        screens = [
            screen_class(layout, tables, chunk, 1 / 100_000, 87_660.0, 0.0,
                         tolerance)
            for chunk in chunks
        ]
        start = time.perf_counter()
        for screen in screens:
            screen.rounds()
        return time.perf_counter() - start

    classes = {"reference": ReferenceScreen, "lockstep": LockstepScreen}
    best = dict.fromkeys(classes, float("inf"))
    for scored in (False, True, True, True):  # one warm-up pass first
        for name, screen_class in classes.items():
            seconds = rounds(screen_class)
            if scored:
                best[name] = min(best[name], seconds)
    ratio = best["reference"] / best["lockstep"]
    assert ratio >= 1.25, (
        f"lockstep screen reference/persistent-plane ratio {ratio:.2f} < 1.25: "
        "the rounds are touching the clock plane more than they need to"
    )
    print(f"lockstep screen reference/persistent plane {ratio:.2f}")


def test_lifecycle_profile_covers_the_wall(layout):
    run = lifecycle_run(layout, "vectorized")
    run()
    # Best of three: the scheduler preempting the process between two
    # spans inflates wall time no phase saw, which is noise, not a hole.
    coverage = 0.0
    for _ in range(3):
        prof = Telemetry(enabled=False, profiling=True)
        start = time.perf_counter()
        with use_telemetry(prof):
            run()
        wall = time.perf_counter() - start
        coverage = max(coverage, prof.total_seconds() / wall)
    assert coverage >= 0.95, (
        f"phase breakdown covers {coverage:.1%} of kernel wall-clock "
        "(< 95%): a hot path is dodging instrumentation"
    )
    print(f"lifecycle profile coverage {coverage:.3f}")


def test_cold_fleet_profile_covers_the_wall():
    """``benchmarks/e2e``'s ``fleet_boosted`` physics at 2 000 missions on
    a fresh layout per pass: the singles batch and every chunk's
    plan-ahead batch run inside the ``plan`` phase."""
    coverage = 0.0
    for _ in range(3):
        layout = OIRAIDLayout(find_bibd(7, 3, lam=1), 3)
        prof = Telemetry(enabled=False, profiling=True)
        start = time.perf_counter()
        with use_telemetry(prof):
            simulate_fleet(
                layout, 10_000.0, HORIZON_HOURS, arrays=100, trials=20,
                lambda_boost=1.4, seed=0,
            )
        wall = time.perf_counter() - start
        coverage = max(coverage, prof.total_seconds() / wall)
    assert coverage >= 0.95, (
        f"phase breakdown covers {coverage:.1%} of a cold fleet run's "
        "wall-clock (< 95%): planning is dodging instrumentation"
    )
    print(f"cold fleet profile coverage {coverage:.3f}")
