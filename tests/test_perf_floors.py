"""Speed ratios that survive a change of machine, held as floors.

Absolute rates belong to ``benchmarks/e2e`` (the repo's one perf
system); these five are same-process ratios between code paths that
return identical bits, so the box they run on cancels out:

* lifecycle ``vectorized`` / ``event`` >= 2.5 — the columnar screen pays
  for itself against walking every trial;
* fleet per-array rate / lifecycle ``vectorized`` rate >= 0.8 — the
  fleet tier's chunking and weight bookkeeping eat at most 20% of the
  screen it shares;
* serve ``vectorized`` / ``event`` >= 9 — the Lindley sweep against the
  per-event heap walk;
* profiled phases / wall >= 0.95 on a vectorized lifecycle run — a hot
  path that dodges instrumentation shows as a coverage drop;
* lifecycle in 256-trial chunks / default geometry >= 1.25 at 32 768
  trials — the lockstep screen pays numpy dispatch per round per chunk,
  so a change that quietly narrows the default plane (or re-grows it per
  walked trial) gives the wide plane's saving back.

Each timing is the best of three passes with the compared paths
interleaved inside a pass, so a slow stretch of the machine lands on
both sides of a ratio. Run with ``-m slow`` (CI does, next to the
planner-equivalence sweep); about 12 s.
"""

import time

import pytest

from repro.core.oi_layout import oi_raid
from repro.obs import PhaseProfiler, use_profiler
from repro.obs.ledger import result_digest
from repro.sim.fleet import simulate_fleet
from repro.sim.lifecycle import RebuildTimer, simulate_lifecycle
from repro.sim.rebuild import DiskModel
from repro.sim.serve import simulate_serve
from repro.workloads import WorkloadSpec

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

    One untimed pass first: it plans the replay patterns into the shared
    rebuild-time memo (resp. the plan and routing caches), so the floors
    price steady-state kernels, not the cold planner.
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


@pytest.fixture(scope="module")
def timer(layout):
    return RebuildTimer(layout, None, "distributed", "analytic", 8)


def lifecycle_run(layout, timer, kernel):
    return lambda: simulate_lifecycle(
        layout, MTTF_HOURS, HORIZON_HOURS, trials=TRIALS, seed=0,
        timer=timer, kernel=kernel,
    )


def test_lifecycle_and_fleet_floors(layout, timer):
    best = best_interleaved({
        "event": lifecycle_run(layout, timer, "event"),
        "vectorized": lifecycle_run(layout, timer, "vectorized"),
        "fleet": lambda: simulate_fleet(
            layout, MTTF_HOURS, HORIZON_HOURS, arrays=TRIALS, trials=1,
            seed=0, timer=timer,
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
    timer = RebuildTimer(
        layout, DiskModel(capacity_bytes=32 * 1024 ** 3), "distributed",
        "analytic", 8,
    )

    def run(**geometry):
        return lambda: simulate_lifecycle(
            layout, MTTF_HOURS, HORIZON_HOURS, trials=32_768, seed=0,
            timer=timer, **geometry,
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
    assert ratio >= 9.0, (
        f"serve vectorized/event ratio {ratio:.2f} < 9: "
        "the batched queue sweep is not paying for itself"
    )
    print(f"serve vectorized/event {ratio:.2f}")


def test_lifecycle_profile_covers_the_wall(layout, timer):
    run = lifecycle_run(layout, timer, "vectorized")
    run()
    # Best of three: the scheduler preempting the process between two
    # spans inflates wall time no phase saw, which is noise, not a hole.
    coverage = 0.0
    for _ in range(3):
        prof = PhaseProfiler()
        start = time.perf_counter()
        with use_profiler(prof):
            run()
        wall = time.perf_counter() - start
        coverage = max(coverage, prof.total_seconds() / wall)
    assert coverage >= 0.95, (
        f"phase breakdown covers {coverage:.1%} of kernel wall-clock "
        "(< 95%): a hot path is dodging instrumentation"
    )
    print(f"lifecycle profile coverage {coverage:.3f}")
