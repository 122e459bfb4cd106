"""Write a machine-readable performance snapshot to ``BENCH_perf.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_perf.py [--trials N] [--strict]
        [--jobs-sweep 1,2,4,8] [--output PATH]

Measures the library's hot kernels — GF(256) buffer math, the peeling
oracle, the recovery planner (cached and uncached single-failure paths),
the exhaustive tolerance sweep, the Monte-Carlo lifetime engine
(vectorized and event kernels, serial and a ``--jobs`` sweep over the
persistent worker pool), the coupled lifecycle engine (both kernels of
the shared-plane pair), and the online serving simulator — and writes
``{baseline_seed, current, parallel_efficiency, speedup_vs_seed}`` so
future PRs have a regression baseline to diff against.

The jobs sweep runs the *event* kernel (the workload heavy enough to
amortize fan-out; the vectorized kernel finishes 2000 trials in tens of
milliseconds, which no pool can speed up). Each jobs level is measured
against a warm pool — the persistent pool's whole point is that spin-up
is paid once per process, not per sweep point. ``parallel_efficiency``
maps jobs -> speedup/jobs; a sweep point whose *speedup* drops below 1
at jobs >= 2 (parallelism actively losing) emits a loud warning, and
``--strict`` turns that into a nonzero exit. On a single-core machine
(``cpu_count == 1``) real speedup is physically impossible, so the
warning notes that and ``--strict`` does not fail.

Output contract: stdout carries exactly one machine-readable JSON line
(the snapshot, via :class:`repro.obs.StructuredEmitter`); progress and
diagnostics go to stderr. ``... | python -m json.tool`` always works.

``SEED_BASELINE`` holds the numbers measured on the pre-optimization seed
tree (serial rescan peeler, double-gather GF kernels, no parallel runner)
on the same class of machine the snapshot is regenerated on. Timings are
best-of-N wall clock; treat small deltas (<20%) as noise.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np

from repro.codes.gf256 import GF256
from repro.core.oi_layout import _oi_raid_cached, oi_raid
from repro.core.tolerance import survivable_fraction
from repro.layouts.recovery import is_recoverable, plan_recovery
from repro.layouts import Raid50Layout
from repro.obs import PhaseProfiler, RunLedger, StructuredEmitter, use_profiler
from repro.obs.ledger import run_manifest
from repro.sim.columnar import resolve_kernel
from repro.sim.fleet import simulate_fleet
from repro.sim.lifecycle import RebuildTimer, simulate_lifecycle
from repro.sim.montecarlo import recoverability_oracle
from repro.sim.parallel import simulate_lifetimes_parallel, simulate_serve_parallel
from repro.sim.pool import shutdown_pool
from repro.workloads.generators import WorkloadSpec


def note(message: str) -> None:
    """Progress diagnostic — stderr, so stdout stays machine-parseable."""
    print(f"[run_perf] {message}", file=sys.stderr, flush=True)


UNIT = 64 * 1024
DEFAULT_MC_TRIALS = 2000
DEFAULT_JOBS_SWEEP = (1, 2, 4, 8)

# Measured on the seed tree (commit 7b67841) with the same harness.
SEED_BASELINE = {
    "gf_mul_bytes_64k_s": 5.149e-04,
    "gf_addmul_64k_s": 5.454e-04,
    "peel_oracle_triple_21_s": 7.758e-04,
    "peel_oracle_triple_57_s": 6.894e-03,
    "plan_single_21_s": 5.077e-03,
    # Same number as plan_single_21_s: the seed tree had no plan cache, so
    # its every single-failure plan was an uncached one.
    "plan_single_uncached_21_s": 5.077e-03,
    "survivable_f3_exhaustive_21_s": 7.526e-01,
    "mc_lifetimes_2000_trials_s": 5.243e-01,
    "mc_trials_per_s": 3.815e03,
    # Lifecycle/serve rates predate the seed commit's harness; they were
    # measured on the immediate pre-columnar tree (the PR 5 state, which
    # introduced both simulators) on the same machine class. The
    # lifecycle figure is that tree's only kernel — the sequential event
    # walk — at LC_ARGS with a warm rebuild-time memo; serve is untouched
    # since and pinned purely for drift detection.
    "lifecycle_trials_per_s": 2.194e04,
    "serve_trials_per_s": 8.46e01,
}

#: ``(n_disks, mttf_hours, mttr_hours, horizon_hours)`` of the MC workload.
MC_ARGS = (21, 2000.0, 40.0, 4000.0)

#: ``(mttf_hours, horizon_hours)`` of the lifecycle workload: a decade
#: mission on oi_raid(7, 3) at an accelerated per-disk MTTF (~1.14 y),
#: ~18 failure incidents per trial — enough overlap that the dangerous
#: minority exercises the exact replay path without letting it dominate.
LC_ARGS = (10_000.0, 8_766.0)


def best_of(fn, repeat=5, number=1):
    """Best wall-clock time of *fn* over *repeat* batches of *number* calls."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - start) / number)
    return min(times)


def measure_kernels() -> dict:
    """GF(256), peeler, planner, tolerance sweep, layout construction."""
    rng = np.random.default_rng(0)
    buf = rng.integers(0, 256, UNIT, dtype=np.uint8)
    acc = np.zeros(UNIT, dtype=np.uint8)
    oi = oi_raid(7, 3)
    big = oi_raid(19, 3)
    wide = oi_raid(57, 3)

    note("measuring GF(256) kernels, peeler, planner, tolerance sweep ...")
    current = {
        "gf_mul_bytes_64k_s": best_of(
            lambda: GF256.mul_bytes(0x57, buf), repeat=20, number=20
        ),
        "gf_addmul_64k_s": best_of(
            lambda: GF256.addmul(acc, 0x1D, buf), repeat=20, number=20
        ),
        "peel_oracle_triple_21_s": best_of(
            lambda: is_recoverable(oi, [0, 1, 9]), repeat=10, number=10
        ),
        "peel_oracle_triple_57_s": best_of(
            lambda: is_recoverable(big, [0, 1, 9]), repeat=5, number=3
        ),
        # As deployed: repeat hits are served from the per-layout plan
        # cache, so this is the cost the simulators actually pay.
        "plan_single_21_s": best_of(
            lambda: plan_recovery(oi, [0]), repeat=5, number=200
        ),
        # The planner itself, cache defeated — tracks algorithmic drift.
        "plan_single_uncached_21_s": best_of(
            lambda: (oi._single_plan_cache.clear(), plan_recovery(oi, [0])),
            repeat=5,
            number=1,
        ),
        # Multi-failure plans are never cached: these two are what a
        # RebuildTimer miss pays, on the reference and the 171-disk array.
        "plan_double_uncached_21_s": best_of(
            lambda: plan_recovery(oi, [0, 9]), repeat=5, number=1
        ),
        "plan_triple_uncached_171_s": best_of(
            lambda: plan_recovery(wide, [0, 1, 9]), repeat=3, number=1
        ),
        "survivable_f3_exhaustive_21_s": best_of(
            lambda: survivable_fraction(oi, 3), repeat=3, number=1
        ),
        "layout_construction_21_s": best_of(
            lambda: (_oi_raid_cached.cache_clear(), oi_raid(7, 3)),
            repeat=5,
            number=1,
        ),
    }
    oi_raid(7, 3)  # repopulate the cache after the construction timing
    return current


def _mc_seconds(oracle, trials: int, jobs: int, kernel: str) -> float:
    n_disks, mttf, mttr, horizon = MC_ARGS
    start = time.perf_counter()
    simulate_lifetimes_parallel(
        n_disks, mttf, mttr, oracle, horizon,
        trials=trials, seed=0, jobs=jobs, kernel=kernel,
    )
    return time.perf_counter() - start


def measure_mc(trials: int, jobs_sweep) -> dict:
    """Serial kernels plus the event-kernel jobs sweep (warm pool)."""
    oracle = recoverability_oracle(oi_raid(7, 3), guaranteed_tolerance=3)
    current = {}

    note(f"measuring serial MC lifetime engine ({trials} trials, auto kernel) ...")
    serial_s = min(_mc_seconds(oracle, trials, 1, "auto") for _ in range(3))
    current["mc_lifetimes_2000_trials_s"] = serial_s
    current["mc_trials_per_s"] = trials / serial_s

    note(f"measuring serial MC lifetime engine ({trials} trials, event kernel) ...")
    event_s = min(_mc_seconds(oracle, trials, 1, "event") for _ in range(2))
    current["mc_trials_per_s_event"] = trials / event_s

    for jobs in jobs_sweep:
        note(f"measuring event-kernel MC fan-out at jobs={jobs} ...")
        # Warm the pool first: persistent-pool spin-up is a once-per-process
        # cost, not a per-sweep-point cost, so it is excluded from the row.
        _mc_seconds(oracle, max(trials // 10, 1), jobs, "event")
        par_s = min(_mc_seconds(oracle, trials, jobs, "event") for _ in range(2))
        current[f"mc_event_trials_per_s_jobs{jobs}"] = trials / par_s
        current[f"mc_parallel_speedup_jobs{jobs}"] = event_s / par_s
    shutdown_pool()
    return current


def measure_lifecycle(trials: int) -> dict:
    """Both lifecycle kernels of the shared-plane pair, warm timer memo.

    The kernels return bit-identical results from the same sampling
    plane, so the two rates price one contract: ``vectorized`` is the
    batched clean-path rate (dangerous trials still replayed exactly),
    ``event`` the pure sequential walk every trial would pay without the
    columnar core. One warm-up run per kernel pre-plans the replay
    patterns into the shared rebuild-time memo — steady-state kernel
    throughput, not cold planner time, is what these rows track (the
    planner has its own rows above).
    """
    oi = oi_raid(7, 3)
    mttf, horizon = LC_ARGS
    timer = RebuildTimer(oi, None, "distributed", "analytic", 8)
    current = {}
    for kernel in ("event", "vectorized"):
        note(f"measuring lifecycle engine ({trials} trials, {kernel} kernel) ...")

        def run(kernel=kernel):
            simulate_lifecycle(
                oi, mttf, horizon, trials=trials, seed=0, timer=timer,
                kernel=kernel,
            )

        run()  # warm the shared rebuild-time memo (replay patterns)
        seconds = best_of(run, repeat=3, number=1)
        current[f"lifecycle_{kernel}_trials_per_s"] = trials / seconds
    current["lifecycle_trials_per_s"] = (
        current[f"lifecycle_{resolve_kernel('auto')}_trials_per_s"]
    )
    return current


def measure_fleet(trials: int) -> dict:
    """The fleet kernel's per-array rate and the IS honesty diagnostic.

    ``fleet_arrays_per_s`` runs one mission per array at the lifecycle
    workload (LC_ARGS on the same layout), so it prices the same
    per-mission screen the vectorized lifecycle kernel pays plus the
    fleet tier's chunking and weight bookkeeping — the perf-smoke gate
    asserts the overhead stays within 20%. ``fleet_is_ess_ratio`` runs
    an importance-sampled rare-event config (boost 1.4) and reports
    ``ESS / missions`` — the fraction of nominal-measure information the
    reweighted run retains (1.0 for naive sampling by construction).
    """
    oi = oi_raid(7, 3)
    mttf, horizon = LC_ARGS
    timer = RebuildTimer(oi, None, "distributed", "analytic", 8)

    def run():
        simulate_fleet(
            oi, mttf, horizon, arrays=trials, trials=1, seed=0, timer=timer
        )

    note(f"measuring fleet kernel ({trials} arrays x 1 mission) ...")
    run()  # warm the shared rebuild-time memo (replay patterns)
    seconds = best_of(run, repeat=3, number=1)
    current = {"fleet_arrays_per_s": trials / seconds}

    note("measuring fleet importance-sampling ESS ratio ...")
    rare = simulate_fleet(
        Raid50Layout(3, 3), 100_000.0, 20_000.0,
        arrays=100, trials=100, seed=11, lambda_boost=1.4,
    )
    current["fleet_is_ess_ratio"] = (
        rare.effective_sample_size / rare.missions
    )
    return current


def measure_profile(trials: int):
    """Phase-profiled vectorized lifecycle run: coverage figure + profile.

    ``lifecycle_profile_coverage`` is the fraction of the kernel's
    measured wall-clock the recorded phase breakdown accounts for — the
    observability gate asserts it stays >= 0.95, so a new hot path that
    dodges instrumentation shows up as a coverage drop, not silence.
    Returns ``(figures, profiler)`` so the profile document can be
    written as an artifact.

    Trials are floored at 2000 and the ratio is the best of three
    measured runs: the uninstrumented residue is fixed per-call overhead
    (validation, span entry), so at tiny trial counts — or when the
    scheduler preempts the process *between* two spans, inflating wall
    time the phases never saw — the ratio measures container noise, not
    instrumentation coverage. Best-of mirrors every other figure here.
    """
    trials = max(trials, 2000)
    oi = oi_raid(7, 3)
    mttf, horizon = LC_ARGS
    timer = RebuildTimer(oi, None, "distributed", "analytic", 8)

    def run():
        simulate_lifecycle(
            oi, mttf, horizon, trials=trials, seed=0, timer=timer,
            kernel="vectorized",
        )

    note(f"measuring phase-profiler coverage ({trials} trials) ...")
    run()  # warm the shared rebuild-time memo
    best_coverage, best_prof = 0.0, None
    for _ in range(3):
        prof = PhaseProfiler()
        start = time.perf_counter()
        with use_profiler(prof):
            run()
        wall = time.perf_counter() - start
        coverage = prof.total_seconds() / wall
        if coverage > best_coverage:
            best_coverage, best_prof = coverage, prof
    return {"lifecycle_profile_coverage": best_coverage}, best_prof


def measure_serve(trials: int) -> dict:
    """The online serving simulator's serial trial rate, per kernel.

    The headline ``serve_trials_per_s`` is the ``auto`` kernel — what a
    caller actually gets — alongside explicit per-kernel rates. Both
    kernels read one sampling plane, so the ratio between them is pure
    wall clock, never a result difference.
    """
    serve_trials = max(10, min(50, trials // 50))
    note(f"measuring serving simulator ({serve_trials} trials) ...")
    oi = oi_raid(7, 3)

    def run(kernel):
        simulate_serve_parallel(
            oi, WorkloadSpec(), failed_disks=(0,),
            trials=serve_trials, kernel=kernel, seed=0, jobs=1,
        )

    run("auto")  # warm the plan/routing caches out of the measured region
    rates = {}
    for kernel in ("auto", "vectorized", "event"):
        seconds = best_of(lambda: run(kernel), repeat=3, number=1)
        rates[kernel] = serve_trials / seconds
    return {
        "serve_trials_per_s": rates["auto"],
        "serve_vectorized_per_s": rates["vectorized"],
        "serve_event_per_s": rates["event"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=DEFAULT_MC_TRIALS,
                        help="Monte-Carlo trials per measurement "
                             f"(default {DEFAULT_MC_TRIALS})")
    parser.add_argument("--jobs-sweep", default=None,
                        help="comma-separated worker counts to sweep "
                             "(default 1,2,4,8)")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when a multi-core machine shows "
                             "parallel speedup < 1 at jobs >= 2")
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_perf.json",
    )
    parser.add_argument(
        "--profile-out", type=pathlib.Path, default=None,
        help="also write the profiled lifecycle run's phase-profile "
             "document (CI uploads this as an artifact)",
    )
    args = parser.parse_args(argv)
    if args.jobs_sweep:
        jobs_sweep = tuple(int(j) for j in args.jobs_sweep.split(","))
    else:
        jobs_sweep = DEFAULT_JOBS_SWEEP
    cpu_count = os.cpu_count() or 1

    start = time.perf_counter()
    current = measure_kernels()
    current.update(measure_mc(args.trials, jobs_sweep))
    current.update(measure_lifecycle(args.trials))
    current.update(measure_fleet(args.trials))
    current.update(measure_serve(args.trials))
    coverage, profiler = measure_profile(args.trials)
    current.update(coverage)
    harness_seconds = time.perf_counter() - start

    efficiency = {
        str(jobs): current[f"mc_parallel_speedup_jobs{jobs}"] / jobs
        for jobs in jobs_sweep
    }
    losing = [
        jobs for jobs in jobs_sweep
        if jobs >= 2 and current[f"mc_parallel_speedup_jobs{jobs}"] < 1.0
    ]
    # "_per_s" keys are rates (bigger is better); the rest are latencies.
    speedup = {
        key: (
            current[key] / SEED_BASELINE[key]
            if key.endswith("_per_s")
            else SEED_BASELINE[key] / current[key]
        )
        for key in SEED_BASELINE
        if key in current
    }
    snapshot = {
        "unit_bytes": UNIT,
        "mc_trials": args.trials,
        "cpu_count": cpu_count,
        "jobs_sweep": list(jobs_sweep),
        "baseline_seed": SEED_BASELINE,
        "current": current,
        "parallel_efficiency": {k: round(v, 3) for k, v in efficiency.items()},
        "speedup_vs_seed": {k: round(v, 2) for k, v in speedup.items()},
    }
    args.output.write_text(json.dumps(snapshot, indent=2) + "\n")
    note(f"snapshot written to {args.output}")
    if args.profile_out:
        args.profile_out.write_text(
            json.dumps(profiler.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        note(f"profile written to {args.profile_out}")
    ledger = RunLedger.from_env()
    if ledger is not None:
        ledger.append(
            run_manifest(
                "perf",
                {
                    "mc_trials": args.trials,
                    "jobs_sweep": list(jobs_sweep),
                    "unit_bytes": UNIT,
                },
                seconds=harness_seconds,
                result_doc=snapshot,
                profiler=profiler,
                extra={"current": current, "cpu_count": cpu_count},
            )
        )
        note(f"perf record appended to {ledger.path}")
    StructuredEmitter(stream=sys.stdout).emit(snapshot)

    if losing:
        rows = ", ".join(
            f"jobs={j}: {current[f'mc_parallel_speedup_jobs{j}']:.2f}x"
            for j in losing
        )
        if cpu_count == 1:
            note(
                f"WARNING: parallel speedup < 1 at {rows} — expected on "
                f"this single-core machine (cpu_count=1); not failing"
            )
        else:
            note(
                f"WARNING: parallel speedup < 1 at {rows} on a "
                f"{cpu_count}-core machine — the fan-out is losing to serial"
            )
            if args.strict:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
