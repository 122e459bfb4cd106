"""Parallel simulation engine: process fan-out with deterministic seeding.

Two workloads dominate every reliability experiment in this reproduction
and both are embarrassingly parallel:

* **Monte-Carlo lifetimes** (E7, E18): thousands of independent missions.
* **Fault-pattern sweeps** (E6, the tolerance CLI): thousands of
  independent ``is_recoverable`` calls.

This module fans both across the persistent worker pool of
:mod:`repro.sim.pool` while keeping results **bit-identical for every
worker count**, including ``jobs=1``:

1. Work is split into fixed-size chunks whose boundaries depend only on
   the problem size (never on ``jobs``), so the same chunks exist whether
   one process runs them or eight do.
2. Each chunk gets its own RNG stream, derived from the caller's seed and
   the chunk index by a splitmix-style stride
   (``seed ^ (chunk_id * 0x9E3779B97F4A7C15)``); chunk 0's seed equals the
   caller's seed, so a single-chunk run reproduces the serial kernel
   exactly.
3. Chunk results stream back in **completion** order (progress callbacks
   fire as chunks land), but are merged through a chunk-ordered reorder
   buffer — so concatenated outputs like ``loss_times`` and the merged
   telemetry are stable for any ``jobs``.

The heavy read-only state of each runner (the oracle, the layout, the
rebuild-time memo) is **broadcast** to the pool through its initializer —
pickled once per pool lifetime, not once per chunk — while the chunk specs
themselves carry only scalars. Broadcast state must be picklable: the
oracle dataclasses from :mod:`repro.sim.montecarlo` qualify; closures and
lambdas do not.

All four ``simulate_*_parallel`` runners (and the serial
:func:`~repro.sim.fleet.simulate_fleet`) go through one chunk driver,
:func:`run_chunks`: a runner validates its physics arguments, builds the
broadcast state and names a *chunk function*
``chunk_fn(state, spec, chunk_tel, **params) -> result``; the driver owns
everything else — chunk geometry, seed resolution, the per-chunk
telemetry/profiler prologue, the pool, and the chunk-ordered drain.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any, Callable, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar

from repro.errors import SimulationError
from repro.layouts.base import Layout
from repro.layouts.recovery import is_recoverable
from repro.obs.prof import PhaseProfiler, ambient_profiler, use_profiler
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.latency import LatencyModel
from repro.sim.columnar import (
    ChunkSpec,
    LifecycleTables,
    derive_chunk_seed,
    fresh_seed,
    resolve_kernel,
)
from repro.sim.fleet import (
    FLEET_CHUNK_MISSIONS,
    FleetResult,
    _fleet_chunk,
    _validate_fleet_args,
    merge_fleet_chunks,
)
from repro.sim.lifecycle import (
    LifecycleResult,
    RebuildTimer,
    simulate_lifecycle,
)
from repro.sim.montecarlo import LifetimeResult, simulate_lifetimes
from repro.sim.pool import run_streaming
from repro.sim.rebuild import DiskModel
from repro.sim.serve import (
    ServeResult,
    ThrottlePolicy,
    build_serve_tables,
    merge_serve_results,
    serve_batch_supported,
    simulate_serve,
)
from repro.workloads.arrivals import ArrivalProcess, OpenLoop
from repro.workloads.generators import WorkloadSpec

T = TypeVar("T")
R = TypeVar("R")

#: The ``progress`` callback contract of the Monte-Carlo runners: called
#: after every completed chunk with ``(trials_done, trials_total,
#: losses_so_far)`` — :class:`repro.obs.Heartbeat` is one implementation.
ProgressCallback = Callable[[int, int, int], None]

#: Trials per Monte-Carlo chunk. Fixed (not derived from ``jobs``) so the
#: chunk layout — and therefore the merged result — is identical for any
#: worker count.
DEFAULT_CHUNK_TRIALS = 256

#: Failure patterns per sweep chunk.
DEFAULT_CHUNK_PATTERNS = 512


def default_jobs() -> int:
    """Worker count from the ``REPRO_JOBS`` environment variable.

    The benchmarks and the CLI read this so CI can opt whole experiment
    sweeps into parallelism without touching their code. Unset or empty
    means serial (1); anything else must be a positive integer —
    ``REPRO_JOBS=0``, negatives, and non-numbers raise
    :class:`~repro.errors.SimulationError` instead of being silently
    clamped to serial, because a typo'd job count that quietly runs 8x
    slower is exactly the regression this layer exists to prevent.
    """
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise SimulationError(
            f"REPRO_JOBS must be a positive integer, got {raw!r}"
        ) from None
    if jobs < 1:
        raise SimulationError(
            f"REPRO_JOBS must be a positive integer, got {raw!r}"
        )
    return jobs


def chunk_sizes(total: int, chunk: int) -> List[int]:
    """Split *total* items into fixed-size chunks (last one may be short)."""
    if total < 0:
        raise SimulationError(f"total must be >= 0, got {total}")
    if chunk < 1:
        raise SimulationError(f"chunk size must be >= 1, got {chunk}")
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes


def _shared_horizon(parts: Sequence[Any]) -> float:
    """The one mission horizon every chunk result in *parts* carries."""
    if not parts:
        raise SimulationError("no chunk results to merge")
    horizon = parts[0].horizon_hours
    for part in parts[1:]:
        if part.horizon_hours != horizon:
            raise SimulationError(
                f"cannot merge results with different horizons "
                f"({part.horizon_hours} vs {horizon})"
            )
    return horizon


def merge_lifetime_results(
    parts: Sequence[LifetimeResult],
) -> LifetimeResult:
    """Combine per-chunk Monte-Carlo outcomes into one result.

    Loss times are concatenated in the given (chunk) order; all parts must
    share a horizon.
    """
    horizon = _shared_horizon(parts)
    loss_times: Tuple[float, ...] = tuple(
        t for part in parts for t in part.loss_times
    )
    return LifetimeResult(
        trials=sum(p.trials for p in parts),
        losses=sum(p.losses for p in parts),
        loss_times=loss_times,
        horizon_hours=horizon,
    )


def _chunk_task(state, common, spec):
    """The driver's one pool task: the per-chunk prologue, then *chunk_fn*."""
    chunk_fn, params, collect, profile = common
    chunk_tel = chunk_prof = None
    if collect:
        chunk_tel = Telemetry.collecting()
        # Memo hits/misses are recorded in telemetry, so a memo warmed by
        # *other* chunks would make the merged registry depend on which
        # chunks shared a worker. Collecting runs therefore pay a cold
        # memo per chunk; the simulated result is identical either way.
        state = tuple(
            replace(part) if isinstance(part, RebuildTimer) else part
            for part in state
        )
    if profile:
        chunk_prof = PhaseProfiler()
        # In-process execution (jobs=1) inherits the parent's phase
        # observer so heartbeats see phase boundaries; worker processes
        # have a null ambient profiler and inherit None (observers never
        # cross process boundaries).
        chunk_prof.on_phase = ambient_profiler().on_phase
    with use_profiler(chunk_prof):
        result = chunk_fn(state, spec, chunk_tel, **params)
    return result, chunk_tel, chunk_prof


def run_chunks(
    span: str,
    span_args: dict,
    chunk_fn: Callable[..., Any],
    state: Tuple[Any, ...],
    params: dict,
    trials: int,
    chunk_trials: int,
    *,
    seed: Optional[int],
    jobs: int,
    telemetry: Optional[Telemetry],
    progress: Optional[ProgressCallback],
) -> List[Any]:
    """The one chunk driver: fan *trials* out in fixed chunks, drain in order.

    Splits *trials* into chunks of *chunk_trials* (boundaries depend only
    on those two numbers), resolves ``seed=None`` once, and runs
    ``chunk_fn(state, spec, chunk_tel, **params)`` for every
    :class:`ChunkSpec` — in-process for ``jobs=1``, on the persistent
    pool (with the *state* tuple broadcast once) otherwise. Returns the
    per-chunk results in chunk order for the caller to merge.

    Results arrive in **completion** order — *progress* fires the moment
    a chunk lands with ``(trials_done, trials_total, losses_so_far)``,
    which is what makes stderr heartbeats possible mid-run — while each
    chunk's telemetry is folded into *telemetry* through a reorder buffer
    at its global trial offset, so the merged registry and event log are
    bit-identical for any ``jobs`` (only the wall-clock *span*, opened
    around the whole drain with *span_args*, varies).

    When the ambient :class:`~repro.obs.prof.PhaseProfiler` is enabled,
    each chunk runs under a private profiler and the drain folds those
    through the same chunk-ordered reorder buffer (under a ``merge``
    phase span per chunk), so merged profiles obey the jobs-invariance
    contract of :meth:`PhaseProfiler.deterministic_dict`. Progress
    callbacks that expose ``note_ess`` (the fleet heartbeat) additionally
    receive the running effective-sample-size ratio accumulated from
    chunks that carry importance weights.
    """
    if jobs < 1:
        raise SimulationError(f"jobs must be >= 1, got {jobs}")
    if trials < 1:
        raise SimulationError(f"trials must be >= 1, got {trials}")
    if seed is None:
        seed = fresh_seed()
    specs = [
        ChunkSpec(index, index * chunk_trials, size, seed)
        for index, size in enumerate(chunk_sizes(trials, chunk_trials))
    ]
    prof = ambient_profiler()
    collect = telemetry is not None and telemetry.enabled
    common = (chunk_fn, params, collect, prof.enabled)
    parts: List[Any] = [None] * len(specs)
    pending = {}
    next_fold = 0
    done = 0
    losses = 0
    track_ess = progress is not None and hasattr(progress, "note_ess")
    sum_w = 0.0
    sum_w2 = 0.0
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    with tel.span(span, **span_args):
        for index, (result, chunk_tel, chunk_prof) in run_streaming(
            _chunk_task, state, common, specs, jobs
        ):
            parts[index] = result
            done += result.trials
            losses += getattr(result, "losses", 0)
            pending[index] = (chunk_tel, chunk_prof)
            while next_fold in pending:
                chunk_tel, chunk_prof = pending.pop(next_fold)
                if chunk_tel is not None:
                    telemetry.merge_chunk(
                        chunk_tel, trial_offset=specs[next_fold].start
                    )
                if chunk_prof is not None:
                    with prof.phase("merge"):
                        prof.merge_chunk(chunk_prof)
                next_fold += 1
            if progress is not None:
                if track_ess:
                    chunk_w = getattr(result, "sum_weights", None)
                    if chunk_w is not None:
                        sum_w += chunk_w
                        sum_w2 += result.sum_sq_weights
                        if sum_w2 > 0.0 and done > 0:
                            progress.note_ess(sum_w * sum_w / sum_w2 / done)
                progress(done, trials, losses)
    return parts


def _lifetime_chunk(
    state, spec, chunk_tel, *, kernel, n_disks, mttf_hours, mttr_hours,
    horizon_hours,
):
    """Chunk function of the lifetime runner; *state* is ``(oracle,)``."""
    (oracle,) = state
    return simulate_lifetimes(
        n_disks,
        mttf_hours,
        mttr_hours,
        oracle,
        horizon_hours,
        trials=spec.size,
        seed=derive_chunk_seed(spec.seed, spec.index),
        telemetry=chunk_tel,
        kernel=kernel,
    )


def simulate_lifetimes_parallel(
    n_disks: int,
    mttf_hours: float,
    mttr_hours: float,
    oracle: Callable[[Set[int]], bool],
    horizon_hours: float,
    trials: int = 1000,
    chunk_trials: int = DEFAULT_CHUNK_TRIALS,
    kernel: str = "auto",
    *,
    seed: Optional[int] = 0,
    jobs: int = 1,
    telemetry: Optional[Telemetry] = None,
    progress: Optional[ProgressCallback] = None,
) -> LifetimeResult:
    """Chunked (and optionally multi-process) Monte-Carlo lifetimes.

    The result depends only on ``(trials, seed, chunk_trials)`` — never
    on ``jobs`` or *kernel* — so ``jobs=1`` and ``jobs=8`` are
    bit-identical, and a run with ``trials <= chunk_trials`` is
    bit-identical to :func:`~repro.sim.montecarlo.simulate_lifetimes`
    called directly. *kernel* (:data:`~repro.sim.columnar.KERNELS`;
    ``"auto"`` is ``vectorized``) only decides how many trials of each
    chunk's sampled plane are walked. *oracle* must be picklable
    when ``jobs > 1`` (use the oracle classes from
    :mod:`repro.sim.montecarlo`, not ad-hoc closures); it is broadcast to
    the persistent pool once, not shipped per chunk. *telemetry* and
    *progress* follow :func:`run_chunks`' contract.
    """
    resolve_kernel(kernel)  # fail fast on unknown names
    parts = run_chunks(
        "simulate_lifetimes_parallel", dict(trials=trials, jobs=jobs),
        _lifetime_chunk, (oracle,),
        dict(
            kernel=kernel, n_disks=n_disks, mttf_hours=mttf_hours,
            mttr_hours=mttr_hours, horizon_hours=horizon_hours,
        ),
        trials, chunk_trials,
        seed=seed, jobs=jobs, telemetry=telemetry, progress=progress,
    )
    return merge_lifetime_results(parts)


def merge_lifecycle_results(
    parts: Sequence[LifecycleResult],
) -> LifecycleResult:
    """Combine per-chunk lifecycle outcomes into one result.

    Loss times and the per-trial instrumentation tuples are concatenated
    in the given (chunk) order; all parts must share a horizon.
    """
    horizon = _shared_horizon(parts)
    return LifecycleResult(
        trials=sum(p.trials for p in parts),
        losses=sum(p.losses for p in parts),
        loss_times=tuple(t for p in parts for t in p.loss_times),
        lse_losses=sum(p.lse_losses for p in parts),
        horizon_hours=horizon,
        failures_per_trial=tuple(
            n for p in parts for n in p.failures_per_trial
        ),
        repairs_per_trial=tuple(
            n for p in parts for n in p.repairs_per_trial
        ),
        degraded_hours_per_trial=tuple(
            h for p in parts for h in p.degraded_hours_per_trial
        ),
        peak_failures_per_trial=tuple(
            n for p in parts for n in p.peak_failures_per_trial
        ),
    )


def _lifecycle_chunk(state, spec, chunk_tel, *, kernel, **physics):
    """Chunk function of the lifecycle runner.

    *state* is the broadcast ``(layout, timer, tables)`` triple — the
    layout's cell indexes, the rebuild-time memo, and the columnar
    per-disk rebuild columns (``None`` under the event kernel) are
    unpickled once per worker; the memo then accumulates across every
    chunk the worker runs instead of starting cold per chunk, and the
    tables ride along like ``ServeTables`` does for the serving runner.
    """
    layout, timer, tables = state
    return simulate_lifecycle(
        layout,
        disk=timer.disk,
        sparing=timer.sparing,
        method=timer.method,
        batches=timer.batches,
        trials=spec.size,
        seed=derive_chunk_seed(spec.seed, spec.index),
        telemetry=chunk_tel,
        timer=timer,
        tables=tables,
        kernel=kernel,
        **physics,
    )


def simulate_lifecycle_parallel(
    layout: Layout,
    mttf_hours: float,
    horizon_hours: float,
    disk: Optional[DiskModel] = None,
    sparing: str = "distributed",
    method: str = "analytic",
    batches: int = 8,
    lse_rate_per_byte: float = 0.0,
    trials: int = 100,
    chunk_trials: int = DEFAULT_CHUNK_TRIALS,
    kernel: str = "auto",
    *,
    seed: Optional[int] = 0,
    jobs: int = 1,
    telemetry: Optional[Telemetry] = None,
    progress: Optional[ProgressCallback] = None,
) -> LifecycleResult:
    """Chunked (and optionally multi-process) lifecycle simulation.

    Same determinism contract as :func:`simulate_lifetimes_parallel`: the
    result depends only on ``(trials, seed, chunk_trials)``, never on
    ``jobs``, and a run with ``trials <= chunk_trials`` is bit-identical
    to the serial kernel. Rebuild times are memoized per pattern within
    each worker (they are pure functions of the pattern, so the memo never
    affects results).

    *kernel* (:data:`~repro.sim.columnar.KERNELS`) cannot change the
    result — only the wall clock: both kernels read one sampling plane.
    For the ``vectorized`` kernel the screen's per-disk rebuild columns
    (:class:`~repro.sim.columnar.LifecycleTables`) are computed once here
    and broadcast to the workers alongside the timer, whose memo they
    warm as a side effect.

    The determinism contract extends to telemetry (see
    :func:`run_chunks`): trial indices are chunk-local in the workers and
    rebased at the merge, so the merged registry and event log are
    bit-identical for any ``jobs``.
    """
    screened = resolve_kernel(kernel) == "vectorized"  # fails fast
    timer = RebuildTimer(
        layout, disk or DiskModel(), sparing, method, batches
    )
    tables = LifecycleTables.build(layout, timer) if screened else None
    parts = run_chunks(
        "simulate_lifecycle_parallel", dict(trials=trials, jobs=jobs),
        _lifecycle_chunk, (layout, timer, tables),
        dict(
            kernel=kernel, mttf_hours=mttf_hours,
            horizon_hours=horizon_hours, lse_rate_per_byte=lse_rate_per_byte,
        ),
        trials, chunk_trials,
        seed=seed, jobs=jobs, telemetry=telemetry, progress=progress,
    )
    return merge_lifecycle_results(parts)


def simulate_fleet_parallel(
    layout: Layout,
    mttf_hours: float,
    horizon_hours: float,
    disk: Optional[DiskModel] = None,
    sparing: str = "distributed",
    method: str = "analytic",
    batches: int = 8,
    lse_rate_per_byte: float = 0.0,
    arrays: int = 100,
    trials: int = 10,
    lambda_boost: float = 1.0,
    chunk_missions: int = FLEET_CHUNK_MISSIONS,
    oracle: Optional[Callable[[Set[int]], bool]] = None,
    *,
    seed: Optional[int] = 0,
    jobs: int = 1,
    telemetry: Optional[Telemetry] = None,
    progress: Optional[ProgressCallback] = None,
) -> FleetResult:
    """Chunked (and optionally multi-process) fleet simulation.

    The strongest determinism contract in this module: fleet draw lanes
    are keyed by the **global mission index** (not per-chunk seeds), and
    chunk boundaries are a pure function of ``arrays * trials``, so the
    result is bit-identical not only for any ``jobs`` but also to the
    serial :func:`~repro.sim.fleet.simulate_fleet` — same lanes, same
    chunks, same chunk-ordered float fold. The broadcast state carries
    the layout, the rebuild-time memo, the columnar rebuild tables, and
    the (picklable, when ``jobs > 1``) pattern *oracle*.

    *progress* is called after every completed chunk with
    ``(missions_done, missions_total, raw_losses_so_far)``. Collecting
    *telemetry* is merged in chunk order with global mission offsets and
    covers replayed missions only (the fleet kernel's contract).
    """
    _validate_fleet_args(
        arrays, trials, mttf_hours, horizon_hours,
        lse_rate_per_byte, lambda_boost,
    )
    timer = RebuildTimer(
        layout, disk or DiskModel(), sparing, method, batches
    )
    tables = LifecycleTables.build(layout, timer)
    parts = run_chunks(
        "simulate_fleet_parallel",
        dict(arrays=arrays, trials=trials, jobs=jobs),
        _fleet_chunk, (layout, timer, tables, oracle),
        dict(
            mttf_hours=mttf_hours, horizon_hours=horizon_hours,
            lse_rate_per_byte=lse_rate_per_byte, lambda_boost=lambda_boost,
            trials_per_array=trials,
        ),
        arrays * trials, chunk_missions,
        seed=seed, jobs=jobs, telemetry=telemetry, progress=progress,
    )
    return merge_fleet_chunks(
        parts, arrays, trials, horizon_hours, mttf_hours, lambda_boost
    )


#: Serving trials per chunk when every trial is walked end to end. One
#: trial per chunk — such a replication is far heavier than a Monte-Carlo
#: mission, and a chunk size of 1 makes trial *i*'s seed depend only on
#: ``(seed, i)``.
DEFAULT_CHUNK_SERVE_TRIALS = 1

#: Serving trials per chunk when the vectorized sweep applies (after a
#: walked rebuild prefix, if any): wide chunks amortize the numpy
#: dispatch over ``(trials x disks)`` queue lanes. Safe for any value —
#: per-trial seeds are global, so chunk geometry never changes the result.
VECTORIZED_CHUNK_SERVE_TRIALS = 16


def _serve_chunk(state, spec, chunk_tel, *, kernel, **config):
    """Chunk function of the serving runner.

    *state* is the broadcast ``(layout, tables)`` pair — the routing
    tables (recovery plan, degraded fan-outs, rebuild ops) are computed
    once by the caller and shipped to each worker exactly once, so
    trials skip re-planning. Per-trial seeds are derived from
    ``(seed, spec.start + i)`` — a global trial index, never the chunk
    geometry — so the merged result is bit-identical for any worker
    count; the whole chunk is one :func:`simulate_serve` call over them.
    """
    layout, tables = state
    return simulate_serve(
        layout, telemetry=chunk_tel, tables=tables, kernel=kernel,
        trial_seeds=[
            derive_chunk_seed(spec.seed, spec.start + i)
            for i in range(spec.size)
        ],
        **config,
    )


def simulate_serve_parallel(
    layout: Layout,
    workload: "WorkloadSpec",
    failed_disks: Sequence[int] = (),
    arrival: Optional["ArrivalProcess"] = None,
    model: Optional["LatencyModel"] = None,
    throttle: Optional["ThrottlePolicy"] = None,
    sparing: str = "distributed",
    rebuild_batches: int = 1,
    trials: int = 1,
    chunk_trials: Optional[int] = None,
    kernel: str = "auto",
    *,
    seed: Optional[int] = 0,
    jobs: int = 1,
    telemetry: Optional[Telemetry] = None,
    progress: Optional[ProgressCallback] = None,
) -> "ServeResult":
    """Chunked (and optionally multi-process) :func:`~repro.sim.serve.simulate_serve`.

    Runs *trials* independent serving replications — trial *i*'s
    workload and arrival stream are seeded by
    ``derive_chunk_seed(seed, i)``, with trial 0 reproducing a direct
    ``simulate_serve(..., seed=seed)`` call exactly — and merges the
    :class:`~repro.sim.serve.ServeResult` parts in trial order, so the
    pooled latencies, counters, and merged telemetry are bit-identical
    for any ``jobs``. *workload* must be a picklable
    :class:`~repro.workloads.generators.WorkloadSpec` (not a request
    list) because workers regenerate it from the trial seed.

    *kernel* (:data:`~repro.sim.columnar.KERNELS`) is a pure speed
    knob, exactly as on :func:`~repro.sim.serve.simulate_serve`: both
    kernels read one per-trial sampling plane, so the merged result —
    telemetry included — is bit-identical across kernels too. When the
    vectorized sweep applies (``serve_batch_supported``, telemetry off),
    chunks default to :data:`VECTORIZED_CHUNK_SERVE_TRIALS` trials so
    one numpy sweep covers a whole chunk; otherwise one trial per chunk
    (:data:`DEFAULT_CHUNK_SERVE_TRIALS`). *chunk_trials* overrides
    either default; chunk geometry never changes the result, only the
    progress-callback granularity.
    """
    vectorized = resolve_kernel(kernel) == "vectorized"  # fails fast
    arrival = arrival if arrival is not None else OpenLoop(100.0)
    failed = tuple(sorted(set(failed_disks)))
    # Plan the recovery once, here; workers get the routing tables as
    # broadcast state instead of re-planning per trial.
    tables = build_serve_tables(layout, failed, sparing, rebuild_batches)
    if chunk_trials is None:
        swept = (
            vectorized
            and not (telemetry is not None and telemetry.enabled)
            and serve_batch_supported(arrival, throttle)
        )
        chunk_trials = (
            VECTORIZED_CHUNK_SERVE_TRIALS
            if swept
            else DEFAULT_CHUNK_SERVE_TRIALS
        )
    parts = run_chunks(
        "simulate_serve_parallel", dict(trials=trials, jobs=jobs),
        _serve_chunk, (layout, tables),
        dict(
            kernel=kernel, workload=workload,
            failed_disks=failed, arrival=arrival, model=model,
            throttle=throttle, sparing=sparing,
            rebuild_batches=rebuild_batches,
        ),
        trials, chunk_trials,
        seed=seed, jobs=jobs, telemetry=telemetry, progress=progress,
    )
    return merge_serve_results(parts)


def _pattern_worker(layout, _common, patterns) -> int:
    """Pool task for one fault-pattern chunk; the layout is broadcast."""
    return sum(1 for p in patterns if is_recoverable(layout, p))


def count_survivable_parallel(
    layout: Layout,
    patterns: Sequence[Sequence[int]],
    jobs: int = 1,
    chunk_patterns: int = DEFAULT_CHUNK_PATTERNS,
) -> int:
    """Count decodable failure patterns, fanning chunks across the pool.

    Exact — every pattern is checked; only the work distribution differs
    between worker counts. Used by the E6 sweeps and the ``tolerance``
    CLI. The layout is broadcast once per pool lifetime, so a sweep over
    failure counts (f=1..4 against one layout) reuses warm workers.
    """
    if jobs < 1:
        raise SimulationError(f"jobs must be >= 1, got {jobs}")
    normalized = tuple(tuple(p) for p in patterns)
    if jobs == 1 or len(normalized) <= chunk_patterns:
        return _pattern_worker(layout, None, normalized)
    specs = [
        normalized[start : start + chunk_patterns]
        for start in range(0, len(normalized), chunk_patterns)
    ]
    return sum(
        count
        for _index, count in run_streaming(
            _pattern_worker, layout, None, specs, jobs
        )
    )


def survivable_fraction_parallel(
    layout: Layout,
    n_failures: int,
    max_patterns: Optional[int] = None,
    seed: int = 0,
    jobs: int = 1,
) -> float:
    """Parallel twin of :func:`repro.core.tolerance.survivable_fraction`."""
    from repro.core.tolerance import failure_patterns

    patterns = failure_patterns(layout.n_disks, n_failures, max_patterns, seed)
    survived = count_survivable_parallel(layout, patterns, jobs=jobs)
    return survived / len(patterns)


def _apply_worker(fn, _common, item):
    """Pool task for :func:`parallel_map`; *fn* itself is the broadcast."""
    return fn(item)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int = 1,
) -> List[R]:
    """Order-preserving map, serial for ``jobs=1`` else pool-parallel.

    *fn* must be picklable for ``jobs > 1`` (a module-level function or a
    ``functools.partial`` over one); it is broadcast to the persistent
    pool, so repeated maps with the same *fn* reuse warm workers.
    Results are returned in input order, so callers get deterministic
    output for any worker count.
    """
    if jobs < 1:
        raise SimulationError(f"jobs must be >= 1, got {jobs}")
    materialized = list(items)
    if jobs == 1 or len(materialized) <= 1:
        return [fn(item) for item in materialized]
    results: List[Optional[R]] = [None] * len(materialized)
    for index, result in run_streaming(
        _apply_worker, fn, None, materialized, jobs
    ):
        results[index] = result
    return results  # type: ignore[return-value]
