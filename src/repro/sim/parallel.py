"""The chunk driver: process fan-out with deterministic seeding.

Two workloads dominate every reliability experiment in this reproduction
and both are embarrassingly parallel:

* **Chunked simulations** (E7, E18, E20, serving): thousands of
  independent missions or replications.
* **Fault-pattern sweeps** (E6, the tolerance CLI): thousands of
  independent recoverability verdicts, decided a chunk per call.

This module fans both across the persistent worker pool of
:mod:`repro.sim.pool` while keeping results **bit-identical for every
worker count**, including ``jobs=1``:

1. Work is split into fixed-size chunks whose boundaries depend only on
   the problem size (never on ``jobs``), so the same chunks exist whether
   one process runs them or eight do.
2. Each chunk is handed the run seed and its own position
   (:class:`~repro.sim.columnar.ChunkSpec`) and derives what it samples
   from those alone — the draw lanes :func:`repro.sim.columnar.lanes`
   addresses by the global trial (lifecycle, fleet, serve: the chunk
   size is then a speed, never a sample), or a per-chunk generator
   seeded from the run seed and the chunk's index (lifetimes), under
   which chunk 0's seed equals the caller's seed.
3. Chunk results stream back in **completion** order (progress callbacks
   fire as chunks land), but are handed to the caller's merge — and
   their telemetry folded — in chunk order, so concatenated outputs like
   ``loss_times`` and the merged telemetry are stable for any ``jobs``
   (chunk records carry global trial indices, so logs just concatenate).

The heavy read-only state of each simulator (the layout with its pattern
memo, the rebuild timer) is **broadcast** to the pool through its
initializer — pickled once per pool lifetime, not once per chunk — while
the chunk specs themselves carry only scalars. Broadcast state must be
picklable, so it holds layouts and dataclasses, never closures or lambdas.

This module sits *below* the simulators and names none of them. Each
``simulate_*`` function validates its physics arguments, builds the
broadcast state and hands :func:`run_chunks` its *chunk function*
``chunk_fn(state, spec, chunk_tel, **params) -> result``; the driver owns
everything else — ``jobs``, chunk geometry, seed resolution, the
per-chunk telemetry prologue, the pool, and the chunk-ordered drain —
and the simulator merges what comes back
(:meth:`repro.results.ResultBase.merged`).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import SimulationError
from repro.layouts.base import Layout
from repro.layouts.recovery import failure_matrix, recoverable_many
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, ambient, use_telemetry
from repro.sim.columnar import ChunkSpec, fresh_seed
from repro.sim.pool import run_streaming

T = TypeVar("T")
R = TypeVar("R")

#: The ``progress`` callback contract of the chunked simulators: called
#: after every completed chunk with ``(trials_done, trials_total,
#: losses_so_far)`` — :class:`repro.obs.Heartbeat` is one implementation.
ProgressCallback = Callable[[int, int, int], None]

#: Trials per lifetime Monte-Carlo chunk. Fixed (not derived from
#: ``jobs``) and part of the sample: one sequential generator per chunk.
#: Lifecycle, fleet and serve key their lanes globally instead — for
#: lifecycle this is only the width of a chunk whose every trial is walked.
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


def _chunk_task(state, common, spec):
    """The driver's one pool task: the per-chunk prologue, then *chunk_fn*.

    The chunk's telemetry has the run's sections on, and in-process
    (``jobs=1``) it inherits the ambient phase observer, so a heartbeat
    sees phase boundaries; a worker's ambient has none. *chunk_fn* runs
    under the disabled ambient telemetry: the planner and rebuild memo
    it calls record nothing, *chunk_tel* only its simulator.
    """
    chunk_fn, params, collect, profile, room = common
    chunk_tel = NULL_TELEMETRY
    if collect or profile:
        chunk_tel = Telemetry(collect, profile, max_events=max(1, room))
        chunk_tel.on_phase = ambient().on_phase
    with use_telemetry(NULL_TELEMETRY):
        result = chunk_fn(state, spec, chunk_tel, **params)
    return result, chunk_tel


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
    chunk's telemetry is folded into *telemetry* (``None``: the ambient
    one, a no-op unless a caller installed a collecting instance) through
    a reorder buffer, so the merged registry and event log are
    bit-identical for any ``jobs`` (only the wall-clock *span*, opened
    around the whole drain with *span_args*, and phase seconds vary). A
    chunk function's *chunk_tel* is an instance of its own with the
    sections of *telemetry* switched on (collected, profiled, or both),
    or the shared disabled one when neither is. Its log is capped at the
    room the merged log had when the chunk was handed out — exactly what
    the merge keeps at ``jobs=1``, at least that in a worker. Each fold
    is billed to a ``merge`` phase, so a merged profile obeys the
    jobs-invariance contract of :meth:`Telemetry.deterministic_dict`.
    Progress callbacks that expose ``note_ess`` (the fleet heartbeat)
    additionally receive the running effective-sample-size ratio
    accumulated from chunks that carry importance weights.
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
    tel = telemetry if telemetry is not None else ambient()
    log = tel.events
    common = [chunk_fn, params, tel.enabled, tel.profiling, log.max_events - len(log.records)]
    parts: List[Any] = [None] * len(specs)
    pending = {}
    next_fold = 0
    done = 0
    losses = 0
    track_ess = progress is not None and hasattr(progress, "note_ess")
    sum_w = 0.0
    sum_w2 = 0.0
    with tel.span(span, **span_args):
        for index, (result, chunk_tel) in run_streaming(
            _chunk_task, state, common, specs, jobs
        ):
            parts[index] = result
            done += result.trials
            losses += getattr(result, "losses", 0)
            pending[index] = chunk_tel
            while next_fold in pending:
                with tel.phase("merge"):
                    tel.merge_chunk(pending.pop(next_fold))
                common[-1] = log.max_events - len(log.records)
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


def _pattern_worker(layout, _common, patterns) -> int:
    """Pool task for one fault-pattern chunk; the layout is broadcast."""
    return int(recoverable_many(layout, failure_matrix(layout, patterns)).sum())


def count_survivable(
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
