"""A persistent worker pool with initializer-based state broadcast.

The first cut of :mod:`repro.sim.parallel` created a fresh
:class:`~concurrent.futures.ProcessPoolExecutor` per call and pickled the
full layout/oracle into **every** chunk, so a 2000-trial Monte-Carlo run
paid pool spin-up plus ~8 redundant layout unpicklings — enough overhead
that ``jobs=4`` *lost* to serial on the flagship benchmark. This module
fixes the cost model:

* **One pool, reused across calls.** The executor is created lazily and
  kept alive for the process lifetime (an ``atexit`` hook tears it down).
  Successive sweep points — same layout, different MTTF/seed/throttle —
  hit warm workers instead of forking new ones.
* **Broadcast, don't ship.** The heavy read-only state (layout, peeling
  index, recovery-plan tables, rebuild-time memos) is pickled **once**,
  handed to every worker through the executor's ``initializer``, and
  unpickled once per worker lifetime. Tasks then carry only light scalars
  (seeds, chunk sizes, rate parameters).
* **Fingerprint keying.** The broadcast blob's SHA-1 keys the pool: a
  call with the same state reuses the warm workers; a different layout
  (or a different ``jobs``) recycles the pool, because an executor's
  initializer only runs when its workers start.

Determinism is unaffected: the pool changes *where* chunks run, never
what they compute — :mod:`repro.sim.parallel` still derives per-chunk
seeds from the caller's seed and merges in chunk order.

Workers never create pools of their own; :func:`broadcast_state` is the
worker-side accessor for whatever the initializer installed.
"""

from __future__ import annotations

import atexit
import hashlib
import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

#: Submitted tasks per worker, per call. More than 1 keeps workers busy
#: when batches finish unevenly; the value only shapes scheduling, never
#: results (chunk boundaries and seeds are fixed upstream).
TASKS_PER_WORKER = 4

# -- parent-side pool registry ------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_jobs: int = 0
_pool_fingerprint: Optional[str] = None
_stats = {"created": 0, "reused": 0, "recycled": 0, "broadcast_bytes": 0}

# -- worker-side broadcast slot -----------------------------------------------

_worker_state: Any = None


def _init_worker(blob: bytes) -> None:
    """Executor initializer: unpickle the broadcast once per worker."""
    global _worker_state
    _worker_state = pickle.loads(blob)


def broadcast_state() -> Any:
    """The state the pool initializer installed in this worker process."""
    return _worker_state


def state_fingerprint(state: Any) -> Tuple[bytes, str]:
    """Pickle *state* once; return ``(blob, sha1-hex)``.

    The digest keys pool reuse; the blob feeds the initializer when a new
    pool must be created. Unpicklable state raises
    :class:`~repro.errors.SimulationError` with the underlying reason
    (an ad-hoc closure in the state is the usual culprit).
    """
    try:
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SimulationError(
            f"broadcast state is not picklable: {exc}"
        ) from exc
    return blob, hashlib.sha1(blob).hexdigest()


def get_pool(jobs: int, state: Any) -> ProcessPoolExecutor:
    """The shared executor, (re)created as needed for *jobs* and *state*.

    Reused when both the worker count and the state fingerprint match the
    live pool; otherwise the old pool is shut down and a fresh one starts
    with *state* broadcast through its initializer. ``jobs`` must be >= 2
    — serial callers should not touch the pool at all.
    """
    global _pool, _pool_jobs, _pool_fingerprint
    if jobs < 2:
        raise SimulationError(f"pool needs jobs >= 2, got {jobs}")
    blob, digest = state_fingerprint(state)
    # Broadcasts now carry columnar tables (rebuild columns, serve routing)
    # besides the layout; the last blob's size is surfaced in pool_stats()
    # so runners can sanity-check what a recycle would re-ship.
    _stats["broadcast_bytes"] = len(blob)
    if _pool is not None and _pool_jobs == jobs and _pool_fingerprint == digest:
        _stats["reused"] += 1
        return _pool
    if _pool is not None:
        _pool.shutdown(wait=True)
        _stats["recycled"] += 1
    _pool = ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(blob,)
    )
    _pool_jobs = jobs
    _pool_fingerprint = digest
    _stats["created"] += 1
    return _pool


def shutdown_pool() -> None:
    """Tear down the shared pool (no-op when none is live)."""
    global _pool, _pool_jobs, _pool_fingerprint
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None
        _pool_jobs = 0
        _pool_fingerprint = None


def pool_stats() -> dict:
    """Pool creations / reuses / recycles and the last broadcast's size."""
    return dict(_stats)


atexit.register(shutdown_pool)


# -- batched streaming execution ----------------------------------------------


def _run_batch(
    fn: Callable[[Any, Any, Any], Any], common: Any, specs: Sequence[Any]
) -> List[Any]:
    """Worker entry point: apply *fn* to each spec with the broadcast state."""
    state = _worker_state
    return [fn(state, common, spec) for spec in specs]


def batch_slices(n_specs: int, jobs: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` task slices over *n_specs* chunk specs.

    Batching groups several fixed-boundary chunks into one task so IPC is
    paid per batch, not per chunk, while chunk boundaries (and therefore
    results) stay exactly as the determinism contract fixes them. The
    slice layout targets :data:`TASKS_PER_WORKER` tasks per worker.
    """
    if n_specs <= 0:
        return []
    n_tasks = min(n_specs, max(1, jobs) * TASKS_PER_WORKER)
    size, extra = divmod(n_specs, n_tasks)
    slices = []
    start = 0
    for i in range(n_tasks):
        stop = start + size + (1 if i < extra else 0)
        slices.append((start, stop))
        start = stop
    return slices


def run_streaming(
    fn: Callable[[Any, Any, Any], Any],
    state: Any,
    common: Any,
    specs: Sequence[Any],
    jobs: int,
) -> Iterator[Tuple[int, Any]]:
    """Yield ``(spec_index, fn(state, common, spec))`` for every spec.

    ``jobs=1`` runs in-process, in order, with zero pickling. ``jobs>=2``
    broadcasts *state* to the shared pool, submits batched tasks, and
    yields batch results **in completion order** (within a batch, spec
    order) so the caller can stream progress; callers needing chunk order
    reorder on ``spec_index``.
    """
    if jobs == 1 or len(specs) == 1:
        for index, spec in enumerate(specs):
            yield index, fn(state, common, spec)
        return
    pool = get_pool(jobs, state)
    slices = batch_slices(len(specs), jobs)
    futures = {
        pool.submit(_run_batch, fn, common, specs[start:stop]): start
        for start, stop in slices
    }
    pending = set(futures)
    while pending:
        done, pending = wait(pending, return_when=FIRST_COMPLETED)
        for future in done:
            start = futures[future]
            for offset, result in enumerate(future.result()):
                yield start + offset, result
