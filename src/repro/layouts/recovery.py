"""Generic recovery planning by iterative peeling, with load balancing.

Works for every :class:`~repro.layouts.base.Layout`: a stripe whose lost
cells number at most its tolerance can repair them from its surviving cells.
Peeling repeats until everything is recovered (plan) or no stripe is
eligible (data loss). The same peeling, stripped of cost accounting, is the
fault-tolerance oracle used by the exhaustive enumeration experiments (E6).

Load balancing happens at two levels, and both are what turns OI-RAID's
geometry into its recovery speedup:

1. **Repair-stripe choice** — a lost OI-RAID outer unit can be repaired by
   its outer stripe or its inner row; the planner picks greedily to keep
   the maximum per-disk read load low.
2. **Value sourcing (surrogate reads)** — any *surviving* value a repair
   needs can either be read directly from its disk or decoded from the
   *other* stripe containing it (reading that stripe's remaining units).
   Offloading hot disks this way is how a failed disk's group peers — the
   only disks that can serve its inner rows directly — shed load onto the
   rest of the array, engaging every surviving spindle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import DataLossError, LayoutError
from repro.layouts.base import (
    Cell,
    DiskPeelingIndex,
    Layout,
    PeelingIndex,
)
from repro.obs.telemetry import ambient

#: Default cap on the offload hill-climb. Only plans built with it (and
#: the other default flags) may be served from the layout's pattern memo.
DEFAULT_OFFLOAD_ROUNDS = 10_000

#: Entries of one batched-peel slice: its dense ``(row, stripe)`` count
#: table plus its rows' lost-cell incidences (:func:`recoverable_many`).
_PEEL_BUDGET = 1 << 16


def lost_cells(layout: Layout, failed_disks: Iterable[int]) -> Set[Cell]:
    """All cells of the layout cycle residing on the failed disks."""
    failed = set(failed_disks)
    for disk in failed:
        if not 0 <= disk < layout.n_disks:
            raise LayoutError(f"no such disk {disk} in {layout.name}")
    return {
        (disk, addr)
        for disk in failed
        for addr in range(layout.units_per_disk)
    }


def _lost_counts(index: PeelingIndex, lost: Set[Cell]) -> Dict[int, int]:
    """Lost-cell count per stripe, restricted to stripes touching *lost*."""
    counts: Dict[int, int] = {}
    for cell in lost:
        for sid in index.cell_stripes[cell]:
            counts[sid] = counts.get(sid, 0) + 1
    return counts


def _peel(layout: Layout, lost: Set[Cell]) -> bool:
    """Run indexed peeling to exhaustion; mutates *lost*, True if emptied.

    Work-queue formulation of the classic rescan loop: per-stripe lost-cell
    counts make eligibility an O(1) check, and repairing a cell enqueues
    only the stripes containing that cell — so total work is linear in the
    number of (lost cell, containing stripe) incidences instead of
    O(passes x stripes).
    """
    index = layout.peeling_index()
    counts = _lost_counts(index, lost)
    tolerance = index.stripe_tolerance
    queue = deque(sid for sid, c in counts.items() if c <= tolerance[sid])
    queued = set(queue)
    while queue:
        sid = queue.popleft()
        queued.discard(sid)
        count = counts.get(sid, 0)
        if count == 0 or count > tolerance[sid]:
            continue  # stale entry: repaired or re-overloaded meanwhile
        for cell in index.stripe_cells[sid]:
            if cell not in lost:
                continue
            lost.discard(cell)
            for other in index.cell_stripes[cell]:
                counts[other] -= 1
                if (
                    other != sid
                    and 0 < counts[other] <= tolerance[other]
                    and other not in queued
                ):
                    queue.append(other)
                    queued.add(other)
    return not lost


def cells_recoverable(layout: Layout, cells: Iterable[Cell]) -> bool:
    """True if an explicit lost-*cell* set is decodable by peeling.

    The cell-granular twin of :func:`is_recoverable`, for callers whose
    losses are finer than whole disks — latent sector errors discovered
    during a rebuild strand single units, and the lifecycle simulator asks
    whether the stranded unit plus the currently-failed disks' cells are
    jointly decodable.
    """
    lost = set(cells)
    for disk, addr in lost:
        if not (
            0 <= disk < layout.n_disks and 0 <= addr < layout.units_per_disk
        ):
            raise LayoutError(
                f"no such cell ({disk}, {addr}) in {layout.name}"
            )
    if not lost:
        return True
    return _peel(layout, lost)


def is_recoverable(layout: Layout, failed_disks: Iterable[int]) -> bool:
    """True if the failure pattern is decodable by iterative peeling.

    Peeling is exact (not merely sufficient) for the layouts in this
    library: every stripe is MDS on its own cells, stripes share at most
    one cell pairwise, and no cell is parity in two stripes — so any
    decodable pattern is decodable greedily, in any order. *failed_disks*
    may be any iterable of disk ids (set, tuple, generator). The one-row
    call of :func:`recoverable_many`.
    """
    return bool(recoverable_many(layout, failure_matrix(layout, [failed_disks]))[0])


def failure_matrix(layout: Layout, patterns: Sequence[Iterable[int]]) -> np.ndarray:
    """The ``(len(patterns), n_disks)`` bool matrix of disk-id failed sets."""
    patterns = [list(pattern) for pattern in patterns]
    disks = np.array([d for pattern in patterns for d in pattern], np.intp)
    bad = disks[(disks < 0) | (disks >= layout.n_disks)]
    if len(bad):
        raise LayoutError(f"no such disk {bad[0]} in {layout.name}")
    down = np.zeros((len(patterns), layout.n_disks), dtype=bool)
    down[np.repeat(np.arange(len(patterns)), list(map(len, patterns))), disks] = True
    return down


def recoverable_many(layout: Layout, down: np.ndarray) -> np.ndarray:
    """:func:`is_recoverable` of every row of a ``(B, n_disks)`` bool matrix.

    Row *i* is a failed set (``down[i, d]``: disk *d* is down, see
    :func:`failure_matrix`); the B verdicts come back as a bool array,
    decided by one batched peel (:func:`_peel_rows`) per slice of rows
    small enough to keep its count table near ``_PEEL_BUDGET`` entries.
    Counts one ``recovery.oracle_calls`` per row.
    """
    down = np.asarray(down)
    if down.dtype != bool or down.ndim != 2 or down.shape[1] != layout.n_disks:
        raise LayoutError(
            f"failed sets of {layout.name} must be a (B, {layout.n_disks}) "
            f"bool matrix, got {down.dtype} {down.shape}"
        )
    tel = ambient()
    if tel.enabled and len(down):
        tel.count("recovery.oracle_calls", len(down))
    index = layout.disk_peeling_index()
    per_disk = index.cell_stripes.size // layout.n_disks  # padded incidences
    row_size = index.n_stripes + 1 + per_disk * int(down.sum(axis=1).max(initial=0))
    step = max(1, _PEEL_BUDGET // row_size)
    return np.concatenate([
        _peel_rows(index, down[start:start + step])
        for start in range(0, len(down) or 1, step)
    ])


def _peel_rows(index: DiskPeelingIndex, down: np.ndarray) -> np.ndarray:
    """Whole-disk peeling of every row of *down* as one batched fixpoint.

    Each round counts the lost ``(row, cell)`` incidences per ``(row,
    stripe)`` with one ``bincount`` and drops every lost cell with an
    eligible stripe. A row that drops nothing is at its fixpoint and
    unrecoverable; one whose cells all drop is recoverable. Peeling is
    confluent, so this is the work queue's answer (DESIGN.md, "Indexed
    incremental peeling"). Keys start dense, ``row * (n_stripes + 1) +
    stripe``; once a big key space is under a quarter full, ``np.unique``
    renumbers the survivors, so the first round sorts nothing.
    """
    u = index.units_per_disk
    rows, disks = np.nonzero(down)
    cells = (disks[:, None] * u + np.arange(u)).ravel()
    rows = np.repeat(rows, u)
    tolerance = index.cell_tolerance[cells]
    keys = rows[:, None] * (index.n_stripes + 1) + index.cell_stripes[cells]
    n_keys = len(down) * (index.n_stripes + 1)
    verdict = np.ones(len(down), dtype=bool)
    while len(rows):
        counts = np.bincount(keys.ravel(), minlength=n_keys)
        drop = (counts[keys] <= tolerance).any(axis=1)
        moved = np.bincount(rows[drop], minlength=len(down)).astype(bool)[rows]
        verdict[rows[~moved]] = False
        keep = moved & ~drop
        rows, keys, tolerance = rows[keep], keys[keep], tolerance[keep]
        if n_keys > _PEEL_BUDGET // 16 and 4 * keys.size < n_keys:
            unique, keys = np.unique(keys, return_inverse=True)
            keys, n_keys = keys.reshape(tolerance.shape), len(unique)
    return verdict


@dataclass(frozen=True)
class ValueSource:
    """How one surviving value a repair needs is obtained.

    Attributes:
        cell: the cell whose value is needed.
        via: ``None`` for a direct read of *cell*; otherwise the stripe id
            the value is decoded from.
        reads: the physical cell reads this source costs (``(cell,)`` when
            direct; the surrogate stripe's other cells otherwise).
    """

    cell: Cell
    via: Optional[int]
    reads: Tuple[Cell, ...]


@dataclass(frozen=True)
class RepairStep:
    """Repair *targets* using *stripe_id*.

    ``sources`` are the surviving values consumed (with their read costs);
    ``reuses`` are values produced by earlier steps (no disk reads).
    """

    stripe_id: int
    targets: Tuple[Cell, ...]
    sources: Tuple[ValueSource, ...]
    reuses: Tuple[Cell, ...]

    @property
    def reads(self) -> Tuple[Cell, ...]:
        """All physical reads of this step."""
        return tuple(c for s in self.sources for c in s.reads)


@dataclass
class RecoveryPlan:
    """An ordered, validated repair schedule for a failure pattern."""

    layout_name: str
    failed_disks: Tuple[int, ...]
    steps: List[RepairStep] = field(default_factory=list)

    @property
    def recovered_cells(self) -> List[Cell]:
        return [cell for step in self.steps for cell in step.targets]

    def read_units_per_disk(self) -> Dict[int, int]:
        """Units read from each surviving disk (the E5 load distribution)."""
        loads: Dict[int, int] = {}
        for step in self.steps:
            for disk, _addr in step.reads:
                loads[disk] = loads.get(disk, 0) + 1
        return loads

    @property
    def max_read_units(self) -> int:
        loads = self.read_units_per_disk()
        return max(loads.values()) if loads else 0

    @property
    def total_read_units(self) -> int:
        return sum(len(step.reads) for step in self.steps)

    @property
    def total_write_units(self) -> int:
        return len(self.recovered_cells)

    def summary(self) -> "PlanSummary":
        """The plan's volumes, without its steps."""
        return PlanSummary(
            self.failed_disks, tuple(self.read_units_per_disk().items()),
            self.total_read_units, self.total_write_units, len(self.steps),
        )


@dataclass(frozen=True)
class PlanSummary:
    """A plan's volumes: all a bandwidth-bound rebuild clock reads."""

    failed_disks: Tuple[int, ...]
    read_units: Tuple[Tuple[int, int], ...]  #: ``(disk, units)``, first read first
    total_read_units: int
    total_write_units: int
    steps: int


@dataclass
class PatternEntry:
    """What ``layout.patterns`` holds for one sorted failed set.

    The default-flag plan's summary, the plan itself for a single failure
    only (keeping multi-failure plans costs a mission walk's memory), and
    ``(seconds, bytes read)`` per rebuild config, filled by
    :class:`repro.sim.rebuild.RebuildTimer`.
    """

    summary: PlanSummary
    plan: Optional[RecoveryPlan]
    clocks: Dict[tuple, Tuple[float, float]] = field(default_factory=dict)


def degraded_read_sources(plan: "RecoveryPlan") -> Dict[Cell, Tuple[int, ...]]:
    """Lost cell -> the sorted disks its repair step reads from.

    The serving simulator routes a degraded read of a lost cell to
    exactly the disks the recovery plan would touch to regenerate it, so
    the foreground fan-out and the rebuild traffic agree on sourcing.
    """
    sources: Dict[Cell, Tuple[int, ...]] = {}
    for step in plan.steps:
        reads = tuple(sorted({c[0] for c in step.reads}))
        for target in step.targets:
            sources[target] = reads
    return sources


def parity_disk_table(layout: Layout) -> Dict[Cell, Tuple[int, ...]]:
    """Cell -> sorted disks holding parity of its containing stripes.

    A read-modify-write of a cell must update every containing stripe's
    parity; this table (home disk excluded) is what the serving
    simulator fans writes out to. Pure function of the layout, so the
    result is memoized on the layout instance; treat it as read-only.
    """
    cached = getattr(layout, "_parity_disk_table", None)
    if cached is not None:
        return cached
    table: Dict[Cell, set] = {}
    for stripe in layout.stripes:
        pdisks = {c[0] for c in stripe.parity_cells()}
        for cell in stripe.cells():
            table.setdefault(cell, set()).update(pdisks - {cell[0]})
    result = {cell: tuple(sorted(disks)) for cell, disks in table.items()}
    layout._parity_disk_table = result
    return result


def _surrogate_options(
    index: PeelingIndex, cell: Cell, all_lost: Set[Cell]
) -> List[Tuple[int, Tuple[Cell, ...]]]:
    """Stripes that can decode *cell* purely from online, un-lost cells."""
    options = []
    for stripe_id in index.cell_stripes[cell]:
        others = tuple(c for c in index.stripe_cells[stripe_id] if c != cell)
        if any(c in all_lost for c in others):
            continue
        options.append((stripe_id, others))
    return options


def _select_sources(
    cells: Tuple[Cell, ...],
    needed: int,
    base_fresh: List[Cell],
    recovered: Set[Cell],
    loads: Dict[int, int],
) -> Tuple[List[Cell], List[Cell]]:
    """Pick the surviving values a repair of the stripe actually needs.

    An MDS stripe decodes from any ``width - tolerance`` known values, so
    a stripe with fewer losses than its tolerance can skip some survivors.
    Free values first (cells already recovered by earlier steps), then the
    least-loaded disks; returns (fresh reads, reuses).

    *base_fresh* is the stripe's static fresh-read pool — the cells never
    in the failure's lost set, pre-sorted by cell — so the work is one
    stable re-sort by current load (ties break by cell, exactly the old
    ``(load, cell)`` composite key) instead of rebuilding and re-keying
    the survivor list from scratch every scoring call.
    """
    reuse = [c for c in cells if c in recovered]
    if len(reuse) > needed:
        del reuse[needed:]
    n_fresh = needed - len(reuse)
    if n_fresh <= 0:
        return [], reuse
    loads_get = loads.get
    fresh = sorted(base_fresh, key=lambda c: loads_get(c[0], 0))
    del fresh[n_fresh:]
    return fresh, reuse


def plan_recovery(
    layout: Layout,
    failed_disks: Sequence[int],
    balance: bool = True,
    offload: bool = True,
    max_offload_rounds: int = DEFAULT_OFFLOAD_ROUNDS,
    lost_override: Optional[Set[Cell]] = None,
) -> RecoveryPlan:
    """Build a repair schedule, or raise :class:`DataLossError`.

    ``balance`` controls the repair-stripe choice (greedy min-peak vs.
    first-eligible); ``offload`` enables the surrogate-read pass. The E10
    ablation and the baseline comparisons disable these selectively.

    ``lost_override`` plans for an explicit lost-cell set instead of whole
    disks — the distributed-sparing array uses this because relocated
    units make "which cells are lost" diverge from "which disks failed".
    Load accounting then attributes reads to the layout's *home* disks,
    so callers with relocations should treat per-disk loads as approximate.

    Single-disk patterns planned with the default flags are served from
    the layout's pattern memo (:func:`pattern_entry`), since they
    dominate planning traffic (rebuild clocks, lifecycle repair times,
    the serve fast path all start from one). Each hit returns a fresh
    :class:`RecoveryPlan` that shares the immutable steps, so callers
    may extend their copy freely.
    """
    if max_offload_rounds < 0:
        raise LayoutError(
            f"max_offload_rounds must be >= 0, got {max_offload_rounds}"
        )
    failed = tuple(sorted(set(failed_disks)))
    cacheable = (
        len(failed) == 1
        and balance
        and offload
        and max_offload_rounds == DEFAULT_OFFLOAD_ROUNDS
        and lost_override is None
    )
    tel = ambient()
    with tel.span("plan_recovery", failed=len(failed)):
        if cacheable:
            cached = pattern_entry(layout, failed).plan
            plan = RecoveryPlan(
                cached.layout_name, cached.failed_disks, list(cached.steps)
            )
        else:
            plan = _plan_recovery_impl(
                layout, failed, balance, offload, max_offload_rounds,
                lost_override,
            )
    if tel.enabled:
        tel.count("recovery.plans")
        tel.observe("recovery.plan_steps", len(plan.steps))
        tel.observe("recovery.plan_read_units", plan.total_read_units)
    return plan


def pattern_entry(layout: Layout, failed: Tuple[int, ...]) -> PatternEntry:
    """The layout's memo entry of the sorted *failed* tuple.

    Planned with the default flags on the first request in this process,
    recording no telemetry (callers narrate what they read from it); the
    memo reaches pool workers inside the pickled layout. Raises
    :class:`DataLossError` for an undecodable set.
    """
    entry = layout.patterns.get(failed)
    if entry is None:
        plan = _plan_recovery_impl(
            layout, failed, True, True, DEFAULT_OFFLOAD_ROUNDS, None
        )
        entry = layout.patterns[failed] = PatternEntry(
            plan.summary(), plan if len(failed) == 1 else None
        )
    return entry


def _plan_recovery_impl(
    layout: Layout,
    failed_disks: Sequence[int],
    balance: bool,
    offload: bool,
    max_offload_rounds: int,
    lost_override: Optional[Set[Cell]],
) -> RecoveryPlan:
    failed = tuple(sorted(set(failed_disks)))
    index = layout.peeling_index()
    if lost_override is not None:
        all_lost = set(lost_override)
        for cell in all_lost:
            if cell not in index.cell_stripes:
                raise LayoutError(f"no such cell {cell} in {layout.name}")
    else:
        all_lost = lost_cells(layout, failed)
    plan = RecoveryPlan(layout.name, failed)
    if not all_lost:
        return plan

    lost = set(all_lost)
    recovered: Set[Cell] = set()
    loads: Dict[int, int] = {}

    # Incremental eligibility: per-stripe lost-cell counts (maintained as
    # cells are repaired) make "which stripes could repair right now" a set
    # lookup instead of a rescan of every candidate stripe per round.
    tolerance = index.stripe_tolerance
    stripe_cells = index.stripe_cells
    stripe_needed = index.stripe_needed
    cell_stripes = index.cell_stripes
    counts = _lost_counts(index, lost)
    eligible = {sid for sid, c in counts.items() if c <= tolerance[sid]}

    # Static fresh-read pools, built lazily per stripe the first time it
    # becomes a candidate: a cell is a possible fresh read iff it is never
    # lost (recovered cells move to the reuse pool, not back to fresh), so
    # the pool is fixed for the whole plan and scoring only re-ranks it by
    # current load instead of re-deriving it from the lost set.
    base_fresh: Dict[int, List[Cell]] = {}

    # Cached scores: stripe id -> (own_peak, n_reads, reads, reuse), kept
    # across rounds. What a score depends on, hence what drops it:
    #   * reads are the n_fresh least-loaded cells of the static pool
    #     (ties by cell, via the stable sort of the pre-sorted pool), so
    #     they depend only on the loads of the pool's disks — a load
    #     change on disk d drops every stripe in pool_stripes[d];
    #   * reuse (and through it n_fresh) depends only on which of the
    #     stripe's cells are recovered — recovering a cell drops every
    #     stripe containing it;
    #   * own_peak = max(load[d] + extra[d]) over the chosen reads, so it
    #     moves only with those same loads.
    # The round key is built from the cached own_peak and n_reads and the
    # *live* peak and counts, so neither of those invalidates anything.
    scored: Dict[int, Tuple[int, int, Tuple[Cell, ...], Tuple[Cell, ...]]] = {}
    pool_stripes: Dict[int, List[int]] = {}
    loads_get = loads.get

    def score(stripe_id: int):
        """``(own_peak, n_reads, reads, reuse)`` of the stripe, now."""
        cells = stripe_cells[stripe_id]
        pool = base_fresh.get(stripe_id)
        if pool is None:
            pool = base_fresh[stripe_id] = sorted(
                c for c in cells if c not in all_lost
            )
            for disk in {c[0] for c in pool}:
                pool_stripes.setdefault(disk, []).append(stripe_id)
        reads, reuse = _select_sources(
            cells, stripe_needed[stripe_id], pool, recovered, loads
        )
        # Loads only grow, so the peak after this repair is the running
        # peak bumped by its own reads — no dict copy, no full re-max.
        own_peak = 0
        bump: Dict[int, int] = {}
        for disk, _addr in reads:
            extra = bump[disk] = bump.get(disk, 0) + 1
            value = loads_get(disk, 0) + extra
            if value > own_peak:
                own_peak = value
        return own_peak, len(reads), tuple(reads), tuple(reuse)

    # The selection below is an argmin over ``(key, stripe_id)``, so the
    # iteration order of ``eligible`` is immaterial — no per-round sort.
    raw_steps: List[Tuple[int, Tuple[Cell, ...], Tuple[Cell, ...], Tuple[Cell, ...]]] = []
    peak = 0
    while lost:
        if not eligible:
            raise DataLossError(
                f"{layout.name}: failure of disks {list(failed)} is not "
                f"recoverable ({len(lost)} cells stranded)"
            )
        if balance:
            best_key = None
            for stripe_id in eligible:
                entry = scored.get(stripe_id)
                if entry is None:
                    entry = scored[stripe_id] = score(stripe_id)
                own_peak = entry[0]
                key = (
                    own_peak if own_peak > peak else peak,
                    -counts[stripe_id],
                    entry[1],
                    stripe_id,
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best = entry
            best_sid = best_key[3]
        else:
            # First-eligible: the key is the stripe id alone, so only the
            # winner needs sourcing.
            best_sid = min(eligible)
            best = score(best_sid)
        _own_peak, _n_reads, fresh, reuse = best
        repairable = tuple(c for c in stripe_cells[best_sid] if c in lost)
        raw_steps.append((best_sid, repairable, fresh, reuse))
        for disk, _addr in fresh:
            value = loads_get(disk, 0) + 1
            loads[disk] = value
            if value > peak:
                peak = value
            for watcher in pool_stripes[disk]:
                scored.pop(watcher, None)
        lost.difference_update(repairable)
        recovered.update(repairable)
        for cell in repairable:
            for other in cell_stripes[cell]:
                scored.pop(other, None)
                counts[other] -= 1
                if 0 < counts[other] <= tolerance[other]:
                    eligible.add(other)
                elif counts[other] == 0:
                    eligible.discard(other)

    # Materialize sources (all direct initially).
    sources_per_step: List[List[ValueSource]] = [
        [ValueSource(cell, None, (cell,)) for cell in fresh]
        for _sid, _targets, fresh, _reuse in raw_steps
    ]

    if offload:
        _offload_pass(index, all_lost, sources_per_step, max_offload_rounds)

    for (stripe_id, targets, _fresh, reuse), sources in zip(
        raw_steps, sources_per_step
    ):
        plan.steps.append(
            RepairStep(stripe_id, targets, tuple(sources), reuse)
        )
    return plan


#: An offload move: the replacement source, its non-zero per-disk load
#: deltas and its change in total reads.
_Move = Tuple[ValueSource, Tuple[Tuple[int, int], ...], int]


def _trial_score(
    changes: Tuple[Tuple[int, int], ...],
    loads_get,
    hist: Dict[int, int],
    levels: List[int],
    limit: int,
) -> Optional[Tuple[int, int]]:
    """``(peak, disks at peak)`` after a move, without building its histogram.

    *changes* are the move's non-zero ``(disk, delta)`` pairs, *hist* the
    current load histogram (load -> disks, zeros dropped) and *levels*
    its loads in descending order. The result is the pair
    ``(max(h), h[max(h)])`` of the histogram ``h`` the move would leave —
    ``(0, 0)`` if it leaves none — read off the few changed disks: the
    base peak is the first level still populated once the changed disks'
    old loads are taken out, and their new loads can only raise it or
    add to its multiplicity. Returns ``None`` as soon as a disk would
    rise above *limit*: that trial's peak cannot beat a best at *limit*.
    """
    olds = []
    news = []
    for disk, change in changes:
        old = loads_get(disk, 0)
        if old + change > limit:
            return None
        olds.append(old)
        news.append(old + change)
    peak = at_peak = 0
    for level in levels:
        left = hist[level] - olds.count(level)
        if left > 0:
            peak, at_peak = level, left
            break
    top = max(news, default=0)
    if top > peak:
        return top, news.count(top)
    if top == peak and peak:
        at_peak += news.count(top)
    return peak, at_peak


def _offload_pass(
    index: PeelingIndex,
    all_lost: Set[Cell],
    sources_per_step: List[List[ValueSource]],
    max_rounds: int,
) -> None:
    """Hill-climb value sourcing to minimize the peak per-disk read load.

    Each needed value may be read directly or decoded from its other
    stripe; moves are accepted only if they strictly improve
    ``(peak load, number of disks at peak, total reads)``. Every round
    tries the moves of the sources that read a peak disk, in
    ``(step, source)`` order, and takes the first best.
    """
    loads: Dict[int, int] = {}
    total = 0
    # Disk -> positions ``(step, source)`` whose current reads touch it:
    # a round's candidates are a lookup per peak disk, not a walk over
    # every source of the plan.
    readers: Dict[int, Set[Tuple[int, int]]] = {}
    for step_idx, sources in enumerate(sources_per_step):
        for src_idx, src in enumerate(sources):
            for disk, _addr in src.reads:
                loads[disk] = loads.get(disk, 0) + 1
                total += 1
                readers.setdefault(disk, set()).add((step_idx, src_idx))
    # Load-value histogram (value -> disks at that value, zeros dropped):
    # move trials are scored against its handful of levels.
    hist: Dict[int, int] = {}
    for value in loads.values():
        hist[value] = hist.get(value, 0) + 1

    # A source is identified by ``(cell, via)`` — its reads follow from
    # those — so the moves away from it, each with its non-zero per-disk
    # load deltas and its change in total reads, are static: computed
    # once, reused by every round and every step that needs the cell.
    move_cache: Dict[Tuple[Cell, Optional[int]], List[_Move]] = {}

    def moves_from(src: ValueSource) -> List[_Move]:
        key = (src.cell, src.via)
        moves = move_cache.get(key)
        if moves is not None:
            return moves
        moves = move_cache[key] = []
        options = [ValueSource(src.cell, None, (src.cell,))]
        for stripe_id, others in _surrogate_options(index, src.cell, all_lost):
            options.append(ValueSource(src.cell, stripe_id, others))
        for alt in options:
            if alt.via == src.via:
                continue
            delta: Dict[int, int] = {}
            for disk, _a in src.reads:
                delta[disk] = delta.get(disk, 0) - 1
            for disk, _a in alt.reads:
                delta[disk] = delta.get(disk, 0) + 1
            changes = tuple((d, c) for d, c in delta.items() if c)
            moves.append((alt, changes, len(alt.reads) - len(src.reads)))
        return moves

    def shift(old: int, new: int) -> None:
        """Move one disk from load *old* to load *new* in the histogram."""
        if old:
            remaining = hist[old] - 1
            if remaining:
                hist[old] = remaining
            else:
                del hist[old]
        if new:
            hist[new] = hist.get(new, 0) + 1

    loads_get = loads.get
    peak = max(hist, default=0)
    current = (peak, hist[peak], total) if peak else (0, 0, 0)
    for _ in range(max_rounds):
        peak = current[0]
        if peak == 0:
            break
        candidates: Set[Tuple[int, int]] = set()
        for disk, value in loads.items():
            if value == peak:
                candidates |= readers[disk]
        levels = sorted(hist, reverse=True)
        best_move = None
        best_score = current
        for position in sorted(candidates):
            src = sources_per_step[position[0]][position[1]]
            for move in moves_from(src):
                trial = _trial_score(
                    move[1], loads_get, hist, levels, best_score[0]
                )
                if trial is None:
                    continue
                trial_score = trial + (total + move[2],)
                if trial_score < best_score:
                    best_score = trial_score
                    best_move = (position, move)
        if best_move is None:
            break
        position, (alt, changes, extra_reads) = best_move
        step_idx, src_idx = position
        for disk, _addr in sources_per_step[step_idx][src_idx].reads:
            readers[disk].discard(position)
        for disk, _addr in alt.reads:
            readers.setdefault(disk, set()).add(position)
        sources_per_step[step_idx][src_idx] = alt
        for disk, change in changes:
            old = loads_get(disk, 0)
            new = old + change
            shift(old, new)
            if new:
                loads[disk] = new
            else:
                del loads[disk]
        total += extra_reads
        current = best_score
