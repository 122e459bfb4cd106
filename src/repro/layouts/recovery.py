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

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import DataLossError, LayoutError
from repro.layouts.base import Cell, DiskPeelingIndex, Layout
from repro.obs.telemetry import NULL_TELEMETRY, ambient, use_telemetry

#: Default cap on the offload hill-climb. Only plans built with it (and
#: the other default flags) may be served from the layout's pattern memo.
DEFAULT_OFFLOAD_ROUNDS = 10_000

#: Entries of one batched-peel slice: its dense ``(row, stripe)`` count
#: table plus its rows' lost-cell incidences (:func:`recoverable_many`).
_PEEL_BUDGET = 1 << 16

#: Table entries of one planner slice (:func:`_plan_rows`) and of one run
#: of offload rows (:func:`_offload`): a few MiB of arrays each.
_PLAN_BUDGET = 1 << 18


def _disk_ids(layout: Layout, disks: Iterable[int]) -> List[int]:
    """Each of *disks* checked by :meth:`Layout.check_disk`."""
    return [layout.check_disk(disk) for disk in disks]


def _failed_set(layout: Layout, failed_disks: Iterable[int]) -> Tuple[int, ...]:
    """The checked failed set as a sorted tuple without repeats."""
    return tuple(sorted(set(_disk_ids(layout, failed_disks))))


def _cell_mask(layout: Layout, cells: Iterable[Cell]) -> np.ndarray:
    """The ``(n_cells,)`` bool mask of an explicit lost-cell set, each cell
    checked by :meth:`Layout.cell_id`."""
    mask = np.zeros(layout.n_disks * layout.units_per_disk, dtype=bool)
    mask[[layout.cell_id(cell) for cell in cells]] = True
    return mask


def lost_cells(layout: Layout, failed_disks: Iterable[int]) -> Set[Cell]:
    """All cells of the layout cycle residing on the failed disks."""
    return {
        (disk, addr)
        for disk in set(_disk_ids(layout, failed_disks))
        for addr in range(layout.units_per_disk)
    }


def cells_recoverable(layout: Layout, cells: Iterable[Cell]) -> bool:
    """True if an explicit lost-*cell* set is decodable by peeling.

    The cell-granular twin of :func:`is_recoverable` (a rebuild's latent
    sector errors strand single units beside the failed disks' cells),
    without the memo: the one-row call of :func:`_peel_rows`. A cell
    :meth:`Layout.cell_id` refuses raises :class:`LayoutError`. Records
    no telemetry.
    """
    (cells,) = _cell_mask(layout, cells).nonzero()
    index = layout.disk_peeling_index()
    return bool(_peel_rows(index, np.zeros_like(cells), cells, 1)[0])


def guaranteed_tolerance(layout: Layout) -> int:
    """Failure count any pattern of which the layout certainly survives.

    The *declared* tolerance, a safe lower bound: OI-RAID's
    ``design_tolerance``, else the minimum stripe tolerance (``t``
    failures cost a stripe at most ``t`` cells). The *verified* one,
    :func:`repro.core.tolerance.guaranteed_tolerance`, enumerates and can
    be higher (``hierarchical`` 1 vs 3, ``lrc`` 1 vs 2, ``xorbas`` 1 vs 4).
    """
    declared = getattr(layout, "design_tolerance", None)
    if declared is not None:
        return int(declared)
    return int(layout.stripe_tolerance.min())


def _decide(layout: Layout, keys: List[Tuple[int, ...]]) -> List[bool]:
    """:func:`recoverable_many` of sorted failed sets; each loss memoised."""
    verdicts = recoverable_many(layout, failure_matrix(layout, keys)).tolist()
    for key, verdict in zip(keys, verdicts):
        if not verdict:
            layout.patterns[key] = DataLossError(
                f"{layout.name}: failure of disks {list(key)} is not recoverable"
            )
    return verdicts


def is_recoverable(layout: Layout, failed_disks: Iterable[int]) -> bool:
    """True if the failure pattern is decodable by iterative peeling.

    Peeling is exact (not merely sufficient) for the layouts in this
    library: every stripe is MDS on its own cells, stripes share at most
    one cell pairwise, and no cell is parity in two stripes — so any
    decodable pattern is decodable greedily, in any order. *failed_disks*
    may be any iterable of disk ids (set, tuple, generator). Peels only
    on a memo miss (:func:`_decide`), and counts one
    ``recovery.oracle_calls`` per call, hit or miss, as a peel does.
    """
    key = _failed_set(layout, failed_disks)
    entry = layout.patterns.get(key)
    if entry is None:
        return _decide(layout, [key])[0]
    ambient().count("recovery.oracle_calls")
    return not isinstance(entry, DataLossError)


def failure_matrix(layout: Layout, patterns: Sequence[Iterable[int]]) -> np.ndarray:
    """The ``(len(patterns), n_disks)`` bool matrix of disk-id failed sets."""
    patterns = [_disk_ids(layout, pattern) for pattern in patterns]
    disks = np.array([d for pattern in patterns for d in pattern], np.intp)
    down = np.zeros((len(patterns), layout.n_disks), dtype=bool)
    down[np.repeat(np.arange(len(patterns)), list(map(len, patterns))), disks] = True
    return down


def recoverable_many(layout: Layout, down: np.ndarray) -> np.ndarray:
    """:func:`is_recoverable` of every row of a ``(B, n_disks)`` bool matrix,
    without the memo.

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
    u = index.units_per_disk
    per_disk = index.cell_stripes.size // layout.n_disks  # padded incidences
    row_size = index.n_stripes + 1 + per_disk * int(down.sum(axis=1).max(initial=0))
    step = max(1, _PEEL_BUDGET // row_size)
    verdicts = []
    for start in range(0, len(down) or 1, step):
        block = down[start:start + step]
        rows, disks = np.nonzero(block)
        cells = (disks[:, None] * u + np.arange(u)).ravel()
        verdicts.append(_peel_rows(index, np.repeat(rows, u), cells, len(block)))
    return np.concatenate(verdicts)


def _peel_rows(
    index: DiskPeelingIndex, rows: np.ndarray, cells: np.ndarray, n_rows: int
) -> np.ndarray:
    """Peeling of *n_rows* lost-cell sets as one batched fixpoint.

    Row ``rows[i]`` has lost cell ``cells[i]`` (ids ``disk *
    units_per_disk + addr``, each at most once a row). Each round counts
    the lost ``(row, cell)`` incidences per ``(row, stripe)`` with one
    ``bincount`` and drops every lost cell with an eligible stripe. A row
    that drops nothing is at its fixpoint and unrecoverable; one whose
    cells all drop is recoverable. Peeling is confluent, so any order's
    answer is this one (DESIGN.md, "Indexed incremental peeling"). Keys
    start dense, ``row * (n_stripes + 1) + stripe``; once a big key space
    is under a quarter full, ``np.unique`` renumbers the survivors, so the
    first round sorts nothing.
    """
    tolerance = index.cell_tolerance[cells]
    keys = rows[:, None] * (index.n_stripes + 1) + index.cell_stripes[cells]
    n_keys = n_rows * (index.n_stripes + 1)
    verdict = np.ones(n_rows, dtype=bool)
    while len(rows):
        counts = np.bincount(keys.ravel(), minlength=n_keys)
        drop = (counts[keys] <= tolerance).any(axis=1)
        moved = np.bincount(rows[drop], minlength=n_rows).astype(bool)[rows]
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
    """What ``layout.patterns`` holds for one decodable sorted failed set.

    The default-flag plan's summary, the plan itself for a single failure
    only (keeping multi-failure plans costs a mission walk's memory), and
    ``(seconds, bytes read)`` per rebuild config, keyed by its ``repr`` and
    filled by :class:`repro.sim.rebuild.RebuildTimer`. An undecodable set's
    memo value is its :class:`DataLossError` instead: a memoised loss.
    """

    summary: PlanSummary
    plan: Optional[RecoveryPlan]
    clocks: Dict[str, Tuple[float, float]] = field(default_factory=dict)


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
    cells = layout.stripe_table().cells
    ptr, members = layout.stripe_ptr.tolist(), layout.stripe_cell.tolist()
    flags = layout.is_parity.tolist()
    table: Dict[int, set] = {}
    for a, b in zip(ptr, ptr[1:]):
        pdisks = {cells[c][0] for c, f in zip(members[a:b], flags[a:b]) if f}
        for c in members[a:b]:
            table.setdefault(c, set()).update(pdisks - {cells[c][0]})
    result = {cells[c]: tuple(sorted(disks)) for c, disks in table.items()}
    layout._parity_disk_table = result
    return result


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

    The one-row call of :func:`plan_many`. Single-disk patterns planned
    with the default flags are served from the layout's pattern memo
    (:func:`pattern_entry`), since they dominate planning traffic
    (rebuild clocks, lifecycle repair times, the serve fast path all
    start from one). Each hit returns a fresh :class:`RecoveryPlan` that
    shares the immutable steps, so callers may extend their copy freely.
    """
    failed = _failed_set(layout, failed_disks)
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
            lost = None
            if lost_override is not None:
                lost = _cell_mask(layout, lost_override)[None]
            (plan,) = _plan_rows(
                layout, [failed], lost, balance, offload, max_offload_rounds
            )
            if isinstance(plan, DataLossError):
                raise plan
    if tel.enabled:
        tel.count("recovery.plans")
        tel.observe("recovery.plan_steps", len(plan.steps))
        tel.observe("recovery.plan_read_units", plan.total_read_units)
    return plan


def plan_many(
    layout: Layout,
    patterns: Sequence[Iterable[int]],
    balance: bool = True,
    offload: bool = True,
    max_offload_rounds: int = DEFAULT_OFFLOAD_ROUNDS,
) -> List[Union[RecoveryPlan, DataLossError]]:
    """:func:`plan_recovery` of every failed set, planned in lockstep.

    Row *i* gets the plan ``plan_recovery(layout, patterns[i], ...)``
    returns, or in its place the :class:`DataLossError` it raises.
    Bypasses the pattern memo and records no telemetry.
    """
    failed = [_failed_set(layout, pattern) for pattern in patterns]
    return _plan_rows(layout, failed, None, balance, offload, max_offload_rounds)


def pattern_entry(layout: Layout, failed: Iterable[int]) -> PatternEntry:
    """The layout's memo entry of the failed set *failed*.

    Planned with the default flags on the first request in this process,
    recording no telemetry (callers narrate what they read from it); the
    memo reaches pool workers inside the pickled layout. Raises the
    memoised :class:`DataLossError` of an undecodable set. The one-row
    call of :func:`pattern_entries`.
    """
    # Memo keys are checked sorted tuples of ints, so a hit on a tuple of
    # ints is one; anything else goes through the check.
    entry = None
    if type(failed) is tuple and all(type(disk) is int for disk in failed):
        entry = layout.patterns.get(failed)
    if entry is None:
        (entry,) = pattern_entries(layout, [failed])
    if isinstance(entry, DataLossError):
        raise DataLossError(*entry.args)  # a fresh one: the memo's holds no frames
    return entry


def pattern_entries(
    layout: Layout, patterns: Sequence[Iterable[int]]
) -> List[Union[PatternEntry, DataLossError]]:
    """:func:`pattern_entry` of every pattern; misses are one batch.

    Misses past :func:`guaranteed_tolerance` are decided by one silent
    :func:`_decide`; the decodable rest are planned by one
    :func:`_plan_rows` call. Row *i* gets its entry or, in its place, its
    memoised :class:`DataLossError`, as :func:`plan_many` does.
    """
    keys = [_failed_set(layout, pattern) for pattern in patterns]
    missing = [key for key in dict.fromkeys(keys) if key not in layout.patterns]
    tolerance = guaranteed_tolerance(layout)
    hard = [key for key in missing if len(key) > tolerance]
    if hard:
        with use_telemetry(NULL_TELEMETRY):
            _decide(layout, hard)
        missing = [key for key in missing if key not in layout.patterns]
    outcomes = _plan_rows(layout, missing, None, True, True, DEFAULT_OFFLOAD_ROUNDS)
    for key, plan in zip(missing, outcomes):
        layout.patterns[key] = plan if isinstance(plan, DataLossError) else (
            PatternEntry(plan.summary(), plan if len(key) == 1 else None)
        )
    return [layout.patterns[key] for key in keys]


#: Sorts after every real ``load * stride + cell`` key: not a fresh read.
_NOT_FRESH = np.iinfo(np.int64).max
#: The load of the padding disk: never at the peak, whatever it is moved by.
_NO_DISK = -(1 << 30)
#: The offload's loads are int32; ``ufunc.at`` is only fast with a value
#: of the array's own dtype.
_ONE = np.int32(1)


def _plan_rows(
    layout: Layout,
    failed: List[Tuple[int, ...]],
    lost: Optional[np.ndarray],
    balance: bool,
    offload: bool,
    max_rounds: int,
) -> List[Union[RecoveryPlan, DataLossError]]:
    """The planner: row *i* plans the sorted failed set ``failed[i]``.

    *lost* is the ``(rows, n_cells)`` lost-cell mask, or ``None`` for the
    failed disks' cells. Rows go in even slices whose greedy tables, a
    ``(stripe, position)`` cell grid and a ``(cell, stripe)`` incidence
    table per row, hold about ``_PLAN_BUDGET`` entries; a slice holds at
    least one row, so a layout too big for the budget is planned a row
    at a time.
    """
    if max_rounds < 0:
        raise LayoutError(f"max_offload_rounds must be >= 0, got {max_rounds}")
    if not failed:
        return []
    table = layout.stripe_table()
    per_row = table.stripe_cells.size + layout.disk_peeling_index().cell_stripes.size
    slices = -(-len(failed) * per_row // _PLAN_BUDGET)
    step = -(-len(failed) // slices)
    plans: List[Union[RecoveryPlan, DataLossError]] = []
    for start in range(0, len(failed), step):
        plans += _plan_slice(
            layout, table, failed[start:start + step],
            None if lost is None else lost[start:start + step],
            balance, offload, max_rounds,
        )
    return plans


def _plan_slice(layout, table, failed, lost, balance, offload, max_rounds):
    """:func:`_plan_rows` of one slice of rows.

    The greedy stripe choice (:func:`_greedy`) and the offload hill-climb
    (:func:`_offload`) each advance every row one step per round of numpy
    calls; the plans are built as objects last.
    """
    u = layout.units_per_disk
    if lost is None:
        down = np.zeros((len(failed), layout.n_disks), dtype=bool)
        for row, disks in enumerate(failed):
            down[row, list(disks)] = True
        lost = np.repeat(down, u, axis=1)
    steps, stranded, clean = _greedy(layout, table, lost, balance)
    row, _sid, cells, _state, load, n_fresh = steps
    stride = (layout.n_disks + 1) * u
    key = np.where(load < 0, _NOT_FRESH, load * stride + cells)
    key.sort(axis=1)
    fresh = key[np.arange(key.shape[1]) < n_fresh[:, None]] % stride
    choice = np.zeros(len(fresh), dtype=np.intp)
    if offload and max_rounds:
        choice = _offload(
            layout, table, fresh, np.repeat(row, n_fresh), clean, max_rounds
        )
    return _plans(layout, table, failed, steps, fresh, choice, stranded)


def _n_fresh(state, spare):
    """Each step's fresh reads: its lost cells (``state == 2`` down a
    column of the ``(width, steps)`` *state*) less *spare*, at least 0."""
    return np.maximum(np.add.reduce(state == 2, 0, dtype=np.int64) - spare, 0)


def _greedy(layout: Layout, table, lost: np.ndarray, balance: bool):
    """Repair-stripe choice for every row of *lost*, one step per round.

    A row's step is one argmin over its eligible stripes (lost count in
    ``(0, tolerance]``) of the composite int64 key ``(max(own_peak,
    peak), -count, n_reads, stripe)``, or of the stripe alone without
    *balance*. A stripe's reads are its ``n_fresh`` least-loaded
    never-lost cells, ties by cell (the sorted ``load * stride + cell``
    keys), after reusing up to ``needed`` recovered cells; ``own_peak``
    is the highest load they leave, counting a disk read twice twice.
    Only stripes that lose a cell in some row can ever be eligible, so
    the rounds work on those alone, as flat ``(row, stripe)`` slots;
    per-cell arrays are ``(width, slots)``, so reducing over a stripe's
    cells is elementwise.

    Returns the steps of the rows that finish, ordered by ``(row,
    step)``: row, stripe, its cells, their states (0 never lost, 1
    recovered, 2 lost, 3 padding), their loads before the step (-1 off
    the fresh pool) and ``n_fresh``. Then ``{row: cells stranded}`` of
    the rows that stall, and the ``(rows, n_stripes + 2)`` mask of
    stripes with no lost cell (column ``n_stripes``, a direct read, is
    set; ``n_stripes + 1``, padding, is not).
    """
    n_rows, n_cells = lost.shape
    n_disks, u = layout.n_disks, layout.units_per_disk
    cell_stripes = layout.disk_peeling_index().cell_stripes
    n_stripes = len(table.needed) - 1
    span = n_disks + 1  # a row's loads; the last column is padding's, -1
    stride = span * u  # a read key is load * stride + cell
    rows, cells = lost.nonzero()
    counts = np.bincount(
        (rows[:, None] * (n_stripes + 1) + cell_stripes[cells]).ravel(),
        minlength=n_rows * (n_stripes + 1),
    ).reshape(n_rows, n_stripes + 1)
    clean = np.zeros((n_rows, n_stripes + 2), dtype=bool)
    clean[:, :-1] = counts == 0
    clean[:, -2] = True
    # Local stripe ids: the stripes some row loses a cell of, then padding.
    stripes = np.append(counts[:, :-1].any(axis=0).nonzero()[0], n_stripes)
    t1 = len(stripes)
    local = np.full(n_stripes + 1, t1 - 1)
    local[stripes] = np.arange(t1)
    n_slots = n_rows * t1
    s_cells = table.stripe_cells[stripes].T  # (width, local stripes)
    width = len(s_cells)
    tol1 = int(table.tolerance.max()) + 1
    state = np.full((n_rows, n_cells + 1), 3, dtype=np.int8)
    state[:, :n_cells] = lost * np.int8(2)
    state = state.ravel()
    cell_base = np.arange(n_rows) * (n_cells + 1)
    # Per slot: the lost count (uint16, so ``count - 1 < tolerance`` is
    # eligibility), its tolerance, and ``lost at start - needed``: a
    # stripe reads ``max(count - that, 0)`` fresh cells. Per (cell,
    # slot): the flat load index of a never-lost cell, or of padding.
    counts = counts[:, stripes].astype(np.uint16).ravel()
    tolerance = np.tile(table.tolerance[stripes].astype(np.uint16), n_rows)
    spare = counts - np.tile(table.needed[stripes].astype(np.int32), n_rows)
    fresh = state.reshape(n_rows, n_cells + 1)[:, s_cells].transpose(1, 0, 2) == 0
    at_load = np.where(fresh, (s_cells // u).astype(np.int32)[:, None], n_disks)
    at_load += (np.arange(n_rows, dtype=np.int32) * span)[:, None]
    at_load = at_load.reshape(width, n_slots)
    loads = np.zeros(n_rows * span, dtype=np.int64)
    padding = np.arange(n_rows) * span + n_disks
    loads[padding] = -1
    peak = np.zeros(n_rows, dtype=np.int64)
    # Per (cell, slot), the flat state index of the cell; per flat state
    # index, the slots of the cell's stripes.
    slot_cells = (s_cells[:, None] + cell_base[:, None].astype(np.int32)).reshape(width, n_slots)
    cell_slots = np.full((n_rows, n_cells + 1, cell_stripes.shape[1]), t1 - 1, dtype=np.int32)
    cell_slots[:, :n_cells] = local.take(cell_stripes)
    cell_slots += (np.arange(n_rows, dtype=np.int32) * t1)[:, None, None]
    cell_slots = cell_slots.reshape(-1, cell_stripes.shape[1])
    # With tolerance 1 an eligible stripe has one lost cell and reads
    # every fresh cell it has, so its key past the peak is static and,
    # without a repeated disk, its own peak is its busiest fresh disk's
    # load + 1 (0 with none: padding's load is -1).
    general = table.repeats_disks or tol1 > 2
    scale = tol1 * (width + 1) * n_slots if balance else 0
    tails = np.arange(n_slots, dtype=np.int64)
    tails += ((tol1 - 1) * (width + 1) + np.maximum(1 - spare, 0)) * n_slots
    rank_of = np.arange(width)[:, None]
    none = np.iinfo(np.int64).max
    every = np.arange(n_rows)
    done = np.zeros(n_rows, dtype=bool)
    stranded: Dict[int, int] = {}
    record = []
    while True:
        slots = (counts - 1 < tolerance).nonzero()[0]
        rows = slots // t1
        load = loads.take(at_load.take(slots, axis=1))  # (width, candidates)
        if general:
            count = counts.take(slots).astype(np.int64)
            n_fresh = np.maximum(count - spare.take(slots), 0)
            key = np.where(load < 0, _NOT_FRESH, load * stride + s_cells.take(slots % t1, axis=1))
            key.sort(axis=0)
            disk = key // u  # (load, disk) of each read
            repeat = ((disk[:, None] == disk[None]) & (rank_of[:, None] >= rank_of)).sum(axis=1)
            own = np.maximum.reduce(np.where(rank_of < n_fresh, key // stride + repeat, 0), 0)
            tail = ((tol1 - count) * (width + 1) + n_fresh) * n_slots + slots
        else:
            own = np.maximum.reduce(load, 0) + 1
            tail = tails.take(slots)
        rank = np.maximum(own, peak.take(rows)) * scale + tail if balance else slots
        best = np.full(n_rows, none)
        np.minimum.at(best, rows, rank)
        acting = best < none
        if acting.all():
            act, win = every, best % n_slots
        else:
            for row in (~acting & ~done).nonzero()[0].tolist():
                lost_now = int((state[cell_base[row]:cell_base[row] + n_cells] == 2).sum())
                if lost_now:
                    stranded[row] = lost_now
            done |= ~acting
            act = acting.nonzero()[0]
            if not len(act):
                break
            win = best.take(act) % n_slots
        w_at = at_load.take(win, axis=1)
        w_load = loads.take(w_at)
        at_state = slot_cells.take(win, axis=1)
        st = state.take(at_state)
        if general:  # the n_fresh least-loaded fresh cells; else all of them
            key = np.where(w_load < 0, _NOT_FRESH, w_load * stride + s_cells.take(win % t1, axis=1))
            key.sort(axis=0)
            w_at = (key % stride // u + act * span)[rank_of < _n_fresh(st, spare.take(win))]
        record.append((act, win, st, w_load))
        np.add.at(loads, w_at.ravel(), 1)
        loads[padding] = -1
        peak = np.maximum.reduce(loads.reshape(n_rows, span), 1)
        targets = at_state[st == 2]
        state[targets] = 1
        np.subtract.at(counts, cell_slots.take(targets, axis=0).ravel(), np.uint16(1))
    if record:
        row, win, st, load = (np.concatenate(f, axis=-1) for f in zip(*record))
    else:
        row = win = np.zeros(0, dtype=np.intp)
        st, load = np.zeros((width, 0), np.int8), np.zeros((width, 0), np.intp)
    order = np.argsort(row, kind="stable")
    order = order[~np.isin(row.take(order), list(stranded))]
    win, st = win.take(order), st.take(order, axis=1)
    t = win % t1
    steps = (
        row.take(order), stripes.take(t), s_cells.take(t, axis=1).T, st.T,
        load.take(order, axis=1).T, _n_fresh(st, spare.take(win)),
    )
    return steps, stranded, clean


def _sourcing(layout: Layout, table, cells):
    """Every way to source each of *cells*: ``(cells, reads, stripe)``.

    Per cell and option, ``(len(cells), max stripes per cell + 1, ...)``:
    the cells it reads (padded), how many, and the stripe it decodes
    from. Option 0 reads the cell itself (stripe ``n_stripes``); option
    *j* reads the other cells of the cell's *j*-th stripe (stripe
    ``n_stripes + 1`` where the cell has no *j*-th).
    """
    n_cells = layout.n_disks * layout.units_per_disk
    stripe_cells = table.stripe_cells
    width = stripe_cells.shape[1]
    n_stripes = len(stripe_cells) - 1
    via = layout.disk_peeling_index().cell_stripes.take(cells, axis=0)
    skip = np.array([[k for k in range(width) if k != at] for at in range(width)])
    others = stripe_cells[via[:, :, None], skip[table.cell_positions.take(cells, axis=0)]]
    direct = np.full((len(cells), 1, width - 1), n_cells)
    direct[:, 0, 0] = cells
    option_cells = np.concatenate([direct, others], axis=1)
    widths = table.needed + table.tolerance
    option_reads = np.concatenate(
        [np.ones((len(cells), 1), dtype=np.intp), np.maximum(widths.take(via) - 1, 0)],
        axis=1,
    )
    option_stripe = np.concatenate(
        [np.full((len(cells), 1), n_stripes), via + (via == n_stripes)], axis=1
    )
    return option_cells, option_reads, option_stripe


def _move_peaks(loads, rows, add, remove):
    """``(peak, disks at peak)`` of every move, and its loads.

    Move *m* copies row ``rows[m]`` of the int32 *loads*, adds one read
    to each column of ``add[m]`` and takes one from each of
    ``remove[m]`` (a repeated column counts twice). Its pair is the
    highest load the copy holds and how many columns hold it, ``(0, 0)``
    if nothing is left: the peak and multiplicity of the load histogram
    the move leaves, read off the dense copy.
    """
    span = loads.shape[1]
    offset = np.arange(0, len(rows) * span, span)[:, None]
    after = loads.take(rows, axis=0)
    np.add.at(after.ravel(), (add + offset).ravel(), _ONE)
    np.subtract.at(after.ravel(), (remove + offset).ravel(), _ONE)
    top = np.maximum.reduce(after, 1)
    at_top = np.add.reduce((after == top[:, None]).view(np.uint8), 1, dtype=np.int64)
    return top.astype(np.int64), at_top * (top > 0), after


def _offload(layout: Layout, table, fresh, rows, clean, max_rounds: int):
    """The source option of every fresh read after the offload hill-climb.

    The fresh reads' cells are *fresh*, in ``(row, step, source)`` order,
    with *rows* their rows. Each is first read directly (option 0);
    option *j* decodes it from the other cells of its *j*-th stripe and
    is allowed where *clean* says that stripe lost nothing. A read with
    no allowed option but its direct one never moves, so only the others
    get option tables (:func:`_sourcing`) and climb (:func:`_climb`);
    they do so over runs of rows whose tables and moves hold about
    ``_PLAN_BUDGET`` entries, the fixed reads adding only their loads.
    """
    index = layout.disk_peeling_index()
    u, span = layout.units_per_disk, layout.n_disks + 1
    via = index.cell_stripes.take(fresh, axis=0)
    via += via == index.n_stripes  # padding: the never-clean column
    movable = clean[rows[:, None], via].any(axis=1)
    per_row = np.bincount(rows[movable], minlength=len(clean))
    cost = per_row * (via.shape[1] + 1) * (table.stripe_cells.shape[1] + span)
    group = np.cumsum(cost) // _PLAN_BUDGET
    starts = np.append(0, np.flatnonzero(np.diff(group)) + 1)
    choice = np.zeros(len(fresh), dtype=np.intp)
    for first, last in zip(starts.tolist(), [*starts[1:].tolist(), len(clean)]):
        if not per_row[first:last].any():
            continue
        begin, end = rows.searchsorted([first, last])
        moving = begin + movable[begin:end].nonzero()[0]
        loads = np.bincount(
            (rows[begin:end] - first) * span + fresh[begin:end] // u,
            minlength=(last - first) * span,
        )
        choice[moving] = _climb(
            _sourcing(layout, table, fresh.take(moving)),
            loads.reshape(-1, span).astype(np.int32), rows.take(moving) - first,
            clean[first:last], u, max_rounds,
        )
    return choice


def _climb(sourcing, loads, rows, clean, u: int, max_rounds: int):
    """The offload hill-climb of some reads, each first read directly.

    *sourcing* holds the reads' options (:func:`_sourcing`), *rows* their
    rows and *loads* the ``(rows, n_disks + 1)`` per-disk reads of every
    read of those rows, last column padding. A round of a row scores
    every move of every read that touches a peak disk — each allowed
    option but the current one — as the integer ``(peak, disks at peak,
    total reads)`` (:func:`_move_peaks`; the total relative to the row's
    current one), and accepts the lexicographic minimum over ``(score,
    read, option)`` if its score beats the row's current one: the first
    strictly best move of a walk in that order. A row stops at its first
    round with no better move; all rows stop after *max_rounds*.
    """
    n_rows, span = loads.shape
    option_cells, option_reads, option_stripe = sourcing
    n_reads, n_options, width = option_cells.shape
    option_cells = option_cells.reshape(-1, width)
    option_reads = option_reads.ravel()
    options = np.arange(n_options)
    choice = np.zeros(n_reads, dtype=np.intp)
    base = np.arange(0, n_reads * n_options, n_options)  # each read's option 0
    reads = option_cells.take(base, axis=0).T // u  # (width, reads) disks
    count = option_reads.take(base)  # the current option's reads
    valid = clean[rows[:, None], option_stripe]
    loads[:, -1] = _NO_DISK
    peak = np.maximum.reduce(loads, 1).astype(np.int64)
    # A move changes the total by at most ``width`` reads either way, so
    # ``(peak * span + at peak) * bound + change`` orders lexicographically.
    bound = 2 * width + 1
    score = (peak * span + (loads == peak[:, None]).sum(axis=1)) * bound
    if (n_reads * width * span + span) * bound * n_reads * n_options >= 1 << 62:
        raise LayoutError("recovery plan too large for the offload's int64 scores")
    none = np.iinfo(np.int64).max
    ids, mine = np.arange(n_reads), choice
    going = (peak > 0).take(rows)
    climbing = -1  # rows still climbing, once known
    for _ in range(max_rounds + 1):
        if not going.all():
            choice[ids] = mine
            ids, rows, base, count, valid, mine = (
                a[going] for a in (ids, rows, base, count, valid, mine)
            )
            reads, going = reads[:, going], going[going]
        if not len(ids) or _ == max_rounds:
            break
        at_peak = (loads == peak[:, None]).ravel()
        cand = at_peak.take(reads + rows * span).any(axis=0).nonzero()[0]
        which, alt = (
            valid.take(cand, axis=0) & (options != mine.take(cand)[:, None])
        ).nonzero()
        move = cand.take(which)
        m_rows = rows.take(move)
        code = base.take(move) + alt
        new = option_cells.take(code, axis=0) // u  # (moves, width)
        n_moves = len(move)
        top, at_top, after = _move_peaks(loads, m_rows, new, reads.take(move, axis=1).T)
        added = option_reads.take(code)
        peaks = (top * span + at_top) * bound
        trial = peaks + (added - count.take(move))
        pick = np.full(n_rows, none)
        np.minimum.at(pick, m_rows, trial * n_moves + np.arange(n_moves))
        up = (pick // max(n_moves, 1) < score).nonzero()[0]
        win = pick.take(up) % n_moves
        taken = move.take(win)
        mine[taken], count[taken] = alt.take(win), added.take(win)
        reads[:, taken] = new.take(win, axis=0).T
        loads[up] = after.take(win, axis=0)
        peak[up], score[up] = top.take(win), peaks.take(win)
        if len(up) != climbing or not peak.take(up).all():
            on = np.zeros(n_rows, dtype=bool)
            on[up] = peak.take(up) > 0
            going, climbing = on.take(rows), int(on.sum())
    choice[ids] = mine
    return choice


def _plans(layout, table, failed, steps, fresh, choice, stranded):
    """Plan objects of the greedy *steps*, each read sourced by its *choice*."""

    def cells_of(ids) -> List[Cell]:
        return list(map(table.cells.__getitem__, ids.tolist()))

    row, sid, cells, state, _load, n_fresh = steps
    hit = state == 2
    recovered = state == 1
    n_reuse = table.needed[sid] - n_fresh
    reuse = recovered & (np.cumsum(recovered, axis=1) <= n_reuse[:, None])
    targets, reuses = cells_of(cells[hit]), cells_of(cells[reuse])
    sources = [ValueSource(cell, None, (cell,)) for cell in cells_of(fresh)]
    moved = choice.nonzero()[0]
    picked = np.arange(len(moved)), choice.take(moved)
    options, n_reads, via = (o[picked] for o in _sourcing(layout, table, fresh.take(moved)))
    surrogate = cells_of(options[np.arange(options.shape[1]) < n_reads[:, None]])
    end = 0
    for at, stripe, count in zip(moved.tolist(), via.tolist(), n_reads.tolist()):
        start, end = end, end + count
        sources[at] = ValueSource(sources[at].cell, stripe, tuple(surrogate[start:end]))
    plans: List[Union[RecoveryPlan, DataLossError]] = [
        RecoveryPlan(layout.name, disks) for disks in failed
    ]
    t = s = r = 0
    for owner, stripe, n_hit, n_src, n_reused in zip(
        row.tolist(), sid.tolist(), hit.sum(axis=1).tolist(),
        n_fresh.tolist(), reuse.sum(axis=1).tolist(),
    ):
        plans[owner].steps.append(RepairStep(
            stripe, tuple(targets[t:t + n_hit]), tuple(sources[s:s + n_src]),
            tuple(reuses[r:r + n_reused]),
        ))
        t, s, r = t + n_hit, s + n_src, r + n_reused
    for owner, count in stranded.items():
        plans[owner] = DataLossError(
            f"{layout.name}: failure of disks {list(failed[owner])} is not "
            f"recoverable ({count} cells stranded)"
        )
    return plans
