"""The pre-PR-13 recovery planner, kept verbatim as the equality reference.

``_surrogate_options``, ``_select_sources``, ``_plan_recovery_impl`` and
``_offload_pass`` are the bodies ``repro.layouts.recovery`` shipped before
the planner became incremental: every greedy round re-scores every
eligible stripe, and every offload trial copies the load histogram.
``test_planner_equivalence.py`` requires ``plan_recovery`` to return plans
``==`` to these for every input. Do not optimise this file.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import DataLossError
from repro.layouts.base import Cell, Layout, Stripe
from repro.layouts.recovery import (
    RecoveryPlan,
    RepairStep,
    ValueSource,
    lost_cells,
)
from tests.layouts.reference_peel import _lost_counts, peeling_index


def reference_plan(
    layout: Layout,
    failed_disks: Sequence[int],
    balance: bool = True,
    offload: bool = True,
    max_offload_rounds: int = 10_000,
    lost_override: Optional[Set[Cell]] = None,
) -> RecoveryPlan:
    """``plan_recovery`` without the plan cache, span or counters."""
    return _plan_recovery_impl(
        layout, failed_disks, balance, offload, max_offload_rounds,
        lost_override,
    )


def _surrogate_options(
    layout: Layout, cell: Cell, lost_or_target: Set[Cell]
) -> List[Tuple[int, Tuple[Cell, ...]]]:
    """Stripes that can decode *cell* purely from online, un-lost cells."""
    options = []
    for stripe_id in layout.stripes_containing(cell):
        stripe = layout.stripes[stripe_id]
        if stripe.tolerance < 1:
            continue
        others = tuple(c for c in stripe.cells() if c != cell)
        if any(c in lost_or_target for c in others):
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
    in the failure's lost set, pre-sorted by cell — so the per-round work
    is one stable re-sort by current load (ties break by cell, exactly the
    old ``(load, cell)`` composite key) instead of rebuilding and
    re-keying the survivor list from scratch every scoring call.
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


def _plan_recovery_impl(
    layout: Layout,
    failed_disks: Sequence[int],
    balance: bool,
    offload: bool,
    max_offload_rounds: int,
    lost_override: Optional[Set[Cell]],
) -> RecoveryPlan:
    failed = tuple(sorted(set(failed_disks)))
    all_lost = (
        set(lost_override)
        if lost_override is not None
        else lost_cells(layout, failed)
    )
    plan = RecoveryPlan(layout.name, failed)
    if not all_lost:
        return plan

    lost = set(all_lost)
    recovered: Set[Cell] = set()
    loads: Dict[int, int] = {}

    # Incremental eligibility: per-stripe lost-cell counts (maintained as
    # cells are repaired) make "which stripes could repair right now" a set
    # lookup instead of a rescan of every candidate stripe per round.
    index = peeling_index(layout)
    tolerance = index.stripe_tolerance
    stripe_cells = index.stripe_cells
    stripe_needed = index.stripe_needed
    counts = _lost_counts(index, lost)
    eligible = {sid for sid, c in counts.items() if c <= tolerance[sid]}

    # Static fresh-read pools, built lazily per stripe the first time it
    # becomes a candidate: a cell is a possible fresh read iff it is never
    # lost (recovered cells move to the reuse pool, not back to fresh), so
    # the pool is fixed for the whole plan and scoring rounds only re-rank
    # it by current load instead of re-deriving it from the lost set.
    base_fresh: Dict[int, List[Cell]] = {}

    # The selection below is an argmin over ``(key, stripe_id)``, so the
    # iteration order of ``eligible`` is immaterial — no per-round sort.
    raw_steps: List[Tuple[Stripe, Tuple[Cell, ...], Tuple[Cell, ...], Tuple[Cell, ...]]] = []
    peak = 0
    loads_get = loads.get
    while lost:
        best_key = None
        best_sid = -1
        best_fresh: List[Cell] = []
        best_reuse: List[Cell] = []
        for stripe_id in eligible:
            cells = stripe_cells[stripe_id]
            pool = base_fresh.get(stripe_id)
            if pool is None:
                pool = base_fresh[stripe_id] = sorted(
                    c for c in cells if c not in all_lost
                )
            # Sourcing is a pure function of state that is frozen for the
            # whole round, so the scoring call doubles as the final one —
            # the winner's picks are kept instead of recomputed.
            reads, reuse = _select_sources(
                cells, stripe_needed[stripe_id], pool, recovered, loads
            )
            if balance:
                # Loads only grow within a round, so the candidate peak is
                # the running peak bumped by this candidate's own reads —
                # no dict copy, no full re-max.
                cand_peak = peak
                if reads:
                    bump: Dict[int, int] = {}
                    for disk, _addr in reads:
                        bump[disk] = bump.get(disk, 0) + 1
                    for disk, extra in bump.items():
                        value = loads_get(disk, 0) + extra
                        if value > cand_peak:
                            cand_peak = value
                key = (cand_peak, -counts[stripe_id], len(reads))
            else:
                key = (stripe_id, 0, 0)
            if best_key is None or (key, stripe_id) < (best_key, best_sid):
                best_key = key
                best_sid = stripe_id
                best_fresh = reads
                best_reuse = reuse
        if best_key is None:
            raise DataLossError(
                f"{layout.name}: failure of disks {list(failed)} is not "
                f"recoverable ({len(lost)} cells stranded)"
            )
        repairable = tuple(
            c for c in stripe_cells[best_sid] if c in lost
        )
        fresh = tuple(best_fresh)
        raw_steps.append(
            (layout.stripes[best_sid], repairable, fresh, tuple(best_reuse))
        )
        for disk, _addr in fresh:
            value = loads_get(disk, 0) + 1
            loads[disk] = value
            if value > peak:
                peak = value
        lost.difference_update(repairable)
        recovered.update(repairable)
        for cell in repairable:
            for other in index.cell_stripes[cell]:
                counts[other] -= 1
                if 0 < counts[other] <= tolerance[other]:
                    eligible.add(other)
                elif counts[other] == 0:
                    eligible.discard(other)

    # Materialize sources (all direct initially).
    sources_per_step: List[List[ValueSource]] = [
        [ValueSource(cell, None, (cell,)) for cell in fresh]
        for _stripe, _targets, fresh, _reuse in raw_steps
    ]

    if offload:
        _offload_pass(
            layout, all_lost, raw_steps, sources_per_step, max_offload_rounds
        )

    for (stripe, targets, _fresh, reuse), sources in zip(
        raw_steps, sources_per_step
    ):
        plan.steps.append(
            RepairStep(stripe.stripe_id, targets, tuple(sources), reuse)
        )
    return plan


def _offload_pass(
    layout: Layout,
    all_lost: Set[Cell],
    raw_steps: Sequence[Tuple],
    sources_per_step: List[List[ValueSource]],
    max_rounds: int,
) -> None:
    """Hill-climb value sourcing to minimize the peak per-disk read load.

    Each needed value may be read directly or decoded from its other
    stripe; moves are accepted only if they strictly improve
    ``(peak load, number of disks at peak, total reads)``.
    """
    loads: Dict[int, int] = {}
    total = 0
    for sources in sources_per_step:
        for src in sources:
            for disk, _addr in src.reads:
                loads[disk] = loads.get(disk, 0) + 1
                total += 1
    # Load-value histogram (value -> disks at that value, zeros dropped):
    # move trials score against a copy of this handful of entries instead
    # of copying and re-scanning the whole per-disk load dict.
    hist: Dict[int, int] = {}
    for value in loads.values():
        hist[value] = hist.get(value, 0) + 1

    # Precompute each needed cell's sourcing options once.
    option_cache: Dict[Cell, List[ValueSource]] = {}

    def options_for(cell: Cell) -> List[ValueSource]:
        cached = option_cache.get(cell)
        if cached is None:
            cached = [ValueSource(cell, None, (cell,))]
            for stripe_id, others in _surrogate_options(layout, cell, all_lost):
                cached.append(ValueSource(cell, stripe_id, others))
            option_cache[cell] = cached
        return cached

    def score(h: Dict[int, int], tot: int) -> Tuple[int, int, int]:
        if not h:
            return (0, 0, 0)
        peak = max(h)
        return (peak, h[peak], tot)

    def shift(h: Dict[int, int], old: int, new: int) -> None:
        """Move one disk from load *old* to load *new* in histogram *h*."""
        if old:
            remaining = h[old] - 1
            if remaining:
                h[old] = remaining
            else:
                del h[old]
        if new:
            h[new] = h.get(new, 0) + 1

    current = score(hist, total)
    for _ in range(max_rounds):
        peak = current[0]
        if peak == 0:
            break
        peak_disks = {d for d, v in loads.items() if v == peak}
        best_move = None
        best_score = current
        for step_idx, sources in enumerate(sources_per_step):
            for src_idx, src in enumerate(sources):
                if not any(d in peak_disks for d, _a in src.reads):
                    continue
                for alt in options_for(src.cell):
                    if alt.via == src.via:
                        continue
                    delta: Dict[int, int] = {}
                    for disk, _a in src.reads:
                        delta[disk] = delta.get(disk, 0) - 1
                    for disk, _a in alt.reads:
                        delta[disk] = delta.get(disk, 0) + 1
                    trial_hist = dict(hist)
                    for disk, change in delta.items():
                        if change:
                            old = loads.get(disk, 0)
                            shift(trial_hist, old, old + change)
                    trial_total = total + len(alt.reads) - len(src.reads)
                    trial_score = score(trial_hist, trial_total)
                    if trial_score < best_score:
                        best_score = trial_score
                        best_move = (step_idx, src_idx, alt, delta)
        if best_move is None:
            break
        step_idx, src_idx, alt, delta = best_move
        sources_per_step[step_idx][src_idx] = alt
        for disk, change in delta.items():
            if not change:
                continue
            old = loads.get(disk, 0)
            new = old + change
            shift(hist, old, new)
            if new:
                loads[disk] = new
            else:
                del loads[disk]
            total += change
        current = best_score
