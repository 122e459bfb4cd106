"""The work-queue peel over tuple-keyed cells, kept as the peeling reference.

``_lost_counts`` and ``_peel`` are the bodies ``repro.layouts.recovery``
used for cell-granular recoverability before it became a one-row call of
the batched peel; ``peeling_index`` builds the tuple-keyed index they read
straight from ``layout.stripes``. Nothing here shares code with the
batched peel or its integer ``DiskPeelingIndex``, which is what makes it a
reference: ``test_batched_peel.py`` holds ``recoverable_many`` and
``cells_recoverable`` to it, and ``reference_planner.py`` counts its
eligible stripes with ``_lost_counts``. Do not optimise this file.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.layouts.base import Cell, Layout


@dataclass(frozen=True)
class PeelingIndex:
    """Read-only tuple-keyed geometry index of the work-queue peel.

    Attributes:
        stripe_cells: per stripe id, its cells in position order.
        stripe_tolerance: per stripe id, its erasure tolerance.
        stripe_needed: per stripe id, ``width - tolerance`` — how many
            known values an MDS decode of the stripe consumes.
        cell_stripes: cell -> stripe ids containing it, ascending.
    """

    stripe_cells: Tuple[Tuple[Cell, ...], ...]
    stripe_tolerance: Tuple[int, ...]
    stripe_needed: Tuple[int, ...]
    cell_stripes: Dict[Cell, Tuple[int, ...]]


#: Layout -> its index, dropped with the layout.
_INDEXES: "weakref.WeakKeyDictionary[Layout, PeelingIndex]" = weakref.WeakKeyDictionary()


def peeling_index(layout: Layout) -> PeelingIndex:
    """The :class:`PeelingIndex` of *layout*, built once per layout object."""
    if layout in _INDEXES:
        return _INDEXES[layout]
    cell_stripes: Dict[Cell, list] = {
        (disk, addr): []
        for disk in range(layout.n_disks)
        for addr in range(layout.units_per_disk)
    }
    for stripe in layout.stripes:
        for cell in stripe.cells():
            cell_stripes[cell].append(stripe.stripe_id)
    index = _INDEXES[layout] = PeelingIndex(
        stripe_cells=tuple(stripe.cells() for stripe in layout.stripes),
        stripe_tolerance=tuple(stripe.tolerance for stripe in layout.stripes),
        stripe_needed=tuple(
            stripe.width - stripe.tolerance for stripe in layout.stripes
        ),
        cell_stripes={cell: tuple(ids) for cell, ids in cell_stripes.items()},
    )
    return index


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
    index = peeling_index(layout)
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
