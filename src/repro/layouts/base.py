"""The layout interface: stripes placed on disk cells.

Geometry model
==============

A layout covers ``n_disks`` disks with a repeating *cycle* of
``units_per_disk`` fixed-size units per disk. A *cell* is a
``(disk, addr)`` pair with ``addr`` in ``[0, units_per_disk)``; real arrays
tile the cycle down the disks, so all per-cycle properties (efficiency,
recovery load, tolerance) hold for the whole array.

Each :class:`Stripe` occupies a set of cells and marks some positions as
parity. A stripe with tolerance *f* can regenerate up to *f* of its cells
from the rest (XOR for f = 1, P+Q for f = 2, Reed-Solomon beyond). Cells
that are parity in *no* stripe hold user data.

Two-layer layouts (OI-RAID) have stripes at two *levels*: inner stripes
(level 1) include outer parity cells as ordinary members, so outer parity
must be computed before inner parity. The validator enforces that parity
dependencies strictly increase in level, which guarantees the data path's
level-ordered encode terminates.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import chain, product
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import LayoutError

Cell = Tuple[int, int]


@dataclass(frozen=True)
class PeelingIndex:
    """Read-only geometry index of the cell-granular peel.

    Built once per layout (cached on the instance) so
    :func:`repro.layouts.recovery.cells_recoverable` never rebuilds
    per-stripe cell tuples or rescans the whole stripe list: eligibility
    is tracked by per-stripe lost-cell *counts*, and only stripes incident
    to a changed cell are revisited. The planner and the whole-disk peel
    read the integer :class:`StripeTable` / :class:`DiskPeelingIndex`.

    Attributes:
        stripe_cells: per stripe id, its cells in position order.
        stripe_tolerance: per stripe id, its erasure tolerance.
        stripe_needed: per stripe id, ``width - tolerance`` — how many
            known values an MDS decode of the stripe consumes.
        cell_stripes: cell -> stripe ids containing it.
    """

    stripe_cells: Tuple[Tuple[Cell, ...], ...]
    stripe_tolerance: Tuple[int, ...]
    stripe_needed: Tuple[int, ...]
    cell_stripes: Dict[Cell, Tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class DiskPeelingIndex:
    """Integer-id twin of :class:`PeelingIndex` for whole-disk failures.

    The recoverability oracle only ever asks about whole-disk failure
    patterns, and it is the hot call of every Monte-Carlo kernel — so this
    index flattens cells to ``disk * units_per_disk + addr`` integers and
    pads each cell's stripe ids into one read-only table, the shape the
    batched peel (:func:`repro.layouts.recovery.recoverable_many`) gathers
    a whole batch of failed sets' lost cells from.

    Attributes:
        units_per_disk: cells per disk (the cell-id stride).
        n_stripes: stripe count; also the id padding a short row.
        cell_stripes: ``(n_cells, max stripes per cell)`` stripe ids, in
            ascending order.
        cell_tolerance: the same shape, each entry's stripe tolerance, and
            -1 at padding, so a padded entry is never eligible.
    """

    units_per_disk: int
    n_stripes: int
    cell_stripes: Any
    cell_tolerance: Any


@dataclass(frozen=True, eq=False)
class StripeTable:
    """Read-only integer geometry of every stripe, for the array planner.

    Cells are ``disk * units_per_disk + addr`` as in
    :class:`DiskPeelingIndex`, whose ``cell_stripes`` this table indexes
    with: the extra stripe row ``n_stripes`` is all padding, so a padded
    stripe id gathers padding. Padding cells are ``n_cells``.

    Attributes:
        stripe_cells: ``(n_stripes + 1, max(max width, 2))`` cell ids in
            position order.
        needed: ``width - tolerance`` per stripe, the known values an MDS
            decode consumes; 0 for the padding row.
        tolerance: erasure tolerance per stripe; 0 for the padding row,
            so it is never eligible.
        cell_positions: the shape of ``DiskPeelingIndex.cell_stripes``:
            the cell's position in each of its stripes (0 at padding).
        repeats_disks: some stripe holds two cells of one disk.
        cells: each cell id's ``(disk, addr)`` tuple, one object that
            every plan naming the cell shares.
    """

    stripe_cells: Any
    needed: Any
    tolerance: Any
    cell_positions: Any
    repeats_disks: bool
    cells: Tuple[Cell, ...]


@dataclass(frozen=True)
class Unit:
    """A physical placement: unit *addr* on disk *disk* (within one cycle)."""

    disk: int
    addr: int

    @property
    def cell(self) -> Cell:
        return (self.disk, self.addr)


@dataclass(frozen=True)
class Stripe:
    """One erasure-coded stripe of a layout cycle.

    Attributes:
        stripe_id: index within the layout's stripe tuple.
        kind: human-readable role, e.g. ``"outer"``, ``"inner"``, ``"raid5"``.
        units: the cells this stripe occupies, in code-position order.
        parity: positions (indices into *units*) holding parity.
        tolerance: erasures this stripe can correct (== len(parity) for MDS).
        level: encode order; stripes that consume other stripes' parity as
            members must have a strictly higher level.
    """

    stripe_id: int
    kind: str
    units: Tuple[Unit, ...]
    parity: Tuple[int, ...]
    tolerance: int = 1
    level: int = 0

    @property
    def width(self) -> int:
        return len(self.units)

    @property
    def data_positions(self) -> Tuple[int, ...]:
        return tuple(i for i in range(self.width) if i not in self.parity)

    def cells(self) -> Tuple[Cell, ...]:
        """The stripe's cells in position order."""
        return tuple(u.cell for u in self.units)

    def parity_cells(self) -> Tuple[Cell, ...]:
        """The cells at the stripe's parity positions."""
        return tuple(self.units[i].cell for i in self.parity)


class Layout(abc.ABC):
    """Abstract base for all placements. Subclasses build their stripes once.

    Subclasses must set ``_stripes`` (tuple of :class:`Stripe`) before
    calling :meth:`_finalize`, which validates the geometry and builds the
    cell indexes that the planner and data path rely on.
    """

    name: str = "layout"

    def __init__(self, n_disks: int, units_per_disk: int) -> None:
        if n_disks < 2:
            raise LayoutError(f"a layout needs at least 2 disks, got {n_disks}")
        if units_per_disk < 1:
            raise LayoutError(
                f"units_per_disk must be >= 1, got {units_per_disk}"
            )
        self.n_disks = n_disks
        self.units_per_disk = units_per_disk
        self._stripes: Tuple[Stripe, ...] = ()
        self._cell_stripes: Dict[Cell, List[int]] = {}
        self._parity_of: Dict[Cell, int] = {}
        self._data_cells: Tuple[Cell, ...] = ()
        self._peeling_index: Optional[PeelingIndex] = None
        self._disk_peeling_index: Optional[DiskPeelingIndex] = None
        self._stripe_table: Optional[StripeTable] = None
        #: Sorted failed tuple -> what this process learned about it
        #: (:func:`repro.layouts.recovery.pattern_entry`).
        self.patterns: Dict[Tuple[int, ...], Any] = {}

    # -- construction -----------------------------------------------------------

    def _finalize(self) -> None:
        """Validate stripes and build indexes. Called by subclass __init__."""
        if not self._stripes:
            raise LayoutError(f"{self.name}: no stripes defined")
        cell_stripes: Dict[Cell, List[int]] = {}
        parity_of: Dict[Cell, int] = {}
        for expected_id, stripe in enumerate(self._stripes):
            if stripe.stripe_id != expected_id:
                raise LayoutError(
                    f"{self.name}: stripe ids must be contiguous from 0 "
                    f"(found {stripe.stripe_id} at index {expected_id})"
                )
            if stripe.tolerance < 1 or stripe.tolerance > len(stripe.parity):
                raise LayoutError(
                    f"{self.name}: stripe {stripe.stripe_id} tolerance "
                    f"{stripe.tolerance} inconsistent with "
                    f"{len(stripe.parity)} parity units"
                )
            seen_cells = set()
            for unit in stripe.units:
                if not (
                    0 <= unit.disk < self.n_disks
                    and 0 <= unit.addr < self.units_per_disk
                ):
                    raise LayoutError(
                        f"{self.name}: stripe {stripe.stripe_id} places a "
                        f"unit at {unit.cell}, outside the "
                        f"{self.n_disks}x{self.units_per_disk} cycle"
                    )
                if unit.cell in seen_cells:
                    raise LayoutError(
                        f"{self.name}: stripe {stripe.stripe_id} uses cell "
                        f"{unit.cell} twice"
                    )
                seen_cells.add(unit.cell)
                cell_stripes.setdefault(unit.cell, []).append(stripe.stripe_id)
            for pos in stripe.parity:
                if not 0 <= pos < stripe.width:
                    raise LayoutError(
                        f"{self.name}: stripe {stripe.stripe_id} parity "
                        f"position {pos} out of range"
                    )
                cell = stripe.units[pos].cell
                if cell in parity_of:
                    raise LayoutError(
                        f"{self.name}: cell {cell} is parity in two stripes "
                        f"({parity_of[cell]} and {stripe.stripe_id})"
                    )
                parity_of[cell] = stripe.stripe_id
        # Full coverage: every cell of the cycle belongs to some stripe.
        expected = self.n_disks * self.units_per_disk
        if len(cell_stripes) != expected:
            raise LayoutError(
                f"{self.name}: {expected - len(cell_stripes)} cells of the "
                f"cycle are not covered by any stripe"
            )
        # Level consistency: consuming another stripe's parity requires a
        # strictly higher level (guarantees encode order exists).
        for stripe in self._stripes:
            for pos, unit in enumerate(stripe.units):
                if pos in stripe.parity:
                    continue
                producer = parity_of.get(unit.cell)
                if producer is not None:
                    producer_level = self._stripes[producer].level
                    if stripe.level <= producer_level:
                        raise LayoutError(
                            f"{self.name}: stripe {stripe.stripe_id} (level "
                            f"{stripe.level}) consumes parity of stripe "
                            f"{producer} (level {producer_level}) without a "
                            f"higher level"
                        )
        self._cell_stripes = cell_stripes
        self._parity_of = parity_of
        data = [cell for cell in cell_stripes if cell not in parity_of]
        self._data_cells = tuple(self._order_data_cells(data))

    def _order_data_cells(self, cells: List[Cell]) -> List[Cell]:
        """Logical (user address) order of the data cells.

        Default is row-major — address first, then disk — so consecutive
        logical units land on different disks, like real RAID striping.
        Subclasses may override (OI-RAID orders outer-stripe-major so
        sequential spans fill whole stripes and batch their parity).
        """
        return sorted(cells, key=lambda cell: (cell[1], cell[0]))

    # -- geometry queries ----------------------------------------------------------

    @property
    def stripes(self) -> Tuple[Stripe, ...]:
        return self._stripes

    @property
    def data_cells(self) -> Tuple[Cell, ...]:
        """Cells holding user data, in (disk, addr) order."""
        return self._data_cells

    def stripes_containing(self, cell: Cell) -> Tuple[int, ...]:
        """Stripe ids that include *cell* (1 for flat layouts, 2 for OI)."""
        try:
            return tuple(self._cell_stripes[cell])
        except KeyError:
            raise LayoutError(f"{self.name}: no such cell {cell}") from None

    def peeling_index(self) -> PeelingIndex:
        """The cached :class:`PeelingIndex` for this layout (built lazily)."""
        if self._peeling_index is None:
            self._peeling_index = PeelingIndex(
                stripe_cells=tuple(s.cells() for s in self._stripes),
                stripe_tolerance=tuple(s.tolerance for s in self._stripes),
                stripe_needed=tuple(
                    s.width - s.tolerance for s in self._stripes
                ),
                cell_stripes={
                    cell: tuple(ids)
                    for cell, ids in self._cell_stripes.items()
                },
            )
        return self._peeling_index

    def _index_stripes(self) -> None:
        """Build the :class:`DiskPeelingIndex` and :class:`StripeTable`.

        Straight from the stripes: their cells flattened to ids, then the
        ``(stripe, position)`` incidences sorted by cell (stably, so each
        cell's stripes stay in id order) and ranked within their cell.
        """
        u, n_cells = self.units_per_disk, self.n_disks * self.units_per_disk
        units = list(chain.from_iterable(s.units for s in self._stripes))
        widths = np.array([len(s.units) for s in self._stripes])
        n_stripes = len(widths)
        flat = np.fromiter(map(attrgetter("disk"), units), np.intp, len(units)) * u
        flat += np.fromiter(map(attrgetter("addr"), units), np.intp, len(units))
        sids = np.repeat(np.arange(n_stripes), widths)
        cols = np.arange(len(flat)) - np.repeat(np.cumsum(widths) - widths, widths)
        cells = np.full((n_stripes + 1, max(widths.max(), 2)), n_cells)
        cells[sids, cols] = flat
        order = np.argsort(flat, kind="stable")
        flat, sids, cols = flat[order], sids[order], cols[order]
        per_cell = np.bincount(flat, minlength=n_cells)
        rank = np.arange(len(flat)) - np.repeat(np.cumsum(per_cell) - per_cell, per_cell)
        stripes = np.full((n_cells, per_cell.max()), n_stripes)
        stripes[flat, rank] = sids
        positions = np.zeros_like(stripes)
        positions[flat, rank] = cols
        tolerance = np.array([s.tolerance for s in self._stripes] + [0])
        twice = np.sort(sids * self.n_disks + flat // u)
        table = StripeTable(
            cells, np.append(widths, 0) - tolerance, tolerance, positions,
            bool((twice[1:] == twice[:-1]).any()),
            tuple(product(range(self.n_disks), range(u))),
        )
        index = DiskPeelingIndex(
            u, n_stripes, stripes, np.append(tolerance[:-1], -1)[stripes]
        )
        for array in (*vars(table).values(), stripes, index.cell_tolerance):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        if self._disk_peeling_index is None:
            self._disk_peeling_index = index
        self._stripe_table = table

    def disk_peeling_index(self) -> DiskPeelingIndex:
        """The cached :class:`DiskPeelingIndex` (built lazily)."""
        if self._disk_peeling_index is None:
            self._index_stripes()
        return self._disk_peeling_index

    def stripe_table(self) -> StripeTable:
        """The cached :class:`StripeTable` (built lazily)."""
        if self._stripe_table is None:
            self._index_stripes()
        return self._stripe_table

    def parity_producer(self, cell: Cell) -> int:
        """The stripe id whose parity lives at *cell*, or raise."""
        try:
            return self._parity_of[cell]
        except KeyError:
            raise LayoutError(
                f"{self.name}: cell {cell} is not a parity cell"
            ) from None

    def is_parity_cell(self, cell: Cell) -> bool:
        """True when some stripe's parity lives at *cell*."""
        return cell in self._parity_of

    @property
    def storage_efficiency(self) -> float:
        """User-data fraction of raw capacity."""
        return len(self._data_cells) / (self.n_disks * self.units_per_disk)

    def levels(self) -> Tuple[int, ...]:
        """Distinct stripe levels in ascending (encode) order."""
        return tuple(sorted({s.level for s in self._stripes}))

    def cells_on_disk(self, disk: int) -> List[Cell]:
        """All cycle cells residing on one disk."""
        return [(disk, addr) for addr in range(self.units_per_disk)]

    # -- scheme metadata (overridable) ------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Summary row used by the E1/E2 tables."""
        return {
            "name": self.name,
            "n_disks": self.n_disks,
            "units_per_disk": self.units_per_disk,
            "stripes_per_cycle": len(self._stripes),
            "storage_efficiency": self.storage_efficiency,
        }

    def update_penalty(self, cell: Optional[Cell] = None) -> int:
        """Parity cells touched by a one-unit user write (analytic, E8).

        Follows the full update cascade: changing a data cell dirties the
        parity of every stripe it belongs to, and a dirtied parity cell in
        turn dirties the parity of any higher-level stripe containing it
        (OI-RAID: outer parity -> its inner row). The count is the size of
        that closure — 1 for RAID5, 2 for RAID6, 3 for OI-RAID, which is
        the minimum possible for tolerance 3.
        """
        start = cell if cell is not None else self._data_cells[0]
        if start not in self._cell_stripes or start in self._parity_of:
            raise LayoutError(f"{self.name}: {start} is not a data cell")
        dirty = [start]
        touched: set = set()
        while dirty:
            current = dirty.pop()
            for stripe_id in self._cell_stripes[current]:
                stripe = self._stripes[stripe_id]
                if current in stripe.parity_cells():
                    continue  # a cell does not dirty its own producer twice
                for pcell in stripe.parity_cells():
                    if pcell not in touched:
                        touched.add(pcell)
                        dirty.append(pcell)
        return len(touched)
