"""The layout interface: stripes placed on disk cells.

Geometry model
==============

A layout covers ``n_disks`` disks with a repeating *cycle* of
``units_per_disk`` fixed-size units per disk. A *cell* is a
``(disk, addr)`` pair with ``addr`` in ``[0, units_per_disk)``, or its
integer id ``disk * units_per_disk + addr``; real arrays tile the cycle
down the disks, so all per-cycle properties (efficiency, recovery load,
tolerance) hold for the whole array.

Each stripe occupies a set of cells and marks some positions as parity.
A stripe with tolerance *f* can regenerate up to *f* of its cells from
the rest (XOR for f = 1, P+Q for f = 2, Reed-Solomon beyond). Cells that
are parity in *no* stripe hold user data.

The geometry itself is one incidence array in CSR form: stripe *s* holds
the cell ids ``stripe_cell[stripe_ptr[s]:stripe_ptr[s + 1]]`` in position
order, flagged by ``is_parity``, with per-stripe ``stripe_tolerance``,
``stripe_level`` and ``stripe_kind``. :class:`Stripe` objects are views of
it, built on first access for the byte-level data path only.

Two-layer layouts (OI-RAID) have stripes at two *levels*: inner stripes
(level 1) include outer parity cells as ordinary members, so outer parity
must be computed before inner parity. The validator enforces that parity
dependencies strictly increase in level, which guarantees the data path's
level-ordered encode terminates.
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass
from itertools import chain, product
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import LayoutError

Cell = Tuple[int, int]


@dataclass(frozen=True, eq=False)
class DiskPeelingIndex:
    """Integer geometry index of the peeling decoder.

    The recoverability oracle is the hot call of every Monte-Carlo kernel,
    so this index flattens cells to ``disk * units_per_disk + addr``
    integers and pads each cell's stripe ids into one read-only table, the
    shape the batched peel (:func:`repro.layouts.recovery._peel_rows`)
    gathers a batch's lost cells from — whole failed disks
    (:func:`~repro.layouts.recovery.recoverable_many`) or explicit cells
    (:func:`~repro.layouts.recovery.cells_recoverable`).

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


def _as_index(value) -> int:
    """``operator.index(value)``, refusing bools as well."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{value!r} is a bool")
    return operator.index(value)


def _flatten(name: str, stripes: Tuple[Stripe, ...]) -> Dict[str, Any]:
    """The incidence arrays of *stripes*, for :meth:`Layout._finalize`.

    Checks the two things only objects can get wrong: stripe ids that are
    not their index, and parity positions outside the stripe.
    """
    for sid, stripe in enumerate(stripes):
        if stripe.stripe_id != sid:
            raise LayoutError(
                f"{name}: stripe ids must be contiguous from 0 "
                f"(found {stripe.stripe_id} at index {sid})"
            )
        for pos in stripe.parity:
            if not 0 <= pos < stripe.width:
                raise LayoutError(
                    f"{name}: stripe {sid} parity position {pos} out of range"
                )
    units = list(chain.from_iterable(s.units for s in stripes))
    kinds = tuple(dict.fromkeys(s.kind for s in stripes))
    return dict(
        ptr=np.cumsum([0] + [s.width for s in stripes]),
        disk=np.array([u.disk for u in units], dtype=np.intp),
        addr=np.array([u.addr for u in units], dtype=np.intp),
        is_parity=np.array(
            [p in s.parity for s in stripes for p in range(s.width)], dtype=bool
        ),
        tolerance=np.array([s.tolerance for s in stripes], dtype=np.intp),
        level=np.array([s.level for s in stripes], dtype=np.intp),
        kind=np.array([kinds.index(s.kind) for s in stripes], dtype=np.intp),
        kinds=kinds,
    )


class Layout(abc.ABC):
    """Abstract base for all placements. Subclasses build their stripes once.

    A subclass either passes its incidence arrays to :meth:`_finalize`
    (OI-RAID computes them in closed form) or sets ``_stripes`` (a tuple
    of :class:`Stripe`) and calls ``_finalize()``, which flattens them.
    Either way the one validator checks the arrays and the one index
    builder reads them.
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
        #: The :class:`Stripe` views, built on first access to ``stripes``.
        self._stripes: Optional[Tuple[Stripe, ...]] = None
        self._disk_peeling_index: Optional[DiskPeelingIndex] = None
        self._stripe_table: Optional[StripeTable] = None
        #: Sorted failed tuple -> what this process learned about it
        #: (:func:`repro.layouts.recovery.pattern_entry`).
        self.patterns: Dict[Tuple[int, ...], Any] = {}

    # -- construction -----------------------------------------------------------

    def _finalize(self, **arrays: Any) -> None:
        """Validate the geometry and store it. Called by subclass __init__.

        *arrays* are ``ptr`` (stripe offsets), ``disk`` and ``addr`` (per
        incidence, in position order), ``is_parity``, per-stripe
        ``tolerance``, ``level`` and ``kind`` (an index into the names
        ``kinds``); without them, ``self._stripes`` is flattened.
        """
        if not arrays:
            if not self._stripes:
                raise LayoutError(f"{self.name}: no stripes defined")
            arrays = _flatten(self.name, self._stripes)
        ptr, disk, addr = arrays["ptr"], arrays["disk"], arrays["addr"]
        is_parity, tolerance = arrays["is_parity"], arrays["tolerance"]
        level = arrays["level"]
        n_stripes = len(ptr) - 1
        if n_stripes == 0:
            raise LayoutError(f"{self.name}: no stripes defined")
        u, n_cells = self.units_per_disk, self.n_disks * self.units_per_disk
        sid = np.repeat(np.arange(n_stripes), np.diff(ptr))
        n_parity = np.bincount(sid[is_parity], minlength=n_stripes)
        bad = np.flatnonzero((tolerance < 1) | (tolerance > n_parity))
        if bad.size:
            s = bad[0]
            raise LayoutError(
                f"{self.name}: stripe {s} tolerance {tolerance[s]} "
                f"inconsistent with {n_parity[s]} parity units"
            )
        bad = np.flatnonzero(
            (disk < 0) | (disk >= self.n_disks) | (addr < 0) | (addr >= u)
        )
        if bad.size:
            i = bad[0]
            raise LayoutError(
                f"{self.name}: stripe {sid[i]} places a unit at "
                f"{(int(disk[i]), int(addr[i]))}, outside the "
                f"{self.n_disks}x{u} cycle"
            )
        cell = disk * u + addr
        key = np.sort(sid * n_cells + cell)
        twice = np.flatnonzero(key[1:] == key[:-1])
        if twice.size:
            s, c = divmod(int(key[twice[0]]), n_cells)
            raise LayoutError(
                f"{self.name}: stripe {s} uses cell {divmod(c, u)} twice"
            )
        parity_cell, producer = cell[is_parity], sid[is_parity]
        order = np.argsort(parity_cell, kind="stable")
        parity_cell, producer = parity_cell[order], producer[order]
        twice = np.flatnonzero(parity_cell[1:] == parity_cell[:-1])
        if twice.size:
            i = twice[0]
            raise LayoutError(
                f"{self.name}: cell {divmod(int(parity_cell[i]), u)} is "
                f"parity in two stripes ({producer[i]} and {producer[i + 1]})"
            )
        # Full coverage: every cell of the cycle belongs to some stripe.
        uncovered = n_cells - np.count_nonzero(np.bincount(cell, minlength=n_cells))
        if uncovered:
            raise LayoutError(
                f"{self.name}: {uncovered} cells of the cycle are not "
                f"covered by any stripe"
            )
        parity_of = np.full(n_cells, -1, dtype=np.intp)
        parity_of[parity_cell] = producer
        # Level consistency: consuming another stripe's parity requires a
        # strictly higher level (guarantees encode order exists).
        consumed = parity_of[cell]
        bad = np.flatnonzero(
            ~is_parity & (consumed >= 0) & (level[sid] <= level[consumed])
        )
        if bad.size:
            s, p = sid[bad[0]], consumed[bad[0]]
            raise LayoutError(
                f"{self.name}: stripe {s} (level {level[s]}) consumes parity "
                f"of stripe {p} (level {level[p]}) without a higher level"
            )
        self.stripe_ptr = ptr
        self.stripe_cell = cell
        self.is_parity = is_parity
        self.stripe_tolerance = tolerance
        self.stripe_level = level
        self.stripe_kind = arrays["kind"]
        self.stripe_kinds: Tuple[str, ...] = arrays["kinds"]
        self.parity_of = parity_of
        self._data = self._order_data_cells(np.flatnonzero(parity_of < 0))
        self._data_cells: Optional[Tuple[Cell, ...]] = None
        for array in (ptr, cell, is_parity, tolerance, level, self.stripe_kind,
                      parity_of, self._data):
            array.flags.writeable = False

    def _order_data_cells(self, cells: np.ndarray) -> np.ndarray:
        """Logical (user address) order of the data cell ids *cells*.

        Default is row-major — address first, then disk — so consecutive
        logical units land on different disks, like real RAID striping.
        Subclasses may override (OI-RAID orders outer-stripe-major so
        sequential spans fill whole stripes and batch their parity).
        """
        u = self.units_per_disk
        return cells[np.lexsort((cells // u, cells % u))]

    # -- geometry queries ----------------------------------------------------------

    @property
    def n_stripes(self) -> int:
        return len(self.stripe_ptr) - 1

    @property
    def stripes(self) -> Tuple[Stripe, ...]:
        """Every stripe as a :class:`Stripe`, built on first access."""
        if self._stripes is None:
            disk, addr = np.divmod(self.stripe_cell, self.units_per_disk)
            units = list(map(Unit, disk.tolist(), addr.tolist()))
            flags, ptr = self.is_parity.tolist(), self.stripe_ptr.tolist()
            self._stripes = tuple(
                Stripe(sid, self.stripe_kinds[kind], tuple(units[a:b]),
                       tuple(i for i, f in enumerate(flags[a:b]) if f), tol, level)
                for sid, (a, b, kind, tol, level) in enumerate(zip(
                    ptr, ptr[1:], self.stripe_kind.tolist(),
                    self.stripe_tolerance.tolist(), self.stripe_level.tolist(),
                ))
            )
        return self._stripes

    @property
    def data_cells(self) -> Tuple[Cell, ...]:
        """Cells holding user data, in logical order."""
        if self._data_cells is None:
            disk, addr = np.divmod(self._data, self.units_per_disk)
            self._data_cells = tuple(zip(disk.tolist(), addr.tolist()))
        return self._data_cells

    def check_disk(self, disk: Any) -> int:
        """*disk* as a Python int naming a disk of this layout.

        The one check of caller-supplied disk ids: a value that
        ``operator.index`` refuses, a bool, or an id outside
        ``[0, n_disks)`` raises :class:`LayoutError`.
        """
        if type(disk) is not int:
            try:
                disk = _as_index(disk)
            except TypeError:
                raise LayoutError(
                    f"disk id {disk!r} of {self.name} is not an integer"
                ) from None
        if not 0 <= disk < self.n_disks:
            raise LayoutError(f"no such disk {disk} in {self.name}")
        return disk

    def cell_id(self, cell: Any) -> int:
        """The id ``disk * units_per_disk + addr`` of a ``(disk, addr)``
        cell of the cycle; anything else raises :class:`LayoutError`."""
        try:
            disk, addr = cell
            disk = self.check_disk(disk)
            addr = _as_index(addr)
        except (TypeError, ValueError, LayoutError):
            addr = -1
        if not 0 <= addr < self.units_per_disk:
            raise LayoutError(f"no such cell {cell} in {self.name}")
        return disk * self.units_per_disk + addr

    def stripes_containing(self, cell: Cell) -> Tuple[int, ...]:
        """Stripe ids that include *cell* (1 for flat layouts, 2 for OI)."""
        ids = self.disk_peeling_index().cell_stripes[self.cell_id(cell)]
        return tuple(ids[ids < self.n_stripes].tolist())

    def _index_stripes(self) -> None:
        """Build the :class:`DiskPeelingIndex` and :class:`StripeTable`.

        Straight from the incidence arrays: the ``(stripe, position)``
        incidences sorted by cell (stably, so each cell's stripes stay in
        id order) and ranked within their cell.
        """
        u, n_cells = self.units_per_disk, self.n_disks * self.units_per_disk
        flat, ptr = self.stripe_cell, self.stripe_ptr
        widths = np.diff(ptr)
        n_stripes = len(widths)
        sids = np.repeat(np.arange(n_stripes), widths)
        cols = np.arange(len(flat)) - np.repeat(ptr[:-1], widths)
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
        tolerance = np.append(self.stripe_tolerance, 0)
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
        producer = int(self.parity_of[self.cell_id(cell)])
        if producer < 0:
            raise LayoutError(f"{self.name}: cell {cell} is not a parity cell")
        return producer

    def is_parity_cell(self, cell: Cell) -> bool:
        """True when some stripe's parity lives at *cell*."""
        return bool(self.parity_of[self.cell_id(cell)] >= 0)

    @property
    def storage_efficiency(self) -> float:
        """User-data fraction of raw capacity."""
        return len(self._data) / (self.n_disks * self.units_per_disk)

    def levels(self) -> Tuple[int, ...]:
        """Distinct stripe levels in ascending (encode) order."""
        return tuple(np.unique(self.stripe_level).tolist())

    def cells_on_disk(self, disk: int) -> List[Cell]:
        """All cycle cells residing on one disk."""
        disk = self.check_disk(disk)
        return [(disk, addr) for addr in range(self.units_per_disk)]

    # -- scheme metadata (overridable) ------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Summary row used by the E1/E2 tables."""
        return {
            "name": self.name,
            "n_disks": self.n_disks,
            "units_per_disk": self.units_per_disk,
            "stripes_per_cycle": self.n_stripes,
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
        start = int(self._data[0]) if cell is None else self.cell_id(cell)
        if self.parity_of[start] >= 0:
            raise LayoutError(f"{self.name}: {cell} is not a data cell")
        cell_stripes = self.disk_peeling_index().cell_stripes
        ptr, members = self.stripe_ptr, self.stripe_cell
        dirty = [start]
        touched: set = set()
        while dirty:
            current = dirty.pop()
            for stripe_id in cell_stripes[current]:
                if stripe_id == self.n_stripes or stripe_id == self.parity_of[current]:
                    continue  # padding; a cell does not dirty its own producer
                span = slice(ptr[stripe_id], ptr[stripe_id + 1])
                for pcell in members[span][self.is_parity[span]].tolist():
                    if pcell not in touched:
                        touched.add(pcell)
                        dirty.append(pcell)
        return len(touched)
