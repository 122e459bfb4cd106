"""The OI-RAID geometry built the object way: a test oracle.

``OIRAIDLayout`` computes its incidence arrays in closed form.
:class:`ReferenceOIGeometry` builds the same geometry one ``Unit`` and one
``Stripe`` at a time, with the loops the layout itself once ran
(``_build_outer`` / ``_build_inner`` below are those loops, unchanged),
and derives the data-cell order and the integer tables from the objects.
The closed form must agree with it on every field.
"""

from __future__ import annotations

from itertools import chain, product
from operator import attrgetter
from typing import Dict, List, Tuple

import numpy as np

from repro.core.oi_layout import OIRAIDLayout
from repro.core.skew import skew_disk_index
from repro.errors import LayoutError
from repro.layouts.base import Cell, DiskPeelingIndex, Stripe, StripeTable, Unit


class ReferenceOIGeometry:
    """The stripes, data cells and tables of *layout*, built from objects."""

    def __init__(self, layout: OIRAIDLayout) -> None:
        self.design, self.grouping = layout.design, layout.grouping
        self.g, self.depth, self.skewed = layout.g, layout.depth, layout.skewed
        self.m_outer, self.m_inner = layout.m_outer, layout.m_inner
        self.outer_units_per_disk = layout.outer_units_per_disk
        self.n_disks, self.units_per_disk = layout.n_disks, layout.units_per_disk
        self._region_index: Dict[Tuple[int, int], int] = {}
        for group in range(self.design.v):
            for idx, t in enumerate(self.design.blocks_through(group)):
                self._region_index[(group, t)] = idx
        stripes: List[Stripe] = []
        self._build_outer(stripes)
        self.n_outer = len(stripes)
        self._build_inner(stripes)
        self.stripes = tuple(stripes)

    def outer_addr(self, group: int, block: int, m: int, d: int) -> int:
        """Per-disk address of the outer unit for (block, slope m, depth d)."""
        region = self._region_index.get((group, block))
        if region is None:
            raise LayoutError(f"group {group} is not in block {block}")
        return region * self.g * self.depth + m * self.depth + d

    def _class_slopes(self) -> List[int]:
        """Slopes enumerated per skew class: all of Z_g, or just 0 unskewed."""
        return list(range(self.g)) if self.skewed else [0]

    def _effective_depths(self) -> int:
        """Depth count per (block, a, m); scaled when unskewed so the
        per-disk outer unit count matches the skewed layout."""
        return self.depth if self.skewed else self.depth * self.g

    def _build_outer(self, stripes: List[Stripe]) -> None:
        g, k = self.g, self.design.k
        depths = self._effective_depths()
        for t, block in enumerate(self.design.blocks):
            for a in range(g):
                for m in self._class_slopes():
                    for d in range(depths):
                        units = []
                        for i, group in enumerate(block):
                            member = skew_disk_index(a, m, i, g)
                            if self.skewed:
                                addr = self.outer_addr(group, t, m, d)
                            else:
                                # Unskewed: slot (a-fixed) region is indexed
                                # purely by depth.
                                addr = (
                                    self._region_index[(group, t)]
                                    * g
                                    * self.depth
                                    + d
                                )
                            units.append(
                                Unit(self.grouping.disk_id(group, member), addr)
                            )
                        parity = tuple(
                            sorted(
                                (a + m + d + j) % k
                                for j in range(self.m_outer)
                            )
                        )
                        stripes.append(
                            Stripe(
                                stripe_id=len(stripes),
                                kind="outer",
                                units=tuple(units),
                                parity=parity,
                                tolerance=self.m_outer,
                                level=0,
                            )
                        )

    def _parity_rank(self, member: int, row: int) -> int:
        """Rows before *row* in which *member* served as inner parity."""
        return sum(
            (row + self.g - 1 - ((member - j) % self.g)) // self.g
            for j in range(self.m_inner)
        )

    def _build_inner(self, stripes: List[Stripe]) -> None:
        g = self.g
        u_o = self.outer_units_per_disk
        rows_per_group = g * u_o // (g - self.m_inner)
        for group in range(self.design.v):
            for row in range(rows_per_group):
                parity_members = {
                    (row + j) % g for j in range(self.m_inner)
                }
                units = []
                parity_positions = []
                for member in range(g):
                    disk = self.grouping.disk_id(group, member)
                    rank = self._parity_rank(member, row)
                    if member in parity_members:
                        addr = u_o + rank
                        parity_positions.append(len(units))
                    else:
                        addr = row - rank
                    units.append(Unit(disk, addr))
                stripes.append(
                    Stripe(
                        stripe_id=len(stripes),
                        kind="inner",
                        units=tuple(units),
                        parity=tuple(parity_positions),
                        tolerance=self.m_inner,
                        level=1,
                    )
                )

    def data_cells(self) -> Tuple[Cell, ...]:
        """Outer-stripe-major: each outer stripe's non-parity cells in turn."""
        parity = {cell for s in self.stripes for cell in s.parity_cells()}
        return tuple(
            s.units[pos].cell
            for s in self.stripes[: self.n_outer]
            for pos in s.data_positions
            if s.units[pos].cell not in parity
        )

    def tables(self) -> Tuple[StripeTable, DiskPeelingIndex]:
        """The integer tables, from the objects' flattened cells."""
        u, n_cells = self.units_per_disk, self.n_disks * self.units_per_disk
        units = list(chain.from_iterable(s.units for s in self.stripes))
        widths = np.array([len(s.units) for s in self.stripes])
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
        tolerance = np.array([s.tolerance for s in self.stripes] + [0])
        twice = np.sort(sids * self.n_disks + flat // u)
        table = StripeTable(
            cells, np.append(widths, 0) - tolerance, tolerance, positions,
            bool((twice[1:] == twice[:-1]).any()),
            tuple(product(range(self.n_disks), range(u))),
        )
        index = DiskPeelingIndex(
            u, n_stripes, stripes, np.append(tolerance[:-1], -1)[stripes]
        )
        return table, index
