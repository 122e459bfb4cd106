"""The OI-RAID two-layer layout.

Geometry (one cycle), for a ``(v, b, r, k, 1)``-BIBD, group size g, depth D,
and per-layer parity counts ``m_o`` (outer) and ``m_i`` (inner) — the
paper's reference instantiation is RAID5 in both layers, ``m_o = m_i = 1``:

* **Outer layer.** Each disk's address space starts with ``U_o = r*g*D``
  *outer* units, split into r regions of ``g*D`` units — one region per
  block through the disk's group; region order follows the group's block
  incidence list. Outer stripe ``(t, a, m, d)`` (block t, skew class (a, m),
  depth d) places position i on disk ``(p_i, (a + i*m) mod g)`` at offset
  ``m*D + d`` inside that disk's region for block t. Positions
  ``(a + m + d + j) mod k`` for j < m_o are outer parity (XOR for m_o = 1,
  P+Q for 2, Cauchy Reed-Solomon beyond). With the skewed classes, the
  stripes between any two groups of a block touch every cross-group disk
  pair equally.
* **Inner layer.** Each group's ``g`` disks then carry
  ``U_i = m_i * R / g`` inner parity units (addresses ``U_o ..``), where
  ``R = g*U_o/(g-m_i)`` rows tile the group's outer units: row ρ holds one
  outer unit from every member disk except the m_i disks
  ``(ρ + j) mod g``, which hold the row's parity. Row membership is the
  rank-order assignment: a data member x contributes its n-th outer unit,
  n = ρ minus the number of earlier rows in which x served parity.

Divisibility requires ``(g - m_i) | r*D``; the default depth is the
smallest such D. Per-disk units: ``U = U_o * g / (g - m_i)``.

Every cell is covered by at least one stripe, outer cells by exactly two
(their outer stripe and their inner row) — the redundancy OI-RAID's
recovery planner exploits. The guaranteed fault tolerance of the
``(m_o, m_i)`` instantiation is at least ``m_o + m_i + 1`` (3 for the
reference RAID5/RAID5 case, where the bound is tight), verified by
enumeration in the test suite.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.grouping import DiskGrouping
from repro.core.skew import is_balanced_group_size
from repro.design.bibd import BIBD
from repro.design.catalog import find_bibd
from repro.errors import LayoutError
from repro.layouts.base import Layout, Stripe
from repro.util.checks import check_positive
from repro.util.primes import is_prime, next_prime


def _min_depth(g: int, r: int, inner_parities: int) -> int:
    """Smallest D with (g - m_i) | r*D."""
    return (g - inner_parities) // math.gcd(g - inner_parities, r)


class OIRAIDLayout(Layout):
    """The two-layer BIBD + skew layout described in the module docstring.

    Args:
        design: outer-layer λ=1 BIBD (points are disk groups).
        group_size: disks per group, g >= 2. Prime g >= k gives provably
            uniform recovery load (``self.balanced``); other values are
            allowed but flagged.
        depth: stripes per skew class per block (D). Defaults to the
            smallest value satisfying the inner-layer divisibility rule;
            explicit values must be multiples of it.
        skewed: when False, build the E10 ablation variant — stripes use
            the same member index in every group (slope m = 0), with depth
            scaled by g so per-disk capacity matches the skewed layout.
        outer_parities: parity units per outer stripe (m_o < k).
        inner_parities: parity units per inner row (m_i < g).
    """

    name = "oi-raid"

    def __init__(
        self,
        design: BIBD,
        group_size: int,
        depth: Optional[int] = None,
        skewed: bool = True,
        outer_parities: int = 1,
        inner_parities: int = 1,
    ) -> None:
        check_positive("outer_parities", outer_parities, 1)
        check_positive("inner_parities", inner_parities, 1)
        if outer_parities >= design.k:
            raise LayoutError(
                f"outer_parities={outer_parities} must be < stripe width "
                f"k={design.k}"
            )
        if inner_parities >= group_size:
            raise LayoutError(
                f"inner_parities={inner_parities} must be < group size "
                f"g={group_size}"
            )
        self.grouping = DiskGrouping(design, group_size)
        self.design = design
        self.g = group_size
        self.skewed = skewed
        self.m_outer = outer_parities
        self.m_inner = inner_parities
        self.balanced = skewed and is_balanced_group_size(group_size, design.k)
        base_depth = _min_depth(self.g, design.r, inner_parities)
        if depth is None:
            depth = base_depth
        check_positive("depth", depth, 1)
        if depth % base_depth != 0:
            raise LayoutError(
                f"depth must be a positive multiple of {base_depth} "
                f"(inner-layer divisibility), got {depth}"
            )
        self.depth = depth

        g, r = self.g, design.r
        self.outer_units_per_disk = r * g * depth
        self.inner_units_per_disk = (
            r * g * depth * inner_parities // (g - inner_parities)
        )
        units_per_disk = self.outer_units_per_disk + self.inner_units_per_disk
        super().__init__(self.grouping.n_disks, units_per_disk)

        self._region_index: Dict[Tuple[int, int], int] = {
            (group, t): idx
            for group in range(design.v)
            for idx, t in enumerate(design.blocks_through(group))
        }
        outer, inner = self._outer_arrays(), self._inner_arrays()
        counts = [len(outer[0]) // design.k, len(inner[0]) // g]
        self._n_outer_stripes = counts[0]
        disk, addr, is_parity = (np.concatenate(pair) for pair in zip(outer, inner))
        self._finalize(
            ptr=np.concatenate(([0], np.cumsum(np.repeat([design.k, g], counts)))),
            disk=disk,
            addr=addr,
            is_parity=is_parity,
            tolerance=np.repeat([outer_parities, inner_parities], counts),
            level=np.repeat([0, 1], counts),
            kind=np.repeat([0, 1], counts),
            kinds=("outer", "inner"),
        )
        # The fault-tolerance analysis assumes an outer stripe takes at
        # most one unit from any group.
        groups = np.sort(outer[0].reshape(counts[0], -1) // g, axis=1)
        twice = np.flatnonzero((groups[:, 1:] == groups[:, :-1]).any(axis=1))
        if twice.size:
            raise LayoutError(
                f"outer stripe {twice[0]} uses a group twice (bug)"
            )

    # -- construction ----------------------------------------------------------------

    def outer_addr(self, group: int, block: int, m: int, d: int) -> int:
        """Per-disk address of the outer unit for (block, slope m, depth d)."""
        region = self._region_index.get((group, block))
        if region is None:
            raise LayoutError(f"group {group} is not in block {block}")
        return region * self.g * self.depth + m * self.depth + d

    def _outer_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Disk, address and parity flag of every outer incidence, in
        stripe ``(t, a, m, d)`` loop order, positions last.

        Position i sits on member ``(a + i*m) mod g`` of group ``p_i`` at
        ``outer_addr(p_i, t, m, d)``; unskewed layouts take slope 0 only,
        over g times the depths. Positions ``(a + m + d + j) mod k``
        (j < m_o) hold parity.
        """
        g, k, depth = self.g, self.design.k, self.depth
        blocks = np.array(self.design.blocks, dtype=np.intp)
        region = np.array([
            [self._region_index[(group, t)] for group in block]
            for t, block in enumerate(self.design.blocks)
        ])
        slopes = g if self.skewed else 1
        depths = depth if self.skewed else depth * g
        t, a, m, d, i = np.ix_(
            range(len(blocks)), range(g), range(slopes), range(depths), range(k)
        )
        shape = (len(blocks), g, slopes, depths, k)
        return tuple(np.broadcast_to(x, shape).ravel() for x in (
            blocks[t, i] * g + (a + i * m) % g,
            region[t, i] * g * depth + m * depth + d,
            (i - a - m - d) % k < self.m_outer,
        ))

    def _inner_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Disk, address and parity flag of every inner incidence: row ρ
        of each group, members in order.

        Members ``(ρ + j) mod g`` (j < m_i) hold parity at ``U_o + rank``;
        the others hold their ``(ρ - rank)``-th outer unit, where rank
        counts the earlier rows in which the member served parity.
        """
        g, u_o, m_i = self.g, self.outer_units_per_disk, self.m_inner
        rows = g * u_o // (g - m_i)
        group, row, member = np.ix_(range(self.design.v), range(rows), range(g))
        rank = sum((row + g - 1 - (member - j) % g) // g for j in range(m_i))
        parity = (member - row) % g < m_i
        shape = (self.design.v, rows, g)
        return tuple(np.broadcast_to(x, shape).ravel() for x in (
            group * g + member, np.where(parity, u_o + rank, row - rank), parity
        ))

    def _order_data_cells(self, cells: np.ndarray) -> np.ndarray:
        """Outer-stripe-major logical order: consecutive user units fill
        one outer stripe's data positions before moving to the next, so a
        sequential write of ``k - m_o`` units shares a single outer-parity
        update (measured in E14)."""
        outer = slice(0, self.stripe_ptr[self._n_outer_stripes])
        ordered = self.stripe_cell[outer][~self.is_parity[outer]]
        if not np.array_equal(np.sort(ordered), cells):
            raise LayoutError(
                "outer stripes do not cover the data cells exactly (bug)"
            )
        return ordered

    # -- queries --------------------------------------------------------------------

    def outer_stripes(self) -> Tuple[Stripe, ...]:
        """The level-0 (cross-group) stripes, in construction order."""
        return self.stripes[: self._n_outer_stripes]

    def inner_stripes(self) -> Tuple[Stripe, ...]:
        """The level-1 (within-group) rows, in construction order."""
        return self.stripes[self._n_outer_stripes :]

    def group_of_disk(self, disk: int) -> int:
        """The group a global disk id belongs to."""
        return self.grouping.locate(disk)[0]

    @property
    def design_tolerance(self) -> int:
        """Guaranteed failures survivable (lower bound): m_o + m_i + 1.

        One layer's parities repair casualties that the other layer cannot
        reach, plus one more failure absorbed by the λ=1 structure. The
        test suite verifies the bound by enumeration for every small
        instantiation; it is tight for the reference RAID5/RAID5 case
        (witnesses exist at 4 failures) while narrow-stripe generalized
        instantiations can exceed it.
        """
        return self.m_outer + self.m_inner + 1

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update(
            {
                "bibd": self.design.parameters,
                "group_size": self.g,
                "depth": self.depth,
                "skewed": self.skewed,
                "balanced": self.balanced,
                "outer_parities": self.m_outer,
                "inner_parities": self.m_inner,
                "design_tolerance": self.design_tolerance,
                "outer_units_per_disk": self.outer_units_per_disk,
                "inner_units_per_disk": self.inner_units_per_disk,
            }
        )
        return info

    @property
    def analytic_efficiency(self) -> float:
        """Closed form ((k-m_o)/k) * ((g-m_i)/g); matches measurement."""
        k = self.design.k
        return (k - self.m_outer) / k * (self.g - self.m_inner) / self.g


@lru_cache(maxsize=64)
def _oi_raid_cached(
    v: int,
    k: int,
    group_size: int,
    depth: Optional[int],
    skewed: bool,
    outer_parities: int,
    inner_parities: int,
) -> OIRAIDLayout:
    design = find_bibd(v, k, lam=1)
    return OIRAIDLayout(
        design,
        group_size,
        depth=depth,
        skewed=skewed,
        outer_parities=outer_parities,
        inner_parities=inner_parities,
    )


def oi_raid(
    v: int,
    k: int,
    group_size: Optional[int] = None,
    depth: Optional[int] = None,
    skewed: bool = True,
    outer_parities: int = 1,
    inner_parities: int = 1,
) -> OIRAIDLayout:
    """Convenience constructor: build the BIBD and the layout in one call.

    ``oi_raid(7, 3)`` is the paper-scale Fano-plane array: 7 groups of 3
    disks (21 disks) tolerating any 3 failures. Raising ``outer_parities``
    / ``inner_parities`` generalizes beyond RAID5-in-both-layers (the
    paper's "as an example" instantiation) at the cost of capacity.

    Construction is memoized per parameter tuple (layouts are immutable
    after ``_finalize``), so experiments that rebuild the same reference
    configuration — and the CLI, which constructs one layout per
    invocation — hit an LRU cache instead of re-deriving the BIBD and
    re-validating the geometry.
    """
    if group_size is None:
        group_size = k if is_prime(k) else next_prime(k)
    return _oi_raid_cached(
        v,
        k,
        group_size,
        depth,
        skewed,
        outer_parities,
        inner_parities,
    )
