"""Registered retrofits of the schemes the repo already simulated.

These wrap the pre-registry constructors — :func:`repro.core.oi_layout.
oi_raid` and the flat ``layouts/`` baselines — behind the
:class:`~repro.schemes.base.Scheme` protocol so there is exactly one code
path: the CLI, ``Scenario``, benchmarks, and tests all build these
layouts through the registry now.
"""

from __future__ import annotations

from repro.core.oi_layout import oi_raid
from repro.layouts.base import Layout
from repro.layouts.mirror import MirrorLayout
from repro.layouts.raid5 import Raid5Layout
from repro.layouts.raid6 import Raid6Layout
from repro.layouts.raid50 import Raid50Layout
from repro.schemes.base import Geometry, Scheme, register_scheme


@register_scheme
class OiRaidScheme(Scheme):
    """OI-RAID: BIBD outer layer over RAID5 groups (the paper's scheme)."""

    name = "oi"
    summary = "OI-RAID two-layer BIBD + intra-group parity (the paper)"
    params = {
        "outer_parities": 1,
        "inner_parities": 1,
        "skewed": True,
    }

    def build_layout(self, geometry: Geometry, **params: object) -> Layout:
        """Build via :func:`~repro.core.oi_layout.oi_raid` (cached)."""
        return oi_raid(
            geometry.groups,
            geometry.stripe_width,
            group_size=geometry.group_size,
            skewed=params["skewed"],
            outer_parities=params["outer_parities"],
            inner_parities=params["inner_parities"],
        )


@register_scheme
class Raid5Scheme(Scheme):
    """Flat RAID5: one rotated parity across the whole array."""

    name = "raid5"
    summary = "flat rotated single parity over all disks"
    params: dict = {}

    def build_layout(self, geometry: Geometry, **params: object) -> Layout:
        """One RAID5 stripe set spanning ``geometry.n_disks`` disks."""
        return Raid5Layout(geometry.n_disks)


@register_scheme
class Raid6Scheme(Scheme):
    """Flat RAID6: two rotated parities across the whole array."""

    name = "raid6"
    summary = "flat rotated double parity over all disks"
    params: dict = {}

    def build_layout(self, geometry: Geometry, **params: object) -> Layout:
        """One RAID6 stripe set spanning ``geometry.n_disks`` disks."""
        return Raid6Layout(geometry.n_disks)


@register_scheme
class Raid50Scheme(Scheme):
    """RAID50: independent RAID5 groups, no cross-group redundancy."""

    name = "raid50"
    summary = "independent RAID5 groups (striped, single parity each)"
    params: dict = {}

    def build_layout(self, geometry: Geometry, **params: object) -> Layout:
        """``geometry.groups`` RAID5 arrays of ``geometry.width`` disks."""
        return Raid50Layout(geometry.groups, geometry.width)


@register_scheme
class MirrorScheme(Scheme):
    """Two-way mirroring (RAID1-style copy pairs, rotated)."""

    name = "mirror"
    summary = "2-way replication (rotated copy pairs)"
    params = {"copies": 2}

    def build_layout(self, geometry: Geometry, **params: object) -> Layout:
        """Rotated ``copies``-way mirror over ``geometry.n_disks`` disks."""
        return MirrorLayout(geometry.n_disks, copies=params["copies"])
