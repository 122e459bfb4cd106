"""The new competitors: RS, 3-replication, LRC, XORBAS, hierarchical RAID.

OI-RAID's published comparison stops at RAID5/RAID50. These registrations
put the schemes it is *structurally* closest to — locally repairable
codes, replication, flat MDS, and Thomasian-style hierarchical RAID with
a tunable inter/intra-node apportionment — behind the same
:class:`~repro.schemes.base.Scheme` protocol, so every experiment that
takes ``--scheme`` can sweep the whole design space.
"""

from __future__ import annotations

from repro.layouts.base import Layout
from repro.layouts.flat_mds import FlatMDSLayout
from repro.layouts.hierarchical import HierarchicalLayout
from repro.layouts.lrc import LrcLayout
from repro.layouts.mirror import MirrorLayout
from repro.layouts.xorbas import XorbasLayout
from repro.schemes.base import Geometry, Scheme, register_scheme


@register_scheme
class ReedSolomonScheme(Scheme):
    """Flat (n, k) Reed-Solomon MDS code over the whole array."""

    name = "rs"
    summary = "flat (n, k) Reed-Solomon MDS code, rotated rows"
    params = {"parities": 3}

    def build_layout(self, geometry: Geometry, **params: object) -> Layout:
        """``geometry.n_disks`` disks, ``parities`` of them redundant."""
        return FlatMDSLayout(geometry.n_disks, parities=params["parities"])


@register_scheme
class Rep3Scheme(Scheme):
    """3-replication: the HDFS/GFS default the erasure codes displaced."""

    name = "rep3"
    summary = "3-way replication (rotated copy triples)"
    params: dict = {}

    def build_layout(self, geometry: Geometry, **params: object) -> Layout:
        """Rotated 3-way mirror over ``geometry.n_disks`` disks."""
        return MirrorLayout(geometry.n_disks, copies=3)


@register_scheme
class LrcScheme(Scheme):
    """Azure-style LRC: local XOR groups plus global RS parities."""

    name = "lrc"
    summary = "Azure-style LRC (local XOR groups + global RS parities)"
    params = {
        "local_data": 6,
        "local_groups": 2,
        "global_parities": 2,
    }

    def build_layout(self, geometry: Geometry, **params: object) -> Layout:
        """Rotated LRC rows on ``geometry.n_disks`` disks."""
        return LrcLayout(
            geometry.n_disks,
            local_data=params["local_data"],
            local_groups=params["local_groups"],
            global_parities=params["global_parities"],
        )


@register_scheme
class XorbasScheme(Scheme):
    """HDFS-XORBAS: LRC whose RS parities have a local parity too."""

    name = "xorbas"
    summary = "XORBAS LRC (local parity over the RS parities as well)"
    params = {
        "local_data": 5,
        "local_groups": 2,
        "global_parities": 4,
    }

    def build_layout(self, geometry: Geometry, **params: object) -> Layout:
        """Rotated XORBAS rows on ``geometry.n_disks`` disks."""
        return XorbasLayout(
            geometry.n_disks,
            local_data=params["local_data"],
            local_groups=params["local_groups"],
            global_parities=params["global_parities"],
        )


@register_scheme
class HierarchicalScheme(Scheme):
    """Hierarchical RAID with the inter/intra apportionment knob."""

    name = "hierarchical"
    summary = "two-level RAID, tunable inter-/intra-node parity split"
    params = {
        "inter_parities": 1,
        "intra_parities": 1,
    }

    def build_layout(self, geometry: Geometry, **params: object) -> Layout:
        """``geometry.groups`` nodes of ``geometry.width`` disks each."""
        return HierarchicalLayout(
            geometry.groups,
            geometry.width,
            inter_parities=params["inter_parities"],
            intra_parities=params["intra_parities"],
        )
