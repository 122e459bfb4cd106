"""Data layouts: the mapping from erasure-coded stripes to physical disks.

A :class:`~repro.layouts.base.Layout` describes one *cycle* of placement —
which stripes exist, which disk cells they occupy, and which cells are
parity. Everything downstream (the data-path array, the recovery planner,
the rebuild simulator, the fault-tolerance checker) is generic over this
interface; OI-RAID (:mod:`repro.core`) and all baselines implement it.
"""

from repro.layouts.base import Cell, Layout, Stripe, Unit
from repro.layouts.flat_mds import FlatMDSLayout
from repro.layouts.hierarchical import HierarchicalLayout
from repro.layouts.lrc import LrcLayout
from repro.layouts.mirror import MirrorLayout
from repro.layouts.parity_declustering import ParityDeclusteringLayout
from repro.layouts.raid5 import Raid5Layout
from repro.layouts.raid6 import Raid6Layout
from repro.layouts.raid50 import Raid50Layout
from repro.layouts.xorbas import XorbasLayout
from repro.layouts.recovery import (
    RecoveryPlan,
    RepairStep,
    is_recoverable,
    plan_many,
    plan_recovery,
    recoverable_many,
)

__all__ = [
    "Layout",
    "Stripe",
    "Unit",
    "Cell",
    "Raid5Layout",
    "Raid6Layout",
    "Raid50Layout",
    "ParityDeclusteringLayout",
    "MirrorLayout",
    "FlatMDSLayout",
    "LrcLayout",
    "XorbasLayout",
    "HierarchicalLayout",
    "plan_recovery",
    "plan_many",
    "is_recoverable",
    "recoverable_many",
    "RecoveryPlan",
    "RepairStep",
]
