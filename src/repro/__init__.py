"""OI-RAID: a two-layer RAID architecture for fast recovery and high
reliability — a full reproduction of Wang, Xu, Li & Wu (DSN 2016).

Quickstart::

    from repro import OIRAIDArray, recovery_summary

    array = OIRAIDArray.build(7, 3)        # Fano plane: 21 disks, 7 groups
    array.write(0, b"hello oi-raid")
    array.fail_disk(4)
    assert bytes(array.read(0, 13)) == b"hello oi-raid"   # degraded read
    array.reconstruct()                     # parallel rebuild
    print(recovery_summary(array.layout, [4]).speedup_vs_raid5)

Package map — see DESIGN.md for the full inventory:

* :mod:`repro.design` — BIBD constructions (the outer layer's combinatorics)
* :mod:`repro.codes` — GF(256), RAID5/RAID6/Reed-Solomon codecs
* :mod:`repro.disks` — simulated devices and fault injection
* :mod:`repro.layouts` — the layout interface + all baseline layouts
* :mod:`repro.schemes` — the redundancy-scheme registry (``--scheme``)
* :mod:`repro.core` — OI-RAID itself (layout, recovery, data path)
* :mod:`repro.sim` — rebuild timing and reliability simulation
* :mod:`repro.serve` — online serving under rebuild contention
* :mod:`repro.scenario` — the unified ``Scenario``/``run()`` front door
* :mod:`repro.results` — the common result protocol (``to_dict`` /
  ``from_dict`` / ``summary``)
* :mod:`repro.analysis` — closed-form models
* :mod:`repro.workloads` — request generators and traces
* :mod:`repro.bench` — the experiment harness behind ``benchmarks/``

Every simulation is also reachable declaratively — name the array
directly, or pick any registered redundancy scheme by name::

    from repro import Scenario, run, oi_raid

    result = run(Scenario(kind="serve", layout=oi_raid(7, 3), faults=(0,)))
    result = run(Scenario(kind="lifecycle", scheme="lrc", trials=200))
    print(result.summary())
"""

from repro.core import (
    DistributedSpareArray,
    LayoutArray,
    OIRAIDArray,
    OIRAIDLayout,
    guaranteed_tolerance,
    measure_update_cost,
    oi_raid,
    recovery_summary,
    scrub,
    survivable_fraction,
)
from repro.design import BIBD, find_bibd
from repro.errors import (
    DataLossError,
    DecodeError,
    DesignError,
    ReproError,
)
from repro.layouts import (
    FlatMDSLayout,
    HierarchicalLayout,
    LrcLayout,
    MirrorLayout,
    ParityDeclusteringLayout,
    Raid5Layout,
    Raid6Layout,
    Raid50Layout,
    XorbasLayout,
    is_recoverable,
    plan_recovery,
)
from repro.results import result_from_dict
from repro.scenario import SCENARIO_KINDS, Scenario, run
from repro.schemes import (
    SCHEME_REGISTRY,
    Geometry,
    RepairCost,
    Scheme,
    build_scheme_layout,
    register_scheme,
    scheme,
    scheme_names,
)
from repro.serve import (
    AdaptiveThrottle,
    FixedRateThrottle,
    IdleSlotThrottle,
    ServeResult,
    simulate_serve,
)
from repro.sim import (
    DiskModel,
    FleetResult,
    analytic_rebuild_time,
    simulate_fleet,
    simulate_rebuild,
)
from repro.workloads import ClosedLoop, OpenLoop, WorkloadSpec

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "OIRAIDLayout",
    "oi_raid",
    "OIRAIDArray",
    "LayoutArray",
    "DistributedSpareArray",
    "recovery_summary",
    "guaranteed_tolerance",
    "survivable_fraction",
    "measure_update_cost",
    "scrub",
    # designs
    "BIBD",
    "find_bibd",
    # layouts
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
    "is_recoverable",
    # schemes
    "Scheme",
    "SCHEME_REGISTRY",
    "Geometry",
    "RepairCost",
    "register_scheme",
    "scheme",
    "scheme_names",
    "build_scheme_layout",
    # simulation
    "DiskModel",
    "analytic_rebuild_time",
    "simulate_rebuild",
    "FleetResult",
    "simulate_fleet",
    # scenarios + results
    "Scenario",
    "run",
    "SCENARIO_KINDS",
    "result_from_dict",
    # serving
    "ServeResult",
    "simulate_serve",
    "FixedRateThrottle",
    "IdleSlotThrottle",
    "AdaptiveThrottle",
    "WorkloadSpec",
    "OpenLoop",
    "ClosedLoop",
    # errors
    "ReproError",
    "DesignError",
    "DecodeError",
    "DataLossError",
]
